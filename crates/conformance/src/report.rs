//! Campaign report rendering: deterministic JSON and a human table.
//!
//! The JSON report is a pure function of the campaign configuration and
//! the checkers' semantics: it contains no timestamps, timings, or cache
//! hit/computed counters, so running the same campaign twice — cold and
//! then warm over a populated verdict store — produces byte-identical
//! bytes. CI relies on this with a plain `cmp`. Observability numbers
//! (hits, computed, candidates enumerated) belong on stderr; see
//! [`observability_lines`].
//!
//! Both campaigns render through the sections here. The cycle
//! campaign's [`json_report`] and [`human_table`] and the algorithm
//! campaign's [`crate::algo_json_report`] and [`crate::algo_human_table`]
//! each list their own fields, in their own order, around the shared
//! model, oracle, discrepancy and counter sections and the human
//! tables' shared tail; [`observability_lines`] serves both.

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::oracle::Recheck;
use lkmm_service::json::Json;
use std::fmt::Write as _;

/// Render the deterministic JSON report.
pub fn json_report(report: &CampaignReport, cfg: &CampaignConfig) -> Json {
    let mut fields = vec![
        ("op", Json::str("conformance")),
        (
            "config",
            Json::obj(vec![
                ("max_cycle_len", Json::num(cfg.max_cycle_len as u64)),
                ("contended", Json::Bool(cfg.contended)),
                ("library", Json::Bool(cfg.include_library)),
                ("salt", Json::str(&cfg.salt)),
                ("sim_iterations", Json::num(cfg.sim.iterations)),
                ("sim_seed", Json::num(cfg.sim.seed)),
                ("sim_stride", Json::num(cfg.sim.stride as u64)),
                ("shrink", Json::Bool(cfg.shrink)),
            ]),
        ),
        (
            "corpus",
            Json::obj(vec![
                ("library", Json::num(report.corpus_library as u64)),
                ("generated", Json::num(report.corpus_generated as u64)),
                ("total", Json::num(report.corpus_total() as u64)),
            ]),
        ),
        ("models", models_json(report)),
        ("oracles", oracles_json(report)),
        ("discrepancies", discrepancies_json(report)),
        ("failed_units", failed_units_json(report)),
        ("partial", Json::Bool(report.degraded())),
        ("clean", Json::Bool(report.clean())),
    ];
    counters_json(&mut fields, report);
    Json::obj(fields)
}

/// Per-column verdict counts.
pub(crate) fn models_json(report: &CampaignReport) -> Json {
    Json::Arr(
        report
            .models
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("model", Json::str(m.id.column())),
                    ("checked", Json::num(m.pass.checked as u64)),
                    ("allowed", Json::num(m.pass.allowed as u64)),
                    ("forbidden", Json::num(m.pass.forbidden as u64)),
                    ("inconclusive", Json::num(m.pass.inconclusive as u64)),
                    ("skipped", Json::num(m.pass.skipped as u64)),
                ])
            })
            .collect(),
    )
}

/// Per-oracle outcome counts.
pub(crate) fn oracles_json(report: &CampaignReport) -> Json {
    Json::Arr(
        report
            .oracles
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("oracle", Json::str(o.kind.name())),
                    ("checked", Json::num(o.summary.checked as u64)),
                    ("violations", Json::num(o.summary.violations as u64)),
                    ("skipped", Json::num(o.summary.skipped as u64)),
                ])
            })
            .collect(),
    )
}

/// Every discrepancy, with its re-check, canonical witness and, when
/// shrunk, its minimal witness.
pub(crate) fn discrepancies_json(report: &CampaignReport) -> Json {
    Json::Arr(
        report
            .discrepancies
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("test", Json::str(&d.test_name)),
                    ("oracle", Json::str(d.oracle.name())),
                    ("detail", Json::str(&d.detail)),
                    ("check", recheck_json(&d.check)),
                    ("witness", Json::str(lkmm_service::canonical_text(&d.test))),
                ];
                if let Some(s) = &d.shrunk {
                    fields.push((
                        "shrunk",
                        Json::obj(vec![
                            ("litmus", Json::str(&s.litmus)),
                            ("size", Json::num(s.size as u64)),
                            ("attempts", Json::num(s.attempts as u64)),
                            ("accepted", Json::num(s.accepted as u64)),
                        ]),
                    ));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Quarantined units as the reports list them.
pub(crate) fn failed_units_json(report: &CampaignReport) -> Json {
    Json::Arr(
        report
            .failed_units
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("index", Json::num(f.index as u64)),
                    ("test", Json::str(&f.test)),
                    ("kind", Json::str(f.kind.name())),
                    ("attempts", Json::num(u64::from(f.attempts))),
                    ("detail", Json::str(&f.detail)),
                ])
            })
            .collect(),
    )
}

/// Append the opt-in `enumeration` and `data_plane` sections, each
/// present only when its counters were asked for. Absent by default so
/// default reports stay byte-identical across cold and warm runs;
/// opting into counters (`--enum-stats`) opts out of that guarantee — a
/// warm store enumerates and acquires nothing and reports zeros.
pub(crate) fn counters_json(fields: &mut Vec<(&'static str, Json)>, report: &CampaignReport) {
    if let Some(e) = &report.enumeration {
        fields.push((
            "enumeration",
            Json::obj(vec![
                ("rf_prefixes_pruned", Json::num(e.rf_prefixes_pruned)),
                ("co_pairs_saturated", Json::num(e.co_pairs_saturated)),
                ("co_pairs_branched", Json::num(e.co_pairs_branched)),
                ("co_leaves_tested", Json::num(e.co_leaves_tested)),
                ("candidates_emitted", Json::num(e.candidates_emitted)),
            ]),
        ));
    }
    if let Some(d) = &report.data_plane {
        fields.push((
            "data_plane",
            Json::obj(vec![
                ("arena_acquires", Json::num(d.arena_acquires)),
                ("arena_reuses", Json::num(d.arena_reuses)),
            ]),
        ));
    }
}

/// The data-plane stderr observability line, shared by both campaigns
/// and `herd-rs --enum-stats`. A fully warm store acquires nothing:
/// all-zero counters are the cache working as intended.
pub fn data_plane_line(d: &lkmm_exec::DataPlaneSnapshot) -> String {
    format!("data-plane: {} arena acquires ({} reused)", d.arena_acquires, d.arena_reuses)
}

/// The enumerator's pruning-counter stderr line, shared by both
/// campaigns and `herd-rs --enum-stats`.
pub fn enumeration_line(e: &lkmm_exec::EnumSnapshot) -> String {
    format!(
        "enumeration: {} rf prefixes pruned, {} co pairs saturated, {} branched, \
         {} leaves tested, {} candidates emitted",
        e.rf_prefixes_pruned,
        e.co_pairs_saturated,
        e.co_pairs_branched,
        e.co_leaves_tested,
        e.candidates_emitted
    )
}

fn recheck_json(check: &Recheck) -> Json {
    match check {
        Recheck::ResultAgreement { left, right } => Json::obj(vec![
            ("kind", Json::str("result-agreement")),
            ("left", Json::str(left.column())),
            ("right", Json::str(right.column())),
        ]),
        Recheck::Envelope { sub, envelope } => Json::obj(vec![
            ("kind", Json::str("envelope")),
            ("sub", Json::str(sub.column())),
            ("envelope", Json::str(envelope.column())),
        ]),
        Recheck::C11Expectation { expect } => Json::obj(vec![
            ("kind", Json::str("c11-expectation")),
            ("expect", Json::str(format!("{expect:?}"))),
        ]),
        Recheck::C11Unlicensed => Json::obj(vec![("kind", Json::str("c11-unlicensed"))]),
        Recheck::SimObservation { arch, iterations, seed } => Json::obj(vec![
            ("kind", Json::str("sim-observation")),
            ("arch", Json::str(arch.name())),
            ("iterations", Json::num(*iterations)),
            ("seed", Json::num(*seed)),
        ]),
        Recheck::FamilyExpectation { expect, .. } => Json::obj(vec![
            ("kind", Json::str("family-expectation")),
            ("expect", Json::str(format!("{expect:?}"))),
        ]),
        Recheck::HostObservation { iterations } => Json::obj(vec![
            ("kind", Json::str("host-observation")),
            ("iterations", Json::num(*iterations)),
        ]),
        Recheck::InterleaveDivergence { machine, max_states } => Json::obj(vec![
            ("kind", Json::str("interleave-divergence")),
            ("machine_threads", Json::num(machine.threads.len() as u64)),
            ("max_states", Json::num(*max_states as u64)),
        ]),
    }
}

/// Render the human-readable summary table.
pub fn human_table(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus: {} tests ({} library, {} generated)",
        report.corpus_total(),
        report.corpus_library,
        report.corpus_generated
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>10} {:>13} {:>8}",
        "model", "checked", "allowed", "forbidden", "inconclusive", "skipped"
    );
    for m in &report.models {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>10} {:>13} {:>8}",
            m.id.column(),
            m.pass.checked,
            m.pass.allowed,
            m.pass.forbidden,
            m.pass.inconclusive,
            m.pass.skipped
        );
    }
    let _ = writeln!(out);
    table_tail(&mut out, report);
    out
}

/// The end of both human tables: the oracle table, the PARTIAL block
/// when units were quarantined, and the discrepancies.
pub(crate) fn table_tail(out: &mut String, report: &CampaignReport) {
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>11} {:>8}",
        "oracle", "checked", "violations", "skipped"
    );
    for o in &report.oracles {
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>11} {:>8}",
            o.kind.name(),
            o.summary.checked,
            o.summary.violations,
            o.summary.skipped
        );
    }
    let _ = writeln!(out);
    if report.degraded() {
        let units = &report.failed_units;
        let _ = writeln!(out, "PARTIAL: {} unit(s) quarantined after exhausting retries:", units.len());
        for f in units {
            let _ = writeln!(
                out,
                "  #{} {} [{}] after {} attempts: {}",
                f.index,
                f.test,
                f.kind.name(),
                f.attempts,
                f.detail
            );
        }
        let _ = writeln!(out);
    }
    if report.clean() {
        let _ = writeln!(out, "no discrepancies");
    } else {
        let _ = writeln!(out, "{} DISCREPANCIES:", report.discrepancies.len());
        for d in &report.discrepancies {
            let _ = writeln!(out);
            let _ = writeln!(out, "[{}] {}: {}", d.oracle.name(), d.test_name, d.detail);
            if let Some(s) = &d.shrunk {
                let _ = writeln!(
                    out,
                    "minimal witness (size {}, {} of {} reductions accepted):",
                    s.size, s.accepted, s.attempts
                );
                for line in s.litmus.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
    }
}

/// Observability lines for stderr: everything deliberately excluded
/// from the deterministic report — checkpoint activity, one line per
/// model column, then the opt-in enumeration and data-plane counters.
pub fn observability_lines(report: &CampaignReport) -> String {
    let mut out = String::new();
    if let Some(cursor) = report.resumed_at {
        let _ = writeln!(out, "resumed from checkpoint at unit {cursor}");
    }
    if report.checkpoints_written > 0 {
        let _ = writeln!(out, "{} checkpoint frame(s) written", report.checkpoints_written);
    }
    for m in &report.models {
        let _ = writeln!(
            out,
            "{}: {} cached, {} computed, {} deduped, {} candidates enumerated",
            m.id.column(),
            m.pass.hits,
            m.pass.computed,
            m.pass.deduped,
            m.pass.candidates_enumerated
        );
    }
    if let Some(e) = &report.enumeration {
        let _ = writeln!(out, "{}", enumeration_line(e));
    }
    if let Some(d) = &report.data_plane {
        let _ = writeln!(out, "{}", data_plane_line(d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, SimConfig};

    fn quick() -> CampaignConfig {
        CampaignConfig {
            max_cycle_len: 0,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn json_report_is_deterministic_and_parses() {
        let cfg = quick();
        let a = json_report(&run_campaign(&cfg).unwrap(), &cfg).to_string();
        let b = json_report(&run_campaign(&cfg).unwrap(), &cfg).to_string();
        assert_eq!(a, b);
        let v = Json::parse(&a).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("conformance"));
        assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("discrepancies").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        let models = v.get("models").and_then(Json::as_arr).unwrap();
        assert_eq!(models.len(), crate::matrix::ModelId::ALL.len());
    }

    #[test]
    fn enumeration_counters_are_absent_by_default_and_gated_in() {
        // Default reports carry no counters (cold/warm `cmp` relies on
        // that); opting in adds the section and the stderr line.
        let cfg = quick();
        let report = run_campaign(&cfg).unwrap();
        assert!(report.enumeration.is_none());
        let plain = json_report(&report, &cfg).to_string();
        assert!(!plain.contains("enumeration"), "counters leaked into default JSON");
        assert!(!observability_lines(&report).contains("enumeration:"));

        let stats = std::sync::Arc::new(lkmm_exec::Stats::default());
        let cfg2 = CampaignConfig { stats: Some(std::sync::Arc::clone(&stats)), ..quick() };
        let report2 = run_campaign(&cfg2).unwrap();
        let snap = report2.enumeration.expect("opted-in campaign records a snapshot");
        assert!(snap.candidates_emitted > 0, "cold matrix pass enumerates candidates");
        let v = Json::parse(&json_report(&report2, &cfg2).to_string()).unwrap();
        let e = v.get("enumeration").expect("opted-in JSON carries the section");
        assert_eq!(e.get("candidates_emitted").and_then(Json::as_u64), Some(snap.candidates_emitted));
        assert!(observability_lines(&report2).contains("enumeration:"));
    }

    #[test]
    fn data_plane_counters_are_absent_by_default_gated_in_and_job_invariant() {
        // Same contract as the enumeration counters: default reports
        // carry nothing (cold/warm `cmp` relies on that), opting in
        // adds the JSON section and the stderr line.
        let cfg = quick();
        let report = run_campaign(&cfg).unwrap();
        assert!(report.data_plane.is_none());
        let plain = json_report(&report, &cfg).to_string();
        assert!(!plain.contains("data_plane"), "counters leaked into default JSON");
        assert!(!observability_lines(&report).contains("data-plane:"));

        let campaign_at = |jobs: usize| {
            let stats = std::sync::Arc::new(lkmm_exec::Stats::default());
            let cfg = CampaignConfig { jobs, stats: Some(stats), ..quick() };
            let report = run_campaign(&cfg).unwrap();
            (report, cfg)
        };
        let (seq, seq_cfg) = campaign_at(1);
        let snap = seq.data_plane.expect("opted-in campaign records a snapshot");
        assert!(snap.arena_acquires > 0, "checkers draw relations from arenas");
        let v = Json::parse(&json_report(&seq, &seq_cfg).to_string()).unwrap();
        let d = v.get("data_plane").expect("opted-in JSON carries the section");
        assert_eq!(d.get("arena_acquires").and_then(Json::as_u64), Some(snap.arena_acquires));
        assert_eq!(d.get("arena_reuses").and_then(Json::as_u64), Some(snap.arena_reuses));
        assert!(observability_lines(&seq).contains("data-plane:"));

        // Campaign units check inline, each from a fresh arena, so a
        // complete campaign reports the same counters at any job count.
        for jobs in [2, 8] {
            let (par, _) = campaign_at(jobs);
            assert_eq!(par.data_plane, Some(snap), "jobs={jobs}");
        }
    }

    #[test]
    fn human_table_mentions_every_column_and_oracle() {
        let cfg = quick();
        let table = human_table(&run_campaign(&cfg).unwrap());
        for col in ["lkmm", "lkmm-cat", "sc", "tso", "armv8", "power", "c11"] {
            assert!(table.contains(col), "missing column {col} in:\n{table}");
        }
        for oracle in ["native-cat-agreement", "envelope-ordering", "sim-soundness", "c11-divergence"]
        {
            assert!(table.contains(oracle), "missing oracle {oracle} in:\n{table}");
        }
        assert!(table.contains("no discrepancies"));
    }
}
