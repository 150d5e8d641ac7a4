//! The algorithm-family campaign: real-algorithm litmus families
//! checked through every layer of the stack.
//!
//! One run expands the selected [`FamilyId`]s at a configured size into
//! their program variants, pushes every program through the same
//! single-enumeration verdict matrix as the cycle campaign (all seven
//! axiomatic columns, incrementally through the verdict store), and
//! then holds each program to the oracles its shape supports:
//!
//! * the four matrix oracles of [`crate::oracle`] (native≡cat,
//!   envelope, C11 whitelist) plus **family safety** — the LKMM verdict
//!   must equal the family's declared expectation;
//! * **sim soundness** — runnable (straight-line) programs execute on
//!   the operational hardware simulators; observing an LKMM-forbidden
//!   outcome is a violation;
//! * **host soundness** — the same runnable programs execute on real
//!   hardware threads via the klitmus host runner;
//! * **interleave agreement** — programs carrying a step machine are
//!   exhaustively interleaved ([`interleave::explore`]) and the
//!   reachability of the bad state must match the axiomatic
//!   SC+atomicity verdict ([`lkmm_algorithms::ScAtomic`]).
//!
//! Like the cycle campaign, the resulting [`AlgoReport`] is a
//! deterministic function of the [`AlgoConfig`]: host runs are real
//! nondeterministic executions, but only the *violation count* they
//! produce enters the report (zero for a sound model), and every other
//! number is replayed from the store or recomputed identically, so a
//! cold and a warm run render byte-identical JSON.

use crate::matrix::{
    build_matrix, uses_srcu, CorpusEntry, MatrixOptions, ModelId, ModelSet, Origin,
};
use crate::campaign::{sim_seed, CampaignError, ModelStats, OracleStats, SimConfig};
use crate::oracle::{check_row, Discrepancy, OracleKind, OracleSummary, Recheck};
use crate::shrink::shrink_discrepancies;
use lkmm_algorithms::{AlgoProgram, FamilyId, FamilyParams, ScAtomic};
use lkmm_algorithms::interleave;
use lkmm_core::budget::Budget;
use lkmm_exec::{check, CheckOutcome, EnumOptions, PipelineOptions, Verdict};
use lkmm_service::canonical_text;
use lkmm_service::json::Json;
use lkmm_sim::{run_test, Arch, RunConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Everything one algorithm campaign depends on.
#[derive(Clone, Debug)]
pub struct AlgoConfig {
    /// Families to expand; empty means every family.
    pub families: Vec<FamilyId>,
    /// Expansion size (threads / sections / retry depth).
    pub params: FamilyParams,
    /// Cache version salt (each model column adds its own component).
    pub salt: String,
    /// Worker threads per check (0 = all hardware threads): a check big
    /// enough to split spreads its pre-executions over this many.
    pub jobs: usize,
    /// Per-check budget; trips surface as inconclusive cells.
    pub budget: Budget,
    /// Persistent verdict store; `None` runs in memory.
    pub store_path: Option<PathBuf>,
    /// Simulator soundness pass over runnable programs.
    pub sim: SimConfig,
    /// klitmus host-runner iterations per runnable program; 0 disables
    /// the host-soundness pass.
    pub host_iterations: u64,
    /// Interleaving state cap (0 = unbounded); a truncated exploration
    /// skips the agreement check rather than risking a false verdict.
    pub interleave_max_states: usize,
    /// Minimize discrepancies with the shrinker.
    pub shrink: bool,
    /// Shared enumeration pruning counters for the matrix pass
    /// (observability only, exactly as in the cycle campaign).
    pub enum_stats: Option<std::sync::Arc<lkmm_exec::EnumStats>>,
    /// Shared data-plane counters (arena acquires and reuses) for the
    /// matrix pass (observability only, exactly as in the cycle
    /// campaign).
    pub data_plane: Option<std::sync::Arc<lkmm_exec::DataPlaneStats>>,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        AlgoConfig {
            families: Vec::new(),
            params: FamilyParams::default(),
            salt: String::new(),
            jobs: 0,
            budget: Budget::default(),
            store_path: None,
            sim: SimConfig::default(),
            host_iterations: 2_000,
            interleave_max_states: 1_000_000,
            shrink: true,
            enum_stats: None,
            data_plane: None,
        }
    }
}

/// One family's aggregate results — the per-family oracle columns.
#[derive(Clone, Copy, Debug)]
pub struct FamilyStats {
    pub family: FamilyId,
    /// Programs the family expanded into.
    pub programs: usize,
    /// Family-safety outcomes for this family's programs.
    pub safety: OracleSummary,
    /// Sim-soundness outcomes (runnable programs × architectures).
    pub sim: OracleSummary,
    /// Host-soundness outcomes (runnable programs).
    pub host: OracleSummary,
    /// Interleave-agreement outcomes (programs with a machine).
    pub interleave: OracleSummary,
}

/// Everything an algorithm campaign produces.
#[derive(Clone, Debug)]
pub struct AlgoReport {
    /// Expansion size the campaign ran at.
    pub params: FamilyParams,
    /// Per-family oracle columns, in [`FamilyId::ALL`] order (selected
    /// families only).
    pub families: Vec<FamilyStats>,
    /// Per-model counts, in [`ModelId::ALL`] order.
    pub models: Vec<ModelStats>,
    /// Per-oracle counts, in [`OracleKind::ALL`] order.
    pub oracles: Vec<OracleStats>,
    /// Every oracle violation (shrunk when configured).
    pub discrepancies: Vec<Discrepancy>,
    /// Enumeration pruning counters from the matrix pass; present only
    /// when [`AlgoConfig::enum_stats`] was set.
    pub enumeration: Option<lkmm_exec::EnumSnapshot>,
    /// Data-plane counters from the matrix pass; present only when
    /// [`AlgoConfig::data_plane`] was set.
    pub data_plane: Option<lkmm_exec::DataPlaneSnapshot>,
}

impl AlgoReport {
    /// Total programs across all families.
    pub fn programs(&self) -> usize {
        self.families.iter().map(|f| f.programs).sum()
    }

    /// Whether every oracle held everywhere.
    pub fn clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Run an algorithm campaign with the standard reference checkers.
///
/// # Errors
///
/// [`CampaignError::Generate`] on degenerate family parameters,
/// [`CampaignError::Store`] on verdict-store I/O.
pub fn run_algo_campaign(cfg: &AlgoConfig) -> Result<AlgoReport, CampaignError> {
    run_algo_campaign_with(cfg, &ModelSet::standard())
}

/// Run an algorithm campaign against an explicit [`ModelSet`] (mutant
/// injection for tests).
///
/// # Errors
///
/// See [`run_algo_campaign`].
pub fn run_algo_campaign_with(
    cfg: &AlgoConfig,
    set: &ModelSet,
) -> Result<AlgoReport, CampaignError> {
    let families: Vec<FamilyId> = if cfg.families.is_empty() {
        FamilyId::ALL.to_vec()
    } else {
        let mut fs: Vec<FamilyId> = FamilyId::ALL
            .iter()
            .copied()
            .filter(|f| cfg.families.contains(f))
            .collect();
        fs.dedup();
        fs
    };

    // Expand: one flat program list, family boundaries remembered.
    let mut programs: Vec<AlgoProgram> = Vec::new();
    let mut spans: Vec<(FamilyId, usize, usize)> = Vec::new();
    for &family in &families {
        let start = programs.len();
        programs.extend(lkmm_algorithms::programs(family, &cfg.params)?);
        spans.push((family, start, programs.len()));
    }

    let corpus: Vec<CorpusEntry> = programs
        .iter()
        .map(|p| CorpusEntry {
            test: p.test.clone(),
            origin: Origin::Algorithm {
                family: p.family.name(),
                invariant: p.family.invariant(),
                expect: p.expect,
            },
        })
        .collect();

    let matrix_opts = MatrixOptions {
        salt: &cfg.salt,
        jobs: cfg.jobs,
        budget: cfg.budget.clone(),
        store_path: cfg.store_path.as_deref(),
        enum_stats: cfg.enum_stats.clone(),
        data_plane: cfg.data_plane.clone(),
    };
    let (matrix, passes) = build_matrix(&corpus, set, &matrix_opts)?;
    let enumeration = cfg.enum_stats.as_ref().map(|s| s.snapshot());
    let data_plane = cfg.data_plane.as_ref().map(|s| s.snapshot());

    let mut discrepancies = Vec::new();
    let mut summaries = [OracleSummary::default(); OracleKind::ALL.len()];
    // Per-family slices of the per-oracle summaries.
    let mut family_stats: Vec<FamilyStats> = spans
        .iter()
        .map(|&(family, start, end)| FamilyStats {
            family,
            programs: end - start,
            safety: OracleSummary::default(),
            sim: OracleSummary::default(),
            host: OracleSummary::default(),
            interleave: OracleSummary::default(),
        })
        .collect();
    let family_of = |index: usize| -> usize {
        spans
            .iter()
            .position(|&(_, start, end)| index >= start && index < end)
            .expect("every program index lies in a span")
    };

    // Matrix oracles (incl. family safety, which check_row evaluates on
    // algorithm rows).
    for (i, row) in matrix.rows.iter().enumerate() {
        let before = summaries[OracleKind::FamilySafety.index()];
        check_row(row, &mut discrepancies, &mut summaries);
        let after = summaries[OracleKind::FamilySafety.index()];
        let fs = &mut family_stats[family_of(i)].safety;
        fs.checked += after.checked - before.checked;
        fs.violations += after.violations - before.violations;
        fs.skipped += after.skipped - before.skipped;
    }

    let lkmm_forbidden = |row: &crate::matrix::MatrixRow| {
        matches!(
            row.cell(ModelId::LkmmNative).and_then(CheckOutcome::result),
            Some(r) if r.verdict == Verdict::Forbidden
        )
    };

    // Sim soundness over runnable programs: the operational simulators
    // must never observe an outcome the LKMM forbids.
    if cfg.sim.iterations > 0 {
        for (i, (row, prog)) in matrix.rows.iter().zip(&programs).enumerate() {
            let fi = family_of(i);
            if !prog.runnable || uses_srcu(&row.test) {
                continue;
            }
            if !lkmm_forbidden(row) {
                continue;
            }
            let seed = sim_seed(cfg.sim.seed, i);
            for arch in Arch::ALL {
                let config = RunConfig { iterations: cfg.sim.iterations, seed };
                match run_test(&row.test, arch, &config) {
                    Err(_) => {
                        summaries[OracleKind::SimSoundness.index()].skipped += 1;
                        family_stats[fi].sim.skipped += 1;
                    }
                    Ok(stats) => {
                        summaries[OracleKind::SimSoundness.index()].checked += 1;
                        family_stats[fi].sim.checked += 1;
                        if stats.observed > 0 {
                            summaries[OracleKind::SimSoundness.index()].violations += 1;
                            family_stats[fi].sim.violations += 1;
                            discrepancies.push(Discrepancy {
                                test_name: row.test.name.clone(),
                                oracle: OracleKind::SimSoundness,
                                detail: format!(
                                    "{} observed an LKMM-forbidden outcome {} times in {} runs (seed {seed})",
                                    arch.name(),
                                    stats.observed,
                                    stats.total
                                ),
                                check: Recheck::SimObservation {
                                    arch,
                                    iterations: cfg.sim.iterations,
                                    seed,
                                },
                                test: row.test.clone(),
                                shrunk: None,
                            });
                        }
                    }
                }
            }
        }
    }

    // Host soundness: the same runnable programs on real threads.
    if cfg.host_iterations > 0 {
        for (i, (row, prog)) in matrix.rows.iter().zip(&programs).enumerate() {
            let fi = family_of(i);
            if !prog.runnable {
                continue;
            }
            if !lkmm_forbidden(row) {
                continue;
            }
            let config = lkmm_klitmus::HostConfig { iterations: cfg.host_iterations };
            match lkmm_klitmus::run_on_host(&row.test, &config) {
                Err(_) => {
                    summaries[OracleKind::HostSoundness.index()].skipped += 1;
                    family_stats[fi].host.skipped += 1;
                }
                Ok(stats) => {
                    summaries[OracleKind::HostSoundness.index()].checked += 1;
                    family_stats[fi].host.checked += 1;
                    if stats.observed > 0 {
                        summaries[OracleKind::HostSoundness.index()].violations += 1;
                        family_stats[fi].host.violations += 1;
                        discrepancies.push(Discrepancy {
                            test_name: row.test.name.clone(),
                            oracle: OracleKind::HostSoundness,
                            detail: format!(
                                "host threads observed an LKMM-forbidden outcome {} times in {} runs",
                                stats.observed, stats.total
                            ),
                            check: Recheck::HostObservation {
                                iterations: cfg.host_iterations,
                            },
                            test: row.test.clone(),
                            shrunk: None,
                        });
                    }
                }
            }
        }
    }

    // Interleave agreement: exhaustive SC interleaving of the step
    // machine vs the axiomatic SC+atomicity verdict.
    {
        let opts = EnumOptions { budget: cfg.budget.clone(), ..EnumOptions::default() };
        let pipe = PipelineOptions { jobs: cfg.jobs, ..PipelineOptions::default() };
        for (i, prog) in programs.iter().enumerate() {
            let fi = family_of(i);
            let Some(machine) = &prog.machine else { continue };
            let explored = interleave::explore(machine, cfg.interleave_max_states);
            if explored.truncated {
                summaries[OracleKind::InterleaveAgreement.index()].skipped += 1;
                family_stats[fi].interleave.skipped += 1;
                continue;
            }
            let axiomatic = match check(&[&ScAtomic], &prog.test, &opts, &pipe).into_first() {
                CheckOutcome::Complete(result) => result.verdict,
                CheckOutcome::Inconclusive { .. } => {
                    summaries[OracleKind::InterleaveAgreement.index()].skipped += 1;
                    family_stats[fi].interleave.skipped += 1;
                    continue;
                }
            };
            summaries[OracleKind::InterleaveAgreement.index()].checked += 1;
            family_stats[fi].interleave.checked += 1;
            if explored.bad_reachable != (axiomatic == Verdict::Allowed) {
                summaries[OracleKind::InterleaveAgreement.index()].violations += 1;
                family_stats[fi].interleave.violations += 1;
                discrepancies.push(Discrepancy {
                    test_name: prog.test.name.clone(),
                    oracle: OracleKind::InterleaveAgreement,
                    detail: format!(
                        "interleaving says the bad state is {} ({} states explored), SC+atomic says {}",
                        if explored.bad_reachable { "reachable" } else { "unreachable" },
                        explored.states,
                        axiomatic
                    ),
                    check: Recheck::InterleaveDivergence {
                        machine: machine.clone(),
                        max_states: cfg.interleave_max_states,
                    },
                    test: prog.test.clone(),
                    shrunk: None,
                });
            }
        }
    }

    // Shrink. Family-safety discrepancies re-check through one native
    // LKMM run, so the mutant-catching path minimizes to the smallest
    // program that still gets the wrong verdict.
    if cfg.shrink {
        shrink_discrepancies(&mut discrepancies, set, &cfg.budget, cfg.jobs);
    }

    Ok(AlgoReport {
        params: cfg.params,
        families: family_stats,
        models: ModelId::ALL
            .iter()
            .zip(passes)
            .map(|(&id, pass)| ModelStats { id, pass })
            .collect(),
        oracles: OracleKind::ALL
            .iter()
            .zip(summaries)
            .map(|(&kind, summary)| OracleStats { kind, summary })
            .collect(),
        discrepancies,
        enumeration,
        data_plane,
    })
}

/// Render the deterministic JSON report for an algorithm campaign.
pub fn algo_json_report(report: &AlgoReport, cfg: &AlgoConfig) -> Json {
    let families = report
        .families
        .iter()
        .map(|f| {
            let col = |s: &OracleSummary| {
                Json::obj(vec![
                    ("checked", Json::num(s.checked as u64)),
                    ("violations", Json::num(s.violations as u64)),
                    ("skipped", Json::num(s.skipped as u64)),
                ])
            };
            Json::obj(vec![
                ("family", Json::str(f.family.name())),
                ("invariant", Json::str(f.family.invariant())),
                ("programs", Json::num(f.programs as u64)),
                ("safety", col(&f.safety)),
                ("sim", col(&f.sim)),
                ("host", col(&f.host)),
                ("interleave", col(&f.interleave)),
            ])
        })
        .collect();

    let models = report
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
        .collect();

    let oracles = report
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
        .collect();

    let discrepancies = report
        .discrepancies
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("test", Json::str(&d.test_name)),
                ("oracle", Json::str(d.oracle.name())),
                ("detail", Json::str(&d.detail)),
                ("check", crate::report::recheck_json(&d.check)),
                ("witness", Json::str(canonical_text(&d.test))),
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
        .collect();

    let mut fields = vec![
        ("op", Json::str("conformance-algorithms")),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::num(cfg.params.threads as u64)),
                ("sections", Json::num(cfg.params.sections as u64)),
                ("retries", Json::num(cfg.params.retries as u64)),
                ("salt", Json::str(&cfg.salt)),
                ("sim_iterations", Json::num(cfg.sim.iterations)),
                ("sim_seed", Json::num(cfg.sim.seed)),
                ("host_iterations", Json::num(cfg.host_iterations)),
                ("interleave_max_states", Json::num(cfg.interleave_max_states as u64)),
                ("shrink", Json::Bool(cfg.shrink)),
            ]),
        ),
        ("programs", Json::num(report.programs() as u64)),
        ("families", Json::Arr(families)),
        ("models", Json::Arr(models)),
        ("oracles", Json::Arr(oracles)),
        ("discrepancies", Json::Arr(discrepancies)),
        ("clean", Json::Bool(report.clean())),
    ];
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
        fields.push(("data_plane", crate::report::data_plane_json(d)));
    }
    Json::obj(fields)
}

/// Render the human-readable per-family table.
pub fn algo_human_table(report: &AlgoReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "algorithm families: {} programs at threads={} sections={} retries={}",
        report.programs(),
        report.params.threads,
        report.params.sections,
        report.params.retries
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<10} {:>8}  {:>13} {:>11} {:>11} {:>13}  invariant",
        "family", "programs", "safety", "sim", "host", "interleave"
    );
    let cell = |s: &OracleSummary| {
        if s.checked + s.skipped == 0 {
            "-".to_string()
        } else {
            format!("{}/{}", s.checked - s.violations, s.checked)
        }
    };
    for f in &report.families {
        let _ = writeln!(
            out,
            "{:<10} {:>8}  {:>13} {:>11} {:>11} {:>13}  {}",
            f.family.name(),
            f.programs,
            cell(&f.safety),
            cell(&f.sim),
            cell(&f.host),
            cell(&f.interleave),
            f.family.invariant()
        );
    }
    let _ = writeln!(out);
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
    out
}

/// Observability lines for stderr (cache hits, enumeration counters) —
/// everything deliberately excluded from the deterministic report.
pub fn algo_observability_lines(report: &AlgoReport) -> String {
    let mut out = String::new();
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
        let _ = writeln!(
            out,
            "enumeration: {} rf prefixes pruned, {} co pairs saturated, {} branched, \
             {} leaves tested, {} candidates emitted",
            e.rf_prefixes_pruned,
            e.co_pairs_saturated,
            e.co_pairs_branched,
            e.co_leaves_tested,
            e.candidates_emitted
        );
    }
    if let Some(d) = &report.data_plane {
        let _ = writeln!(out, "{}", crate::report::data_plane_line(d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::recheck_violated;
    use crate::shrink::test_size;

    fn quick_config() -> AlgoConfig {
        AlgoConfig {
            families: vec![FamilyId::Ticket, FamilyId::Deque],
            sim: SimConfig { iterations: 50, ..SimConfig::default() },
            host_iterations: 200,
            ..AlgoConfig::default()
        }
    }

    #[test]
    fn ticket_and_deque_campaign_is_clean_across_all_layers() {
        let report = run_algo_campaign(&quick_config()).unwrap();
        assert!(
            report.clean(),
            "{:?}",
            report.discrepancies.iter().map(|d| &d.detail).collect::<Vec<_>>()
        );
        assert_eq!(report.families.len(), 2);
        for f in &report.families {
            assert!(f.programs >= 2, "{}", f.family.name());
            assert!(f.safety.checked == f.programs, "{}", f.family.name());
            assert_eq!(f.safety.violations, 0);
        }
        // Both families carry step machines, so the interleave oracle
        // ran, and both have runnable programs for the operational layers.
        let il = &report.oracles[OracleKind::InterleaveAgreement.index()];
        assert!(il.summary.checked >= 4, "interleave checked {}", il.summary.checked);
        assert_eq!(il.summary.violations, 0);
        let host = &report.oracles[OracleKind::HostSoundness.index()];
        assert!(host.summary.checked >= 2, "host checked {}", host.summary.checked);
        assert_eq!(host.summary.violations, 0);
        let sim = &report.oracles[OracleKind::SimSoundness.index()];
        assert!(sim.summary.checked > 0);
        assert_eq!(sim.summary.violations, 0);
    }

    #[test]
    fn degenerate_params_surface_as_generate_errors() {
        let cfg = AlgoConfig {
            params: FamilyParams { threads: 0, ..FamilyParams::default() },
            ..quick_config()
        };
        match run_algo_campaign(&cfg) {
            Err(CampaignError::Generate(e)) => {
                assert!(e.to_string().contains("degenerate"), "{e}");
            }
            other => panic!("expected a generate error, got {other:?}"),
        }
    }

    #[test]
    fn json_report_is_deterministic_cold_and_warm() {
        let dir = std::env::temp_dir().join(format!(
            "lkmm-algo-report-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = AlgoConfig {
            families: vec![FamilyId::Ticket],
            store_path: Some(dir.join("store")),
            sim: SimConfig { iterations: 20, ..SimConfig::default() },
            host_iterations: 50,
            ..AlgoConfig::default()
        };
        let cold = algo_json_report(&run_algo_campaign(&cfg).unwrap(), &cfg).to_string();
        let warm = algo_json_report(&run_algo_campaign(&cfg).unwrap(), &cfg).to_string();
        assert_eq!(cold, warm, "cold and warm reports must be byte-identical");
        let v = Json::parse(&cold).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("conformance-algorithms"));
        assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broken_lkmm_mutant_is_caught_and_shrunk_by_family_safety() {
        // An LKMM that allows everything gets every Forbidden-expecting
        // program wrong; family safety must fire and shrink each hit to
        // a minimal program that the mutant still misjudges.
        let mut set = ModelSet::standard();
        set.replace(ModelId::LkmmNative, Box::new(lkmm_exec::model::AllowAll));
        let cfg = AlgoConfig {
            families: vec![FamilyId::Ticket],
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            host_iterations: 0,
            ..AlgoConfig::default()
        };
        let report = run_algo_campaign_with(&cfg, &set).unwrap();
        assert!(!report.clean());
        let d = report
            .discrepancies
            .iter()
            .find(|d| d.oracle == OracleKind::FamilySafety)
            .expect("allow-all misjudges the safe ticket variant");
        let shrunk = d.shrunk.as_ref().expect("family-safety discrepancies shrink");
        assert!(shrunk.size <= test_size(&d.test));
        let witness = lkmm_litmus::parse(&shrunk.litmus).unwrap();
        assert!(recheck_violated(
            &d.check,
            &witness,
            &set,
            &EnumOptions::default(),
            &PipelineOptions::default(),
        ));
    }
}
