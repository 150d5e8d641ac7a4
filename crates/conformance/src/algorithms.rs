//! The algorithm-family campaign: real-algorithm litmus families
//! checked through every layer of the stack.
//!
//! One run expands the selected [`FamilyId`]s at a configured size into
//! their program variants and streams every program through the cycle
//! campaign's driver, [`drive_campaign`]: the same single-enumeration
//! verdict matrix (all seven axiomatic columns, incrementally through
//! the verdict store), the same unit pool, retries and quarantine. As
//! each program's row completes it is held to the oracles its shape
//! supports, each check one [`Recheck`] judged over the row's cells:
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
//!   exhaustively interleaved
//!   ([`lkmm_algorithms::interleave::explore`]) and the reachability of
//!   the bad state must match the row's SC verdict (`lkmm_models::Sc`:
//!   `acyclic(po ∪ com)` plus RMW atomicity, the semantics of the
//!   machines' indivisible steps).
//!
//! The resulting [`AlgoReport`] wraps the driver's [`CampaignReport`]
//! (per-model counts, oracle totals, discrepancies, quarantined units,
//! opt-in counters) with the expansion size and the per-family oracle
//! columns, and renders through the cycle campaign's report sections
//! ([`crate::report`]). Like the cycle campaign's, it is a
//! deterministic function of the [`AlgoConfig`]: host runs are real
//! nondeterministic executions, but only the *violation count* they
//! produce enters the report (zero for a sound model), and every other
//! number is replayed from the store or recomputed identically, so a
//! cold and a warm run render byte-identical JSON at any job count.

use crate::campaign::{sim_check_row, CampaignError, CampaignReport, CorpusStream, SimConfig};
use crate::driver::{drive_campaign, ResilienceConfig};
use crate::matrix::{uses_srcu, CorpusEntry, MatrixOptions, MatrixRow, ModelSet, Origin, RowRef};
use crate::oracle::{judge_matrix, judge_row, Discrepancy, OracleKind, OracleSummary, Recheck};
use crate::report::{
    counters_json, discrepancies_json, failed_units_json, models_json, oracle_counts, oracles_json,
    table_tail,
};
use crate::shrink::shrink_discrepancies;
use lkmm_algorithms::{FamilyId, FamilyParams};
use lkmm_core::budget::Budget;
use lkmm_service::json::Json;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Interleaving state cap of the interleave-agreement oracle; a
/// truncated exploration skips the agreement check rather than risking a
/// false verdict. The report renders it as `interleave_max_states`.
const INTERLEAVE_MAX_STATES: usize = 1_000_000;

/// Everything one algorithm campaign depends on.
#[derive(Clone, Debug)]
pub struct AlgoConfig {
    /// Families to expand; empty means every family.
    pub families: Vec<FamilyId>,
    /// Expansion size (threads / sections / retry depth).
    pub params: FamilyParams,
    /// Cache version salt (each model column adds its own component).
    pub salt: String,
    /// Worker threads (0 = all hardware threads, never more than the
    /// host has): the matrix pass checks this many units at once, each
    /// on one thread, as in the cycle campaign; a shrink re-check big
    /// enough to split spreads its pre-executions over this many
    /// workers. Reports are identical at any value.
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
    /// Minimize discrepancies with the shrinker.
    pub shrink: bool,
    /// Shared enumeration and data-plane counters for the matrix pass
    /// (observability only, exactly as in the cycle campaign).
    pub stats: Option<std::sync::Arc<lkmm_exec::Stats>>,
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
            shrink: true,
            stats: None,
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
    /// The campaign over every expanded program, as the driver reports
    /// it (its corpus counts every program as generated), with the
    /// discrepancies shrunk when configured. It never resumes or writes
    /// a checkpoint.
    pub campaign: CampaignReport,
    /// Expansion size the campaign ran at.
    pub params: FamilyParams,
    /// Per-family oracle columns, in [`FamilyId::ALL`] order (selected
    /// families only).
    pub families: Vec<FamilyStats>,
}

impl AlgoReport {
    /// Total programs across all families.
    pub fn programs(&self) -> usize {
        self.families.iter().map(|f| f.programs).sum()
    }
}

/// Run an algorithm campaign with the standard reference checkers.
///
/// # Errors
///
/// [`CampaignError::Generate`] on degenerate family parameters,
/// [`CampaignError::Locked`] on a store held by a live process,
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

    // Expand: one flat program list, each program's family remembered.
    let mut programs = Vec::new();
    let mut family_of = Vec::new();
    let mut family_stats = Vec::new();
    for (f, &family) in families.iter().enumerate() {
        let expanded = lkmm_algorithms::programs(family, &cfg.params)?;
        family_of.extend(std::iter::repeat_n(f, expanded.len()));
        family_stats.push(FamilyStats {
            family,
            programs: expanded.len(),
            safety: OracleSummary::default(),
            sim: OracleSummary::default(),
            host: OracleSummary::default(),
            interleave: OracleSummary::default(),
        });
        programs.extend(expanded);
    }
    let stream = CorpusStream::from_entries(
        programs
            .iter()
            .map(|p| CorpusEntry {
                test: p.test.clone(),
                origin: Origin::Algorithm {
                    family: p.family.name(),
                    invariant: p.family.invariant(),
                    expect: p.expect,
                },
            })
            .collect(),
    );

    let matrix_opts = MatrixOptions {
        salt: &cfg.salt,
        jobs: cfg.jobs,
        budget: cfg.budget.clone(),
        store_path: cfg.store_path.as_deref(),
        stats: cfg.stats.clone(),
    };
    // Each row is judged where the driver runs it, into the row's own
    // summaries; the ones the driver keeps join the row's family's
    // columns at commit.
    let judge = |i: usize,
                 row: RowRef<'_>,
                 discrepancies: &mut Vec<Discrepancy>,
                 summaries: &mut [OracleSummary]| {
        let program = &programs[i];
        // Matrix oracles, family safety among them.
        judge_matrix(row, discrepancies, summaries);
        if program.runnable && !uses_srcu(row.test) {
            sim_check_row(&cfg.sim, i, row, discrepancies, summaries);
        }
        let host = (program.runnable && cfg.host_iterations > 0)
            .then_some(Recheck::HostObservation { iterations: cfg.host_iterations });
        let interleave = program.machine.as_ref().map(|machine| Recheck::InterleaveDivergence {
            machine: machine.clone(),
            max_states: INTERLEAVE_MAX_STATES,
        });
        judge_row(row, host.into_iter().chain(interleave), discrepancies, summaries);
    };
    let fold = |i: usize, _: &MatrixRow, here: &[OracleSummary]| {
        let fs = &mut family_stats[family_of[i]];
        fs.safety += here[OracleKind::FamilySafety.index()];
        fs.sim += here[OracleKind::SimSoundness.index()];
        fs.host += here[OracleKind::HostSoundness.index()];
        fs.interleave += here[OracleKind::InterleaveAgreement.index()];
    };
    // No checkpoint, so no fingerprint to guard one.
    let res = ResilienceConfig::default();
    let mut campaign = drive_campaign(stream, 0, set, &matrix_opts, &res, judge, fold)?;
    // Shrink. Family-safety discrepancies re-check through one native
    // LKMM run, so the mutant-catching path minimizes to the smallest
    // program that still gets the wrong verdict.
    if cfg.shrink {
        shrink_discrepancies(&mut campaign.discrepancies, set, &cfg.budget, cfg.jobs);
    }
    Ok(AlgoReport { campaign, params: cfg.params, families: family_stats })
}

/// Render the deterministic JSON report for an algorithm campaign.
pub fn algo_json_report(report: &AlgoReport, cfg: &AlgoConfig) -> Json {
    let families = report
        .families
        .iter()
        .map(|f| {
            let col = |s: &OracleSummary| Json::obj(oracle_counts(s));
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
    let campaign = &report.campaign;
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
                ("interleave_max_states", Json::num(INTERLEAVE_MAX_STATES as u64)),
                ("shrink", Json::Bool(cfg.shrink)),
            ]),
        ),
        ("programs", Json::num(report.programs() as u64)),
        ("families", Json::Arr(families)),
        ("models", models_json(campaign)),
        ("oracles", oracles_json(campaign)),
        ("discrepancies", discrepancies_json(campaign)),
    ];
    // Only a degraded report carries these fields: a clean report's bytes
    // do not depend on the retry supervisor.
    if campaign.degraded() {
        fields.push(("failed_units", failed_units_json(campaign)));
        fields.push(("partial", Json::Bool(true)));
    }
    fields.push(("clean", Json::Bool(campaign.clean())));
    counters_json(&mut fields, campaign);
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
    table_tail(&mut out, &report.campaign);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ModelId;
    use crate::oracle::recheck_violated;
    use crate::shrink::test_size;
    use lkmm_exec::{EnumOptions, PipelineOptions};

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
            report.campaign.clean(),
            "{:?}",
            report.campaign.discrepancies.iter().map(|d| &d.detail).collect::<Vec<_>>()
        );
        assert_eq!(report.families.len(), 2);
        for f in &report.families {
            assert!(f.programs >= 2, "{}", f.family.name());
            assert!(f.safety.checked == f.programs, "{}", f.family.name());
            assert_eq!(f.safety.violations, 0);
        }
        // Both families carry step machines, so the interleave oracle
        // ran, and both have runnable programs for the operational layers.
        let il = &report.campaign.oracles[OracleKind::InterleaveAgreement.index()];
        assert!(il.summary.checked >= 4, "interleave checked {}", il.summary.checked);
        assert_eq!(il.summary.violations, 0);
        let host = &report.campaign.oracles[OracleKind::HostSoundness.index()];
        assert!(host.summary.checked >= 2, "host checked {}", host.summary.checked);
        assert_eq!(host.summary.violations, 0);
        let sim = &report.campaign.oracles[OracleKind::SimSoundness.index()];
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
        assert!(!report.campaign.clean());
        let d = report
            .campaign
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

    /// A model whose evaluation session always panics: every unit that
    /// checks it fails each attempt and is quarantined.
    struct SessionPanics;

    impl lkmm_exec::ConsistencyModel for SessionPanics {
        fn name(&self) -> &str {
            "session-panics"
        }

        fn session(&self) -> Option<Box<dyn lkmm_exec::ModelSession + '_>> {
            panic!("injected panic opening a model session");
        }

        fn allows_with(&self, _: &lkmm_exec::Execution, _: &lkmm_exec::ExecFacts<'_>) -> bool {
            true
        }
    }

    #[test]
    fn quarantined_units_are_reported_only_when_present() {
        let cfg = AlgoConfig {
            families: vec![FamilyId::Ticket],
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            host_iterations: 0,
            ..AlgoConfig::default()
        };
        let clean = run_algo_campaign(&cfg).unwrap();
        assert!(!clean.campaign.degraded());
        assert!(!algo_json_report(&clean, &cfg).to_string().contains("failed_units"));

        let mut set = ModelSet::standard();
        set.replace(ModelId::Sc, Box::new(SessionPanics));
        let report = run_algo_campaign_with(&cfg, &set).unwrap();
        assert!(report.campaign.degraded());
        assert_eq!(report.campaign.failed_units.len(), report.programs());
        assert!(report.campaign.failed_units.iter().all(|f| f.attempts == 3));
        let json = algo_json_report(&report, &cfg).to_string();
        assert!(json.contains("\"failed_units\":[{\"index\":0,"), "{json}");
        assert!(json.contains("\"kind\":\"panic\""), "{json}");
        assert!(json.contains("\"partial\":true,\"clean\":true"), "{json}");
        assert!(algo_human_table(&report).contains("PARTIAL:"));
    }
}
