//! The campaign driver: corpus → verdict matrix → oracles → shrinker.
//!
//! One campaign enumerates a corpus (the paper's named library plus
//! every diy cycle up to a configurable length), builds the verdict
//! matrix across all checkers (incrementally, through the verdict
//! store), evaluates every oracle on every row, runs seeded simulator
//! soundness passes on LKMM-forbidden tests, and minimizes each
//! discrepancy with the delta-debugging shrinker.
//!
//! Everything in the resulting [`CampaignReport`] is a deterministic
//! function of the [`CampaignConfig`]: cache hit counts and wall-clock
//! live in the per-model [`ModelPass`] observability fields, which the
//! JSON report deliberately omits, so a warm re-run over a populated
//! store produces a byte-identical report.

use crate::checkpoint::FailedUnit;
use crate::driver::{drive_campaign, ResilienceConfig};
use crate::matrix::{
    uses_srcu, CorpusEntry, MatrixOptions, MatrixRow, ModelId, ModelPass, ModelSet, Origin,
};
use crate::oracle::{check_row, Discrepancy, OracleKind, OracleSummary, Recheck};
use crate::shrink::shrink_discrepancies;
use lkmm_core::budget::Budget;
use lkmm_exec::{CheckOutcome, Verdict};
use lkmm_generator::{
    cycles_up_to, default_alphabet, generate, generate_contended, Edge, GenError,
};
use lkmm_service::hash::fnv64;
use lkmm_sim::{run_test, Arch, RunConfig};
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Simulator soundness-pass configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Iterations per (test, architecture) run; `0` disables the pass.
    pub iterations: u64,
    /// Base seed; each test derives its own seed from this and its
    /// corpus position, so runs are reproducible test by test.
    pub seed: u64,
    /// Simulate every `stride`-th corpus test (1 = all).
    pub stride: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { iterations: 200, seed: 7, stride: 1 }
    }
}

/// Everything one campaign run depends on.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Generate every diy cycle up to this length (`0` = none; the
    /// shortest critical cycle has length 4).
    pub max_cycle_len: usize,
    /// Also generate each cycle's contended twin
    /// ([`lkmm_generator::generate_contended`]): every event on one
    /// location, write values colliding, the cycle repeated to a fixed
    /// event budget. This is the coherence-heavy half of the corpus —
    /// the tests where per-location write orders are mostly forced and
    /// reads-from choices are mostly doomed.
    pub contended: bool,
    /// Include the paper's named library.
    pub include_library: bool,
    /// Cache version salt (each model column adds its own component).
    pub salt: String,
    /// Worker threads (0 = all hardware threads, never more than the
    /// host has): the matrix pass checks this many units at once, each
    /// on one thread; a shrink re-check big enough to split spreads its
    /// pre-executions over this many workers. Reports are identical at
    /// any value.
    pub jobs: usize,
    /// Per-check budget; trips surface as inconclusive cells.
    pub budget: Budget,
    /// Persistent verdict store; `None` runs in memory.
    pub store_path: Option<PathBuf>,
    /// Simulator soundness pass.
    pub sim: SimConfig,
    /// Minimize discrepancies with the shrinker.
    pub shrink: bool,
    /// Shared enumeration pruning counters for the matrix pass. `None`
    /// (the default) records nothing; when set, the report carries a
    /// [`CampaignReport::enumeration`] snapshot. Observability only —
    /// counters never influence verdicts or cache keys, and a warm store
    /// legitimately reports zeros.
    pub enum_stats: Option<std::sync::Arc<lkmm_exec::EnumStats>>,
    /// Shared data-plane counters (arena acquires and reuses) for the
    /// matrix pass. Same contract as `enum_stats`: `None` (the
    /// default) records nothing; when set, the report carries a
    /// [`CampaignReport::data_plane`] snapshot. Observability only —
    /// counters never influence verdicts or cache keys, and a warm
    /// store legitimately reports zeros.
    pub data_plane: Option<std::sync::Arc<lkmm_exec::DataPlaneStats>>,
    /// Crash-survival knobs: checkpoint/resume, per-unit retry budget,
    /// backoff seed (see [`ResilienceConfig`]).
    pub resilience: ResilienceConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_cycle_len: 4,
            contended: false,
            include_library: true,
            salt: String::new(),
            jobs: 0,
            budget: Budget::default(),
            store_path: None,
            sim: SimConfig::default(),
            shrink: true,
            enum_stats: None,
            data_plane: None,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// One column's aggregate results.
#[derive(Clone, Debug)]
pub struct ModelStats {
    pub id: ModelId,
    pub pass: ModelPass,
}

/// One oracle's aggregate results.
#[derive(Clone, Copy, Debug)]
pub struct OracleStats {
    pub kind: OracleKind,
    pub summary: OracleSummary,
}

/// Everything a campaign produces, as [`drive_campaign`] returns it
/// (the cycle campaign then shrinks its discrepancies; the algorithm
/// campaign wraps it in [`crate::AlgoReport`]).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Library tests in the corpus.
    pub corpus_library: usize,
    /// Generated tests in the corpus.
    pub corpus_generated: usize,
    /// Per-model counts, in [`ModelId::ALL`] order.
    pub models: Vec<ModelStats>,
    /// Per-oracle counts, in [`OracleKind::ALL`] order.
    pub oracles: Vec<OracleStats>,
    /// Every oracle violation (shrunk when configured).
    pub discrepancies: Vec<Discrepancy>,
    /// Enumeration pruning counters from the matrix pass; present only
    /// when [`CampaignConfig::enum_stats`] (or
    /// [`crate::AlgoConfig::enum_stats`]) was set.
    pub enumeration: Option<lkmm_exec::EnumSnapshot>,
    /// Data-plane counters (arena acquires and reuses) from the
    /// matrix pass; present only when [`CampaignConfig::data_plane`]
    /// (or [`crate::AlgoConfig::data_plane`]) was set.
    pub data_plane: Option<lkmm_exec::DataPlaneSnapshot>,
    /// Units the supervisor gave up on after exhausting retries. A
    /// non-empty list makes the report *degraded*: the matrix is
    /// partial (quarantined rows are all-`None` and every oracle
    /// skipped them), and the CLI exits with a distinct code.
    pub failed_units: Vec<FailedUnit>,
    /// `Some(cursor)` when this run resumed a checkpoint — stderr
    /// observability only, deliberately excluded from the JSON report
    /// (a resumed run's JSON must be byte-identical to a cold run's).
    pub resumed_at: Option<usize>,
    /// Checkpoint frames written this run (stderr observability only).
    pub checkpoints_written: usize,
}

impl CampaignReport {
    /// Total corpus size.
    pub fn corpus_total(&self) -> usize {
        self.corpus_library + self.corpus_generated
    }

    /// Whether every oracle held everywhere.
    pub fn clean(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// Whether the matrix is partial because units were quarantined.
    pub fn degraded(&self) -> bool {
        !self.failed_units.is_empty()
    }
}

/// Campaign failure: corpus generation, store/checkpoint I/O, or a
/// refused resume. Checking problems (budget trips, enumeration
/// limits) are per-cell inconclusive outcomes, never campaign errors;
/// per-unit faults are retried and then quarantined, never fatal.
#[derive(Debug)]
pub enum CampaignError {
    Generate(GenError),
    Store(io::Error),
    /// The verdict store is locked by another live process.
    Locked {
        lock: PathBuf,
        pid: Option<u32>,
    },
    /// Checkpoint file I/O failed (including an injected torn frame).
    Checkpoint(io::Error),
    /// `--resume` found a checkpoint written under a different config;
    /// continuing would silently mix two campaigns.
    CheckpointMismatch {
        expected: u64,
        found: u64,
    },
    /// The deliberate clean stop from [`ResilienceConfig::stop_after`]:
    /// the store is flushed and a final checkpoint frame records
    /// `cursor`, so a resumed run picks up exactly here.
    Suspended {
        cursor: usize,
        total: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Generate(e) => write!(f, "generator: {e}"),
            CampaignError::Store(e) => write!(f, "verdict store: {e}"),
            CampaignError::Locked { lock, pid } => match pid {
                Some(pid) => write!(
                    f,
                    "verdict store is locked by live process {pid} (lock file {})",
                    lock.display()
                ),
                None => write!(f, "verdict store is locked (lock file {})", lock.display()),
            },
            CampaignError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            CampaignError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:016x} does not match this campaign's \
                 config ({expected:016x}); refusing to resume"
            ),
            CampaignError::Suspended { cursor, total } => write!(
                f,
                "campaign suspended at unit {cursor}/{total} (progress checkpointed; \
                 rerun with --resume to continue)"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<GenError> for CampaignError {
    fn from(e: GenError) -> Self {
        CampaignError::Generate(e)
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Store(e)
    }
}

/// The lazy campaign corpus: the named library up front (already
/// materialised — it is small), then every generated cycle in
/// `cycles_up_to` order, each litmus test built only when the driver
/// reaches it, then the contended twins. The order (and therefore every
/// corpus index) is a deterministic function of the config — which is
/// what lets a checkpoint record progress as a plain cursor. The
/// algorithm campaign streams its expanded programs the same way,
/// through [`CorpusStream::from_entries`].
pub struct CorpusStream {
    /// Materialised entries, served first.
    entries: std::vec::IntoIter<CorpusEntry>,
    cycles: Vec<Vec<Edge>>,
    /// Next cycle slot: `0..cycles.len()` plain, then the contended
    /// twins when enabled.
    at: usize,
    contended: bool,
    total: usize,
}

impl CorpusStream {
    /// A stream over `entries` alone, in order.
    pub fn from_entries(entries: Vec<CorpusEntry>) -> CorpusStream {
        CorpusStream {
            total: entries.len(),
            entries: entries.into_iter(),
            cycles: Vec::new(),
            at: 0,
            contended: false,
        }
    }

    /// Total units this stream will yield.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Advance past the first `n` units without building their tests —
    /// the aggregate-resume fast path: a resumed campaign takes units
    /// `0..cursor` from the checkpoint's aggregates, so their litmus
    /// tests never need to exist in this process at all.
    pub fn seek(&mut self, n: usize) {
        let from_entries = n.min(self.entries.len());
        if from_entries > 0 {
            // `Vec::IntoIter::nth` drops the skipped entries without
            // generating or cloning anything.
            let _ = self.entries.nth(from_entries - 1);
        }
        self.at += n - from_entries;
    }
}

impl Iterator for CorpusStream {
    type Item = Result<CorpusEntry, GenError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.entries.next() {
            return Some(Ok(e));
        }
        let n = self.cycles.len();
        if self.at < n {
            let r = generate(&self.cycles[self.at]);
            self.at += 1;
            Some(r.map(|test| CorpusEntry { test, origin: Origin::Generated }))
        } else if self.contended && self.at < 2 * n {
            let r = generate_contended(&self.cycles[self.at - n]);
            self.at += 1;
            Some(r.map(|test| CorpusEntry { test, origin: Origin::Generated }))
        } else {
            None
        }
    }
}

/// The campaign corpus as a lazy stream (see [`CorpusStream`]).
pub fn corpus_stream(cfg: &CampaignConfig) -> CorpusStream {
    let mut library = Vec::new();
    if cfg.include_library {
        for pt in lkmm_litmus::library::all() {
            library.push(CorpusEntry {
                test: pt.test(),
                origin: Origin::Library { lkmm: pt.lkmm, c11: pt.c11 },
            });
        }
    }
    let cycles = if cfg.max_cycle_len > 0 {
        cycles_up_to(cfg.max_cycle_len, &default_alphabet())
    } else {
        Vec::new()
    };
    let total = library.len() + cycles.len() * if cfg.contended { 2 } else { 1 };
    CorpusStream {
        entries: library.into_iter(),
        cycles,
        at: 0,
        contended: cfg.contended,
        total,
    }
}

/// FNV-64 fingerprint over everything the deterministic report depends
/// on: corpus shape, cache salt, fuel budgets, simulator config, shrink
/// flag, column set. A checkpoint records this and resume refuses a
/// mismatch. Knobs that cannot change the report — `jobs`, wall-clock
/// limits (already nondeterministic) — are deliberately excluded, so
/// resuming on a different machine with different parallelism is fine.
pub fn config_fingerprint(cfg: &CampaignConfig, total_units: usize) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "ck-v1|cycle:{}|contended:{}|library:{}|salt:{}|candidates:{:?}|steps:{:?}\
         |sim:{}:{}:{}|shrink:{}|units:{total_units}|cols:",
        cfg.max_cycle_len,
        cfg.contended,
        cfg.include_library,
        cfg.salt,
        cfg.budget.max_candidates,
        cfg.budget.max_eval_steps,
        cfg.sim.iterations,
        cfg.sim.seed,
        cfg.sim.stride,
        cfg.shrink,
    );
    for id in ModelId::ALL {
        let _ = write!(s, "{},", id.column());
    }
    fnv64(s.as_bytes())
}

/// Per-test seed for the soundness pass: reproducible, distinct per
/// corpus position, independent of which other tests are simulated.
pub(crate) fn sim_seed(base: u64, corpus_index: usize) -> u64 {
    base ^ (corpus_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Simulator soundness for one completed row: an operational machine
/// must never observe an outcome the LKMM forbids, so only
/// LKMM-forbidden rows need running, and only every `stride`-th corpus
/// index is sampled. Runs as part of the driver's per-row checks, so a
/// checkpoint frame's aggregates already include the prefix's share of
/// the simulator pass.
pub(crate) fn sim_check_row(
    sim: &SimConfig,
    i: usize,
    row: &MatrixRow,
    discrepancies: &mut Vec<Discrepancy>,
    summary: &mut OracleSummary,
) {
    if sim.iterations == 0 || i % sim.stride.max(1) != 0 {
        return;
    }
    let forbidden = matches!(
        row.cell(ModelId::LkmmNative).and_then(CheckOutcome::result),
        Some(r) if r.verdict == Verdict::Forbidden
    );
    if !forbidden {
        return;
    }
    if uses_srcu(&row.test) {
        summary.skipped += 1;
        return;
    }
    let seed = sim_seed(sim.seed, i);
    for arch in Arch::ALL {
        let config = RunConfig { iterations: sim.iterations, seed };
        match run_test(&row.test, arch, &config) {
            Err(_) => summary.skipped += 1,
            Ok(stats) => {
                summary.checked += 1;
                if stats.observed > 0 {
                    summary.violations += 1;
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
                            iterations: sim.iterations,
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

/// Run a full campaign with the standard reference checkers.
///
/// # Errors
///
/// See [`CampaignError`].
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    run_campaign_with(cfg, &ModelSet::standard())
}

/// Run a full campaign against an explicit [`ModelSet`] — the entry
/// point for mutant-injection tests (swap one column for a broken
/// model and watch the oracles catch it).
///
/// # Errors
///
/// See [`CampaignError`].
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    set: &ModelSet,
) -> Result<CampaignReport, CampaignError> {
    let stream = corpus_stream(cfg);
    let total_units = stream.total();
    let fingerprint = config_fingerprint(cfg, total_units);

    let matrix_opts = MatrixOptions {
        salt: &cfg.salt,
        jobs: cfg.jobs,
        budget: cfg.budget.clone(),
        store_path: cfg.store_path.as_deref(),
        enum_stats: cfg.enum_stats.clone(),
        data_plane: cfg.data_plane.clone(),
    };
    // Rows stream through the driver, which runs the matrix-level
    // oracles and the simulator soundness pass the moment each row's
    // cells are complete — that per-row folding is what lets a
    // checkpoint frame carry the campaign's whole deterministic state
    // as aggregates, and a resume continue it as arithmetic.
    let mut report = drive_campaign(
        stream,
        fingerprint,
        set,
        &matrix_opts,
        &cfg.resilience,
        |i, row, discrepancies, summaries| {
            check_row(row, discrepancies, summaries);
            let sim = &mut summaries[OracleKind::SimSoundness.index()];
            sim_check_row(&cfg.sim, i, row, discrepancies, sim);
        },
    )?;
    // Shrink every discrepancy down to a minimal discriminating witness.
    // Re-checks recompute from scratch through the exact failing pair —
    // never through the store (see crate docs for why).
    if cfg.shrink {
        shrink_discrepancies(&mut report.discrepancies, set, &cfg.budget, cfg.jobs);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::recheck_violated;
    use crate::shrink::test_size;
    use lkmm_exec::{EnumOptions, PipelineOptions};

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            max_cycle_len: 0,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn library_only_campaign_is_clean() {
        let report = run_campaign(&quick_config()).unwrap();
        assert_eq!(report.corpus_library, lkmm_litmus::library::all().len());
        assert_eq!(report.corpus_generated, 0);
        assert!(report.clean(), "{:?}", report.discrepancies.iter().map(|d| &d.detail).collect::<Vec<_>>());
        let native = &report.models[ModelId::LkmmNative.index()];
        assert_eq!(native.pass.checked, report.corpus_total());
        assert_eq!(native.pass.inconclusive, 0);
        // The agreement oracle covered every row.
        assert_eq!(report.oracles[0].summary.checked, report.corpus_total());
        assert_eq!(report.oracles[0].summary.violations, 0);
    }

    #[test]
    fn short_cycle_lengths_generate_nothing() {
        // The shortest critical cycle needs 4 edges (two non-adjacent
        // external edges), so a length-3 campaign is library-only.
        let cfg = CampaignConfig { max_cycle_len: 3, ..quick_config() };
        let mut entries = corpus_stream(&cfg);
        assert!(entries.all(|e| matches!(e.unwrap().origin, Origin::Library { .. })));
    }

    #[test]
    fn mutant_model_yields_shrunk_discrepancies() {
        let mut set = ModelSet::standard();
        set.replace(ModelId::LkmmCat, Box::new(lkmm_exec::model::AllowAll));
        let report = run_campaign_with(&quick_config(), &set).unwrap();
        assert!(!report.clean());
        let d = report
            .discrepancies
            .iter()
            .find(|d| d.oracle == OracleKind::NativeCatAgreement)
            .expect("allow-all disagrees with the native LKMM somewhere");
        let shrunk = d.shrunk.as_ref().expect("campaign shrinks by default");
        assert!(shrunk.size <= test_size(&d.test));
        let witness = lkmm_litmus::parse(&shrunk.litmus).expect("witness re-parses");
        // The minimal witness still discriminates the two checkers.
        assert!(recheck_violated(
            &d.check,
            &witness,
            &set,
            &EnumOptions::default(),
            &PipelineOptions::default(),
        ));
    }
}
