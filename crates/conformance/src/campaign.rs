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
    uses_srcu, CorpusEntry, MatrixOptions, ModelId, ModelPass, ModelSet, Origin, RowRef,
};
use crate::oracle::{judge_matrix, judge_row, Discrepancy, OracleKind, OracleSummary, Recheck};
use crate::shrink::shrink_discrepancies;
use lkmm_core::budget::Budget;
use lkmm_exec::Verdict;
use lkmm_generator::{
    cycles_up_to, default_alphabet, generate, generate_contended, Edge, GenError,
};
use lkmm_service::hash::fnv64;
use lkmm_sim::Arch;
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
    /// Shared enumeration and data-plane counters for the matrix pass.
    /// `None` (the default) records nothing; when set, the report carries
    /// the [`CampaignReport::enumeration`] and
    /// [`CampaignReport::data_plane`] snapshots. Observability only —
    /// counters never influence verdicts or cache keys, and a warm store
    /// legitimately reports zeros.
    pub stats: Option<std::sync::Arc<lkmm_exec::Stats>>,
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
            stats: None,
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
    /// when [`CampaignConfig::stats`] (or [`crate::AlgoConfig::stats`])
    /// was set.
    pub enumeration: Option<lkmm_exec::EnumSnapshot>,
    /// Data-plane counters (arena acquires and reuses) from the matrix
    /// pass; present exactly when `enumeration` is.
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
/// `cycles_up_to` order, then the contended twins, each litmus test
/// built only when asked for. The order (and therefore every corpus
/// index) is a deterministic function of the config — which is what
/// lets a checkpoint record progress as a plain cursor. Units can be
/// built by index ([`CorpusStream::entry`]), on any thread and as often
/// as wanted, always to the same test: the campaign driver builds each
/// unit on the thread that checks it. The algorithm campaign streams its
/// expanded programs the same way, through [`CorpusStream::from_entries`].
pub struct CorpusStream {
    /// Materialised entries, the first units.
    entries: Vec<CorpusEntry>,
    cycles: Vec<Vec<Edge>>,
    contended: bool,
    /// The next unit the iterator yields.
    at: usize,
}

impl CorpusStream {
    /// A stream over `entries` alone, in order.
    pub fn from_entries(entries: Vec<CorpusEntry>) -> CorpusStream {
        CorpusStream { entries, cycles: Vec::new(), contended: false, at: 0 }
    }

    /// Total units this stream will yield.
    pub fn total(&self) -> usize {
        self.entries.len() + self.cycles.len() * if self.contended { 2 } else { 1 }
    }

    /// Unit `i`: a clone of a materialised entry, or the cycle's test (or
    /// its contended twin) generated afresh.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`CorpusStream::total`].
    pub fn entry(&self, i: usize) -> Result<CorpusEntry, GenError> {
        if let Some(entry) = self.entries.get(i) {
            return Ok(entry.clone());
        }
        let j = i - self.entries.len();
        let n = self.cycles.len();
        assert!(j < n || (self.contended && j < 2 * n), "unit {i} is past the corpus");
        let test = match self.cycles.get(j) {
            Some(cycle) => generate(cycle),
            None => generate_contended(&self.cycles[j - n]),
        };
        test.map(|test| CorpusEntry { test, origin: Origin::Generated })
    }
}

impl Iterator for CorpusStream {
    type Item = Result<CorpusEntry, GenError>;

    fn next(&mut self) -> Option<Self::Item> {
        let entry = (self.at < self.total()).then(|| self.entry(self.at))?;
        self.at += 1;
        Some(entry)
    }
}

/// The campaign corpus as a lazy stream (see [`CorpusStream`]).
pub fn corpus_stream(cfg: &CampaignConfig) -> CorpusStream {
    let mut entries = Vec::new();
    if cfg.include_library {
        for pt in lkmm_litmus::library::all() {
            entries.push(CorpusEntry {
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
    CorpusStream { entries, cycles, contended: cfg.contended, at: 0 }
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

/// Simulator soundness for one row: each architecture's
/// [`Recheck::SimObservation`], judged over the row. An operational
/// machine must never observe an outcome the LKMM forbids, so only
/// LKMM-forbidden rows run, only every `stride`-th corpus index is
/// sampled, and a row using SRCU, which the machines do not implement,
/// counts one skip. Part of the driver's row judgement, so the
/// simulators run on the thread that prepared the row (or at commit,
/// when the committed row is not the prepared one), and a checkpoint
/// frame's aggregates already include the prefix's share of the pass.
pub(crate) fn sim_check_row(
    sim: &SimConfig,
    i: usize,
    row: RowRef<'_>,
    discrepancies: &mut Vec<Discrepancy>,
    summaries: &mut [OracleSummary],
) {
    if sim.iterations == 0
        || !i.is_multiple_of(sim.stride.max(1))
        || row.verdict(ModelId::LkmmNative) != Some(Verdict::Forbidden)
    {
        return;
    }
    if uses_srcu(row.test) {
        summaries[OracleKind::SimSoundness.index()].skipped += 1;
        return;
    }
    let (iterations, seed) = (sim.iterations, sim_seed(sim.seed, i));
    let checks = Arch::ALL.map(|arch| Recheck::SimObservation { arch, iterations, seed });
    judge_row(row, checks, discrepancies, summaries);
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
        stats: cfg.stats.clone(),
    };
    // Rows stream through the driver, which judges the matrix-level
    // oracles and the simulator soundness pass on each row as soon as
    // its cells are known and folds the results in corpus order — that
    // per-row folding is what lets a checkpoint frame carry the
    // campaign's whole deterministic state as aggregates, and a resume
    // continue it as arithmetic.
    let mut report = drive_campaign(
        stream,
        fingerprint,
        set,
        &matrix_opts,
        &cfg.resilience,
        |i, row, discrepancies, summaries| {
            judge_matrix(row, discrepancies, summaries);
            sim_check_row(&cfg.sim, i, row, discrepancies, summaries);
        },
        |_, _, _| {},
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
