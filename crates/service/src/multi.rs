//! Batch checking through the verdict store: N columns, one enumeration
//! per test.
//!
//! [`MultiBatchChecker`] is the paper's §5 workflow as a service: ingest
//! a corpus, deduplicate isomorphic tests by canonical key, answer what
//! the store already knows, check only the misses, and write the new
//! verdicts back. Each column is a model plus its cache salt. Every
//! `herd-rs` check runs through one, over an in-memory store when
//! nothing persists: FILE and `--library` with one column, `--models`
//! with one per model, `serve` and the TCP server's workers with one,
//! and the conformance campaign with all seven. Re-checking a corpus
//! after a model tweak *with a bumped salt* recomputes everything;
//! re-checking without one is pure cache replay — zero candidate
//! enumerations.
//!
//! For each corpus member the checker resolves every column
//! independently against the store (a column's keys depend only on its
//! model, salt and options, never on its neighbours, so warm stores
//! replay whichever checker wrote them), then runs **one** governed
//! enumeration pass over just the columns that missed — the check
//! engine evaluates all of them per candidate against a shared facts
//! layer. A fully warm store enumerates nothing; a cold seven-column run
//! enumerates each test once instead of seven times.
//!
//! Checks run under the checker's [`Budget`]: a check that does not
//! complete surfaces as an inconclusive cell instead of failing the
//! batch. Inconclusive verdicts are **never written to the store** —
//! they describe the budget, not the test, so a retry with a bigger
//! budget must see a miss, not a poisoned hit.
//!
//! Checking a unit has two halves. [`MultiBatchChecker::prepare`] is
//! pure — canonical text, keys, store lookups and the enumeration — so
//! a driver may run it for many units at once on worker threads, each
//! passing its own [`Sessions`] handle so the model sessions serve unit
//! after unit. [`CorpusRun::commit`] applies a prepared unit in corpus
//! order, reusing its store hits, and hands the committed row back: the
//! dedupe map, store appends and counters all live there, which is what
//! keeps reports and counters identical however many units were
//! prepared ahead. A [`CorpusRun`] keeps a handle of its own for what
//! it checks on the calling thread.
//!
//! Per-column bookkeeping (hits, computed, deduped, inconclusive,
//! candidates) keeps the exact semantics of N sequential passes: a
//! column's `candidates_enumerated` counts the candidates *its* verdict
//! consumed, so per-column observability is unchanged; the shared-pass
//! saving shows up in [`MultiBatchReport::candidates_actual`], which
//! counts each enumeration once no matter how many columns rode on it.

use crate::canon::{canonical_text, KeyPrefix};
use crate::store::{VerdictLog, VerdictStore};
use lkmm_core::budget::{Budget, Meter};
use lkmm_exec::{
    CheckOutcome, ConsistencyModel, EnumOptions, InconclusiveReason, MultiCheckOutcome,
    PipelineOptions, Sessions, Stats, Tally,
};
use lkmm_litmus::ast::Test;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Where one cell's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Answered from the store without enumerating anything.
    Hit,
    /// Enumerated and checked in this batch, then stored.
    Computed,
    /// Shared the canonical key of an earlier test in the same batch.
    Deduped,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Provenance::Hit => "hit",
            Provenance::Computed => "computed",
            Provenance::Deduped => "deduped",
        })
    }
}

/// The key prefix of `model`'s column under `salt` and `opts`.
/// EnumOptions influence candidate counts (caps, Scpv pruning), so two
/// configurations must never share an entry: their `Debug` form joins
/// the salt. That form deliberately excludes the budget, which the
/// checker changes per request without rehashing.
fn key_prefix(model: &dyn ConsistencyModel, salt: &str, opts: &EnumOptions) -> KeyPrefix {
    KeyPrefix::new(model.name(), &format!("{salt}|{opts:?}"))
}

/// One column of a batch: a model plus its cache salt.
pub struct MultiColumn<'m> {
    /// The checker answering this column.
    pub model: &'m dyn ConsistencyModel,
    /// Version salt for this column's cache keys: it should name the
    /// model/interpreter revision (bump it when checking semantics
    /// change and old entries silently stop matching). The conformance
    /// campaign uses `"{base}|col:{name}"`, so its two LKMM columns,
    /// which share a model name, never share an entry.
    pub salt: String,
}

/// Per-column results and counters.
#[derive(Clone, Debug)]
pub struct ColumnReport {
    /// One slot per corpus member, in corpus order; `None` where the
    /// column was masked out (the checker does not cover the test).
    /// Filled by [`MultiBatchChecker::check_corpus`]; empty in the report
    /// of a streaming [`CorpusRun`], which hands each row back as it
    /// commits.
    pub outcomes: Vec<Option<UnitCell>>,
    /// Store hits.
    pub hits: usize,
    /// Verdicts computed to completion this batch.
    pub computed: usize,
    /// In-batch duplicates of an earlier canonical key.
    pub deduped: usize,
    /// Checks stopped by the budget (not stored).
    pub inconclusive: usize,
    /// Candidates backing this column's computed verdicts (0 on a fully
    /// warm store) — matches what a dedicated single-model pass reports.
    pub candidates_enumerated: usize,
}

/// Aggregate outcome of one [`MultiBatchChecker::check_corpus`] call.
#[derive(Clone, Debug)]
pub struct MultiBatchReport {
    /// One report per column, in constructor order.
    pub columns: Vec<ColumnReport>,
    /// Enumeration passes actually run (each serving ≥ 1 column).
    pub enumeration_passes: usize,
    /// Candidates actually enumerated, counted once per pass — the
    /// denominator of the single-enumeration saving.
    pub candidates_actual: usize,
    /// Wall-clock for the batch, in microseconds.
    pub micros: u128,
}

/// A memoizing checker: N columns, one store, one enumeration per cold
/// test. Generic over its [`VerdictLog`] backend (default: a plain owned
/// [`VerdictStore`]), so the same checker drives the single-store CLI
/// path and the server's shared [`crate::ShardedStore`] handle.
pub struct MultiBatchChecker<'m, S: VerdictLog = VerdictStore> {
    columns: Vec<MultiColumn<'m>>,
    /// Locked so threads running [`MultiBatchChecker::prepare`] can look
    /// verdicts up while the committing thread appends.
    store: RwLock<S>,
    /// Per-column key prefixes (model, base salt + options), rehashed
    /// only when the options change, so keying a unit hashes only its
    /// canonical text.
    prefixes: Vec<KeyPrefix>,
    enum_opts: EnumOptions,
    pipe: PipelineOptions,
}

impl<'m, S: VerdictLog> MultiBatchChecker<'m, S> {
    /// A checker for `columns` writing through `store`.
    ///
    /// # Panics
    ///
    /// Panics on an empty column set.
    pub fn new(columns: Vec<MultiColumn<'m>>, store: S) -> Self {
        assert!(!columns.is_empty(), "multi-model batch needs at least one column");
        MultiBatchChecker {
            columns,
            store: RwLock::new(store),
            prefixes: Vec::new(),
            enum_opts: EnumOptions::default(),
            pipe: PipelineOptions::default(),
        }
        // Derives the key prefixes.
        .with_options(EnumOptions::default())
    }

    /// Override the enumeration options (folded into cache keys, except
    /// the budget).
    pub fn with_options(mut self, opts: EnumOptions) -> Self {
        self.prefixes =
            self.columns.iter().map(|c| key_prefix(c.model, &c.salt, &opts)).collect();
        self.enum_opts = opts;
        self
    }

    /// Split a check big enough to pay for it over `jobs` workers (`0` =
    /// one per hardware thread). Job count never affects results, so it
    /// is *not* part of the cache key.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pipe.jobs = jobs;
        self
    }

    /// Stop each check as soon as its verdict is decided. The verdict is
    /// exact, but the counts become lower bounds, so such a result joins
    /// neither the store nor the dedupe map (see [`CorpusRun::commit`]):
    /// each test is checked on its own, and no store ever holds
    /// lower-bound counts.
    pub fn with_early_exit(mut self, early_exit: bool) -> Self {
        self.pipe.early_exit = early_exit;
        self
    }

    /// Bound every subsequent check by `budget`. The budget is *not*
    /// part of the cache key: it cannot change a completed verdict, and
    /// inconclusive outcomes are never stored, so entries computed under
    /// any budget are interchangeable.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.enum_opts.budget = budget;
        self
    }

    /// Set (or clear) an absolute deadline on the current budget. The
    /// serve loop uses this to give each request its own deadline
    /// without rebuilding the checker.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.enum_opts.budget.deadline = deadline;
    }

    /// The cache key column `col` derives for `test`. It depends only on
    /// the column's model, salt and options, so a one-column checker and
    /// a campaign column built alike share their entries.
    pub fn key_of(&self, col: usize, test: &Test) -> u128 {
        self.prefixes[col].key_of_text(&canonical_text(test))
    }

    /// Every column's key for `test`, from one canonicalization: the
    /// columns differ only in the (model, salt) folded into the hash, not
    /// in the canonical text, and canonicalizing dominates key
    /// derivation — this is what makes a store-warm replay (and a
    /// checkpoint resume) cheap.
    fn keys(&self, test: &Test) -> Vec<u128> {
        let canon = canonical_text(test);
        self.prefixes.iter().map(|p| p.key_of_text(&canon)).collect()
    }

    /// Check a corpus across every column: per column, dedupe by
    /// canonical key and replay store hits; then run one shared governed
    /// enumeration per test over the columns still missing, write the
    /// completed verdicts back, and sync the store once at the end.
    ///
    /// `mask[c][i]` gates column `c` on corpus member `i` (an unsupported
    /// cell stays `None`). The budget's `deadline` axis also governs
    /// the corpus *between* tests: once tripped, every remaining
    /// cell the store cannot answer is reported inconclusive without
    /// being checked (store hits are still answered). The relative
    /// `time_limit` axis stays per-check.
    ///
    /// This is [`MultiBatchChecker::begin_corpus`] driven over the whole
    /// slice at once, collecting every unit's cells into the report; a
    /// driver that streams units (for checkpointing or retries) uses the
    /// [`CorpusRun`] API directly.
    ///
    /// # Errors
    ///
    /// Store failure (the store keeps everything computed before the
    /// failing test).
    pub fn check_corpus(
        &mut self,
        tests: &[Test],
        mask: &[Vec<bool>],
    ) -> io::Result<MultiBatchReport> {
        assert_eq!(mask.len(), self.columns.len(), "one mask row per column");
        for row in mask {
            assert_eq!(row.len(), tests.len(), "one mask slot per corpus member");
        }
        let ncols = self.columns.len();
        let mut outcomes: Vec<Vec<Option<UnitCell>>> =
            (0..ncols).map(|_| Vec::with_capacity(tests.len())).collect();
        let mut run = self.begin_corpus();
        let mut mask_row = vec![false; ncols];
        for (i, test) in tests.iter().enumerate() {
            for c in 0..ncols {
                mask_row[c] = mask[c][i];
            }
            for (slots, cell) in outcomes.iter_mut().zip(run.check_unit(i, test, &mask_row)?) {
                slots.push(cell);
            }
        }
        let mut report = run.finish()?;
        for (col, slots) in report.columns.iter_mut().zip(outcomes) {
            col.outcomes = slots;
        }
        Ok(report)
    }

    /// Start a streaming corpus session: per-run dedupe maps, counters,
    /// and corpus meter, fed one unit at a time via
    /// [`CorpusRun::check_unit`] or [`CorpusRun::commit`]. The checker
    /// stays shared for the run's lifetime, so other threads may
    /// [`prepare`](MultiBatchChecker::prepare) units meanwhile.
    pub fn begin_corpus(&self) -> CorpusRun<'_, 'm, S> {
        let ncols = self.columns.len();
        // Corpus-level governor: the absolute deadline only;
        // candidate/step fuel and the relative time limit are per-check.
        let corpus_meter =
            Budget { deadline: self.enum_opts.budget.deadline, ..Budget::default() }.meter();
        CorpusRun {
            columns: (0..ncols)
                .map(|_| ColumnReport {
                    outcomes: Vec::new(),
                    hits: 0,
                    computed: 0,
                    deduped: 0,
                    inconclusive: 0,
                    candidates_enumerated: 0,
                })
                .collect(),
            seen: vec![HashMap::new(); ncols],
            enumeration_passes: 0,
            candidates_actual: 0,
            corpus_meter,
            start: Instant::now(),
            sessions: self.sessions(),
            checker: self,
        }
    }

    /// A [`Sessions`] handle over this checker's columns, in column
    /// order, with no session open yet: what a thread passes to every
    /// [`MultiBatchChecker::prepare`] it runs.
    pub fn sessions(&self) -> Sessions<'m> {
        Sessions::new(self.columns.iter().map(|c| c.model))
    }

    /// The order-independent half of checking one unit, safe to run on
    /// any thread ahead of the unit's turn: one canonicalization, every
    /// column's key, a store lookup per column `mask_row` enables, and
    /// one governed enumeration (at this checker's pipeline options)
    /// over the enabled columns the store lacks, on the calling thread's
    /// `sessions` (from [`MultiBatchChecker::sessions`]). The hits and
    /// the check's outcomes make up the prepared row
    /// ([`PreparedUnit::cells`]); the check's counters are kept apart
    /// until [`CorpusRun::commit`] adopts the result.
    ///
    /// # Panics
    ///
    /// If `mask_row` does not have one slot per column, or a model
    /// panics opening its session.
    pub fn prepare(
        &self,
        sessions: &mut Sessions<'m>,
        test: &Test,
        mask_row: &[bool],
    ) -> PreparedUnit {
        assert_eq!(mask_row.len(), self.columns.len(), "one mask slot per column");
        let keys = self.keys(test);
        let mut cells = vec![None; keys.len()];
        let mut missing = Vec::new();
        {
            let store = self.store();
            for c in (0..keys.len()).filter(|&c| mask_row[c]) {
                match store.get(keys[c]) {
                    Some(result) => cells[c] = Some(CheckOutcome::Complete(result)),
                    None => missing.push(c),
                }
            }
        }
        let check =
            (!missing.is_empty()).then(|| self.check_columns(sessions, test, missing, &mut cells));
        PreparedUnit { keys, cells, check }
    }

    /// One governed enumeration of `test` over `columns` on `sessions`,
    /// against private counters, settling each of those columns in
    /// `cells`.
    fn check_columns(
        &self,
        sessions: &mut Sessions<'m>,
        test: &Test,
        columns: Vec<usize>,
        cells: &mut [Option<CheckOutcome>],
    ) -> ColumnsCheck {
        let opts = self.enum_opts.with_own_stats();
        match sessions.check(&columns, test, &opts, &self.pipe) {
            MultiCheckOutcome::Complete(results) => {
                for (&c, result) in columns.iter().zip(results) {
                    cells[c] = Some(CheckOutcome::Complete(result));
                }
            }
            MultiCheckOutcome::Inconclusive { reason, partials } => {
                for (&c, partial) in columns.iter().zip(partials) {
                    let reason = reason.clone();
                    cells[c] = Some(CheckOutcome::Inconclusive { reason, partial });
                }
            }
        }
        ColumnsCheck { columns, stats: opts.stats }
    }

    /// The underlying store, read-locked while the guard lives.
    ///
    /// A panic while a commit held the lock leaves the store no worse
    /// than a crash mid-append, which it is built to recover from (and
    /// the campaign supervisor retries the unit), so a poisoned lock is
    /// taken over rather than propagated.
    pub fn store(&self) -> RwLockReadGuard<'_, S> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn store_mut(&self) -> RwLockWriteGuard<'_, S> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sync the store to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.store.get_mut().unwrap_or_else(PoisonError::into_inner).flush()
    }
}

/// A unit's result from [`MultiBatchChecker::prepare`], waiting for
/// [`CorpusRun::commit`].
#[derive(Debug)]
pub struct PreparedUnit {
    /// One cache key per column, masked columns included.
    keys: Vec<u128>,
    /// The prepared row (see [`PreparedUnit::cells`]).
    cells: Vec<Option<CheckOutcome>>,
    /// The enumeration over the columns the store lacked, if any.
    check: Option<ColumnsCheck>,
}

impl PreparedUnit {
    /// The unit's row as prepared, one slot per column: the store's
    /// verdict, or the outcome of the unit's own check; `None` where
    /// masked. [`CorpusRun::commit`] says whether the committed row is
    /// exactly this one.
    pub fn cells(&self) -> &[Option<CheckOutcome>] {
        &self.cells
    }
}

/// One enumeration pass over a set of columns, with its own counters;
/// its outcomes sit in the unit's cells.
#[derive(Debug)]
struct ColumnsCheck {
    columns: Vec<usize>,
    stats: Option<Arc<Stats>>,
}

/// One decided cell of a unit.
#[derive(Clone, Debug)]
pub struct UnitCell {
    /// Content-addressed cache key.
    pub key: u128,
    /// The structured outcome. Store hits and deduped replays are always
    /// `Complete` (inconclusive outcomes are never cached); computed
    /// outcomes are `Inconclusive` when the budget ran out.
    pub outcome: CheckOutcome,
    /// How it was answered.
    pub provenance: Provenance,
}

/// A streaming corpus session over a [`MultiBatchChecker`]: the caller
/// feeds units one at a time (in any index order, normally ascending),
/// gets each unit's row back as it commits, and collects the aggregate
/// [`MultiBatchReport`] at the end. This is what a checkpointing
/// campaign driver runs on — it can flush the store between units, skip
/// quarantined indices, and *re-run* a unit whose first attempt failed
/// partway.
///
/// The run keeps no unit's cells: across units it keeps per-column
/// counters, a dedupe map from key to the first unit that resolved it,
/// and the model sessions that check units on the calling thread. A
/// duplicate's verdict is replayed from the store (a backend that
/// dropped the first verdict's append makes the duplicate compute
/// afresh instead).
///
/// ## Retry semantics
///
/// `check_unit` is safe to call again with the same index after an
/// error or a contained panic, once [`CorpusRun::reset_unit`] has
/// forgotten the failed attempt: columns that already completed (their
/// verdict reached the store) replay instead of recomputing, and only
/// the columns that never finished are enumerated again. Session
/// counters (`hits`/`computed`/`deduped`) may double-count across such
/// a retry — they are stderr observability, deliberately excluded from
/// deterministic reports.
pub struct CorpusRun<'a, 'm, S: VerdictLog = VerdictStore> {
    checker: &'a MultiBatchChecker<'m, S>,
    /// Model sessions for the checks run here, kept from unit to unit.
    sessions: Sessions<'m>,
    columns: Vec<ColumnReport>,
    seen: Vec<HashMap<u128, usize>>,
    enumeration_passes: usize,
    candidates_actual: usize,
    corpus_meter: Meter,
    start: Instant,
}

impl<S: VerdictLog> CorpusRun<'_, '_, S> {
    /// Check corpus member `i` across every column `mask_row` enables
    /// (one slot per column) on the calling thread and return its row:
    /// [`CorpusRun::commit`] with nothing prepared, so every enabled
    /// column is looked up here and the ones the store lacks are checked
    /// right there, once the corpus budget has been polled.
    ///
    /// # Errors
    ///
    /// Store-append failure only; see the retry semantics above.
    pub fn check_unit(
        &mut self,
        i: usize,
        test: &Test,
        mask_row: &[bool],
    ) -> io::Result<Vec<Option<UnitCell>>> {
        let keys = self.checker.keys(test);
        let cells = vec![None; keys.len()];
        let prepared = PreparedUnit { keys, cells, check: None };
        self.commit(i, || test, mask_row, prepared).map(|(row, _)| row)
    }

    /// Apply unit `i`'s prepared check, in corpus order: reuse each store
    /// hit it was prepared with, and look the other enabled columns up
    /// again, since an earlier duplicate may have landed (a replay is
    /// `Deduped` if an earlier unit of this run resolved the key, else a
    /// `Hit`). Then settle the columns still missing with the prepared
    /// enumeration if it covered exactly those columns, or with a fresh
    /// one on this thread if not: nothing was prepared
    /// ([`CorpusRun::check_unit`]), or a duplicate landed. Only that
    /// fresh check reads the unit's test, so `test` is called for it then
    /// and not otherwise: a driver that prepared the unit elsewhere need
    /// not keep the test for its commit. Completed verdicts are appended
    /// to the store, unless early exit made their counts lower bounds.
    /// Returns the committed row, one slot per column (`None` where
    /// masked), and whether it is exactly the prepared one
    /// ([`PreparedUnit::cells`]), so whatever was derived from that row
    /// holds for this one.
    ///
    /// # Errors
    ///
    /// Store-append failure only; see the retry semantics above.
    pub fn commit<'t>(
        &mut self,
        i: usize,
        test: impl FnOnce() -> &'t Test,
        mask_row: &[bool],
        prepared: PreparedUnit,
    ) -> io::Result<(Vec<Option<UnitCell>>, bool)> {
        let ncols = self.columns.len();
        assert_eq!(mask_row.len(), ncols, "one mask slot per column");
        let mut row = vec![None; ncols];
        let PreparedUnit { keys, mut cells, check } = prepared;
        let checked = check.as_ref().map_or(&[][..], |check| &check.columns);
        let mut as_prepared = true;
        let mut missing: Vec<usize> = Vec::new();
        {
            let store = self.checker.store();
            for c in (0..ncols).filter(|&c| mask_row[c]) {
                let key = keys[c];
                // A column prepared without a hit goes back to the store.
                let hit = match cells[c].take_if(|_| !checked.contains(&c)) {
                    Some(CheckOutcome::Complete(hit)) => Some(hit),
                    _ => store.get(key).inspect(|_| as_prepared = false),
                };
                let Some(result) = hit else {
                    missing.push(c);
                    continue;
                };
                let provenance = if self.seen[c].contains_key(&key) {
                    self.columns[c].deduped += 1;
                    Provenance::Deduped
                } else {
                    self.columns[c].hits += 1;
                    self.seen[c].insert(key, i);
                    Provenance::Hit
                };
                let outcome = CheckOutcome::Complete(result);
                row[c] = Some(UnitCell { key, outcome, provenance });
            }
        }
        if missing.is_empty() {
            return Ok((row, as_prepared));
        }
        if let Err(kind) = self.corpus_meter.poll_now() {
            for &c in &missing {
                self.columns[c].inconclusive += 1;
                row[c] = Some(UnitCell {
                    key: keys[c],
                    outcome: CheckOutcome::Inconclusive {
                        reason: InconclusiveReason::BudgetExceeded(kind),
                        partial: Tally::default(),
                    },
                    provenance: Provenance::Computed,
                });
            }
            return Ok((row, false));
        }
        let check = match check {
            Some(check) if check.columns == missing => check,
            _ => {
                as_prepared = false;
                self.checker.check_columns(&mut self.sessions, test(), missing, &mut cells)
            }
        };
        self.checker.enum_opts.adopt_stats(&check.stats);
        self.enumeration_passes += 1;
        let mut store = self.checker.store_mut();
        for (k, &c) in check.columns.iter().enumerate() {
            let key = keys[c];
            let outcome = cells[c].take().expect("the check settles each of its columns");
            let candidates = match &outcome {
                // An early-exit result's counts are lower bounds: like an
                // inconclusive outcome, it is neither stored nor replayed.
                CheckOutcome::Complete(result) => {
                    if !self.checker.pipe.early_exit {
                        store.put(key, result.clone())?;
                        self.seen[c].insert(key, i);
                    }
                    self.columns[c].computed += 1;
                    result.candidates
                }
                // Inconclusive outcomes join neither the store nor the
                // dedupe map: a later isomorph deserves its own attempt.
                CheckOutcome::Inconclusive { partial, .. } => {
                    self.columns[c].inconclusive += 1;
                    partial.candidates
                }
            };
            self.columns[c].candidates_enumerated += candidates;
            // One pass served every column: count its candidates once.
            if k == 0 {
                self.candidates_actual += candidates;
            }
            row[c] = Some(UnitCell { key, outcome, provenance: Provenance::Computed });
        }
        Ok((row, as_prepared))
    }

    /// Forget unit `i`'s dedupe-map entries, so later isomorphs count as
    /// store hits instead of replays of a discarded row. A supervising
    /// driver calls this before retrying a failed unit and before
    /// quarantining one — verdicts that already reached the store stay
    /// there (they are content-addressed and valid regardless of which
    /// attempt produced them) and replay as hits on the retry.
    pub fn reset_unit(&mut self, i: usize) {
        for seen in &mut self.seen {
            seen.retain(|_, &mut first| first != i);
        }
    }

    /// Sync the store mid-run — what a checkpointing driver calls before
    /// recording progress, so the checkpoint never claims verdicts that
    /// aren't durable.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.checker.store_mut().flush()
    }

    /// Close the session: flush the store and return the aggregate
    /// counters (the per-column `outcomes` stay empty).
    ///
    /// # Errors
    ///
    /// I/O errors from the final flush.
    pub fn finish(mut self) -> io::Result<MultiBatchReport> {
        self.flush()?;
        Ok(MultiBatchReport {
            columns: self.columns,
            enumeration_passes: self.enumeration_passes,
            candidates_actual: self.candidates_actual,
            micros: self.start.elapsed().as_micros(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::model::AllowAll;
    use lkmm_exec::Verdict;
    use lkmm_litmus::parse;

    fn corpus(n: usize) -> Vec<Test> {
        lkmm_litmus::library::all().iter().take(n).map(|pt| pt.test()).collect()
    }

    fn full_mask(ncols: usize, ntests: usize) -> Vec<Vec<bool>> {
        vec![vec![true; ntests]; ncols]
    }

    /// A one-column checker, as `herd-rs --store` builds it.
    fn single<'m>(
        model: &'m dyn ConsistencyModel,
        store: VerdictStore,
        salt: &str,
    ) -> MultiBatchChecker<'m> {
        MultiBatchChecker::new(vec![MultiColumn { model, salt: salt.into() }], store)
    }

    /// One pass of a one-column checker over `tests`.
    fn single_pass(checker: &mut MultiBatchChecker<'_>, tests: &[Test]) -> ColumnReport {
        let report = checker.check_corpus(tests, &full_mask(1, tests.len())).unwrap();
        report.columns.into_iter().next().unwrap()
    }

    fn cells(col: &ColumnReport) -> impl Iterator<Item = &UnitCell> {
        col.outcomes.iter().map(|cell| cell.as_ref().expect("every cell enabled"))
    }

    #[test]
    fn second_corpus_pass_is_all_hits_with_zero_enumerations() {
        let tests = corpus(6);
        let mut checker = single(&AllowAll, VerdictStore::in_memory(), "test-salt");
        let cold = single_pass(&mut checker, &tests);
        assert_eq!(cold.computed, tests.len());
        assert!(cold.candidates_enumerated > 0);

        let warm = single_pass(&mut checker, &tests);
        assert_eq!(warm.hits, tests.len());
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.candidates_enumerated, 0);
        for (c, w) in cells(&cold).zip(cells(&warm)) {
            assert_eq!(c.outcome.result(), w.outcome.result());
            assert!(c.outcome.result().is_some());
            assert_eq!(c.key, w.key);
        }
    }

    #[test]
    fn isomorphic_corpus_members_dedupe() {
        let a = parse("C a\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let b = parse("C b\n{ y=0; }\nP0(int *y) { WRITE_ONCE(*y, 1); }\nexists (y=1)").unwrap();
        let mut checker = single(&AllowAll, VerdictStore::in_memory(), "s");
        let report = single_pass(&mut checker, &[a, b]);
        assert_eq!(report.computed, 1);
        assert_eq!(report.deduped, 1);
        let row: Vec<&UnitCell> = cells(&report).collect();
        assert_eq!(row[0].outcome.result(), row[1].outcome.result());
        assert_eq!(row[1].provenance, Provenance::Deduped);
    }

    #[test]
    fn family_ingestion_runs_through_the_cache() {
        use lkmm_generator::family::family_tests;
        use lkmm_generator::{Edge, Extremity::{R, W}, InternalKind};
        let mp = [
            Edge::internal(InternalKind::Po, W, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Po, R, R),
            Edge::Fre,
        ];
        let tests = family_tests(&mp).unwrap();
        assert_eq!(tests.len(), 35);
        let mut checker = single(&AllowAll, VerdictStore::in_memory(), "s");
        single_pass(&mut checker, &tests);
        let warm = single_pass(&mut checker, &tests);
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.hits + warm.deduped, 35);
    }

    #[test]
    fn different_salts_do_not_share_entries() {
        let t = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let one = single(&AllowAll, VerdictStore::in_memory(), "v1");
        let two = single(&AllowAll, VerdictStore::in_memory(), "v2");
        assert_ne!(one.key_of(0, &t), two.key_of(0, &t));
    }

    #[test]
    fn warm_naive_store_replays_byte_identically_under_pruned_enumeration() {
        // A store populated before the consistency-driven enumerator
        // landed (equivalently: by the naive ablation strategy) must be
        // pure hits for the pruned default — same keys, same outcomes,
        // and not a byte appended to the backing file.
        use lkmm_exec::EnumStrategy;
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("lkmm-batch-warm-replay-{}.bin", std::process::id()));
            let _ = std::fs::remove_file(&p);
            p
        };
        let tests = corpus(8);

        let mut naive = single(&AllowAll, VerdictStore::open(&path).unwrap(), "s")
            .with_options(EnumOptions { strategy: EnumStrategy::Naive, ..Default::default() });
        let naive_keys: Vec<u128> = tests.iter().map(|t| naive.key_of(0, t)).collect();
        let cold = single_pass(&mut naive, &tests);
        assert!(cold.computed > 0);
        drop(naive);
        let bytes_cold = std::fs::read(&path).unwrap();

        let mut pruned = single(&AllowAll, VerdictStore::open(&path).unwrap(), "s");
        let pruned_keys: Vec<u128> = tests.iter().map(|t| pruned.key_of(0, t)).collect();
        assert_eq!(naive_keys, pruned_keys, "strategy must not perturb cache keys");
        let warm = single_pass(&mut pruned, &tests);
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.candidates_enumerated, 0);
        assert_eq!(warm.hits + warm.deduped, tests.len());
        for (c, w) in cells(&cold).zip(cells(&warm)) {
            assert_eq!(c.key, w.key);
            assert_eq!(c.outcome.result(), w.outcome.result());
        }
        drop(pruned);
        let bytes_warm = std::fs::read(&path).unwrap();
        assert_eq!(bytes_cold, bytes_warm, "warm replay must not rewrite the store");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_is_not_part_of_the_cache_key() {
        let t = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let plain = single(&AllowAll, VerdictStore::in_memory(), "s");
        let tight = single(&AllowAll, VerdictStore::in_memory(), "s")
            .with_budget(Budget::default().with_max_candidates(1));
        assert_eq!(plain.key_of(0, &t), tight.key_of(0, &t));
    }

    #[test]
    fn inconclusive_is_not_cached_and_retries_recompute() {
        let sb = [lkmm_litmus::library::by_name("SB").unwrap().test()];
        let mut checker = single(&AllowAll, VerdictStore::in_memory(), "s")
            .with_budget(Budget::default().with_max_candidates(1));
        let starved = single_pass(&mut checker, &sb);
        let finished = cells(&starved).any(|c| c.outcome.result().is_some());
        assert!(!finished, "1 candidate cannot finish SB");
        assert_eq!(starved.inconclusive, 1);
        assert_eq!(checker.store().len(), 0, "inconclusive must not be stored");

        let mut checker = checker.with_budget(Budget::unlimited());
        let full = single_pass(&mut checker, &sb);
        let full = cells(&full).next().unwrap();
        assert_eq!(full.provenance, Provenance::Computed);
        let result = full.outcome.result().expect("unlimited budget completes").clone();
        assert_eq!(checker.store().len(), 1);

        // And now it hits.
        let hit = single_pass(&mut checker, &sb);
        let hit = cells(&hit).next().unwrap();
        assert_eq!(hit.provenance, Provenance::Hit);
        assert_eq!(hit.outcome.result(), Some(&result));
    }

    #[test]
    fn multi_keys_match_one_column_checkers() {
        let tests = corpus(4);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "v1|col:sc".into() },
                MultiColumn { model: &tso, salt: "v1|col:tso".into() },
            ],
            VerdictStore::in_memory(),
        );
        let single_sc = single(&sc, VerdictStore::in_memory(), "v1|col:sc");
        let single_tso = single(&tso, VerdictStore::in_memory(), "v1|col:tso");
        for t in &tests {
            assert_eq!(multi.key_of(0, t), single_sc.key_of(0, t));
            assert_eq!(multi.key_of(1, t), single_tso.key_of(0, t));
        }
    }

    #[test]
    fn unit_keys_equal_key_of_for_every_enabled_column() {
        let mut tests = corpus(usize::MAX);
        let cycles = lkmm_generator::cycles_up_to(3, &lkmm_generator::default_alphabet());
        tests.extend(cycles.iter().map(|c| lkmm_generator::generate(c).unwrap()));
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let c11 = lkmm_models::OriginalC11;
        let columns = || {
            vec![
                MultiColumn { model: &sc, salt: "u|col:sc".into() },
                MultiColumn { model: &tso, salt: "u|col:tso".into() },
                MultiColumn { model: &c11, salt: "u|col:c11".into() },
            ]
        };
        let default = MultiBatchChecker::new(columns(), VerdictStore::in_memory());
        // Options join every key, so changing them rehashes the prefixes.
        let opts = EnumOptions { max_executions: 4_096, ..EnumOptions::default() };
        let capped =
            MultiBatchChecker::new(columns(), VerdictStore::in_memory()).with_options(opts);
        assert_ne!(capped.key_of(0, &tests[0]), default.key_of(0, &tests[0]));
        for pass in ["cold", "warm"] {
            let mut run = capped.begin_corpus();
            for (i, test) in tests.iter().enumerate() {
                let mask: Vec<bool> = (0..3).map(|c| (i + c) % 3 != 0).collect();
                let row = run.check_unit(i, test, &mask).unwrap();
                for (c, cell) in row.into_iter().enumerate() {
                    assert_eq!(cell.is_some(), mask[c], "{pass} unit {i} column {c}");
                    if let Some(cell) = cell {
                        assert_eq!(cell.key, capped.key_of(c, test), "{pass} unit {i} column {c}");
                    }
                }
            }
            run.finish().unwrap();
        }
    }

    #[test]
    fn one_enumeration_serves_every_cold_column() {
        let tests = corpus(5);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let armv8 = lkmm_models::Armv8;
        let mut multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "s|col:sc".into() },
                MultiColumn { model: &tso, salt: "s|col:tso".into() },
                MultiColumn { model: &armv8, salt: "s|col:armv8".into() },
            ],
            VerdictStore::in_memory(),
        );
        let mask = full_mask(3, tests.len());
        let cold = multi.check_corpus(&tests, &mask).unwrap();
        assert_eq!(cold.enumeration_passes, tests.len());
        // Per-column counters still report the full per-verdict cost…
        let per_column: usize = cold.columns[0].candidates_enumerated;
        assert!(per_column > 0);
        assert_eq!(cold.columns[1].candidates_enumerated, per_column);
        // …while the shared pass only paid once.
        assert_eq!(cold.candidates_actual, per_column);

        // Warm re-run: all hits, nothing enumerated.
        let warm = multi.check_corpus(&tests, &mask).unwrap();
        assert_eq!(warm.enumeration_passes, 0);
        assert_eq!(warm.candidates_actual, 0);
        for (c, w) in cold.columns.iter().zip(&warm.columns) {
            assert_eq!(w.hits, tests.len());
            assert_eq!(w.computed, 0);
            for (co, wo) in c.outcomes.iter().zip(&w.outcomes) {
                assert_eq!(
                    co.as_ref().unwrap().outcome.result(),
                    wo.as_ref().unwrap().outcome.result()
                );
            }
        }
    }

    #[test]
    fn verdicts_match_sequential_single_model_passes() {
        let tests = corpus(6);
        let sc = lkmm_models::Sc;
        let c11 = lkmm_models::OriginalC11;
        let mut multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "q|col:sc".into() },
                MultiColumn { model: &c11, salt: "q|col:c11".into() },
            ],
            VerdictStore::in_memory(),
        );
        let report = multi.check_corpus(&tests, &full_mask(2, tests.len())).unwrap();
        for (c, (model, salt)) in
            [(&sc as &dyn ConsistencyModel, "q|col:sc"), (&c11, "q|col:c11")]
                .into_iter()
                .enumerate()
        {
            let seq = single_pass(&mut single(model, VerdictStore::in_memory(), salt), &tests);
            for (m, s) in cells(&report.columns[c]).zip(cells(&seq)) {
                assert_eq!(m.key, s.key);
                assert_eq!(m.outcome.result(), s.outcome.result());
                assert_eq!(m.provenance, s.provenance);
            }
        }
    }

    #[test]
    fn masked_cells_stay_none_and_cost_nothing() {
        let tests = corpus(3);
        let sc = lkmm_models::Sc;
        let mut multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "m|col:a".into() },
                MultiColumn { model: &AllowAll, salt: "m|col:b".into() },
            ],
            VerdictStore::in_memory(),
        );
        let mask = vec![vec![true, true, true], vec![true, false, false]];
        let report = multi.check_corpus(&tests, &mask).unwrap();
        assert!(report.columns[1].outcomes[1].is_none());
        assert!(report.columns[1].outcomes[2].is_none());
        assert_eq!(report.columns[1].computed + report.columns[1].hits, 1);
        assert!(report.columns[0].outcomes.iter().all(Option::is_some));
    }

    #[test]
    fn partial_warmth_enumerates_only_for_the_cold_column() {
        let tests = corpus(4);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let mut multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "p|col:sc".into() },
                MultiColumn { model: &tso, salt: "p|col:tso".into() },
            ],
            VerdictStore::in_memory(),
        );
        // Warm the SC column alone by masking TSO out entirely.
        let sc_only = vec![vec![true; tests.len()], vec![false; tests.len()]];
        let first = multi.check_corpus(&tests, &sc_only).unwrap();
        assert_eq!(first.enumeration_passes, tests.len());
        // With both columns on, SC replays and the still-cold TSO column
        // drives one fresh pass per test.
        let second = multi.check_corpus(&tests, &full_mask(2, tests.len())).unwrap();
        assert_eq!(second.columns[0].hits, tests.len(), "sc column replays");
        assert_eq!(second.columns[1].computed, tests.len(), "tso column computes");
        assert_eq!(second.enumeration_passes, tests.len(), "one pass per cold test");
        for o in second.columns[1].outcomes.iter().flatten() {
            assert!(matches!(
                o.outcome.result().map(|r| r.verdict),
                Some(Verdict::Allowed | Verdict::Forbidden)
            ));
        }
    }

    #[test]
    fn a_check_prepared_beside_its_duplicate_is_discarded_at_commit() {
        let test = corpus(1).remove(0);
        let sc = lkmm_models::Sc;
        let stats = Arc::new(Stats::default());
        let multi = MultiBatchChecker::new(
            vec![MultiColumn { model: &sc, salt: "d|col:sc".into() }],
            VerdictStore::in_memory(),
        )
        .with_options(EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() });
        // Both copies are prepared before either commits, as two
        // workers would: each enumerates, since the store is empty.
        let first = multi.prepare(&mut multi.sessions(), &test, &[true]);
        let second = multi.prepare(&mut multi.sessions(), &test, &[true]);
        let mut run = multi.begin_corpus();
        assert!(run.commit(0, || &test, &[true], first).unwrap().1, "committed as prepared");
        let after_first = stats.snapshot();
        assert!(after_first.data_plane.arena_acquires > 0);
        let (row, as_prepared) = run.commit(1, || &test, &[true], second).unwrap();
        assert!(!as_prepared, "the duplicate replays");
        assert_eq!(stats.snapshot(), after_first, "a discarded check counts nowhere");
        assert_eq!(row[0].as_ref().unwrap().provenance, Provenance::Deduped);
        let report = run.finish().unwrap();
        assert_eq!(report.enumeration_passes, 1);
        assert_eq!((report.columns[0].computed, report.columns[0].deduped), (1, 1));
    }

    #[test]
    fn a_reset_unit_replays_its_stored_verdicts_as_hits() {
        let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "r|col:sc".into() },
                MultiColumn { model: &tso, salt: "r|col:tso".into() },
            ],
            VerdictStore::in_memory(),
        );
        // A supervisor that fails the unit after its verdicts reached the
        // store resets it and checks it again: the retry replays them as
        // store hits, not as in-run duplicates of the forgotten attempt.
        let mut run = multi.begin_corpus();
        let first = run.check_unit(0, &sb, &[true, true]).unwrap();
        run.reset_unit(0);
        let retry = run.check_unit(0, &sb, &[true, true]).unwrap();
        for (first, retry) in first.iter().zip(&retry) {
            let (first, retry) = (first.as_ref().unwrap(), retry.as_ref().unwrap());
            assert_eq!(first.provenance, Provenance::Computed);
            assert_eq!(retry.provenance, Provenance::Hit);
            assert_eq!(retry.key, first.key);
            assert_eq!(retry.outcome.result(), first.outcome.result());
            assert!(retry.outcome.result().is_some());
        }
        let report = run.finish().unwrap();
        assert_eq!(report.enumeration_passes, 1);
        for col in &report.columns {
            assert_eq!((col.computed, col.hits, col.deduped), (1, 1, 0));
        }
    }

    #[test]
    fn early_exit_results_are_neither_stored_nor_replayed() {
        let a = parse("C a\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let b = parse("C b\n{ y=0; }\nP0(int *y) { WRITE_ONCE(*y, 1); }\nexists (y=1)").unwrap();
        let tests = [a, b];
        let exact = single_pass(&mut single(&AllowAll, VerdictStore::in_memory(), "s"), &tests);
        let mut checker = single(&AllowAll, VerdictStore::in_memory(), "s").with_early_exit(true);
        let early = single_pass(&mut checker, &tests);
        assert_eq!((early.computed, early.deduped, early.hits), (2, 0, 0));
        assert_eq!(checker.store().len(), 0, "lower-bound counts are never stored");
        for (e, x) in cells(&early).zip(cells(&exact)) {
            assert_eq!(e.provenance, Provenance::Computed);
            let (e, x) = (e.outcome.result().unwrap(), x.outcome.result().unwrap());
            assert_eq!((e.verdict, e.condition_holds), (x.verdict, x.condition_holds));
        }
    }

    #[test]
    fn budget_trip_marks_every_missing_column_inconclusive() {
        let tests = corpus(2);
        let sc = lkmm_models::Sc;
        let tso = lkmm_models::X86Tso;
        let mut multi = MultiBatchChecker::new(
            vec![
                MultiColumn { model: &sc, salt: "b|col:sc".into() },
                MultiColumn { model: &tso, salt: "b|col:tso".into() },
            ],
            VerdictStore::in_memory(),
        )
        .with_budget(Budget::default().with_max_candidates(1));
        let report = multi.check_corpus(&tests, &full_mask(2, tests.len())).unwrap();
        for col in &report.columns {
            assert_eq!(col.inconclusive, tests.len());
            assert_eq!(col.computed, 0);
        }
        assert_eq!(multi.store().len(), 0, "inconclusive is never stored");
    }
}
