//! Batch checking through the verdict store.
//!
//! [`BatchChecker`] is the paper's §5 workflow as a service: ingest a
//! corpus (the built-in library, parsed files, or a generator sweep),
//! deduplicate isomorphic tests by canonical hash, answer what the store
//! already knows, schedule only the misses across the parallel pipeline,
//! and write the new verdicts back. Re-checking a corpus after a model
//! tweak *with a bumped salt* recomputes everything; re-checking without
//! one is pure cache replay — zero candidate enumerations.
//!
//! Checks run through the governed pipeline: a [`Budget`] installed with
//! [`BatchChecker::set_budget`] bounds each check, and checks that do
//! not complete surface as [`CheckOutcome::Inconclusive`] per-test
//! outcomes instead of failing the batch. Inconclusive verdicts are
//! **never written to the store** — they describe the budget, not the
//! test, so a retry with a bigger budget must see a miss, not a poisoned
//! hit.

use crate::canon::{canonical_text, KeyPrefix};
use crate::store::{VerdictLog, VerdictStore};
use lkmm_core::budget::Budget;
use lkmm_exec::{check, CheckOutcome, ConsistencyModel, EnumOptions, PipelineOptions, TestResult};
use lkmm_generator::family::family_tests;
use lkmm_generator::{Edge, GenError};
use lkmm_litmus::ast::Test;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::time::Instant;

/// Where one test's result came from.
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

/// One checked corpus member.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The test's (original, pre-canonicalization) name.
    pub name: String,
    /// Content-addressed cache key.
    pub key: u128,
    /// The structured outcome. Store hits and deduped replays are always
    /// `Complete` (inconclusive outcomes are never cached); computed
    /// outcomes are `Inconclusive` when the budget ran out.
    pub outcome: CheckOutcome,
    /// How it was answered.
    pub provenance: Provenance,
}

impl BatchOutcome {
    /// The completed verdict data, if the check finished.
    pub fn result(&self) -> Option<&TestResult> {
        self.outcome.result()
    }
}

/// Aggregate observability for one [`BatchChecker::check_corpus`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-test outcomes, in corpus order.
    pub outcomes: Vec<BatchOutcome>,
    /// Store hits.
    pub hits: usize,
    /// Tests actually enumerated and checked to completion.
    pub computed: usize,
    /// In-batch duplicates of an earlier canonical key.
    pub deduped: usize,
    /// Tests whose check stopped early on a budget/fault (not stored).
    pub inconclusive: usize,
    /// Candidate executions enumerated for the whole batch (0 on a fully
    /// warm cache), including those of inconclusive partial runs.
    pub candidates_enumerated: usize,
    /// Wall-clock for the batch, in microseconds.
    pub micros: u128,
}

/// Batch checking failure. Enumeration and budget problems are *not*
/// errors here — they surface as per-test [`CheckOutcome::Inconclusive`]
/// outcomes, so one pathological corpus member cannot fail the batch.
#[derive(Debug)]
pub enum BatchError {
    /// The store could not be written.
    Io(io::Error),
    /// Generator ingestion was handed an invalid cycle.
    Generate(GenError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io(e) => write!(f, "verdict store: {e}"),
            BatchError::Generate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<io::Error> for BatchError {
    fn from(e: io::Error) -> Self {
        BatchError::Io(e)
    }
}

impl From<GenError> for BatchError {
    fn from(e: GenError) -> Self {
        BatchError::Generate(e)
    }
}

/// The key prefix of `model`'s column under `salt` and `opts`.
/// EnumOptions influence candidate counts (caps, Scpv pruning), so two
/// configurations must never share an entry: their `Debug` form joins
/// the salt. That form deliberately excludes the budget, which the
/// checkers change per request without rehashing.
pub(crate) fn key_prefix(
    model: &dyn ConsistencyModel,
    salt: &str,
    opts: &EnumOptions,
) -> KeyPrefix {
    KeyPrefix::new(model.name(), &format!("{salt}|{opts:?}"))
}

/// A memoizing checker: one model, one store, one version salt.
///
/// Generic over its [`VerdictLog`] backend (default: a plain owned
/// [`VerdictStore`]), so the same checker drives the single-store CLI
/// path and the server's shared [`crate::ShardedStore`] handle.
pub struct BatchChecker<'m, S: VerdictLog = VerdictStore> {
    model: &'m dyn ConsistencyModel,
    store: S,
    salt: String,
    /// The key prefix for `salt` and `enum_opts`, rehashed only when the
    /// options change.
    key_prefix: KeyPrefix,
    enum_opts: EnumOptions,
    pipe: PipelineOptions,
    session_hits: usize,
    session_computed: usize,
    session_inconclusive: usize,
}

impl<'m, S: VerdictLog> BatchChecker<'m, S> {
    /// A checker writing through `store`. `salt` versions the cache: it
    /// should name the model/interpreter revision (bump it when checking
    /// semantics change and old entries silently stop matching). The
    /// enumerator options are folded into every key, since they can
    /// change counts.
    pub fn new(model: &'m dyn ConsistencyModel, store: S, salt: &str) -> Self {
        let enum_opts = EnumOptions::default();
        BatchChecker {
            model,
            store,
            salt: salt.to_string(),
            key_prefix: key_prefix(model, salt, &enum_opts),
            enum_opts,
            pipe: PipelineOptions { jobs: 0, ..PipelineOptions::default() },
            session_hits: 0,
            session_computed: 0,
            session_inconclusive: 0,
        }
    }

    /// Override the enumeration options (folded into cache keys, except
    /// the budget — see [`BatchChecker::set_budget`]).
    pub fn with_options(mut self, opts: EnumOptions) -> Self {
        self.key_prefix = key_prefix(self.model, &self.salt, &opts);
        self.enum_opts = opts;
        self
    }

    /// Check misses on `jobs` pipeline workers (`0` = one per hardware
    /// thread). Job count never affects results, so it is *not* part of
    /// the cache key. Early exit is deliberately unsupported here: its
    /// lower-bound counts must never be cached as exact.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pipe.jobs = jobs;
        self
    }

    /// Record arena counters into `stats` during enumeration passes.
    /// Observability only — like job count, never part of cache keys,
    /// and a warm store (which enumerates nothing) legitimately leaves
    /// the counters at zero.
    pub fn with_pipeline_stats(
        mut self,
        stats: Option<std::sync::Arc<lkmm_exec::DataPlaneStats>>,
    ) -> Self {
        self.pipe.stats = stats;
        self
    }

    /// Builder form of [`BatchChecker::set_budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.set_budget(budget);
        self
    }

    /// Bound every subsequent check by `budget`. The budget is *not*
    /// part of the cache key: it cannot change a completed verdict, and
    /// inconclusive outcomes are never stored, so entries computed under
    /// any budget are interchangeable.
    pub fn set_budget(&mut self, budget: Budget) {
        self.enum_opts.budget = budget;
    }

    /// Set (or clear) an absolute deadline on the current budget. The
    /// serve loop uses this to give each request its own deadline
    /// without rebuilding the checker.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.enum_opts.budget.deadline = deadline;
    }

    /// The cache key this checker derives for `test`.
    pub fn key_of(&self, test: &Test) -> u128 {
        self.key_prefix.key_of_text(&canonical_text(test))
    }

    /// Check one test, answering from the store when possible. A check
    /// stopped by its budget (or a contained worker panic) returns an
    /// `Inconclusive` outcome and stores nothing, so retrying with a
    /// bigger budget recomputes it.
    ///
    /// # Errors
    ///
    /// Store-append failure only.
    pub fn check_one(&mut self, test: &Test) -> Result<BatchOutcome, BatchError> {
        let key = self.key_of(test);
        if let Some(result) = self.store.get(key) {
            self.session_hits += 1;
            return Ok(BatchOutcome {
                name: test.name.clone(),
                key,
                outcome: CheckOutcome::Complete(result),
                provenance: Provenance::Hit,
            });
        }
        let outcome = check(&[self.model], test, &self.enum_opts, &self.pipe).into_first();
        match &outcome {
            CheckOutcome::Complete(result) => {
                self.store.put(key, result.clone())?;
                self.session_computed += 1;
            }
            CheckOutcome::Inconclusive { .. } => {
                self.session_inconclusive += 1;
            }
        }
        Ok(BatchOutcome { name: test.name.clone(), key, outcome, provenance: Provenance::Computed })
    }

    /// Check a corpus: dedupe by canonical key, replay hits, compute
    /// misses, write back, and sync the store once at the end.
    ///
    /// The budget's `deadline`/`cancel` axes also govern the corpus
    /// *between* tests: once tripped, every remaining test is reported
    /// `Inconclusive` without being checked (outcomes keep corpus order
    /// and length). The relative `time_limit` axis stays per-check.
    ///
    /// # Errors
    ///
    /// Store failure (the store keeps everything computed before the
    /// failing test).
    pub fn check_corpus(&mut self, tests: &[Test]) -> Result<BatchReport, BatchError> {
        use lkmm_exec::{InconclusiveReason, Tally};
        let start = Instant::now();
        let mut outcomes: Vec<BatchOutcome> = Vec::with_capacity(tests.len());
        let mut seen: HashMap<u128, usize> = HashMap::new();
        let mut hits = 0;
        let mut computed = 0;
        let mut deduped = 0;
        let mut inconclusive = 0;
        let mut candidates_enumerated = 0;
        // Corpus-level governor: absolute deadline and cancellation only.
        // Candidate/step fuel and the relative time limit are per-check.
        let mut corpus_meter = Budget {
            max_candidates: None,
            max_eval_steps: None,
            time_limit: None,
            ..self.enum_opts.budget.clone()
        }
        .meter();
        for test in tests {
            let key = self.key_of(test);
            if let Some(&first) = seen.get(&key) {
                deduped += 1;
                outcomes.push(BatchOutcome {
                    name: test.name.clone(),
                    key,
                    outcome: outcomes[first].outcome.clone(),
                    provenance: Provenance::Deduped,
                });
                continue;
            }
            if let Err(kind) = corpus_meter.poll_now() {
                inconclusive += 1;
                self.session_inconclusive += 1;
                outcomes.push(BatchOutcome {
                    name: test.name.clone(),
                    key,
                    outcome: CheckOutcome::Inconclusive {
                        reason: InconclusiveReason::BudgetExceeded(kind),
                        partial: Tally::default(),
                    },
                    provenance: Provenance::Computed,
                });
                continue;
            }
            let outcome = self.check_one(test)?;
            match (&outcome.provenance, &outcome.outcome) {
                (Provenance::Hit, _) => {
                    hits += 1;
                    seen.insert(key, outcomes.len());
                }
                (Provenance::Computed, CheckOutcome::Complete(result)) => {
                    computed += 1;
                    candidates_enumerated += result.candidates;
                    // Only conclusive outcomes join the dedupe map: a
                    // later isomorph of an inconclusive test deserves
                    // its own attempt, not a replay of a budget trip.
                    seen.insert(key, outcomes.len());
                }
                (Provenance::Computed, CheckOutcome::Inconclusive { partial, .. }) => {
                    inconclusive += 1;
                    candidates_enumerated += partial.candidates;
                }
                (Provenance::Deduped, _) => unreachable!("check_one never dedupes"),
            }
            outcomes.push(outcome);
        }
        self.store.flush()?;
        Ok(BatchReport {
            outcomes,
            hits,
            computed,
            deduped,
            inconclusive,
            candidates_enumerated,
            micros: start.elapsed().as_micros(),
        })
    }

    /// Check every test of the built-in paper library.
    ///
    /// # Errors
    ///
    /// See [`BatchChecker::check_corpus`].
    pub fn check_library(&mut self) -> Result<BatchReport, BatchError> {
        let tests: Vec<Test> =
            lkmm_litmus::library::all().iter().map(lkmm_litmus::library::PaperTest::test).collect();
        self.check_corpus(&tests)
    }

    /// Generator ingestion: check every well-formed variation of `base`
    /// (see [`lkmm_generator::family`]) through the cache.
    ///
    /// # Errors
    ///
    /// Invalid base cycle or store failure.
    pub fn check_family(&mut self, base: &[Edge]) -> Result<BatchReport, BatchError> {
        let tests = family_tests(base)?;
        self.check_corpus(&tests)
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Store hits answered since construction.
    pub fn session_hits(&self) -> usize {
        self.session_hits
    }

    /// Tests computed (not replayed) since construction.
    pub fn session_computed(&self) -> usize {
        self.session_computed
    }

    /// Checks stopped by budgets/faults since construction (not stored).
    pub fn session_inconclusive(&self) -> usize {
        self.session_inconclusive
    }

    /// Sync the store to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.store.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::model::AllowAll;
    use lkmm_litmus::parse;

    #[test]
    fn second_corpus_pass_is_all_hits_with_zero_enumerations() {
        let tests: Vec<Test> =
            lkmm_litmus::library::all().iter().take(6).map(|pt| pt.test()).collect();
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "test-salt");
        let cold = checker.check_corpus(&tests).unwrap();
        assert_eq!(cold.computed, tests.len());
        assert!(cold.candidates_enumerated > 0);

        let warm = checker.check_corpus(&tests).unwrap();
        assert_eq!(warm.hits, tests.len());
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.candidates_enumerated, 0);
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(c.result(), w.result());
            assert!(c.result().is_some());
            assert_eq!(c.key, w.key);
        }
    }

    #[test]
    fn isomorphic_corpus_members_dedupe() {
        let a = parse("C a\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let b = parse("C b\n{ y=0; }\nP0(int *y) { WRITE_ONCE(*y, 1); }\nexists (y=1)").unwrap();
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s");
        let report = checker.check_corpus(&[a, b]).unwrap();
        assert_eq!(report.computed, 1);
        assert_eq!(report.deduped, 1);
        assert_eq!(report.outcomes[0].result(), report.outcomes[1].result());
        assert_eq!(report.outcomes[1].provenance, Provenance::Deduped);
    }

    #[test]
    fn family_ingestion_runs_through_the_cache() {
        use lkmm_generator::{Extremity::{R, W}, InternalKind};
        let mp = [
            Edge::internal(InternalKind::Po, W, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Po, R, R),
            Edge::Fre,
        ];
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s");
        let cold = checker.check_family(&mp).unwrap();
        assert_eq!(cold.outcomes.len(), 35);
        let warm = checker.check_family(&mp).unwrap();
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.hits + warm.deduped, 35);
    }

    #[test]
    fn different_salts_do_not_share_entries() {
        let t = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let mut one = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "v1");
        let key_v1 = one.key_of(&t);
        let mut two = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "v2");
        assert_ne!(key_v1, two.key_of(&t));
        let _ = (one.check_one(&t).unwrap(), two.check_one(&t).unwrap());
    }

    #[test]
    fn warm_naive_store_replays_byte_identically_under_pruned_enumeration() {
        // A store populated before the consistency-driven enumerator
        // landed (equivalently: by the naive ablation strategy) must be
        // pure hits for the pruned default — same keys, same outcomes,
        // and not a byte appended to the backing file.
        use lkmm_exec::{EnumOptions, EnumStrategy};
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("lkmm-batch-warm-replay-{}.bin", std::process::id()));
            let _ = std::fs::remove_file(&p);
            p
        };
        let tests: Vec<Test> =
            lkmm_litmus::library::all().iter().take(8).map(|pt| pt.test()).collect();

        let mut naive = BatchChecker::new(&AllowAll, VerdictStore::open(&path).unwrap(), "s")
            .with_options(EnumOptions { strategy: EnumStrategy::Naive, ..Default::default() });
        let naive_keys: Vec<u128> = tests.iter().map(|t| naive.key_of(t)).collect();
        let cold = naive.check_corpus(&tests).unwrap();
        assert!(cold.computed > 0);
        drop(naive);
        let bytes_cold = std::fs::read(&path).unwrap();

        let mut pruned = BatchChecker::new(&AllowAll, VerdictStore::open(&path).unwrap(), "s");
        let pruned_keys: Vec<u128> = tests.iter().map(|t| pruned.key_of(t)).collect();
        assert_eq!(naive_keys, pruned_keys, "strategy must not perturb cache keys");
        let warm = pruned.check_corpus(&tests).unwrap();
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.candidates_enumerated, 0);
        assert_eq!(warm.hits + warm.deduped, tests.len());
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(c.key, w.key);
            assert_eq!(c.result(), w.result());
        }
        drop(pruned);
        let bytes_warm = std::fs::read(&path).unwrap();
        assert_eq!(bytes_cold, bytes_warm, "warm replay must not rewrite the store");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_is_not_part_of_the_cache_key() {
        let t = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let plain = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s");
        let tight = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s")
            .with_budget(Budget::default().with_max_candidates(1));
        assert_eq!(plain.key_of(&t), tight.key_of(&t));
    }

    #[test]
    fn inconclusive_is_not_cached_and_retries_recompute() {
        let t = lkmm_litmus::library::by_name("SB").unwrap().test();
        let mut checker = BatchChecker::new(&AllowAll, VerdictStore::in_memory(), "s")
            .with_budget(Budget::default().with_max_candidates(1));
        let starved = checker.check_one(&t).unwrap();
        assert!(starved.result().is_none(), "1 candidate cannot finish SB");
        assert_eq!(checker.session_inconclusive(), 1);
        assert_eq!(checker.store().len(), 0, "inconclusive must not be stored");

        checker.set_budget(Budget::unlimited());
        let full = checker.check_one(&t).unwrap();
        assert_eq!(full.provenance, Provenance::Computed);
        let result = full.result().expect("unlimited budget completes").clone();
        assert_eq!(checker.store().len(), 1);

        // And now it hits.
        let hit = checker.check_one(&t).unwrap();
        assert_eq!(hit.provenance, Provenance::Hit);
        assert_eq!(hit.result(), Some(&result));
    }
}
