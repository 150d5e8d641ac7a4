//! Parallel streaming candidate-execution checking.
//!
//! [`check_test`](crate::model::check_test) enumerates and checks on one
//! thread. This module fans the same candidate stream out to a pool of
//! worker threads: the enumerator (running on the calling thread) groups
//! owned [`Execution`]s into **batches** and pushes them into bounded
//! per-worker queues round-robin, each worker evaluates the model
//! through its own [`ModelSession`] (so per-test caches work without
//! sharing), and the per-worker tallies are merged with `+`/`&&` —
//! commutative, associative folds — so verdicts and counts are
//! **bit-identical** to the sequential path no matter how the OS
//! schedules the workers.
//!
//! Batching is what keeps the per-pre-execution caches (model-session
//! statics, [`FactsCache`], the cat evaluator's static node slots)
//! hot: consecutive candidates of one pre-execution land on the same
//! worker instead of being sprayed across all of them one at a time.
//! Batch size adapts to per-candidate cost — event count times the sum
//! of the models' [`ConsistencyModel::eval_cost_hint`]s — so cheap tests
//! ship big batches while expensive interpreted models stay
//! fine-grained; see [`PipelineOptions::batch_size`]. Workers are
//! spawned lazily, only once the first batch fills: a stream that ends
//! earlier is evaluated inline on the calling thread with zero spawns
//! and zero queue traffic.
//!
//! Each worker owns a [`RelationArena`](lkmm_relation::RelationArena)
//! threaded through its [`FactsCache`], so the witness-tier relations of
//! steady-state candidates are computed into recycled storage instead of
//! fresh allocations. The arena is a pipeline-internal optimisation:
//! `check_test` stays the simple allocating reference implementation the
//! differential oracles compare against.
//!
//! The pool is hand-rolled on `std::thread::scope` + `std::sync::mpsc`:
//! this workspace builds with zero external dependencies.
//!
//! Early exit (off by default) stops the pipeline as soon as the
//! quantified verdict is decided — for `exists`/`~exists` at the first
//! witness, for `forall` once both a witness and a non-satisfying allowed
//! candidate have been seen. The verdict and `condition_holds` are
//! guaranteed to match a full run; the `candidates`/`allowed`/`witnesses`
//! counts are then lower bounds, which is why the flag exists instead of
//! being always-on.
//!
//! # Resource governance
//!
//! [`check_test_governed`] is the budget-aware entry point: it honours
//! the [`Budget`](lkmm_core::budget::Budget) in
//! [`EnumOptions::budget`] and always returns a structured
//! [`CheckOutcome`] — either `Complete` (exactly what the ungoverned
//! path computes) or `Inconclusive` with the reason and the partial
//! [`Tally`] accumulated before the stop. It never hangs and never
//! aborts the process: every worker runs its whole evaluation loop
//! inside one `catch_unwind` (one unwind frame per worker, not per
//! candidate), so a panicking model (or an armed `worker.panic` fault
//! point) poisons only that one check.
//!
//! With an unlimited budget the governed and legacy paths run the exact
//! same loops and produce identical tallies; the only difference is the
//! wrapper type.

use crate::enumerate::{try_for_each_execution, EnumError, EnumOptions};
use crate::execution::Execution;
use crate::facts::FactsCache;
use crate::model::{open_session, ConsistencyModel, EvalStop, ModelSession, TestResult, Verdict};
use lkmm_core::budget::{Budget, BudgetKind, StepFuel};
use lkmm_core::faultpoint;
use lkmm_litmus::ast::Test;
use lkmm_litmus::cond::{Prop, Quantifier};
use std::any::Any;
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Hard ceiling on worker threads. Litmus-scale candidate streams cannot
/// keep more workers than this busy, and each worker costs a stack plus
/// a bounded queue; values beyond the cap are almost certainly typos
/// (`--jobs 10000`), which the CLI rejects and [`effective_jobs`] clamps.
pub const MAX_JOBS: usize = 512;

/// Tuning knobs for the parallel check pipeline.
#[derive(Clone, Debug, Default)]
pub struct PipelineOptions {
    /// Worker threads. `0` means one per available hardware thread
    /// (see [`effective_jobs`]); `1` checks on the calling thread with
    /// no queues or workers. Values above [`MAX_JOBS`] are clamped, and
    /// the spawned count never exceeds the host's available parallelism
    /// (oversubscribed workers only add queue traffic; verdicts and
    /// counts are identical at any worker count regardless).
    pub jobs: usize,
    /// Stop enumerating once the quantified verdict is decided. Verdict
    /// and `condition_holds` still match a full run exactly; the counts
    /// become lower bounds.
    pub early_exit: bool,
    /// Bound of each worker's queue, measured in **candidates** (the
    /// per-queue batch bound is derived from this and the batch size).
    /// Backpressure keeps the enumerator from materialising the
    /// candidate space when workers fall behind. `0` means the default
    /// of [`DEFAULT_QUEUE_DEPTH`]; clamped to ≥ 1 otherwise.
    pub queue_depth: usize,
    /// Candidates per queue slot. `0` (the default) sizes batches
    /// automatically from the per-candidate cost estimate — event count
    /// of the first candidate times the sum of the models'
    /// [`ConsistencyModel::eval_cost_hint`]s — clamped to
    /// `1..=`[`MAX_BATCH`]. Cheap tests get big batches (amortising
    /// queue traffic and keeping per-pre-execution caches hot);
    /// expensive interpreted models stay fine-grained so work still
    /// spreads across workers.
    pub batch_size: usize,
    /// Opt-in data-plane counters (batch occupancy, arena reuse).
    /// `None` (the default) records nothing.
    pub stats: Option<Arc<DataPlaneStats>>,
}

/// Default [`PipelineOptions::queue_depth`] in candidates.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Ceiling on automatically-sized batches. Explicit
/// [`PipelineOptions::batch_size`] values may exceed it.
pub const MAX_BATCH: usize = 64;

/// Cost target of one automatically-sized batch, in `events ×
/// cost-hint` units: a batch aims to carry about this much evaluation
/// work regardless of how cheap or expensive each candidate is.
const BATCH_COST_TARGET: usize = 2048;

/// Resolve the batch size for a candidate stream whose first candidate
/// is `first`: an explicit request wins, otherwise balance the
/// per-candidate cost estimate against [`BATCH_COST_TARGET`].
fn batch_size_for(first: &Execution, models_cost: usize, requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let cost = first.events.len().max(1) * models_cost.max(1);
    (BATCH_COST_TARGET / cost).clamp(1, MAX_BATCH)
}

/// Opt-in counters describing how the batched data plane behaved:
/// how many batches formed, how many candidates rode them, and how much
/// relation storage the per-worker arenas recycled. Shared via
/// [`PipelineOptions::stats`]; all methods are thread-safe.
///
/// `batches_formed` and `batch_candidates` are pure functions of the
/// candidate stream, so for complete (non-early-exit,
/// non-wall-clock-bounded) runs they are **job-count-invariant**.
/// `arena_acquires` is invariant only for models whose facts are all
/// per-candidate: per-worker facts caches recompute shared
/// pre-execution-tier facts when one pre-execution's batches land on
/// different workers, which adds a handful of acquires per extra
/// worker. `arena_reuses` is not invariant at all: each worker's pool
/// warms up separately, so more workers means more cold first
/// acquisitions.
#[derive(Debug, Default)]
pub struct DataPlaneStats {
    batches_formed: AtomicU64,
    batch_candidates: AtomicU64,
    arena_acquires: AtomicU64,
    arena_reuses: AtomicU64,
}

impl DataPlaneStats {
    /// A consistent copy of the counters.
    pub fn snapshot(&self) -> DataPlaneSnapshot {
        DataPlaneSnapshot {
            batches_formed: self.batches_formed.load(Ordering::Relaxed),
            batch_candidates: self.batch_candidates.load(Ordering::Relaxed),
            arena_acquires: self.arena_acquires.load(Ordering::Relaxed),
            arena_reuses: self.arena_reuses.load(Ordering::Relaxed),
        }
    }

    fn add_batches(&self, batches: u64, candidates: u64) {
        self.batches_formed.fetch_add(batches, Ordering::Relaxed);
        self.batch_candidates.fetch_add(candidates, Ordering::Relaxed);
    }

    fn add_arena(&self, acquires: u64, reuses: u64) {
        self.arena_acquires.fetch_add(acquires, Ordering::Relaxed);
        self.arena_reuses.fetch_add(reuses, Ordering::Relaxed);
    }
}

/// Plain-data view of [`DataPlaneStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataPlaneSnapshot {
    /// Batches shipped to workers (or accounted by the inline path).
    pub batches_formed: u64,
    /// Candidates carried by those batches.
    pub batch_candidates: u64,
    /// Relation/set/scratch acquisitions served by per-worker arenas.
    pub arena_acquires: u64,
    /// Acquisitions served from pooled storage instead of the allocator.
    pub arena_reuses: u64,
}

impl DataPlaneSnapshot {
    /// Mean candidates per batch, `0.0` when no batch formed.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches_formed == 0 {
            0.0
        } else {
            self.batch_candidates as f64 / self.batches_formed as f64
        }
    }
}

/// Resolve a `--jobs` value: `0` becomes the available parallelism
/// (falling back to 1 if the platform cannot report it); anything above
/// [`MAX_JOBS`] is clamped to it.
pub fn effective_jobs(jobs: usize) -> usize {
    let jobs = if jobs == 0 { hardware_parallelism() } else { jobs };
    jobs.min(MAX_JOBS)
}

/// The host's available parallelism, queried once per process.
/// `std::thread::available_parallelism` consults the cgroup filesystem
/// on Linux, which is far too slow to sit on the per-test check path —
/// a corpus run calls into the pipeline thousands of times.
fn hardware_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One worker's (or the sequential loop's) running totals. Merging two
/// tallies is commutative and associative, which is what makes the
/// parallel merge deterministic. Public so `Inconclusive` outcomes can
/// report exactly how far a check got before its budget ran out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Candidate executions fully evaluated.
    pub candidates: usize,
    /// Candidates allowed by the model.
    pub allowed: usize,
    /// Allowed candidates satisfying the proposition.
    pub witnesses: usize,
    /// Some allowed candidate does not satisfy the proposition (decides
    /// `forall` negatively).
    pub saw_non_satisfying: bool,
}

impl Tally {
    fn merge(self, other: Tally) -> Tally {
        Tally {
            candidates: self.candidates + other.candidates,
            allowed: self.allowed + other.allowed,
            witnesses: self.witnesses + other.witnesses,
            saw_non_satisfying: self.saw_non_satisfying || other.saw_non_satisfying,
        }
    }

    /// Whether the quantified verdict can no longer change, so an
    /// early-exit run may stop.
    fn decided(&self, quantifier: Quantifier) -> bool {
        match quantifier {
            // First witness decides `exists` (holds) and `~exists`
            // (fails); the verdict is Allowed either way.
            Quantifier::Exists | Quantifier::NotExists => self.witnesses > 0,
            // `forall` additionally needs the non-satisfying allowed
            // candidate that decides `condition_holds = false`. If every
            // allowed candidate satisfies, no early exit — the full run
            // is what proves it.
            Quantifier::Forall => self.witnesses > 0 && self.saw_non_satisfying,
        }
    }

    fn into_result(self, quantifier: Quantifier) -> TestResult {
        let verdict =
            if self.witnesses > 0 { Verdict::Allowed } else { Verdict::Forbidden };
        let condition_holds = match quantifier {
            Quantifier::Exists => self.witnesses > 0,
            Quantifier::NotExists => self.witnesses == 0,
            Quantifier::Forall => !self.saw_non_satisfying,
        };
        TestResult {
            verdict,
            condition_holds,
            candidates: self.candidates,
            allowed: self.allowed,
            witnesses: self.witnesses,
        }
    }
}

/// Why a governed check could not run to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// A budget axis (candidates, eval steps, wall clock, cancellation)
    /// ran out.
    BudgetExceeded(BudgetKind),
    /// Model evaluation panicked on some candidate (contained by the
    /// worker's `catch_unwind`; the process keeps running).
    WorkerPanicked,
    /// The enumerator failed (no threads, unbalanced RCU, hard caps).
    Enum(EnumError),
}

impl fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InconclusiveReason::BudgetExceeded(kind) => write!(f, "{kind}"),
            InconclusiveReason::WorkerPanicked => write!(f, "model evaluation panicked"),
            InconclusiveReason::Enum(e) => write!(f, "{e}"),
        }
    }
}

/// The structured result of a governed check: either the complete
/// verdict, or a typed reason it stopped plus the partial tally. A
/// governed check never hangs and never aborts the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The check ran to completion; identical to what the ungoverned
    /// pipeline computes.
    Complete(TestResult),
    /// The check stopped early. `partial` holds the tallies over every
    /// candidate fully evaluated before the stop — with a candidate
    /// budget these are exact and deterministic at any job count,
    /// because the single-threaded enumerator is what trips the fuel.
    Inconclusive {
        /// Why the check stopped.
        reason: InconclusiveReason,
        /// Counts accumulated before the stop.
        partial: Tally,
    },
}

impl CheckOutcome {
    /// The completed result, if the check finished.
    pub fn result(&self) -> Option<&TestResult> {
        match self {
            CheckOutcome::Complete(r) => Some(r),
            CheckOutcome::Inconclusive { .. } => None,
        }
    }

    /// Whether the check ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, CheckOutcome::Complete(_))
    }
}

/// Why a worker (or the sequential loop) stopped before its queue
/// drained. Distinct from enumerator errors, which arrive through
/// `enum_result`.
enum WorkerStop {
    /// Model evaluation panicked; the payload is kept so the legacy API
    /// can `resume_unwind` it unchanged.
    Panicked(Box<dyn Any + Send>),
    /// The shared [`StepFuel`](lkmm_core::budget::StepFuel) ran dry.
    EvalFuel,
    /// The worker's deadline/cancellation poll tripped.
    Budget(BudgetKind),
}

impl WorkerStop {
    /// Panics outrank budget stops when several workers stop for
    /// different reasons: a panic is a bug signal, fuel is bookkeeping.
    fn rank(&self) -> u8 {
        match self {
            WorkerStop::Panicked(_) => 2,
            WorkerStop::EvalFuel => 1,
            WorkerStop::Budget(_) => 0,
        }
    }
}

/// Everything one engine run produces, before API-specific mapping. One
/// tally per model, in input order.
struct RawCheck {
    tallies: Vec<Tally>,
    stop: Option<WorkerStop>,
    enum_result: Result<ControlFlow<()>, EnumError>,
}

/// One worker's evaluation state: a session per model, the shared-facts
/// cache (arena-backed — each worker recycles relation storage between
/// candidates), and one tally per model. All models see the exact same
/// candidate sequence — a candidate counts for either every tally or
/// none (a panic or fuel stop mid-candidate discards it everywhere), so
/// per-model partial tallies stay aligned and job-count-deterministic.
struct WorkerState<'m> {
    sessions: Vec<Box<dyn ModelSession + 'm>>,
    cache: FactsCache,
    allows: Vec<bool>,
    tallies: Vec<Tally>,
}

impl<'m> WorkerState<'m> {
    fn new(
        models: &'m [&'m dyn ConsistencyModel],
        fuel: &Option<std::sync::Arc<StepFuel>>,
    ) -> Self {
        let sessions = models
            .iter()
            .map(|m| {
                let mut session = open_session(*m);
                if let Some(f) = fuel {
                    session.install_step_fuel(f.clone());
                }
                session
            })
            .collect::<Vec<_>>();
        WorkerState {
            allows: Vec::with_capacity(sessions.len()),
            tallies: vec![Tally::default(); sessions.len()],
            cache: FactsCache::with_arena(lkmm_relation::shared_arena()),
            sessions,
        }
    }

    /// Fold this worker's arena counters into the shared data-plane
    /// stats. Called once, after the worker's loop ends.
    fn harvest_arena(&self, stats: &Option<Arc<DataPlaneStats>>) {
        if let (Some(stats), Some(arena)) = (stats.as_ref(), self.cache.arena()) {
            let arena = arena.borrow();
            stats.add_arena(arena.acquires(), arena.reuses());
        }
    }

    /// Evaluate one candidate against every model, sharing one
    /// [`ExecFacts`](crate::facts::ExecFacts) and evaluating the
    /// final-state proposition at most once. `Err` means the worker must
    /// stop; the candidate is then counted nowhere.
    ///
    /// Panics (a buggy model, the `worker.panic` fault point) unwind out
    /// of this method: each caller wraps its whole evaluation loop in
    /// one `catch_unwind`, which contains them exactly like a
    /// per-candidate catch would — tallies update only after evaluation
    /// succeeds, so an unwinding candidate counts nowhere — without
    /// paying an unwind frame per candidate on the hot path.
    fn evaluate(&mut self, x: &Execution, prop: &Prop) -> Result<(), WorkerStop> {
        faultpoint::maybe_panic("worker.panic");
        self.allows.clear();
        let facts = self.cache.facts(x);
        for session in self.sessions.iter_mut() {
            match session.try_allows_with(x, &facts) {
                Ok(a) => self.allows.push(a),
                Err(EvalStop) => return Err(WorkerStop::EvalFuel),
            }
        }
        let satisfies = self.allows.contains(&true) && x.satisfies_prop(prop);
        for (tally, &a) in self.tallies.iter_mut().zip(self.allows.iter()) {
            tally.candidates += 1;
            if a {
                tally.allowed += 1;
                if satisfies {
                    tally.witnesses += 1;
                } else {
                    tally.saw_non_satisfying = true;
                }
            }
        }
        Ok(())
    }

    /// Whether every model's quantified verdict is decided, so an
    /// early-exit run may stop.
    fn decided(&self, quantifier: Quantifier) -> bool {
        self.tallies.iter().all(|t| t.decided(quantifier))
    }
}

/// The engine behind every public entry point: enumerate on the calling
/// thread — once, no matter how many models — batch candidates, and
/// evaluate on `jobs` workers (inline when `jobs <= 1`, or when the
/// stream ends before the first batch fills), every evaluation loop
/// inside one `catch_unwind`, budgets polled everywhere.
fn run_check(
    models: &[&dyn ConsistencyModel],
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> RawCheck {
    assert!(!models.is_empty(), "run_check needs at least one model");
    // Workers beyond the host's parallelism only add queue traffic and
    // context switches on a saturated scheduler — results are identical
    // at any worker count by construction, so the spawned count is
    // clamped to what the hardware can actually run (on a
    // single-threaded host every job count collapses to the inline
    // path).
    let jobs = effective_jobs(pipe.jobs).min(hardware_parallelism());
    let quantifier = test.condition.quantifier;
    let prop = &test.condition.prop;
    let fuel = opts.budget.step_fuel();
    let models_cost: usize = models.iter().map(|m| m.eval_cost_hint()).sum();
    // Workers poll only the clock and the cancel token; candidate fuel
    // is spent exclusively by the single-threaded enumerator, which is
    // what makes candidate-budget partial tallies exact at any job
    // count. Pin the time limit to an absolute deadline once, here, so
    // every worker measures from the same instant.
    let worker_budget =
        Budget { max_candidates: None, max_eval_steps: None, ..opts.budget.clone() };
    let worker_meter = worker_budget.meter();

    if jobs <= 1 {
        // Inline path. No queues exist, but batch formation is still
        // simulated so `batches_formed`/`batch_candidates` are
        // job-count-invariant for complete runs.
        let mut worker = WorkerState::new(models, &fuel);
        let mut meter = worker_meter;
        let mut stop_reason = None;
        let mut batch_size = 0usize;
        let mut in_batch = 0u64;
        let mut batches = 0u64;
        let mut candidates = 0u64;
        // One unwind frame around the whole loop instead of one per
        // candidate: a panicking evaluation stops the check with the
        // same observable state a per-candidate catch produced (the
        // panicking candidate counts nowhere, enumeration breaks).
        let caught = catch_unwind(AssertUnwindSafe(|| {
            try_for_each_execution(test, opts, &mut |x| {
                if batch_size == 0 {
                    batch_size = batch_size_for(&x, models_cost, pipe.batch_size);
                }
                candidates += 1;
                in_batch += 1;
                if in_batch == batch_size as u64 {
                    batches += 1;
                    in_batch = 0;
                }
                if let Err(kind) = meter.poll() {
                    stop_reason = Some(WorkerStop::Budget(kind));
                    return ControlFlow::Break(());
                }
                if let Err(stop) = worker.evaluate(&x, prop) {
                    stop_reason = Some(stop);
                    return ControlFlow::Break(());
                }
                if pipe.early_exit && worker.decided(quantifier) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
        }));
        let enum_result = match caught {
            Ok(r) => r,
            Err(payload) => {
                stop_reason = Some(WorkerStop::Panicked(payload));
                Ok(ControlFlow::Break(()))
            }
        };
        if let Some(stats) = &pipe.stats {
            stats.add_batches(batches + u64::from(in_batch > 0), candidates);
        }
        worker.harvest_arena(&pipe.stats);
        return RawCheck { tallies: worker.tallies, stop: stop_reason, enum_result };
    }

    let queue_depth =
        if pipe.queue_depth == 0 { DEFAULT_QUEUE_DEPTH } else { pipe.queue_depth };
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        // Workers are spawned lazily, at the first full batch: a stream
        // that ends earlier is evaluated inline below, so small tests
        // pay zero spawn and zero queue traffic at any `--jobs`.
        let mut senders: Vec<mpsc::SyncSender<Vec<Execution>>> = Vec::new();
        let mut handles = Vec::new();
        let mut pending: Vec<Execution> = Vec::new();
        let mut batch_size = 0usize;
        let mut seq = 0usize;
        let mut batches = 0u64;
        let mut candidates = 0u64;
        let enum_result = try_for_each_execution(test, opts, &mut |x| {
            if stop.load(Ordering::Relaxed) {
                return ControlFlow::Break(());
            }
            if batch_size == 0 {
                batch_size = batch_size_for(&x, models_cost, pipe.batch_size);
            }
            candidates += 1;
            pending.push(x);
            if pending.len() < batch_size {
                return ControlFlow::Continue(());
            }
            if handles.is_empty() {
                // First full batch: bring up the pool. The queue bound
                // is measured in candidates, so derive a batch bound.
                let depth = (queue_depth / batch_size).max(1);
                for _ in 0..jobs {
                    let (tx, rx) = mpsc::sync_channel::<Vec<Execution>>(depth);
                    senders.push(tx);
                    let stop = &stop;
                    let early_exit = pipe.early_exit;
                    let stats = pipe.stats.clone();
                    let fuel = fuel.clone();
                    let mut meter = worker_meter.clone();
                    handles.push(s.spawn(move || {
                        let mut worker = WorkerState::new(models, &fuel);
                        let mut stop_reason = None;
                        // One unwind frame per worker, not per
                        // candidate: a panicking evaluation stops this
                        // worker with the panicking candidate counted
                        // nowhere, exactly like a per-candidate catch,
                        // at zero cost on the hot path.
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            'batches: while let Ok(batch) = rx.recv() {
                                for x in &batch {
                                    if let Err(kind) = meter.poll() {
                                        stop.store(true, Ordering::Relaxed);
                                        stop_reason = Some(WorkerStop::Budget(kind));
                                        break 'batches;
                                    }
                                    if let Err(reason) = worker.evaluate(x, prop) {
                                        stop.store(true, Ordering::Relaxed);
                                        stop_reason = Some(reason);
                                        break 'batches;
                                    }
                                    if early_exit && worker.decided(quantifier) {
                                        stop.store(true, Ordering::Relaxed);
                                        break 'batches;
                                    }
                                }
                            }
                        }));
                        if let Err(payload) = caught {
                            stop.store(true, Ordering::Relaxed);
                            stop_reason = Some(WorkerStop::Panicked(payload));
                        }
                        worker.harvest_arena(&stats);
                        (worker.tallies, stop_reason)
                    }));
                }
            }
            batches += 1;
            let batch = std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
            let worker = seq % jobs;
            seq += 1;
            match senders[worker].send(batch) {
                Ok(()) => ControlFlow::Continue(()),
                // The worker exited early; stop producing.
                Err(mpsc::SendError(_)) => ControlFlow::Break(()),
            }
        });

        if handles.is_empty() {
            // The stream ended before one batch filled: evaluate the
            // pending candidates inline, exactly like `jobs = 1`.
            let mut worker = WorkerState::new(models, &fuel);
            let mut meter = worker_meter;
            let mut stop_reason = None;
            if !pending.is_empty() {
                batches += 1;
            }
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for x in &pending {
                    if let Err(kind) = meter.poll() {
                        stop_reason = Some(WorkerStop::Budget(kind));
                        break;
                    }
                    if let Err(stop) = worker.evaluate(x, prop) {
                        stop_reason = Some(stop);
                        break;
                    }
                    if pipe.early_exit && worker.decided(quantifier) {
                        break;
                    }
                }
            }));
            if let Err(payload) = caught {
                stop_reason = Some(WorkerStop::Panicked(payload));
            }
            if let Some(stats) = &pipe.stats {
                stats.add_batches(batches, candidates);
            }
            worker.harvest_arena(&pipe.stats);
            return RawCheck { tallies: worker.tallies, stop: stop_reason, enum_result };
        }

        // Flush the trailing partial batch: every candidate the
        // enumerator emitted (and spent fuel on) gets evaluated, which
        // is what keeps candidate-budget partial tallies exact even
        // when the budget trips mid-batch.
        if !pending.is_empty() && !stop.load(Ordering::Relaxed) {
            batches += 1;
            let worker = seq % jobs;
            // A hung-up worker already tripped `stop`; ignore the error.
            let _ = senders[worker].send(std::mem::take(&mut pending));
        }
        drop(senders); // hang up so workers drain and exit
        if let Some(stats) = &pipe.stats {
            stats.add_batches(batches, candidates);
        }

        let mut tallies = vec![Tally::default(); models.len()];
        let mut stop_reason: Option<WorkerStop> = None;
        for handle in handles {
            // Workers cannot panic out of their own body: the whole
            // evaluation loop is wrapped in catch_unwind and everything
            // else is queue plumbing. A join error here would be a
            // harness bug.
            let (ts, reason) = handle.join().expect("pipeline worker harness panicked");
            for (tally, t) in tallies.iter_mut().zip(ts) {
                *tally = tally.merge(t);
            }
            if let Some(r) = reason {
                if stop_reason.as_ref().is_none_or(|cur| r.rank() > cur.rank()) {
                    stop_reason = Some(r);
                }
            }
        }
        RawCheck { tallies, stop: stop_reason, enum_result }
    })
}

/// Check `test` against `model` on `pipe.jobs` worker threads.
///
/// With `jobs <= 1` this runs on the calling thread (still honouring
/// `early_exit`); the output is identical either way.
///
/// This is the legacy strict interface: budget trips surface as
/// [`EnumError::BudgetExceeded`] and worker panics are re-raised. Use
/// [`check_test_governed`] to get partial tallies and panic containment
/// instead.
///
/// # Errors
///
/// Propagates [`EnumError`] from the enumerator, and reports budget
/// exhaustion (if [`EnumOptions::budget`] is bounded) as
/// [`EnumError::BudgetExceeded`].
///
/// # Panics
///
/// Re-raises panics from model evaluation on worker threads (e.g. a cat
/// model with semantic errors).
///
/// # Examples
///
/// ```
/// use lkmm_exec::model::{check_test, AllowAll};
/// use lkmm_exec::pipeline::{check_test_pipelined, PipelineOptions};
/// use lkmm_exec::enumerate::EnumOptions;
///
/// let test = lkmm_litmus::library::by_name("SB").unwrap().test();
/// let opts = EnumOptions::default();
/// let par = check_test_pipelined(
///     &AllowAll,
///     &test,
///     &opts,
///     &PipelineOptions { jobs: 4, ..Default::default() },
/// ).unwrap();
/// assert_eq!(par, check_test(&AllowAll, &test, &opts).unwrap());
/// ```
pub fn check_test_pipelined(
    model: &dyn ConsistencyModel,
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> Result<TestResult, EnumError> {
    check_test_multi(&[model], test, opts, pipe).map(|mut results| results.remove(0))
}

/// Check `test` against N models over a **single** enumeration pass,
/// returning one [`TestResult`] per model in input order.
///
/// Each worker opens one session per model and evaluates every candidate
/// against all of them, sharing one
/// [`ExecFacts`](crate::facts::ExecFacts) per candidate — the derived
/// base relations (`fr`, `com`, `po-loc`, fence sets, …) are computed
/// once, not once per model. Verdicts and counts are bit-identical to N
/// separate [`check_test_pipelined`] runs at any job count.
///
/// Like the single-model legacy path this is the strict interface:
/// budget trips surface as [`EnumError::BudgetExceeded`] and worker
/// panics are re-raised. Use [`check_test_multi_governed`] for partial
/// tallies and panic containment.
///
/// With `early_exit` the pass stops only once **every** model's verdict
/// is decided.
///
/// # Errors
///
/// Propagates [`EnumError`] from the enumerator, and reports budget
/// exhaustion as [`EnumError::BudgetExceeded`].
///
/// # Panics
///
/// Re-raises panics from model evaluation, and panics if `models` is
/// empty.
pub fn check_test_multi(
    models: &[&dyn ConsistencyModel],
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> Result<Vec<TestResult>, EnumError> {
    let quantifier = test.condition.quantifier;
    let raw = run_check(models, test, opts, pipe);
    match raw.stop {
        Some(WorkerStop::Panicked(payload)) => std::panic::resume_unwind(payload),
        Some(WorkerStop::EvalFuel) => {
            return Err(EnumError::BudgetExceeded(BudgetKind::EvalSteps))
        }
        Some(WorkerStop::Budget(kind)) => return Err(EnumError::BudgetExceeded(kind)),
        None => {}
    }
    let _ = raw.enum_result?;
    Ok(raw.tallies.into_iter().map(|t| t.into_result(quantifier)).collect())
}

/// The structured result of a governed multi-model check: either one
/// complete verdict per model, or a typed stop reason plus one partial
/// tally per model (in input order). The candidate fuel is spent once by
/// the enumerator — not once per model — so all partial tallies cover
/// the exact same candidates and are job-count-deterministic, matching
/// single-model [`CheckOutcome`] semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiCheckOutcome {
    /// The single enumeration pass ran to completion; one result per
    /// model, identical to N separate ungoverned runs.
    Complete(Vec<TestResult>),
    /// The pass stopped early; every model's tally covers the same
    /// candidates.
    Inconclusive {
        /// Why the check stopped.
        reason: InconclusiveReason,
        /// Per-model counts accumulated before the stop.
        partials: Vec<Tally>,
    },
}

impl MultiCheckOutcome {
    /// The completed per-model results, if the check finished.
    pub fn results(&self) -> Option<&[TestResult]> {
        match self {
            MultiCheckOutcome::Complete(rs) => Some(rs),
            MultiCheckOutcome::Inconclusive { .. } => None,
        }
    }

    /// Whether the check ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, MultiCheckOutcome::Complete(_))
    }
}

/// Budget-aware, panic-containing multi-model check over a single
/// enumeration pass. See [`check_test_multi`] for the engine and
/// [`check_test_governed`] for the governance semantics, which are
/// identical — the fuel is simply shared by all N models instead of
/// belonging to one.
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn check_test_multi_governed(
    models: &[&dyn ConsistencyModel],
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> MultiCheckOutcome {
    let quantifier = test.condition.quantifier;
    let raw = run_check(models, test, opts, pipe);
    if let Some(WorkerStop::Panicked(_)) = &raw.stop {
        return MultiCheckOutcome::Inconclusive {
            reason: InconclusiveReason::WorkerPanicked,
            partials: raw.tallies,
        };
    }
    match raw.enum_result {
        Err(EnumError::BudgetExceeded(kind)) => MultiCheckOutcome::Inconclusive {
            reason: InconclusiveReason::BudgetExceeded(kind),
            partials: raw.tallies,
        },
        Err(e) => MultiCheckOutcome::Inconclusive {
            reason: InconclusiveReason::Enum(e),
            partials: raw.tallies,
        },
        Ok(_) => match raw.stop {
            Some(WorkerStop::EvalFuel) => MultiCheckOutcome::Inconclusive {
                reason: InconclusiveReason::BudgetExceeded(BudgetKind::EvalSteps),
                partials: raw.tallies,
            },
            Some(WorkerStop::Budget(kind)) => MultiCheckOutcome::Inconclusive {
                reason: InconclusiveReason::BudgetExceeded(kind),
                partials: raw.tallies,
            },
            Some(WorkerStop::Panicked(_)) => unreachable!("handled above"),
            None => MultiCheckOutcome::Complete(
                raw.tallies.into_iter().map(|t| t.into_result(quantifier)).collect(),
            ),
        },
    }
}

/// Budget-aware, panic-containing check. Always returns — never hangs
/// (budgets are polled in the enumerator and every worker loop) and
/// never aborts the process (every evaluation loop runs inside
/// `catch_unwind`).
///
/// With an unlimited budget and a well-behaved model this is exactly
/// [`check_test_pipelined`] wrapped in [`CheckOutcome::Complete`].
///
/// # Examples
///
/// ```
/// use lkmm_exec::model::AllowAll;
/// use lkmm_exec::pipeline::{check_test_governed, CheckOutcome, PipelineOptions};
/// use lkmm_exec::enumerate::EnumOptions;
/// use lkmm_core::budget::Budget;
///
/// let test = lkmm_litmus::library::by_name("SB").unwrap().test();
/// // Generous budget: completes with the exact result.
/// let opts = EnumOptions {
///     budget: Budget::default().with_max_candidates(1_000_000),
///     ..EnumOptions::default()
/// };
/// let outcome =
///     check_test_governed(&AllowAll, &test, &opts, &PipelineOptions::default());
/// assert!(outcome.is_complete());
///
/// // One candidate of fuel: inconclusive, with an exact partial tally.
/// let opts = EnumOptions {
///     budget: Budget::default().with_max_candidates(1),
///     ..EnumOptions::default()
/// };
/// let outcome =
///     check_test_governed(&AllowAll, &test, &opts, &PipelineOptions::default());
/// match outcome {
///     CheckOutcome::Inconclusive { partial, .. } => assert_eq!(partial.candidates, 1),
///     CheckOutcome::Complete(_) => unreachable!("SB has more than one candidate"),
/// }
/// ```
pub fn check_test_governed(
    model: &dyn ConsistencyModel,
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> CheckOutcome {
    match check_test_multi_governed(&[model], test, opts, pipe) {
        MultiCheckOutcome::Complete(mut results) => {
            CheckOutcome::Complete(results.remove(0))
        }
        MultiCheckOutcome::Inconclusive { reason, mut partials } => {
            CheckOutcome::Inconclusive { reason, partial: partials.remove(0) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{check_test, AllowAll};
    use lkmm_litmus::library;

    #[test]
    fn parallel_matches_sequential_on_allow_all() {
        let opts = EnumOptions::default();
        for pt in library::all() {
            let t = pt.test();
            let seq = check_test(&AllowAll, &t, &opts).unwrap();
            for jobs in [1, 2, 8] {
                let par = check_test_pipelined(
                    &AllowAll,
                    &t,
                    &opts,
                    &PipelineOptions { jobs, ..Default::default() },
                )
                .unwrap();
                assert_eq!(par, seq, "{} with jobs={jobs}", pt.name);
            }
        }
    }

    #[test]
    fn early_exit_preserves_verdict_and_condition() {
        let opts = EnumOptions::default();
        for pt in library::all() {
            let t = pt.test();
            let full = check_test(&AllowAll, &t, &opts).unwrap();
            for jobs in [1, 4] {
                let fast = check_test_pipelined(
                    &AllowAll,
                    &t,
                    &opts,
                    &PipelineOptions { jobs, early_exit: true, ..Default::default() },
                )
                .unwrap();
                assert_eq!(fast.verdict, full.verdict, "{}", pt.name);
                assert_eq!(fast.condition_holds, full.condition_holds, "{}", pt.name);
                assert!(fast.candidates <= full.candidates, "{}", pt.name);
            }
        }
    }

    #[test]
    fn tiny_queue_depth_still_completes() {
        let t = library::by_name("SB").unwrap().test();
        let opts = EnumOptions::default();
        let par = check_test_pipelined(
            &AllowAll,
            &t,
            &opts,
            &PipelineOptions { jobs: 3, queue_depth: 1, ..Default::default() },
        )
        .unwrap();
        assert_eq!(par, check_test(&AllowAll, &t, &opts).unwrap());
    }

    #[test]
    fn enum_errors_propagate_through_the_pipeline() {
        let t = lkmm_litmus::parse(
            "C t\n{ x=0; }\nP0(int *x) { rcu_read_lock(); WRITE_ONCE(*x, 1); }\nexists (x=1)",
        )
        .unwrap();
        let err = check_test_pipelined(
            &AllowAll,
            &t,
            &EnumOptions::default(),
            &PipelineOptions { jobs: 2, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(err, EnumError::UnbalancedRcu { thread: 0 });
    }

    #[test]
    fn governed_wraps_enum_errors() {
        let t = lkmm_litmus::parse(
            "C t\n{ x=0; }\nP0(int *x) { rcu_read_lock(); WRITE_ONCE(*x, 1); }\nexists (x=1)",
        )
        .unwrap();
        let outcome = check_test_governed(
            &AllowAll,
            &t,
            &EnumOptions::default(),
            &PipelineOptions::default(),
        );
        assert_eq!(
            outcome,
            CheckOutcome::Inconclusive {
                reason: InconclusiveReason::Enum(EnumError::UnbalancedRcu { thread: 0 }),
                partial: Tally::default(),
            }
        );
    }

    #[test]
    fn multi_model_pass_fills_shared_enum_stats() {
        // The single enumeration pass behind check_test_multi feeds the
        // counters exactly once no matter how many models ride it, and
        // identically at any job count — campaign `--enum-stats` output
        // stays deterministic for a fixed corpus.
        let t = library::by_name("SB").unwrap().test();
        let snapshot_for = |jobs: usize| {
            let stats = std::sync::Arc::new(crate::EnumStats::default());
            let opts = EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() };
            let models: [&dyn ConsistencyModel; 2] = [&AllowAll, &AllowAll];
            check_test_multi(&models, &t, &opts, &PipelineOptions { jobs, ..Default::default() })
                .unwrap();
            stats.snapshot()
        };
        let single_model = {
            let stats = std::sync::Arc::new(crate::EnumStats::default());
            let opts = EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() };
            check_test(&AllowAll, &t, &opts).unwrap();
            stats.snapshot()
        };
        let seq = snapshot_for(1);
        assert!(seq.candidates_emitted > 0, "the pass must emit candidates");
        assert_eq!(
            seq, single_model,
            "N models share one enumeration: counters match a single-model run"
        );
        assert_eq!(seq, snapshot_for(4), "counters are job-count-invariant");
    }

    #[test]
    fn explicit_batch_sizes_match_sequential_results() {
        let opts = EnumOptions::default();
        for pt in library::all() {
            let t = pt.test();
            let seq = check_test(&AllowAll, &t, &opts).unwrap();
            for jobs in [2, 8] {
                for batch_size in [1, 4] {
                    let par = check_test_pipelined(
                        &AllowAll,
                        &t,
                        &opts,
                        &PipelineOptions { jobs, batch_size, ..Default::default() },
                    )
                    .unwrap();
                    assert_eq!(par, seq, "{} jobs={jobs} batch={batch_size}", pt.name);
                }
            }
        }
    }

    /// A model whose `allows_with` reads shared facts, so the workers'
    /// arenas actually serve witness-tier acquisitions.
    struct ScPerLoc;

    impl ConsistencyModel for ScPerLoc {
        fn name(&self) -> &str {
            "sc-per-loc"
        }
        fn allows(&self, x: &Execution) -> bool {
            self.allows_with(x, &crate::facts::ExecFacts::new(x))
        }
        fn allows_with(&self, _x: &Execution, facts: &crate::facts::ExecFacts<'_>) -> bool {
            facts.sc_per_loc_ok() && facts.atomicity_ok()
        }
    }

    #[test]
    fn batch_counters_are_job_count_invariant() {
        // batches_formed / batch_candidates are pure functions of the
        // candidate stream for complete runs, so any job count must
        // report the same numbers. arena_acquires is compared too
        // because this model draws only per-candidate witness facts;
        // real checkers also pull shared pre-execution-tier facts,
        // which per-worker caches recompute. arena_reuses is per-worker
        // warm-up and deliberately not compared.
        let t = library::by_name("RWC").unwrap().test();
        let snapshot_for = |jobs: usize| {
            let stats = Arc::new(DataPlaneStats::default());
            check_test_pipelined(
                &ScPerLoc,
                &t,
                &EnumOptions::default(),
                &PipelineOptions {
                    jobs,
                    batch_size: 4,
                    stats: Some(stats.clone()),
                    ..Default::default()
                },
            )
            .unwrap();
            stats.snapshot()
        };
        let seq = snapshot_for(1);
        assert!(seq.batches_formed > 1, "RWC's 8 candidates fill two batches of 4");
        assert!(seq.batch_candidates >= seq.batches_formed);
        assert!(seq.arena_acquires > 0, "workers draw witness facts from arenas");
        for jobs in [2, 8] {
            let par = snapshot_for(jobs);
            assert_eq!(par.batches_formed, seq.batches_formed, "jobs={jobs}");
            assert_eq!(par.batch_candidates, seq.batch_candidates, "jobs={jobs}");
            assert_eq!(par.arena_acquires, seq.arena_acquires, "jobs={jobs}");
        }
    }

    #[test]
    fn no_stats_by_default() {
        assert!(PipelineOptions::default().stats.is_none());
    }

    #[test]
    fn candidate_budget_tripping_mid_batch_is_exact_at_any_job_count() {
        // 7 candidates of fuel against batch size 4: the budget trips
        // mid-batch, and the trailing partial batch must still be
        // flushed and evaluated so the partial tally is exactly 7
        // everywhere — candidate fuel is spent only by the enumerator.
        let t = library::by_name("RWC").unwrap().test();
        let opts = EnumOptions {
            budget: Budget::default().with_max_candidates(7),
            ..EnumOptions::default()
        };
        for jobs in [1, 2, 8] {
            let outcome = check_test_governed(
                &AllowAll,
                &t,
                &opts,
                &PipelineOptions { jobs, batch_size: 4, ..Default::default() },
            );
            match outcome {
                CheckOutcome::Inconclusive { reason, partial } => {
                    assert_eq!(
                        reason,
                        InconclusiveReason::BudgetExceeded(BudgetKind::Candidates),
                        "jobs={jobs}"
                    );
                    assert_eq!(partial.candidates, 7, "jobs={jobs}");
                }
                CheckOutcome::Complete(_) => {
                    panic!("RWC has more than 7 candidates (jobs={jobs})")
                }
            }
        }
    }

    #[test]
    fn auto_batch_size_scales_inversely_with_cost() {
        let t = library::by_name("SB").unwrap().test();
        let x = &crate::enumerate::enumerate(&t, &EnumOptions::default()).unwrap()[0];
        let cheap = batch_size_for(x, 1, 0);
        let costly = batch_size_for(x, 64, 0);
        assert!(cheap >= costly, "bigger cost hints shrink batches");
        assert!((1..=MAX_BATCH).contains(&cheap));
        assert!((1..=MAX_BATCH).contains(&costly));
        assert_eq!(batch_size_for(x, 1, 3), 3, "explicit size wins");
    }

    #[test]
    fn effective_jobs_resolves_zero_and_clamps() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
        assert_eq!(effective_jobs(MAX_JOBS + 1), MAX_JOBS);
        assert_eq!(effective_jobs(usize::MAX), MAX_JOBS);
    }

    #[test]
    fn debug_format_of_enum_options_is_key_stable() {
        // The verdict store folds `{:?}` of EnumOptions into cache keys;
        // this string must never change for default options, or every
        // existing store goes cold. The budget, strategy, and stats
        // fields are deliberately excluded.
        assert_eq!(
            format!("{:?}", EnumOptions::default()),
            "EnumOptions { prune_scpv: true, max_executions: 4000000, \
             max_domain_iterations: 16, max_oracle_branches: 200000 }"
        );
    }

    #[test]
    fn enumeration_strategy_and_stats_do_not_perturb_the_key_form() {
        // Stores written before the consistency-driven enumerator — or
        // by its naive ablation twin — must replay byte-identically, so
        // neither knob may surface in the `{:?}` cache-key form.
        let tuned = EnumOptions {
            strategy: crate::enumerate::EnumStrategy::Naive,
            stats: Some(std::sync::Arc::new(crate::enumerate::EnumStats::default())),
            ..EnumOptions::default()
        };
        assert_eq!(format!("{tuned:?}"), format!("{:?}", EnumOptions::default()));
    }
}
