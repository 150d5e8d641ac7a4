//! The check engine: one enumeration of a test, N models, on the calling
//! thread or split over a worker pool.
//!
//! [`check`] decides every model from a single enumeration pass, sharing
//! one [`ExecFacts`](crate::facts::ExecFacts) per candidate, honours the
//! [`Budget`](lkmm_core::budget::Budget) in [`EnumOptions::budget`], and
//! always returns a structured [`MultiCheckOutcome`]: either `Complete`,
//! or `Inconclusive` with the reason and the partial tallies accumulated
//! before the stop. [`MultiCheckOutcome::into_result`] is the strict view
//! (stops become errors, a model panic propagates).
//! [`check_test`](crate::model::check_test) stays the simple allocating
//! reference the differential tests compare against.
//!
//! # Splitting one test
//!
//! A test's pre-executions form an index space ([`PreExecutions`]), and
//! each one's `rf`/`co` witnesses are enumerated independently of the
//! others. The engine works through them in index order on the calling
//! thread until it has opened [`INLINE_WORK`] pre-executions and
//! candidates, so a litmus-sized test never pays for a thread. With
//! `jobs > 1` it then hands the rest to [`worker_threads`]`(jobs)`
//! workers on the ordered pool ([`prepare_in_order`]) as contiguous
//! index ranges — unless the rest, extrapolated from the prefix, is less
//! work than the prefix, when the pool would cost more than it saves. A
//! pre-execution of the prefix that alone reaches `INLINE_WORK`
//! candidates is rolled back and handed to the pool cut into slices by
//! its first `rf` choices, so a test whose work sits in one
//! pre-execution still spreads. Each worker enumerates *and* evaluates its share with its
//! own model sessions and facts cache, so the per-shape static caches
//! stay hot, and the calling thread commits the tallies in index order.
//! (A heavy pre-execution after the prefix stays in one range: only the
//! prefix is watched for them.)
//!
//! Commit keeps every count exact. A range enumerated ahead cannot know
//! how much candidate fuel and `max_executions` headroom the ranges
//! before it used, so it runs against the whole allowance. A range whose
//! candidates do not fit what is left when its turn comes is thrown away
//! and re-run inline on the remaining fuel, where it stops at exactly the
//! candidate a sequential run stops at. Complete runs, candidate-budget
//! stops and `max_executions` stops therefore report bit-identical
//! tallies, partial tallies, enumeration counters ([`Stats`]) and errors
//! at every job count. A budget that bounds evaluation steps keeps the
//! whole check inline: the step tank is shared, and ranges evaluated
//! ahead of the commit would drain steps a sequential run never spends.
//!
//! # Governance
//!
//! A check never hangs and never aborts the process: budgets are polled
//! by every enumeration, and every range runs inside one `catch_unwind`,
//! so a panicking model (or an armed `worker.panic` fault point) stops
//! only that check, as [`InconclusiveReason::WorkerPanicked`].
//!
//! Early exit (off by default) stops the check as soon as every model's
//! quantified verdict is decided — for `exists`/`~exists` at the first
//! witness, for `forall` once both a witness and a non-satisfying allowed
//! candidate have been seen. The verdict and `condition_holds` are
//! guaranteed to match a full run; the `candidates`/`allowed`/`witnesses`
//! counts are then lower bounds, which is why the flag exists instead of
//! being always-on.

use crate::enumerate::{Cursor, EnumError, EnumOptions, PreExecutions, Stats};
use crate::execution::Execution;
use crate::facts::FactsCache;
use crate::model::{open_session, ConsistencyModel, EvalStop, ModelSession, TestResult, Verdict};
use crate::pool::prepare_in_order;
use lkmm_core::budget::{BudgetKind, Meter, StepFuel};
use lkmm_core::faultpoint;
use lkmm_litmus::ast::Test;
use lkmm_litmus::cond::{Prop, Quantifier};
use std::convert::Infallible;
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

/// Hard ceiling on worker threads. Values beyond the cap are almost
/// certainly typos (`--jobs 10000`), which the CLI rejects and
/// [`effective_jobs`] clamps.
pub const MAX_JOBS: usize = 512;

/// Pre-executions opened plus candidates evaluated on the calling thread
/// before a check splits the rest over workers — and the candidates that
/// make one pre-execution worth slicing: litmus-sized tests (the paper
/// library's run to eight candidates) finish inline and pay no spawn at
/// any `--jobs`.
pub const INLINE_WORK: usize = 64;

/// Index ranges per worker when a check splits: enough that the workers
/// stay balanced when pre-executions differ in cost, few enough that
/// handing them out costs nothing next to enumerating them.
const RANGES_PER_WORKER: usize = 16;

/// Units a heavy pre-execution of the inline prefix is sliced into, by
/// its first `rf` choices: when that one pre-execution holds most of the
/// test's work, it still spreads over the workers.
const SLICES: usize = 64;

/// Options for [`check`].
#[derive(Clone, Debug, Default)]
pub struct PipelineOptions {
    /// Worker threads. `0` means one per available hardware thread
    /// (see [`effective_jobs`]); `1` checks on the calling thread.
    /// Values above [`MAX_JOBS`] are clamped, and the spawned count
    /// never exceeds the host's available parallelism. Verdicts and
    /// counts are identical at any job count.
    pub jobs: usize,
    /// Stop enumerating once the quantified verdict is decided. Verdict
    /// and `condition_holds` still match a full run exactly; the counts
    /// become lower bounds.
    pub early_exit: bool,
}

/// Resolve a `--jobs` value: `0` becomes the available parallelism
/// (falling back to 1 if the platform cannot report it); anything above
/// [`MAX_JOBS`] is clamped to it.
pub fn effective_jobs(jobs: usize) -> usize {
    let jobs = if jobs == 0 { hardware_parallelism() } else { jobs };
    jobs.min(MAX_JOBS)
}

/// Threads a `jobs` request actually runs on: [`effective_jobs`], never
/// more than the host's available parallelism. Workers beyond it only
/// add context switches on a saturated scheduler, and results are
/// identical at any worker count by construction (on a single-threaded
/// host every job count collapses to the inline path).
pub fn worker_threads(jobs: usize) -> usize {
    effective_jobs(jobs).min(hardware_parallelism())
}

/// The host's available parallelism, queried once per process.
/// `std::thread::available_parallelism` consults the cgroup filesystem
/// on Linux, which is far too slow to sit on the per-test check path —
/// a corpus run checks thousands of tests.
fn hardware_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Running totals of one model over some candidates. Merging two tallies
/// is commutative and associative. Public so `Inconclusive` outcomes can
/// report exactly how far a check got before it stopped.
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

/// Why a check could not run to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// A budget axis (candidates, eval steps, wall clock) ran out.
    BudgetExceeded(BudgetKind),
    /// Model evaluation panicked on some candidate (contained by the
    /// engine's `catch_unwind`; the process keeps running).
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

impl From<EnumError> for InconclusiveReason {
    fn from(e: EnumError) -> Self {
        match e {
            EnumError::BudgetExceeded(kind) => InconclusiveReason::BudgetExceeded(kind),
            e => InconclusiveReason::Enum(e),
        }
    }
}

/// The structured result of checking one model: either the complete
/// verdict, or a typed reason it stopped plus the partial tally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The check ran to completion.
    Complete(TestResult),
    /// The check stopped early. `partial` holds the tallies over every
    /// candidate fully evaluated before the stop — with a candidate
    /// budget these are exact and deterministic at any job count.
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
}

/// The structured result of [`check`]: either one complete verdict per
/// model, or a typed stop reason plus one partial tally per model (in
/// input order). The candidate fuel is spent once per candidate — not
/// once per model — so all partial tallies cover the exact same
/// candidates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiCheckOutcome {
    /// The enumeration ran to completion; one result per model,
    /// identical to N separate runs.
    Complete(Vec<TestResult>),
    /// The check stopped early; every model's tally covers the same
    /// candidates.
    Inconclusive {
        /// Why the check stopped.
        reason: InconclusiveReason,
        /// Per-model counts accumulated before the stop.
        partials: Vec<Tally>,
    },
}

impl MultiCheckOutcome {
    /// The first model's outcome — all of a one-model check.
    pub fn into_first(self) -> CheckOutcome {
        match self {
            MultiCheckOutcome::Complete(results) => {
                CheckOutcome::Complete(results.into_iter().next().expect("one result per model"))
            }
            MultiCheckOutcome::Inconclusive { reason, partials } => CheckOutcome::Inconclusive {
                reason,
                partial: partials.into_iter().next().expect("one tally per model"),
            },
        }
    }

    /// The strict view: the per-model results of a complete check.
    ///
    /// # Errors
    ///
    /// A budget stop as [`EnumError::BudgetExceeded`], an enumerator
    /// failure as itself.
    ///
    /// # Panics
    ///
    /// If model evaluation panicked: the panic propagates to the caller.
    pub fn into_result(self) -> Result<Vec<TestResult>, EnumError> {
        match self {
            MultiCheckOutcome::Complete(results) => Ok(results),
            MultiCheckOutcome::Inconclusive { reason, .. } => match reason {
                InconclusiveReason::BudgetExceeded(kind) => Err(EnumError::BudgetExceeded(kind)),
                InconclusiveReason::Enum(e) => Err(e),
                InconclusiveReason::WorkerPanicked => panic!("model evaluation panicked"),
            },
        }
    }
}

/// Check `test` against every model in `models` over a **single**
/// enumeration pass, with `pipe.jobs` workers (see the module docs).
/// Results come back in input order and are bit-identical to N separate
/// [`check_test`](crate::model::check_test) runs at any job count. With
/// `early_exit` the pass stops only once **every** model's verdict is
/// decided.
///
/// # Panics
///
/// If `models` is empty. A panic inside model evaluation does not
/// escape: it stops the check as [`InconclusiveReason::WorkerPanicked`].
///
/// # Examples
///
/// ```
/// use lkmm_core::budget::Budget;
/// use lkmm_exec::model::{check_test, AllowAll};
/// use lkmm_exec::pipeline::{check, MultiCheckOutcome, PipelineOptions};
/// use lkmm_exec::enumerate::EnumOptions;
///
/// let test = lkmm_litmus::library::by_name("SB").unwrap().test();
/// let opts = EnumOptions::default();
/// let pipe = PipelineOptions { jobs: 4, ..Default::default() };
/// let results = check(&[&AllowAll], &test, &opts, &pipe).into_result().unwrap();
/// assert_eq!(results, [check_test(&AllowAll, &test, &opts).unwrap()]);
///
/// // One candidate of fuel: inconclusive, with an exact partial tally.
/// let opts = EnumOptions {
///     budget: Budget::default().with_max_candidates(1),
///     ..EnumOptions::default()
/// };
/// match check(&[&AllowAll], &test, &opts, &pipe) {
///     MultiCheckOutcome::Inconclusive { partials, .. } => assert_eq!(partials[0].candidates, 1),
///     MultiCheckOutcome::Complete(_) => unreachable!("SB has more than one candidate"),
/// }
/// ```
pub fn check(
    models: &[&dyn ConsistencyModel],
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> MultiCheckOutcome {
    let (tallies, stop) = run_check(models, test, opts, pipe, worker_threads(pipe.jobs));
    match stop {
        None => MultiCheckOutcome::Complete(
            tallies.into_iter().map(|t| t.into_result(test.condition.quantifier)).collect(),
        ),
        Some(reason) => MultiCheckOutcome::Inconclusive { reason, partials: tallies },
    }
}

/// What every run of one check shares.
struct Cx<'a> {
    space: &'a PreExecutions,
    /// Units per pre-execution (see [`PreExecutions`]).
    slices: usize,
    test: &'a Test,
    early_exit: bool,
}

/// How a run of units ended.
enum Ran {
    /// Every unit ran, or early exit decided the verdicts.
    Done,
    /// The running candidate count reached the run's cap.
    Capped,
    /// The check stopped.
    Stopped(InconclusiveReason),
}

/// The engine behind [`check`], on exactly `workers` threads once the
/// inline prefix is done.
fn run_check(
    models: &[&dyn ConsistencyModel],
    test: &Test,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
    workers: usize,
) -> (Vec<Tally>, Option<InconclusiveReason>) {
    assert!(!models.is_empty(), "a check needs at least one model");
    let quantifier = test.condition.quantifier;
    let mut meter = opts.budget.meter();
    let space = match PreExecutions::new(test, opts, &mut meter) {
        Ok(space) => space,
        Err(e) => return (vec![Tally::default(); models.len()], Some(e.into())),
    };
    let fuel = opts.budget.step_fuel();
    // One step tank for the whole check: ranges run ahead would drain it.
    let workers = if fuel.is_some() { 1 } else { workers };
    // Units must stay indexable; a test that large is not sliced.
    let slices = if space.len() <= usize::MAX / SLICES { SLICES } else { 1 };
    let cx = Cx { space: &space, slices, test, early_exit: pipe.early_exit };
    let units = space.len() * slices;
    // The whole candidate allowance with the deadline pinned once, here:
    // what every range enumerated ahead of the commit runs against.
    let allowance = meter.clone();
    let mut inline = WorkerState::new(models, &space, &fuel, &opts.stats);
    let mut emitted = 0usize;
    let mut next = 0usize;
    if workers > 1 {
        // The inline prefix, a pre-execution at a time. One that alone
        // reaches INLINE_WORK candidates is rolled back and goes to the
        // pool in slices.
        let mut sliced = false;
        while next < units {
            let before = (inline.tallies.clone(), emitted, meter.clone());
            let cap = inline.tallies[0].candidates + INLINE_WORK;
            let own = opts.with_own_stats();
            let ran = inline.run(&cx, next..next + slices, &own, &mut meter, &mut emitted, cap);
            if let Ran::Capped = ran {
                (inline.tallies, emitted, meter) = before;
                sliced = true;
                break;
            }
            opts.adopt_stats(&own.stats);
            next += slices;
            if let Ran::Stopped(reason) = ran {
                return (inline.take_tallies(), Some(reason));
            }
            if pipe.early_exit && inline.decided(quantifier) {
                return (inline.take_tallies(), None);
            }
            if next / slices + inline.tallies[0].candidates >= INLINE_WORK {
                break;
            }
        }
        // Split the rest unless, extrapolated from the prefix, it is less
        // work than the prefix: then the pool costs more than it saves.
        let (opened, left) = (next / slices, (units - next) / slices);
        let done = opened + inline.tallies[0].candidates;
        if sliced || (left > 0 && left.saturating_mul(done) >= INLINE_WORK * opened) {
            // A sliced pre-execution goes unit by unit, then whole
            // pre-executions in contiguous ranges.
            let boundary = if sliced { next + slices } else { next };
            let per_range = (units - boundary) / slices;
            let chunk = per_range.div_ceil(workers * RANGES_PER_WORKER).max(1) * slices;
            let ranges = (next..boundary)
                .map(|unit| unit..unit + 1)
                .chain((boundary..units).step_by(chunk).map(|u| u..(u + chunk).min(units)));
            let mut stop = None;
            let mut rerun_from = None;
            let Ok(()) = prepare_in_order(
                ranges,
                workers,
                || WorkerState::new(models, &space, &None, &opts.stats),
                |worker, range| worker.run_ahead(&cx, range, opts, &allowance),
                |range, ran| -> Result<bool, Infallible> {
                    let Ok(ran) = ran else {
                        stop = Some(InconclusiveReason::WorkerPanicked);
                        return Ok(false);
                    };
                    let fits = emitted + ran.emitted <= opts.max_executions
                        && meter.spend_candidates(ran.emitted as u64).is_ok();
                    if !fits {
                        rerun_from = Some(range.start);
                        return Ok(false);
                    }
                    emitted += ran.emitted;
                    for (total, t) in inline.tallies.iter_mut().zip(&ran.tallies) {
                        *total = total.merge(*t);
                    }
                    opts.adopt_stats(&ran.stats);
                    stop = ran.stop;
                    Ok(stop.is_none() && !(pipe.early_exit && inline.decided(quantifier)))
                },
            );
            match rerun_from {
                Some(start) => next = start,
                None => return (inline.take_tallies(), stop),
            }
        }
    }
    let ran = inline.run(&cx, next..units, opts, &mut meter, &mut emitted, usize::MAX);
    let stop = if let Ran::Stopped(reason) = ran { Some(reason) } else { None };
    (inline.take_tallies(), stop)
}

/// A range of units a worker ran ahead of the commit.
struct RangeRun {
    /// Per-model tallies over the range's candidates.
    tallies: Vec<Tally>,
    /// Candidates the range emitted, counting one that tripped a cap.
    emitted: usize,
    stop: Option<InconclusiveReason>,
    /// The range's own enumeration counters, when the check keeps any.
    stats: Option<Arc<Stats>>,
}

/// One thread's evaluation state: a session per model, a cursor over the
/// test's pre-executions (its interned shapes outlive each run of units,
/// so the static caches keyed on them stay hot across the runs), the
/// shared-facts cache (arena-backed — each worker recycles relation
/// storage between candidates), and one running tally per model. All
/// models see the exact same candidate sequence — a candidate counts for
/// either every tally or none (a panic or fuel stop mid-candidate
/// discards it everywhere), so per-model partial tallies stay aligned.
struct WorkerState<'m> {
    sessions: Vec<Box<dyn ModelSession + 'm>>,
    cursor: Cursor<'m>,
    cache: FactsCache,
    allows: Vec<bool>,
    tallies: Vec<Tally>,
    /// The check's counters, which get this thread's data-plane counts
    /// when it finishes.
    stats: Option<Arc<Stats>>,
}

impl<'m> WorkerState<'m> {
    fn new(
        models: &[&'m dyn ConsistencyModel],
        space: &'m PreExecutions,
        fuel: &Option<Arc<StepFuel>>,
        stats: &Option<Arc<Stats>>,
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
            cursor: space.cursor(),
            cache: FactsCache::with_arena(lkmm_relation::shared_arena()),
            sessions,
            stats: stats.clone(),
        }
    }

    fn take_tallies(&mut self) -> Vec<Tally> {
        std::mem::replace(&mut self.tallies, vec![Tally::default(); self.sessions.len()])
    }

    /// Enumerate `units` and evaluate their candidates into the running
    /// tallies, spending fuel from `meter` and counting `emitted` toward
    /// `max_executions`; stop once the first model's tally holds `cap`
    /// candidates. The whole run sits inside one `catch_unwind` rather
    /// than one per candidate: tallies update only after a candidate's
    /// evaluation succeeds, so a panicking candidate counts nowhere,
    /// exactly as a per-candidate catch would have it.
    fn run(
        &mut self,
        cx: &Cx<'m>,
        units: Range<usize>,
        opts: &EnumOptions,
        meter: &mut Meter,
        emitted: &mut usize,
        cap: usize,
    ) -> Ran {
        let (prop, quantifier) = (&cx.test.condition.prop, cx.test.condition.quantifier);
        let mut halt = None;
        // The visitor borrows `self`, so the cursor steps out for the run.
        let mut cursor = std::mem::replace(&mut self.cursor, cx.space.cursor());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            cursor.try_for_each_in(units, cx.slices, opts, meter, emitted, &mut |x| {
                if self.evaluate(&x, prop).is_err() {
                    halt = Some(Ran::Stopped(InconclusiveReason::BudgetExceeded(
                        BudgetKind::EvalSteps,
                    )));
                } else if self.tallies[0].candidates >= cap {
                    halt = Some(Ran::Capped);
                } else if !(cx.early_exit && self.decided(quantifier)) {
                    return ControlFlow::Continue(());
                }
                ControlFlow::Break(())
            })
        }));
        self.cursor = cursor;
        match caught {
            Err(_) => Ran::Stopped(InconclusiveReason::WorkerPanicked),
            Ok(Err(e)) => Ran::Stopped(e.into()),
            Ok(Ok(_)) => halt.unwrap_or(Ran::Done),
        }
    }

    /// Run `units` ahead of the commit: against the whole candidate
    /// `allowance`, a fresh `max_executions` count and private
    /// enumeration counters, which the commit adopts only if the range
    /// fits what is left.
    fn run_ahead(
        &mut self,
        cx: &Cx<'m>,
        units: &Range<usize>,
        opts: &EnumOptions,
        allowance: &Meter,
    ) -> RangeRun {
        let opts = opts.with_own_stats();
        let mut emitted = 0;
        let ran =
            self.run(cx, units.clone(), &opts, &mut allowance.clone(), &mut emitted, usize::MAX);
        RangeRun {
            tallies: self.take_tallies(),
            emitted,
            stop: if let Ran::Stopped(reason) = ran { Some(reason) } else { None },
            stats: opts.stats,
        }
    }

    /// Evaluate one candidate against every model, sharing one
    /// [`ExecFacts`](crate::facts::ExecFacts) and evaluating the
    /// final-state proposition at most once. `Err` means the step fuel
    /// ran out; the candidate is then counted nowhere.
    fn evaluate(&mut self, x: &Execution, prop: &Prop) -> Result<(), EvalStop> {
        faultpoint::maybe_panic("worker.panic");
        self.allows.clear();
        let facts = self.cache.facts(x);
        for session in self.sessions.iter_mut() {
            self.allows.push(session.try_allows_with(x, &facts)?);
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

impl Drop for WorkerState<'_> {
    /// Add this thread's arena and facts-cache counts to the check's
    /// counters.
    fn drop(&mut self) {
        if let (Some(stats), Some(Ok(arena))) =
            (&self.stats, self.cache.arena().map(|arena| arena.try_borrow()))
        {
            stats.arena_acquires.fetch_add(arena.acquires(), Ordering::Relaxed);
            stats.arena_reuses.fetch_add(arena.reuses(), Ordering::Relaxed);
            stats.static_builds.fetch_add(self.cache.static_builds(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The split forced onto explicit worker counts, whatever the host's
    //! parallelism; `tests/pipeline.rs` covers the public path.

    use super::*;
    use crate::model::{check_test, AllowAll};
    use lkmm_core::budget::Budget;

    /// Three threads writing the same value, then reading twice: 64
    /// pre-executions, every candidate in the first one — so the engine
    /// slices it.
    fn same_value_writers() -> Test {
        let thread = "(int *x) { int r0; int r1; WRITE_ONCE(*x, 1); r0 = READ_ONCE(*x); \
                      r1 = READ_ONCE(*x); }";
        let src =
            format!("C same\n{{ x=0; }}\nP0{thread}\nP1{thread}\nP2{thread}\nexists (0:r0=0)");
        lkmm_litmus::parse(&src).unwrap()
    }

    /// Each worker count's tallies, stop reason and enumeration counters.
    fn at_worker_counts(models: &[&dyn ConsistencyModel], opts: &EnumOptions) -> Vec<String> {
        [1, 2, 3, 8]
            .map(|workers| {
                let stats = Arc::new(Stats::default());
                let opts = EnumOptions { stats: Some(stats.clone()), ..opts.clone() };
                let t = same_value_writers();
                let run = run_check(models, &t, &opts, &PipelineOptions::default(), workers);
                format!("{run:?} {:?}", stats.snapshot().enumeration)
            })
            .to_vec()
    }

    #[test]
    fn split_checks_match_sequential_at_any_worker_count() {
        let t = same_value_writers();
        let stats = Arc::new(Stats::default());
        let opts = EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() };
        let seq = check_test(&AllowAll, &t, &opts).unwrap();
        assert!(seq.candidates > INLINE_WORK, "the test must split");
        // Two models share one enumeration: the counters a split run
        // reports are a single-model sequential run's.
        let runs = at_worker_counts(&[&AllowAll, &AllowAll], &EnumOptions::default());
        assert!(runs[0].ends_with(&format!("{:?}", stats.snapshot().enumeration)), "{}", runs[0]);
        assert!(runs.iter().all(|r| *r == runs[0]), "{runs:#?}");
        let (tallies, stop) =
            run_check(&[&AllowAll], &t, &EnumOptions::default(), &PipelineOptions::default(), 2);
        assert_eq!((tallies[0].into_result(t.condition.quantifier), stop), (seq, None));
    }

    #[test]
    fn caps_tripping_inside_a_worker_range_are_exact_at_any_worker_count() {
        // Both limits fall past the inline prefix, inside units the
        // workers ran ahead with the whole allowance: the commit re-runs
        // from there inline and stops at exactly the limit.
        let total = check_test(&AllowAll, &same_value_writers(), &EnumOptions::default())
            .unwrap()
            .candidates;
        let limit = total - 7;
        assert!(limit > INLINE_WORK);
        let budget = Budget::default().with_max_candidates(limit as u64);
        for (opts, reason) in [
            (EnumOptions { budget, ..EnumOptions::default() }, "BudgetExceeded(Candidates)"),
            (EnumOptions { max_executions: limit, ..EnumOptions::default() }, "TooManyExecutions"),
        ] {
            let runs = at_worker_counts(&[&AllowAll], &opts);
            assert!(runs[0].contains(reason), "{}", runs[0]);
            assert!(runs[0].contains(&format!("candidates: {limit},")), "{}", runs[0]);
            assert!(runs.iter().all(|r| *r == runs[0]), "{runs:#?}");
        }
    }

    #[test]
    fn enum_errors_propagate_through_the_strict_view() {
        let t = lkmm_litmus::parse(
            "C t\n{ x=0; }\nP0(int *x) { rcu_read_lock(); WRITE_ONCE(*x, 1); }\nexists (x=1)",
        )
        .unwrap();
        let pipe = PipelineOptions { jobs: 2, ..Default::default() };
        let outcome = check(&[&AllowAll], &t, &EnumOptions::default(), &pipe);
        assert_eq!(
            outcome.clone().into_first(),
            CheckOutcome::Inconclusive {
                reason: InconclusiveReason::Enum(EnumError::UnbalancedRcu { thread: 0 }),
                partial: Tally::default(),
            }
        );
        assert_eq!(outcome.into_result().unwrap_err(), EnumError::UnbalancedRcu { thread: 0 });
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
            stats: Some(std::sync::Arc::new(Stats::default())),
            ..EnumOptions::default()
        };
        assert_eq!(format!("{tuned:?}"), format!("{:?}", EnumOptions::default()));
    }
}
