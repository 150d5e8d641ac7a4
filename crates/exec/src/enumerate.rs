//! Exhaustive enumeration of candidate executions.
//!
//! Follows herd's recipe: (1) compute the set of values each location can
//! hold (a fixpoint, since written values may be computed from read
//! values); (2) run every thread under every read oracle drawn from those
//! domains; (3) for every combination of thread outcomes, enumerate every
//! reads-from assignment and every coherence order.
//!
//! Step (3) has two interchangeable strategies (see [`EnumStrategy`]).
//! The default *pruned* strategy assigns `rf` read-by-read over an
//! incrementally maintained topological order, derives the coherence
//! edges each assignment forces (the uniproc CoWR/CoRW/CoRR shapes), and
//! abandons a prefix the moment the order becomes cyclic; at the leaves
//! it only branches on write pairs the derived order leaves genuinely
//! unconstrained. The *naive* strategy materialises every `rf`
//! combination and every per-location write permutation and filters at
//! the leaves. Both emit exactly the same candidate sequence; the naive
//! path remains as the differential oracle and for `prune_scpv: false`.

use crate::event::{Event, EventKind, LocId, SrcuKind, Val, WriteAnnot};
use crate::execution::{Execution, Shape};
use crate::lower::{Addr, LStmt, Program};
use crate::thread::{run_thread, LocalDeps, ThreadOutcome, ThreadStop};
use lkmm_core::budget::{Budget, BudgetKind, Meter};
use lkmm_core::faultpoint;
use lkmm_litmus::ast::Test;
use lkmm_litmus::FenceKind;
use lkmm_relation::{IncrementalOrder, Relation};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Witness-enumeration strategy for step (3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumStrategy {
    /// Consistency-driven enumeration: prune `rf` prefixes via an online
    /// cycle check and saturate forced coherence edges before branching.
    /// Emits exactly the candidates the naive strategy emits, in the same
    /// order, skipping doomed subtrees. Only effective when `prune_scpv`
    /// is on (raw mode has no axiom to drive the pruning).
    #[default]
    Pruned,
    /// Generate-then-judge: full `rf` odometer and per-location write
    /// permutations, filtered at the leaves. Kept as the differential
    /// oracle for the pruned path and for ablation benchmarks.
    Naive,
}

/// Opt-in counters of where a check's work went, carried in
/// [`EnumOptions::stats`] and updated with relaxed atomics, so one
/// instance can be observed across worker threads.
///
/// The enumerator counts its pruning ([`EnumSnapshot`]). The check
/// engine's workers add their arena and facts-cache counts
/// ([`DataPlaneSnapshot`]) as they finish. A check on the calling thread
/// draws from one fresh arena and one facts cache, so a campaign, which
/// checks each unit inline, reports the same counts at any job count. A
/// split check adds one arena and cache per worker, each warming up on
/// its own, so its data-plane counts depend on the split.
#[derive(Debug, Default)]
pub struct Stats {
    pub(crate) rf_prefixes_pruned: AtomicU64,
    pub(crate) co_pairs_saturated: AtomicU64,
    pub(crate) co_pairs_branched: AtomicU64,
    pub(crate) co_leaves_tested: AtomicU64,
    pub(crate) candidates_emitted: AtomicU64,
    pub(crate) arena_acquires: AtomicU64,
    pub(crate) arena_reuses: AtomicU64,
    pub(crate) static_builds: AtomicU64,
}

impl Stats {
    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |counter: &AtomicU64| counter.load(AtomicOrdering::Relaxed);
        StatsSnapshot {
            enumeration: EnumSnapshot {
                rf_prefixes_pruned: load(&self.rf_prefixes_pruned),
                co_pairs_saturated: load(&self.co_pairs_saturated),
                co_pairs_branched: load(&self.co_pairs_branched),
                co_leaves_tested: load(&self.co_leaves_tested),
                candidates_emitted: load(&self.candidates_emitted),
            },
            data_plane: DataPlaneSnapshot {
                arena_acquires: load(&self.arena_acquires),
                arena_reuses: load(&self.arena_reuses),
                static_builds: load(&self.static_builds),
            },
        }
    }

    /// Add another counter set's totals to these — how a run against
    /// private counters is folded into shared ones once its result is
    /// kept.
    pub fn add(&self, other: &StatsSnapshot) {
        let (e, d) = (&other.enumeration, &other.data_plane);
        for (counter, n) in [
            (&self.rf_prefixes_pruned, e.rf_prefixes_pruned),
            (&self.co_pairs_saturated, e.co_pairs_saturated),
            (&self.co_pairs_branched, e.co_pairs_branched),
            (&self.co_leaves_tested, e.co_leaves_tested),
            (&self.candidates_emitted, e.candidates_emitted),
            (&self.arena_acquires, d.arena_acquires),
            (&self.arena_reuses, d.arena_reuses),
            (&self.static_builds, d.static_builds),
        ] {
            counter.fetch_add(n, AtomicOrdering::Relaxed);
        }
    }
}

/// Point-in-time copy of [`Stats`], in its two sections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub enumeration: EnumSnapshot,
    pub data_plane: DataPlaneSnapshot,
}

/// The enumerator's pruning counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumSnapshot {
    /// Partial `rf` assignments abandoned because `po-loc ∪ rf ∪
    /// derived-co` became cyclic (naive strategy: complete `rf` vectors
    /// rejected by the acyclicity pre-check).
    pub rf_prefixes_pruned: u64,
    /// Same-location write pairs whose coherence direction was forced by
    /// saturation (pruned strategy only).
    pub co_pairs_saturated: u64,
    /// Same-location write pairs genuinely unconstrained, i.e. branched on
    /// (pruned strategy only).
    pub co_pairs_branched: u64,
    /// Coherence-order leaves built and tested (naive: every permutation
    /// product; pruned: only linear extensions of the forced order).
    pub co_leaves_tested: u64,
    /// Candidates that survived pruning and were emitted downstream.
    pub candidates_emitted: u64,
}

/// The check engine's arena and facts-cache counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataPlaneSnapshot {
    /// Relation/set/scratch acquisitions served by per-worker arenas.
    pub arena_acquires: u64,
    /// Acquisitions served from pooled storage instead of the allocator.
    pub arena_reuses: u64,
    /// Static fact tiers built: one per run of consecutive candidates
    /// of one [`Shape`] a facts cache saw.
    pub static_builds: u64,
}

/// Cap on value-domain fixpoint rounds (the enumerator already stops
/// after `#reads + 1` rounds, which is sound: a realisable value flows
/// through at most one read event per dataflow step, and a candidate
/// execution has finitely many distinct reads — any value needing a
/// longer derivation chain cannot be matched by `rf`).
const MAX_DOMAIN_ITERATIONS: usize = 16;
/// Cap on oracle branches explored per thread.
const MAX_ORACLE_BRANCHES: usize = 200_000;

/// Tuning knobs for the enumerator.
#[derive(Clone)]
pub struct EnumOptions {
    /// Discard candidates violating *sequential consistency per variable*
    /// (the `Scpv` axiom, `acyclic(po-loc ∪ com)`) during enumeration.
    /// Every model this workspace implements includes Scpv, so pruning is
    /// sound for them and dramatically cheaper; disable to obtain the raw
    /// candidate set (used by the ablation bench).
    pub prune_scpv: bool,
    /// Hard cap on emitted executions.
    pub max_executions: usize,
    /// Resource budget governing this enumeration (and, through the
    /// pipeline, the model evaluation fed from it). Unlimited by default.
    ///
    /// Unlike the caps — which are semantic knobs changing *which* error
    /// a pathological test reports — a budget never changes any
    /// completed verdict, only whether the check runs to completion. It
    /// is therefore excluded from the [`fmt::Debug`] form, which the
    /// verdict store folds into cache keys.
    pub budget: Budget,
    /// Witness-enumeration strategy. Both strategies emit the identical
    /// candidate sequence whenever `prune_scpv` is on, so — like `budget`
    /// — the strategy is excluded from the [`fmt::Debug`] cache-key form:
    /// stores written by either strategy replay byte-identically.
    pub strategy: EnumStrategy,
    /// Optional shared counters, filled by the enumerator and the check
    /// engine; `None` (the default) costs nothing. Excluded from
    /// [`fmt::Debug`] for the same reason as `budget`: observability
    /// cannot change a verdict.
    pub stats: Option<Arc<Stats>>,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions {
            prune_scpv: true,
            max_executions: 4_000_000,
            budget: Budget::default(),
            strategy: EnumStrategy::default(),
            stats: None,
        }
    }
}

impl EnumOptions {
    /// These options with fresh counters of their own in place of the
    /// shared ones (none if none are kept), for a run whose result may
    /// still be thrown away.
    pub fn with_own_stats(&self) -> EnumOptions {
        EnumOptions { stats: self.stats.as_ref().map(|_| Arc::default()), ..self.clone() }
    }

    /// Add the counts of a kept run's own counters (see
    /// [`EnumOptions::with_own_stats`]) to these options' counters.
    pub fn adopt_stats(&self, own: &Option<Arc<Stats>>) {
        if let (Some(shared), Some(own)) = (&self.stats, own) {
            shared.add(&own.snapshot());
        }
    }
}

/// Manual impl printing exactly the pre-budget derived form, the two
/// fixed caps included. The verdict store salts cache keys with `{:?}`
/// of these options; keeping the budget — and the later
/// `strategy`/`stats` knobs — out of it
/// (a) preserves every existing store byte-for-byte and (b) is
/// semantically right — budgets cannot change a completed verdict,
/// inconclusive results are never cached, both strategies emit identical
/// candidate sequences, and counters observe without influencing.
impl fmt::Debug for EnumOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnumOptions")
            .field("prune_scpv", &self.prune_scpv)
            .field("max_executions", &self.max_executions)
            .field("max_domain_iterations", &MAX_DOMAIN_ITERATIONS)
            .field("max_oracle_branches", &MAX_ORACLE_BRANCHES)
            .finish()
    }
}

/// Enumeration failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnumError {
    /// The test has no threads.
    NoThreads,
    /// More candidate executions than [`EnumOptions::max_executions`].
    TooManyExecutions,
    /// Too many oracle branches in one thread.
    TooManyBranches,
    /// `rcu_read_lock`/`rcu_read_unlock` are not balanced on some path.
    UnbalancedRcu { thread: usize },
    /// The [`EnumOptions::budget`] ran out mid-enumeration.
    BudgetExceeded(BudgetKind),
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::NoThreads => write!(f, "litmus test has no threads"),
            EnumError::TooManyExecutions => write!(f, "too many candidate executions"),
            EnumError::TooManyBranches => write!(f, "too many oracle branches"),
            EnumError::UnbalancedRcu { thread } => {
                write!(f, "unbalanced RCU critical section in thread {thread}")
            }
            EnumError::BudgetExceeded(kind) => write!(f, "{kind}"),
        }
    }
}

impl std::error::Error for EnumError {}

/// Enumerate all candidate executions of `test` into a vector.
///
/// # Errors
///
/// See [`EnumError`]. Litmus-scale tests enumerate in microseconds; the
/// caps exist to keep pathological inputs from running away.
///
/// # Examples
///
/// ```
/// use lkmm_exec::enumerate::{enumerate, EnumOptions};
///
/// let test = lkmm_litmus::library::by_name("MP").unwrap().test();
/// let execs = enumerate(&test, &EnumOptions::default()).unwrap();
/// assert!(!execs.is_empty());
/// ```
pub fn enumerate(test: &Test, opts: &EnumOptions) -> Result<Vec<Execution>, EnumError> {
    let mut out = Vec::new();
    let _ = try_for_each_execution(test, opts, &mut |x| {
        out.push(x);
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// Streaming variant of [`enumerate`]: calls `visit` on each candidate
/// execution without retaining them.
///
/// # Errors
///
/// See [`EnumError`].
pub fn for_each_execution(
    test: &Test,
    opts: &EnumOptions,
    visit: &mut dyn FnMut(&Execution),
) -> Result<(), EnumError> {
    try_for_each_execution(test, opts, &mut |x| {
        visit(&x);
        ControlFlow::Continue(())
    })
    .map(drop)
}

/// Abortable streaming enumeration: each candidate is passed to `visit`
/// *by value* (candidates share their pre-witness structure behind `Arc`s,
/// so this is cheap), and the visitor may stop the enumeration early by
/// returning [`ControlFlow::Break`].
///
/// Returns [`ControlFlow::Break`] if the visitor stopped the run, and
/// [`ControlFlow::Continue`] if the candidate space was exhausted.
///
/// # Errors
///
/// See [`EnumError`].
pub fn try_for_each_execution(
    test: &Test,
    opts: &EnumOptions,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    let mut meter = opts.budget.meter();
    let space = PreExecutions::new(test, opts, &mut meter)?;
    space.cursor().try_for_each_in(0..space.len(), 1, opts, &mut meter, &mut 0, visit)
}

/// A test's pre-executions as an index space. Building one runs the
/// value-domain fixpoint once; pre-execution `k` is then the `k`-th
/// combination of per-thread outcomes, thread 0 varying fastest.
///
/// Enumeration takes ranges of *units*, through a [`Cursor`]: cut into
/// `slices` units each, pre-execution `k` is units `k * slices ..= k *
/// slices + slices - 1`, unit `s` holding the `s`-th of `slices` equal
/// shares of its witness tree, by the `rf` choices of the first reads
/// assigned. Ranges of units enumerate independently — on any thread —
/// and ranges visited in index order emit exactly the candidate stream
/// of [`try_for_each_execution`], at any `slices`: that is how the check
/// engine splits one test over a worker pool, slicing a pre-execution
/// when one holds most of the work.
///
/// Each thread's outcomes are classed once, by their value-free
/// structure, so a pre-execution's [`Shape`] is known from its index.
pub struct PreExecutions {
    program: Arc<Program>,
    outcomes: Vec<Vec<ThreadOutcome>>,
    /// Per thread, the class of each outcome (parallel to `outcomes`).
    classes: Vec<Vec<OutcomeClass>>,
    len: usize,
}

/// What classing one thread outcome found.
#[derive(Clone, Copy, Debug)]
struct OutcomeClass {
    /// The outcome's class times the number of shapes the threads before
    /// it can form: a pre-execution's shape key is the sum over its
    /// threads, distinct per distinct structure.
    key: usize,
    /// Whether its RCU and per-domain SRCU sections balance.
    balanced: bool,
}

impl PreExecutions {
    /// Run the value-domain fixpoint for `test`, polling `meter` for the
    /// clock and cancellation.
    ///
    /// # Errors
    ///
    /// See [`EnumError`]. A test with more pre-executions than `usize`
    /// can index reports [`EnumError::TooManyExecutions`].
    pub fn new(
        test: &Test,
        opts: &EnumOptions,
        meter: &mut Meter,
    ) -> Result<PreExecutions, EnumError> {
        if test.threads.is_empty() {
            return Err(EnumError::NoThreads);
        }
        let program = Program::lower(test);

        // Which threads statically write each location; a location
        // written by no thread other than the reader has deterministic
        // read values.
        let writers = static_writers(&program);

        let mut domains: Vec<BTreeSet<Val>> =
            program.init.iter().map(|&v| BTreeSet::from([v])).collect();
        let mut outcomes: Vec<Vec<ThreadOutcome>> = Vec::new();
        let stmt_count: usize = program.threads.iter().map(|code| code.stmts.len()).sum();
        let rounds = (stmt_count + 1).min(MAX_DOMAIN_ITERATIONS);
        for _round in 0..rounds {
            meter.poll_now().map_err(EnumError::BudgetExceeded)?;
            outcomes = (0..program.threads.len())
                .map(|tid| explore_thread(&program, tid, &writers, &domains, opts, meter))
                .collect::<Result<_, _>>()?;
            let mut changed = false;
            for outs in &outcomes {
                for out in outs {
                    for ev in &out.events {
                        if let EventKind::Write { loc, val, .. } = ev.kind {
                            changed |= domains[loc.0].insert(val);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // A thread whose `__assume`s filter out every local outcome
        // leaves the test with no pre-executions at all (the
        // exists-condition is then vacuously unsatisfiable).
        let len = outcomes
            .iter()
            .try_fold(1usize, |n, outs| n.checked_mul(outs.len()))
            .ok_or(EnumError::TooManyExecutions)?;
        // A thread has at most as many classes as outcomes, so the
        // running product of class counts stays within `len`.
        let mut stride = 1usize;
        let classes = outcomes
            .iter()
            .map(|outs| {
                let (classes, count) = class_outcomes(outs, stride);
                stride = stride.saturating_mul(count);
                classes
            })
            .collect();
        Ok(PreExecutions { program: Arc::new(program), outcomes, classes, len })
    }

    /// Number of pre-executions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the test has no pre-execution (hence no candidate).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A cursor enumerating runs of this space's units on one thread.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor { space: self, shapes: HashMap::new() }
    }
}

/// One thread's enumerator over a [`PreExecutions`] space. It interns
/// one [`Shape`] per value-free structure it meets, building its
/// relations once, in a table of its own that outlives each run of
/// units: pre-executions of one structure share one shape — and every
/// static cache keyed on it — across the runs one thread enumerates,
/// and split workers, each with its own cursor, never lock.
pub struct Cursor<'a> {
    space: &'a PreExecutions,
    shapes: HashMap<usize, Interned>,
}

impl Cursor<'_> {
    /// Enumerate the candidates of `units` (pre-executions cut into
    /// `slices` units each), in index order, spending candidate fuel
    /// from `meter`. `emitted` counts candidates against
    /// [`EnumOptions::max_executions`]: carry one counter across
    /// consecutive ranges of one check.
    ///
    /// # Errors
    ///
    /// See [`EnumError`].
    ///
    /// # Panics
    ///
    /// If `slices` is zero or `units` runs past the last pre-execution.
    pub fn try_for_each_in(
        &mut self,
        units: Range<usize>,
        slices: usize,
        opts: &EnumOptions,
        meter: &mut Meter,
        emitted: &mut usize,
        visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, EnumError> {
        let space = self.space;
        assert!(slices > 0, "a pre-execution is at least one unit");
        assert!(units.end <= space.len.saturating_mul(slices), "units past the last pre-execution");
        let mut chosen: Vec<&ThreadOutcome> = Vec::with_capacity(space.outcomes.len());
        let mut unit = units.start;
        while unit < units.end {
            meter.poll_now().map_err(EnumError::BudgetExceeded)?;
            let k = unit / slices;
            let first = k * slices;
            let end = units.end.min(first + slices);
            chosen.clear();
            let mut key = 0;
            let mut rest = k;
            for (t, (outs, classes)) in space.outcomes.iter().zip(&space.classes).enumerate() {
                let i = rest % outs.len();
                if !classes[i].balanced {
                    return Err(EnumError::UnbalancedRcu { thread: t });
                }
                chosen.push(&outs[i]);
                key += classes[i].key;
                rest /= outs.len();
            }
            let shape = self
                .shapes
                .entry(key)
                .or_insert_with(|| intern(space.program.locs.len(), &chosen));
            let pre = build_pre_execution(&space.program, &chosen, shape);
            let share = (end - unit < slices).then(|| (unit - first..end - first, slices));
            if enumerate_witnesses(&pre, opts, share, emitted, meter, visit)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
            unit = end;
        }
        Ok(ControlFlow::Continue(()))
    }
}

/// Statically determine, per location, which threads may write it. A
/// thread containing a write through a register pointer may write any
/// location.
fn static_writers(program: &Program) -> Vec<BTreeSet<usize>> {
    let mut writers = vec![BTreeSet::new(); program.locs.len()];
    for (tid, code) in program.threads.iter().enumerate() {
        for stmt in &code.stmts {
            let addr = match *stmt {
                LStmt::Store { addr, .. }
                | LStmt::Rmw { addr, .. }
                | LStmt::SpinLock(addr)
                | LStmt::SpinUnlock(addr) => addr,
                // SRCU domain arguments are markers, not writes.
                _ => continue,
            };
            match addr {
                Addr::Loc(l) => {
                    writers[l as usize].insert(tid);
                }
                // A pointer write may target anything.
                Addr::Reg(_) => {
                    for w in writers.iter_mut() {
                        w.insert(tid);
                    }
                }
            }
        }
    }
    writers
}

fn explore_thread(
    program: &Program,
    tid: usize,
    writers: &[BTreeSet<usize>],
    domains: &[BTreeSet<Val>],
    opts: &EnumOptions,
    meter: &mut Meter,
) -> Result<Vec<ThreadOutcome>, EnumError> {
    let mut done = Vec::new();
    let mut stack: Vec<Vec<Val>> = vec![Vec::new()];
    let mut branches = 0usize;
    while let Some(oracle) = stack.pop() {
        branches += 1;
        if branches > MAX_ORACLE_BRANCHES {
            return Err(EnumError::TooManyBranches);
        }
        meter.poll().map_err(EnumError::BudgetExceeded)?;
        match run_thread(program, tid, &oracle) {
            Ok(out) => done.push(out),
            Err(ThreadStop::NeedValue { loc, last_local_write }) => {
                // Determinisation of thread-local reads is justified by
                // per-location coherence, so it only applies when Scpv
                // pruning is on; raw mode keeps the full candidate set.
                let local =
                    opts.prune_scpv && writers[loc.0].iter().all(|&w| w == tid);
                if local {
                    // Deterministic under coherence: the read must return
                    // this thread's latest prior write (or the initial
                    // value).
                    let mut next = oracle.clone();
                    next.push(last_local_write.unwrap_or(program.init[loc.0]));
                    stack.push(next);
                } else {
                    for &v in &domains[loc.0] {
                        let mut next = oracle.clone();
                        next.push(v);
                        stack.push(next);
                    }
                }
            }
            Err(ThreadStop::Stuck(_)) => {}
        }
    }
    Ok(done)
}

/// Class one thread's outcomes by value-free structure: equal classes
/// iff equal event kinds, annotations and locations, in order, and equal
/// dependency edges. Returns each outcome's class, keyed by `stride`, and
/// the number of classes.
fn class_outcomes(outs: &[ThreadOutcome], stride: usize) -> (Vec<OutcomeClass>, usize) {
    let mut seen: HashMap<(Vec<EventKind>, &LocalDeps), OutcomeClass> = HashMap::new();
    let classes = outs
        .iter()
        .map(|out| {
            let kinds = out.events.iter().map(|e| without_value(e.kind)).collect();
            let next = seen.len();
            *seen.entry((kinds, &out.deps)).or_insert_with(|| OutcomeClass {
                key: next * stride,
                balanced: balanced(out),
            })
        })
        .collect();
    (classes, seen.len())
}

/// `kind` with its value, if any, replaced by zero.
fn without_value(kind: EventKind) -> EventKind {
    match kind {
        EventKind::Read { loc, annot, .. } => EventKind::Read { loc, val: Val::Int(0), annot },
        EventKind::Write { loc, annot, is_init, .. } => {
            EventKind::Write { loc, val: Val::Int(0), annot, is_init }
        }
        kind => kind,
    }
}

/// Whether a thread outcome's RCU sections, and its SRCU sections per
/// domain, open before they close and all close.
fn balanced(out: &ThreadOutcome) -> bool {
    let mut depth = 0i64;
    let mut srcu_depth: HashMap<LocId, i64> = HashMap::new();
    for ev in &out.events {
        match ev.kind {
            EventKind::Fence(FenceKind::RcuLock) => depth += 1,
            EventKind::Fence(FenceKind::RcuUnlock) => depth -= 1,
            EventKind::Srcu { kind: SrcuKind::Lock, domain } => {
                *srcu_depth.entry(domain).or_insert(0) += 1;
            }
            EventKind::Srcu { kind: SrcuKind::Unlock, domain } => {
                *srcu_depth.entry(domain).or_insert(0) -= 1;
            }
            _ => {}
        }
        if depth < 0 || srcu_depth.values().any(|&d| d < 0) {
            return false;
        }
    }
    depth == 0 && srcu_depth.values().all(|&d| d == 0)
}

/// One shape of a test, interned by a [`Cursor`], with the write lists
/// the witness enumeration reads off it.
struct Interned {
    shape: Arc<Shape>,
    /// Global indices of non-init writes per location.
    writes_per_loc: Vec<Vec<usize>>,
}

/// Build the shape of the pre-execution made of `chosen` (one outcome
/// per thread, after `n_locs` initialising writes): any pre-execution
/// whose outcomes fall in the same classes gets the same one.
fn intern(n_locs: usize, chosen: &[&ThreadOutcome]) -> Interned {
    let total: usize = n_locs + chosen.iter().map(|o| o.events.len()).sum::<usize>();
    let mut po = Relation::empty(total);
    let mut addr = Relation::empty(total);
    let mut data = Relation::empty(total);
    let mut ctrl = Relation::empty(total);
    let mut rmw = Relation::empty(total);
    let mut po_loc = Relation::empty(total);
    let mut writes_per_loc = vec![Vec::new(); n_locs];
    let mut base = n_locs;
    for out in chosen {
        for (i, ev) in out.events.iter().enumerate() {
            if let EventKind::Write { loc, .. } = ev.kind {
                writes_per_loc[loc.0].push(base + i);
            }
            let loc = ev.kind.loc();
            for (j, before) in out.events[..i].iter().enumerate() {
                po.insert(base + j, base + i);
                if loc.is_some() && before.kind.loc() == loc {
                    po_loc.insert(base + j, base + i);
                }
            }
        }
        for (rel, pairs) in [
            (&mut addr, &out.deps.addr),
            (&mut data, &out.deps.data),
            (&mut ctrl, &out.deps.ctrl),
            (&mut rmw, &out.deps.rmw),
        ] {
            for &(a, b) in pairs {
                rel.insert(base + a, base + b);
            }
        }
        base += out.events.len();
    }
    Interned { shape: Arc::new(Shape { po, addr, data, ctrl, rmw, po_loc }), writes_per_loc }
}

/// Everything fixed before `rf`/`co` are chosen. The shared parts are
/// already behind `Arc`s so every candidate built from this pre-execution
/// clones reference counts, not data. The initialising write of location
/// `l` is event `l`.
struct PreExecution<'s> {
    program: Arc<Program>,
    events: Arc<Vec<Event>>,
    n_threads: usize,
    /// The interned shape: `po-loc` for pruning, and the relations every
    /// emitted [`Execution`] shares (and from there the checkers' static
    /// caches, which key on it).
    shape: Arc<Shape>,
    final_regs: Arc<Vec<Vec<Option<Val>>>>,
    /// Global indices of reads, with (loc, val).
    reads: Vec<(usize, LocId, Val)>,
    /// Global indices of non-init writes per location.
    writes_per_loc: &'s [Vec<usize>],
}

fn build_pre_execution<'s>(
    program: &Arc<Program>,
    chosen: &[&ThreadOutcome],
    shape: &'s Interned,
) -> PreExecution<'s> {
    let total = shape.shape.po.universe();
    let mut events = Vec::with_capacity(total);
    for (i, &v) in program.init.iter().enumerate() {
        events.push(Event {
            id: i,
            thread: None,
            kind: EventKind::Write {
                loc: LocId(i),
                val: v,
                annot: WriteAnnot::Once,
                is_init: true,
            },
        });
    }
    let mut reads = Vec::new();
    for (t, out) in chosen.iter().enumerate() {
        for ev in &out.events {
            let id = events.len();
            if let EventKind::Read { loc, val, .. } = ev.kind {
                reads.push((id, loc, val));
            }
            events.push(Event { id, thread: Some(t), kind: ev.kind });
        }
    }
    PreExecution {
        program: Arc::clone(program),
        events: Arc::new(events),
        n_threads: chosen.len(),
        shape: Arc::clone(&shape.shape),
        final_regs: Arc::new(chosen.iter().map(|out| out.final_regs.clone()).collect()),
        reads,
        writes_per_loc: &shape.writes_per_loc,
    }
}

/// The share of one pre-execution's witness tree a run of its units
/// covers: the `rf` assignments whose choices for the first
/// `radix.len()` reads assigned (read `nr - 1` first, as both
/// strategies nest them) form a mixed-radix prefix in `lo..hi`.
struct Window {
    /// Choices per windowed read, in assignment order.
    radix: Vec<usize>,
    /// Prefixes under one choice at each windowed depth.
    span: Vec<usize>,
    lo: usize,
    hi: usize,
}

impl Window {
    /// Shares `slices` of `of` equal ones, over enough leading reads
    /// that there are at least `of` prefixes when the tree has them.
    fn new(candidates: &[Vec<usize>], slices: &Range<usize>, of: usize) -> Window {
        let mut radix = Vec::new();
        let mut prefixes = 1usize;
        for c in candidates.iter().rev() {
            if prefixes >= of {
                break;
            }
            radix.push(c.len());
            prefixes *= c.len();
        }
        let mut span = vec![1usize; radix.len()];
        for d in (1..radix.len()).rev() {
            span[d - 1] = span[d] * radix[d];
        }
        Window { lo: slices.start * prefixes / of, hi: slices.end * prefixes / of, radix, span }
    }

    /// Where choice `ci` of the read at assignment depth `d` leads from
    /// `prefix`: `None` when its subtree lies outside the window, else
    /// the extended prefix and whether the window owns the subtree — it
    /// holds the subtree's first prefix, so it alone counts the choice
    /// as pruned.
    fn enter(&self, d: usize, prefix: usize, ci: usize) -> Option<(usize, bool)> {
        if d >= self.radix.len() {
            return Some((prefix, true));
        }
        let p = prefix * self.radix[d] + ci;
        let first = p * self.span[d];
        (first < self.hi && first + self.span[d] > self.lo).then_some((p, first >= self.lo))
    }

    /// The prefix of a complete choice vector (indexed by read).
    fn prefix_of(&self, choice: &[usize]) -> usize {
        let nr = choice.len();
        self.radix.iter().enumerate().fold(0, |p, (d, &r)| p * r + choice[nr - 1 - d])
    }
}

/// Enumerate one pre-execution's witnesses, or only `share` of them:
/// slices `share.0` of `share.1` (see [`PreExecutions`]).
fn enumerate_witnesses(
    pre: &PreExecution,
    opts: &EnumOptions,
    share: Option<(Range<usize>, usize)>,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    // Candidate rf sources per read: same location, same value.
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(pre.reads.len());
    for &(_, loc, val) in &pre.reads {
        let mut c: Vec<usize> = Vec::new();
        let init = loc.0; // the location's initialising write
        if pre.events[init].val() == Some(val) {
            c.push(init);
        }
        for &w in &pre.writes_per_loc[loc.0] {
            if pre.events[w].val() == Some(val) {
                c.push(w);
            }
        }
        if c.is_empty() {
            // This oracle assignment is unrealisable.
            return Ok(ControlFlow::Continue(()));
        }
        candidates.push(c);
    }
    let window = share.map(|(slices, of)| Window::new(&candidates, &slices, of));
    if window.as_ref().is_some_and(|w| w.lo == w.hi) {
        return Ok(ControlFlow::Continue(()));
    }

    // The pruned strategy represents forced-predecessor sets as one-word
    // bitmasks per location; litmus tests are far below 64 writes per
    // location, but fall back to the (semantically identical) naive path
    // rather than assert if one is not.
    let saturable = opts.prune_scpv
        && opts.strategy == EnumStrategy::Pruned
        && pre.writes_per_loc.iter().all(|ws| ws.len() <= 64);
    if saturable {
        return enumerate_witnesses_pruned(pre, &candidates, window, opts, emitted, meter, visit);
    }

    // Scratch write orders, permuted in place by enumerate_co; one
    // allocation per pre-execution instead of one per (rf, location).
    let mut orders: Vec<Vec<usize>> = pre.writes_per_loc.to_vec();
    let nr = pre.reads.len();
    let mut rf_choice = vec![0usize; nr];
    if let Some(w) = &window {
        // The odometer nests the windowed reads outermost, so the window
        // is one contiguous run of it, starting at prefix `lo`.
        let mut rest = w.lo;
        for d in (0..w.radix.len()).rev() {
            rf_choice[nr - 1 - d] = rest % w.radix[d];
            rest /= w.radix[d];
        }
    }
    loop {
        if window.as_ref().is_some_and(|w| w.prefix_of(&rf_choice) >= w.hi) {
            return Ok(ControlFlow::Continue(()));
        }
        meter.poll().map_err(EnumError::BudgetExceeded)?;
        let mut rf = Relation::empty(pre.events.len());
        for (ri, &(read_id, _, _)) in pre.reads.iter().enumerate() {
            rf.insert(candidates[ri][rf_choice[ri]], read_id);
        }
        // Textbook generate-then-judge: every complete `(rf, co)`
        // candidate is materialised and judged by the leaf-level Scpv
        // filter alone. An rf with cyclic `po-loc ∪ rf` has no acyclic
        // completion, so skipping any pre-check here cannot change the
        // emitted set — it only makes this path an honest baseline (and
        // differential twin) for the pruned strategy.
        if enumerate_co(pre, &rf, opts, &mut orders, emitted, meter, visit)?.is_break() {
            return Ok(ControlFlow::Break(()));
        }

        let mut i = 0;
        loop {
            if i == rf_choice.len() {
                return Ok(ControlFlow::Continue(()));
            }
            rf_choice[i] += 1;
            if rf_choice[i] < candidates[i].len() {
                break;
            }
            rf_choice[i] = 0;
            i += 1;
        }
    }
}

/// Build the coherence order from the per-location write orders, apply
/// the leaf-level Scpv filter if requested, and emit the candidate.
/// Shared by both strategies so metering, caps, faultpoints, and the
/// emission itself stay textually identical.
#[allow(clippy::too_many_arguments)]
fn emit_leaf(
    pre: &PreExecution,
    rf: &Relation,
    opts: &EnumOptions,
    orders: &[Vec<usize>],
    filter_scpv: bool,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    meter.poll().map_err(EnumError::BudgetExceeded)?;
    if let Some(stats) = &opts.stats {
        stats.co_leaves_tested.fetch_add(1, AtomicOrdering::Relaxed);
    }
    let mut co = Relation::empty(pre.events.len());
    for (l, order) in orders.iter().enumerate() {
        let mut prev = l;
        for &w in order {
            co.insert(prev, w);
            prev = w;
        }
    }
    co.transitive_close();
    if filter_scpv {
        // acyclic(po-loc ∪ rf ∪ co ∪ fr), built with in-place
        // unions on top of fr = rf⁻¹ ; co.
        let mut com = rf.inverse().seq(&co);
        com.union_in_place(rf);
        com.union_in_place(&co);
        com.union_in_place(&pre.shape.po_loc);
        if !com.is_acyclic() {
            return Ok(ControlFlow::Continue(()));
        }
    } else if opts.prune_scpv {
        // The saturating enumerator reaches a leaf only through a linear
        // extension of the forced coherence order, which the uniproc
        // characterisation guarantees is Scpv-consistent; re-check the
        // theorem in debug builds.
        debug_assert!(
            {
                let mut com = rf.inverse().seq(&co);
                com.union_in_place(rf);
                com.union_in_place(&co);
                com.union_in_place(&pre.shape.po_loc);
                com.is_acyclic()
            },
            "saturated coherence order violates scpv"
        );
    }
    *emitted += 1;
    if *emitted > opts.max_executions {
        return Err(EnumError::TooManyExecutions);
    }
    if faultpoint::should_fail("enum.budget") {
        return Err(EnumError::BudgetExceeded(BudgetKind::Candidates));
    }
    meter.spend_candidate().map_err(EnumError::BudgetExceeded)?;
    if let Some(stats) = &opts.stats {
        stats.candidates_emitted.fetch_add(1, AtomicOrdering::Relaxed);
    }
    let x = Execution {
        program: Arc::clone(&pre.program),
        events: Arc::clone(&pre.events),
        n_threads: pre.n_threads,
        shape: Arc::clone(&pre.shape),
        rf: rf.clone(),
        co,
        final_regs: Arc::clone(&pre.final_regs),
    };
    Ok(visit(x))
}

fn enumerate_co(
    pre: &PreExecution,
    rf: &Relation,
    opts: &EnumOptions,
    orders: &mut [Vec<usize>],
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    // Per-location write permutations via in-place swap recursion over
    // the shared scratch `orders`; position `k` of location `loc` is
    // being chosen. Each level restores the swap it made, so the scratch
    // is back to its entry state when the call returns.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        pre: &PreExecution,
        rf: &Relation,
        opts: &EnumOptions,
        orders: &mut [Vec<usize>],
        loc: usize,
        k: usize,
        emitted: &mut usize,
        meter: &mut Meter,
        visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, EnumError> {
        if loc == orders.len() {
            return emit_leaf(pre, rf, opts, orders, opts.prune_scpv, emitted, meter, visit);
        }
        if k == orders[loc].len() {
            return rec(pre, rf, opts, orders, loc + 1, 0, emitted, meter, visit);
        }
        for i in k..orders[loc].len() {
            orders[loc].swap(k, i);
            let flow = rec(pre, rf, opts, orders, loc, k + 1, emitted, meter, visit);
            orders[loc].swap(k, i);
            if flow?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }
    rec(pre, rf, opts, orders, 0, 0, emitted, meter, visit)
}

// --- pruned strategy -----------------------------------------------------

/// Mutable state threaded through the pruned enumeration of one
/// pre-execution. Allocated once; the recursion mutates and restores it.
struct PrunedState {
    /// Chosen `rf` source per read index; `usize::MAX` = unassigned.
    srcs: Vec<usize>,
    /// `po-loc ∪ rf ∪ init-co ∪ derived-co`, maintained incrementally.
    order: IncrementalOrder,
    /// Scratch per-location write orders for the co phase (same shape as
    /// the naive path's scratch, so `emit_leaf` is shared).
    orders: Vec<Vec<usize>>,
    /// Per location: bitmask of forced direct coherence predecessors per
    /// canonical write position, recomputed at each complete `rf`.
    preds: Vec<Vec<u64>>,
    /// Canonical position of each write event inside its location's
    /// write list (indexed by global event id).
    pos_in_loc: Vec<usize>,
    /// For each read index: other read indices on the same location.
    peers: Vec<Vec<usize>>,
    /// The share of the tree to enumerate, when not all of it.
    window: Option<Window>,
}

/// Consistency-driven witness enumeration. Reads are assigned from the
/// highest index down so the lowest index varies fastest — the exact
/// nesting of the naive odometer — and every coherence edge a partial
/// assignment forces (the uniproc CoWW/CoWR/CoRW/CoRR shapes) is
/// inserted into an incrementally checked order immediately. A rejected
/// insertion means every completion of the prefix dies at the naive
/// leaf filter, so the whole subtree is skipped without changing the
/// emitted sequence.
fn enumerate_witnesses_pruned(
    pre: &PreExecution,
    candidates: &[Vec<usize>],
    window: Option<Window>,
    opts: &EnumOptions,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    let n = pre.events.len();
    let mut order = IncrementalOrder::new(n);
    for (a, b) in pre.shape.po_loc.iter() {
        if !order.add_edge(a, b) {
            // po is a strict order, so po-loc cannot be cyclic; be
            // defensive anyway — a cyclic base order admits no witness.
            return Ok(ControlFlow::Continue(()));
        }
    }
    for (l, ws) in pre.writes_per_loc.iter().enumerate() {
        for &w in ws {
            // The initialising write is coherence-first at its location.
            if !order.add_edge(l, w) {
                return Ok(ControlFlow::Continue(()));
            }
        }
    }

    let nr = pre.reads.len();
    let mut peers: Vec<Vec<usize>> = vec![Vec::new(); nr];
    for i in 0..nr {
        for j in 0..nr {
            if i != j && pre.reads[i].1 == pre.reads[j].1 {
                peers[i].push(j);
            }
        }
    }
    let mut pos_in_loc = vec![0usize; n];
    for ws in pre.writes_per_loc {
        for (p, &w) in ws.iter().enumerate() {
            pos_in_loc[w] = p;
        }
    }
    let mut st = PrunedState {
        srcs: vec![usize::MAX; nr],
        order,
        orders: pre.writes_per_loc.to_vec(),
        preds: pre.writes_per_loc.iter().map(|ws| vec![0u64; ws.len()]).collect(),
        pos_in_loc,
        peers,
        window,
    };
    if nr == 0 {
        let rf = Relation::empty(n);
        return co_phase(pre, &rf, opts, &mut st, emitted, meter, visit);
    }
    rf_rec(pre, candidates, opts, &mut st, nr - 1, 0, emitted, meter, visit)
}

/// Insert the `rf` edge for read `i` ← write `w` plus every coherence
/// edge the assignment forces, into `st.order`. Returns `false` (with
/// the order in an arbitrary but undoable state — the caller rewinds to
/// its checkpoint) if any insertion closes a cycle:
///
/// - `w → read`: the `rf` edge itself; rejects CoRW1 (`rf ∩ po-loc⁻¹`)
///   against the seeded po-loc edges.
/// - CoWR: a different write po-loc-before the read must be
///   coherence-before the read's source.
/// - CoRW2: a write po-loc-after the read must be coherence-after the
///   read's source.
/// - CoRR: reads of the same location ordered by po observe
///   coherence-ordered sources (applied against already-assigned peers;
///   later assignments re-derive the mirror cases).
///
/// CoWW needs no rule here: same-location writes are po-loc-ordered in
/// the seeded base order already.
fn assign(pre: &PreExecution, st: &mut PrunedState, i: usize, w: usize) -> bool {
    let (rid, loc, _) = pre.reads[i];
    if !st.order.add_edge(w, rid) {
        return false;
    }
    for wi in 0..pre.writes_per_loc[loc.0].len() {
        let w2 = pre.writes_per_loc[loc.0][wi];
        if w2 == w {
            continue;
        }
        if pre.shape.po_loc.contains(w2, rid) && !st.order.add_edge(w2, w) {
            return false;
        }
        if pre.shape.po_loc.contains(rid, w2) && !st.order.add_edge(w, w2) {
            return false;
        }
    }
    for pi in 0..st.peers[i].len() {
        let j = st.peers[i][pi];
        let w2 = st.srcs[j];
        if w2 == usize::MAX || w2 == w {
            continue;
        }
        let rid2 = pre.reads[j].0;
        if pre.shape.po_loc.contains(rid2, rid) && !st.order.add_edge(w2, w) {
            return false;
        }
        if pre.shape.po_loc.contains(rid, rid2) && !st.order.add_edge(w, w2) {
            return false;
        }
    }
    true
}

/// Assign read `i` (and, recursively, every lower one), `prefix` being
/// the window position of the reads assigned so far.
#[allow(clippy::too_many_arguments)]
fn rf_rec(
    pre: &PreExecution,
    candidates: &[Vec<usize>],
    opts: &EnumOptions,
    st: &mut PrunedState,
    i: usize,
    prefix: usize,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    meter.poll().map_err(EnumError::BudgetExceeded)?;
    let depth = pre.reads.len() - 1 - i;
    for ci in 0..candidates[i].len() {
        let (prefix, owned) = match &st.window {
            None => (prefix, true),
            Some(w) => match w.enter(depth, prefix, ci) {
                Some(entered) => entered,
                None => continue,
            },
        };
        let w = candidates[i][ci];
        let mark = st.order.checkpoint();
        if assign(pre, st, i, w) {
            st.srcs[i] = w;
            let flow = if i == 0 {
                rf_leaf(pre, opts, st, emitted, meter, visit)
            } else {
                rf_rec(pre, candidates, opts, st, i - 1, prefix, emitted, meter, visit)
            };
            st.srcs[i] = usize::MAX;
            st.order.undo_to(mark);
            if flow?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        } else {
            st.order.undo_to(mark);
            if let (Some(stats), true) = (&opts.stats, owned) {
                stats.rf_prefixes_pruned.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }
    Ok(ControlFlow::Continue(()))
}

fn rf_leaf(
    pre: &PreExecution,
    opts: &EnumOptions,
    st: &mut PrunedState,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    let mut rf = Relation::empty(pre.events.len());
    for (i, &(rid, _, _)) in pre.reads.iter().enumerate() {
        rf.insert(st.srcs[i], rid);
    }
    co_phase(pre, &rf, opts, st, emitted, meter, visit)
}

/// Enumerate exactly the linear extensions of the forced coherence
/// order at each location, in the same relative order the naive
/// permutation recursion visits them.
fn co_phase(
    pre: &PreExecution,
    rf: &Relation,
    opts: &EnumOptions,
    st: &mut PrunedState,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    let PrunedState { order, orders, preds, pos_in_loc, .. } = st;
    // Read the forced write-write edges off the incremental order into
    // per-location direct-predecessor masks over canonical positions.
    // Transitive consequences need no closure here: gating every slot on
    // its direct predecessors already yields exactly the linear
    // extensions of the transitive relation.
    for (l, ws) in pre.writes_per_loc.iter().enumerate() {
        let pl = &mut preds[l];
        for m in pl.iter_mut() {
            *m = 0;
        }
        for (pb, &b) in ws.iter().enumerate() {
            for (pa, &a) in ws.iter().enumerate() {
                if pa != pb && order.contains(a, b) {
                    pl[pb] |= 1 << pa;
                }
            }
        }
    }
    if let Some(stats) = &opts.stats {
        // Classify unordered write pairs: saturated (direction forced,
        // possibly transitively) vs genuinely branched.
        let mut saturated = 0u64;
        let mut branched = 0u64;
        for pl in preds.iter() {
            let w = pl.len();
            let mut reach = pl.clone();
            loop {
                let mut changed = false;
                for j in 0..w {
                    let mut m = reach[j];
                    let mut bits = reach[j];
                    while bits != 0 {
                        let i = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        m |= reach[i];
                    }
                    if m != reach[j] {
                        reach[j] = m;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for j in 0..w {
                for i in 0..j {
                    if reach[j] & (1 << i) != 0 || reach[i] & (1 << j) != 0 {
                        saturated += 1;
                    } else {
                        branched += 1;
                    }
                }
            }
        }
        stats.co_pairs_saturated.fetch_add(saturated, AtomicOrdering::Relaxed);
        stats.co_pairs_branched.fetch_add(branched, AtomicOrdering::Relaxed);
    }
    co_rec(pre, rf, opts, orders, preds, pos_in_loc, 0, 0, 0, emitted, meter, visit)
}

#[allow(clippy::too_many_arguments)]
fn co_rec(
    pre: &PreExecution,
    rf: &Relation,
    opts: &EnumOptions,
    orders: &mut [Vec<usize>],
    preds: &[Vec<u64>],
    pos_in_loc: &[usize],
    loc: usize,
    k: usize,
    placed: u64,
    emitted: &mut usize,
    meter: &mut Meter,
    visit: &mut dyn FnMut(Execution) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EnumError> {
    if loc == orders.len() {
        return emit_leaf(pre, rf, opts, orders, false, emitted, meter, visit);
    }
    if k == orders[loc].len() {
        return co_rec(
            pre, rf, opts, orders, preds, pos_in_loc, loc + 1, 0, 0, emitted, meter, visit,
        );
    }
    for i in k..orders[loc].len() {
        let p = pos_in_loc[orders[loc][i]];
        // A write may take the next coherence slot only once every write
        // forced before it is already placed; skipping the subtree
        // otherwise discards only permutations the naive leaf filter
        // would reject.
        if preds[loc][p] & !placed != 0 {
            continue;
        }
        orders[loc].swap(k, i);
        let flow = co_rec(
            pre,
            rf,
            opts,
            orders,
            preds,
            pos_in_loc,
            loc,
            k + 1,
            placed | (1 << p),
            emitted,
            meter,
            visit,
        );
        orders[loc].swap(k, i);
        if flow?.is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
    Ok(ControlFlow::Continue(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::library;
    use lkmm_litmus::parse;

    fn count(name: &str) -> usize {
        let test = library::by_name(name).unwrap().test();
        enumerate(&test, &EnumOptions::default()).unwrap().len()
    }

    #[test]
    fn sb_has_coherent_executions() {
        let test = library::by_name("SB").unwrap().test();
        let execs = enumerate(&test, &EnumOptions::default()).unwrap();
        // Each read sees 0 (init) or 1 (other thread's write): with Scpv
        // pruning, a read of its own thread's location is impossible here
        // (different locations), so 2 × 2 = 4 executions.
        assert_eq!(execs.len(), 4);
        // The SB weak outcome (both read 0) must be among them.
        assert!(execs.iter().any(|x| x.satisfies_prop(&test.condition.prop)));
    }

    #[test]
    fn mp_final_values_and_prop() {
        let test = library::by_name("MP").unwrap().test();
        let execs = enumerate(&test, &EnumOptions::default()).unwrap();
        // All executions end with x=1, y=1 (single writer).
        for x in &execs {
            let f = x.final_values();
            assert_eq!(f[&x.loc_id("x").unwrap()], Val::Int(1));
        }
        // The MP weak outcome exists among raw candidates.
        assert!(execs.iter().any(|x| x.satisfies_prop(&test.condition.prop)));
    }

    #[test]
    fn scpv_prune_removes_po_loc_violations() {
        // A thread writing then reading the same location must read its own
        // write or a later one — never the initial value.
        let t = parse(
            "C t\n{ x=0; }\n\
             P0(int *x) { int r; WRITE_ONCE(*x, 1); r = READ_ONCE(*x); }\n\
             exists (0:r=0)",
        )
        .unwrap();
        let execs = enumerate(&t, &EnumOptions::default()).unwrap();
        assert!(!execs.is_empty());
        assert!(execs.iter().all(|x| !x.satisfies_prop(&t.condition.prop)));
        // Without pruning the incoherent candidate exists.
        let raw = enumerate(&t, &EnumOptions { prune_scpv: false, ..Default::default() })
            .unwrap();
        assert!(raw.iter().any(|x| x.satisfies_prop(&t.condition.prop)));
        assert!(raw.len() > execs.len());
    }

    #[test]
    fn control_flow_branches_enumerate_both_paths() {
        let t = library::by_name("LB+ctrl+mb").unwrap().test();
        let execs = enumerate(&t, &EnumOptions::default()).unwrap();
        // Some executions take the branch (write y), some do not.
        let with_branch = execs.iter().any(|x| {
            x.events.iter().any(|e| {
                e.thread == Some(0)
                    && matches!(e.kind, EventKind::Write { is_init: false, .. })
            })
        });
        let without_branch = execs.iter().any(|x| {
            !x.events.iter().any(|e| {
                e.thread == Some(0)
                    && matches!(e.kind, EventKind::Write { is_init: false, .. })
            })
        });
        assert!(with_branch && without_branch);
    }

    #[test]
    fn pointer_chase_has_address_dependency() {
        let t = library::by_name("MP+wmb+addr").unwrap().test();
        let execs = enumerate(&t, &EnumOptions::default()).unwrap();
        assert!(execs.iter().all(|x| !x.shape.addr.is_empty() || x.events.len() < 8));
        assert!(execs.iter().any(|x| x.satisfies_prop(&t.condition.prop)));
    }

    #[test]
    fn rcu_crit_matches_lock_unlock() {
        let t = library::by_name("RCU-MP").unwrap().test();
        let execs = enumerate(&t, &EnumOptions::default()).unwrap();
        let x = &execs[0];
        let crit = x.crit();
        assert_eq!(crit.len(), 1);
        let (l, u) = crit.iter().next().unwrap();
        assert!(x.events[l].is_fence(FenceKind::RcuLock));
        assert!(x.events[u].is_fence(FenceKind::RcuUnlock));
        assert!(x.shape.po.contains(l, u));
    }

    #[test]
    fn unbalanced_rcu_is_an_error() {
        let t = parse(
            "C t\n{ x=0; }\nP0(int *x) { rcu_read_lock(); WRITE_ONCE(*x, 1); }\nexists (x=1)",
        )
        .unwrap();
        assert_eq!(
            enumerate(&t, &EnumOptions::default()).unwrap_err(),
            EnumError::UnbalancedRcu { thread: 0 }
        );
    }

    #[test]
    fn value_domain_fixpoint_propagates_computed_values() {
        // P0 writes x+1 computed from a read of x written by P1: the value
        // 2 must flow into x's domain so P1's read can observe it.
        let t = parse(
            "C t\n{ x=0; }\n\
             P0(int *x) { int r; r = READ_ONCE(*x); WRITE_ONCE(*x, r + 1); }\n\
             P1(int *x) { int s; s = READ_ONCE(*x); }\n\
             exists (1:s=2)",
        )
        .unwrap();
        let execs = enumerate(&t, &EnumOptions::default()).unwrap();
        // 1:s=2 requires P0 to read 1 — but nothing writes 1 except P0
        // itself computing 0+1. So s=2 is impossible, s=1 is possible.
        assert!(!execs.iter().any(|x| x.satisfies_prop(&t.condition.prop)));
        let t2 = parse(
            "C t\n{ x=0; }\n\
             P0(int *x) { int r; r = READ_ONCE(*x); WRITE_ONCE(*x, r + 1); }\n\
             P1(int *x) { int s; s = READ_ONCE(*x); }\n\
             exists (1:s=1)",
        )
        .unwrap();
        let execs2 = enumerate(&t2, &EnumOptions::default()).unwrap();
        assert!(execs2.iter().any(|x| x.satisfies_prop(&t2.condition.prop)));
    }

    #[test]
    fn table5_tests_all_enumerate() {
        for pt in library::table5() {
            let t = pt.test();
            let execs = enumerate(&t, &EnumOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", pt.name));
            assert!(!execs.is_empty(), "{} has no executions", pt.name);
        }
    }

    #[test]
    fn execution_counts_are_stable() {
        // Pin down the candidate counts so enumerator changes are noticed.
        assert_eq!(count("SB"), 4);
        assert_eq!(count("MP"), 4);
        assert_eq!(count("LB"), 4);
    }
}
