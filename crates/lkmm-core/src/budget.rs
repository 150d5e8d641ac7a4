//! Resource budgets for checking work.
//!
//! A [`Budget`] bounds one logical check (or a whole corpus run) along
//! four independent axes:
//!
//! * **candidate fuel** — how many candidate executions may be emitted;
//! * **evaluation-step fuel** — how many model-evaluation steps (`cat`
//!   fixpoint instructions, native axiom passes) may run, shared across
//!   all workers via an atomic [`StepFuel`];
//! * **wall clock** — a relative [`Budget::time_limit`] and/or an
//!   absolute [`Budget::deadline`];
//! * **cancellation** — an externally owned [`CancelToken`].
//!
//! The enumerator and worker loops never look at the `Budget` directly;
//! they drive a per-thread [`Meter`], whose hot-path cost is a branch on
//! a boolean (`passive`) when no budget is set, and a strided countdown
//! otherwise, so that `Instant::now()` is consulted only every
//! [`POLL_STRIDE`] polls.
//!
//! The default `Budget` is unlimited: every meter operation is an
//! infallible no-op, which is what keeps the governed pipeline
//! byte-identical to the ungoverned one when nobody asks for limits.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which budget axis ran out. Carried inside `Inconclusive` outcomes so
/// callers can decide whether a retry with a bigger budget makes sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The candidate-execution fuel hit zero.
    Candidates,
    /// The shared model-evaluation step fuel hit zero.
    EvalSteps,
    /// The wall-clock deadline passed.
    WallClock,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Candidates => "candidate budget exhausted",
            BudgetKind::EvalSteps => "evaluation-step budget exhausted",
            BudgetKind::WallClock => "wall-clock deadline exceeded",
            BudgetKind::Cancelled => "cancelled",
        })
    }
}

/// A shared, clonable cancellation flag. Cloning is cheap (one `Arc`);
/// every clone observes the same flag, so a controller thread can hold
/// one clone and cancel a check running anywhere else.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Shared evaluation-step fuel. One tank per check, drained concurrently
/// by every worker's model session; the first consumer to drive it below
/// zero (and everyone after) sees exhaustion.
#[derive(Debug)]
pub struct StepFuel(AtomicI64);

impl StepFuel {
    /// A tank holding `steps` units (saturated to `i64::MAX`).
    pub fn new(steps: u64) -> StepFuel {
        StepFuel(AtomicI64::new(steps.min(i64::MAX as u64) as i64))
    }

    /// Burn `n` units. Returns `false` once the tank is dry; the tank
    /// may go (and stay) negative, which is fine — exhausted is
    /// exhausted.
    pub fn consume(&self, n: u64) -> bool {
        let n = n.min(i64::MAX as u64) as i64;
        self.0.fetch_sub(n, Ordering::Relaxed) > n - 1
    }

    /// Whether the tank has been drained.
    pub fn exhausted(&self) -> bool {
        self.0.load(Ordering::Relaxed) <= 0
    }
}

/// Resource limits for one check. `Default` is unlimited on every axis.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum candidate executions to emit across the whole check.
    pub max_candidates: Option<u64>,
    /// Maximum model-evaluation steps, shared by all workers.
    pub max_eval_steps: Option<u64>,
    /// Relative wall-clock limit, measured from [`Meter::start`].
    pub time_limit: Option<Duration>,
    /// Absolute wall-clock deadline (combined with `time_limit` by
    /// taking whichever comes first).
    pub deadline: Option<Instant>,
    /// External cancellation.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// True when no axis is bounded: metering is a no-op.
    pub fn is_unlimited(&self) -> bool {
        self.max_candidates.is_none()
            && self.max_eval_steps.is_none()
            && self.time_limit.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
    }

    /// Bound the number of candidate executions.
    pub fn with_max_candidates(mut self, n: u64) -> Budget {
        self.max_candidates = Some(n);
        self
    }

    /// Bound the number of model-evaluation steps.
    pub fn with_max_eval_steps(mut self, n: u64) -> Budget {
        self.max_eval_steps = Some(n);
        self
    }

    /// Bound wall-clock time relative to the start of the check.
    pub fn with_time_limit(mut self, limit: Duration) -> Budget {
        self.time_limit = Some(limit);
        self
    }

    /// Set an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// A fresh step-fuel tank for this budget, or `None` when eval
    /// steps are unbounded.
    pub fn step_fuel(&self) -> Option<Arc<StepFuel>> {
        self.max_eval_steps.map(|n| Arc::new(StepFuel::new(n)))
    }

    /// Start metering against this budget (resolves `time_limit` to an
    /// absolute deadline *now*).
    pub fn meter(&self) -> Meter {
        Meter::start(self)
    }
}

/// Check the clock / cancel flag only every this many [`Meter::poll`]
/// calls. Candidate fuel is still exact — it is decremented on every
/// [`Meter::spend_candidate`], never strided.
pub const POLL_STRIDE: u32 = 64;

/// Per-thread budget odometer. Cheap to poll from inner loops; see the
/// module docs for the cost model.
#[derive(Clone, Debug)]
pub struct Meter {
    candidates_left: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// True when nothing is bounded: every operation short-circuits.
    passive: bool,
    countdown: u32,
}

impl Meter {
    /// Begin metering. The budget's relative `time_limit` is pinned to
    /// an absolute deadline at this instant.
    pub fn start(budget: &Budget) -> Meter {
        let relative = budget.time_limit.map(|limit| Instant::now() + limit);
        let deadline = match (budget.deadline, relative) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let passive =
            budget.max_candidates.is_none() && deadline.is_none() && budget.cancel.is_none();
        Meter {
            candidates_left: budget.max_candidates,
            deadline,
            cancel: budget.cancel.clone(),
            passive,
            countdown: POLL_STRIDE,
        }
    }

    /// A meter that never trips.
    pub fn unlimited() -> Meter {
        Meter::start(&Budget::default())
    }

    /// Account for one emitted candidate execution; also checks the
    /// clock and cancel flag (strided).
    pub fn spend_candidate(&mut self) -> Result<(), BudgetKind> {
        if self.passive {
            return Ok(());
        }
        if let Some(left) = &mut self.candidates_left {
            if *left == 0 {
                return Err(BudgetKind::Candidates);
            }
            *left -= 1;
        }
        self.poll()
    }

    /// Account for `n` candidates another meter already emitted (a range
    /// of the check enumerated on another thread). Fails, spending
    /// nothing, when fewer than `n` remain: this meter would have
    /// tripped partway through them.
    pub fn spend_candidates(&mut self, n: u64) -> Result<(), BudgetKind> {
        if let Some(left) = &mut self.candidates_left {
            *left = left.checked_sub(n).ok_or(BudgetKind::Candidates)?;
        }
        Ok(())
    }

    /// Cheap progress check for loops that do work *between* candidate
    /// emissions (fixpoint rounds, oracle branches, rf/co choices).
    /// Consults the clock and cancel flag once every [`POLL_STRIDE`]
    /// calls.
    #[inline]
    pub fn poll(&mut self) -> Result<(), BudgetKind> {
        if self.passive {
            return Ok(());
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return Ok(());
        }
        self.countdown = POLL_STRIDE;
        self.poll_now()
    }

    /// Unstrided check of the clock and cancel flag. Use at loop
    /// boundaries that are already coarse (per fixpoint round, per
    /// test in a corpus).
    pub fn poll_now(&mut self) -> Result<(), BudgetKind> {
        if self.passive {
            return Ok(());
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(BudgetKind::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetKind::WallClock);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_passive() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        let mut m = b.meter();
        for _ in 0..10_000 {
            m.spend_candidate().unwrap();
            m.poll().unwrap();
        }
    }

    #[test]
    fn candidate_fuel_is_exact() {
        let mut m = Budget::default().with_max_candidates(3).meter();
        for _ in 0..3 {
            m.spend_candidate().unwrap();
        }
        assert_eq!(m.spend_candidate(), Err(BudgetKind::Candidates));
        // and it stays tripped
        assert_eq!(m.spend_candidate(), Err(BudgetKind::Candidates));
    }

    #[test]
    fn spending_candidates_in_bulk_fails_without_spending() {
        let mut m = Budget::default().with_max_candidates(5).meter();
        m.spend_candidates(3).unwrap();
        assert_eq!(m.spend_candidates(3), Err(BudgetKind::Candidates));
        m.spend_candidates(2).unwrap();
        assert_eq!(m.spend_candidate(), Err(BudgetKind::Candidates));
        // Unbounded fuel takes anything.
        Budget::default().meter().spend_candidates(u64::MAX).unwrap();
    }

    #[test]
    fn zero_time_limit_trips_wall_clock() {
        let mut m = Budget::default().with_time_limit(Duration::ZERO).meter();
        assert_eq!(m.poll_now(), Err(BudgetKind::WallClock));
        // strided poll trips within one stride
        let mut m = Budget::default().with_time_limit(Duration::ZERO).meter();
        let mut tripped = false;
        for _ in 0..POLL_STRIDE {
            if m.poll() == Err(BudgetKind::WallClock) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn earliest_deadline_wins() {
        let soon = Instant::now();
        let b = Budget::default()
            .with_deadline(soon)
            .with_time_limit(Duration::from_secs(3600));
        assert_eq!(b.meter().poll_now(), Err(BudgetKind::WallClock));
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let mut m = Budget::default().with_cancel(token.clone()).meter();
        m.poll_now().unwrap();
        token.cancel();
        assert_eq!(m.poll_now(), Err(BudgetKind::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn step_fuel_exhausts_once() {
        let fuel = StepFuel::new(5);
        assert!(fuel.consume(3));
        assert!(fuel.consume(2));
        assert!(!fuel.consume(1));
        assert!(fuel.exhausted());
        // over-consumption from racers also reports exhaustion
        assert!(!fuel.consume(100));
    }

    #[test]
    fn step_fuel_zero_is_immediately_dry() {
        let fuel = StepFuel::new(0);
        assert!(!fuel.consume(1));
        assert!(fuel.exhausted());
    }
}
