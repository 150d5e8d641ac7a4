//! The consistency-model interface and test-level verdict checking.

use crate::enumerate::{for_each_execution, EnumError, EnumOptions};
use crate::execution::Execution;
use crate::facts::{ExecFacts, FactsCache};
use lkmm_core::budget::StepFuel;
use lkmm_litmus::ast::Test;
use lkmm_litmus::cond::Quantifier;
use std::fmt;
use std::sync::Arc;

/// An axiomatic consistency model: a predicate on candidate executions.
///
/// Models are required to be [`Sync`] so one model instance can be shared
/// by the parallel check pipeline's workers. Every model in this
/// workspace is a plain immutable struct, so the bound costs nothing.
pub trait ConsistencyModel: Sync {
    /// Short model name, e.g. `"LKMM"`.
    fn name(&self) -> &str;

    /// Whether the model allows this candidate execution, reading the
    /// derived relations it shares with other models (`fr`, `com`, fence
    /// sets, …) from `facts`, so N models checking one candidate share
    /// one copy of each.
    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool;

    /// As [`ConsistencyModel::allows_with`], computing the facts for
    /// this one candidate.
    fn allows(&self, x: &Execution) -> bool {
        self.allows_with(x, &ExecFacts::new(x))
    }

    /// Open a stateful evaluation session for one thread, if the model
    /// has one. Sessions may carry mutable caches keyed on the candidate's
    /// shared pre-execution (e.g. the cat evaluator's static node
    /// slots), which a `&self` [`ConsistencyModel::allows_with`] cannot.
    ///
    /// Callers should go through [`open_session`], which falls back to a
    /// stateless pass-through for models that return `None` here.
    fn session(&self) -> Option<Box<dyn ModelSession + '_>> {
        None
    }
}

/// Model evaluation stopped because its step fuel ran out. Not an
/// evaluation *error*: the model is fine, the budget is spent. See
/// [`ModelSession::try_allows_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalStop;

/// A stateful evaluation handle used by one checking thread. Unlike
/// [`ConsistencyModel::allows_with`], [`ModelSession::try_allows_with`]
/// takes `&mut self`, so implementations can cache work shared by the
/// candidates of one litmus test (static event sets, compiled
/// environments, …) and keep scratch storage from candidate to
/// candidate without interior mutability. What a session caches may
/// change the cost of a verdict, never the verdict or the steps it
/// burns. Opening sessions, filling their storage on first use and
/// dropping them is not free: for the seven campaign columns it cost
/// about 18 µs per cycle-length-6 test on a 2-vCPU host, a fifth of the
/// test's model time. So a thread that checks many tests keeps its
/// sessions from test to test ([`Sessions`](crate::pipeline::Sessions)).
pub trait ModelSession {
    /// Whether the model allows this candidate execution, reading shared
    /// derived relations from `facts`; what the pipeline calls for every
    /// candidate. Returns `Err(EvalStop)` when the session's
    /// [`StepFuel`] runs dry mid-evaluation, and never without one.
    fn try_allows_with(
        &mut self,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<bool, EvalStop>;

    /// Run every later evaluation on `fuel`, an evaluation-step tank
    /// shared with the other workers of a governed check, or unmetered
    /// with `None`. Sessions that meter their work (the cat evaluator,
    /// the native LKMM) consume from it inside
    /// [`ModelSession::try_allows_with`]; the default ignores it, which
    /// is correct for models whose per-candidate cost is trivially
    /// bounded.
    fn set_step_fuel(&mut self, _fuel: Option<Arc<StepFuel>>) {}
}

/// Open an evaluation session for `model`: its own caching session if it
/// provides one, otherwise a stateless adapter over
/// [`ConsistencyModel::allows_with`].
pub fn open_session(model: &dyn ConsistencyModel) -> Box<dyn ModelSession + '_> {
    model.session().unwrap_or_else(|| Box::new(StatelessSession(model)))
}

struct StatelessSession<'a>(&'a dyn ConsistencyModel);

impl ModelSession for StatelessSession<'_> {
    fn try_allows_with(
        &mut self,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<bool, EvalStop> {
        Ok(self.0.allows_with(x, facts))
    }
}

/// Allow/Forbid verdict for a litmus test's `exists` proposition, as in
/// Table 5 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Some model-allowed execution satisfies the proposition.
    Allowed,
    /// No model-allowed execution satisfies it.
    Forbidden,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Allowed => write!(f, "Allow"),
            Verdict::Forbidden => write!(f, "Forbid"),
        }
    }
}

/// Result of checking one litmus test against one model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestResult {
    /// Whether the condition's proposition is observable in some allowed
    /// execution (the paper's Allow/Forbid).
    pub verdict: Verdict,
    /// Whether the *quantified* condition holds: `exists` needs a
    /// satisfying allowed execution, `~exists` needs none, `forall` needs
    /// all allowed executions to satisfy the proposition.
    pub condition_holds: bool,
    /// Candidate executions enumerated.
    pub candidates: usize,
    /// Candidates allowed by the model.
    pub allowed: usize,
    /// Allowed candidates satisfying the proposition.
    pub witnesses: usize,
}

/// Check `test` against `model`, enumerating all candidate executions.
///
/// # Errors
///
/// Propagates [`EnumError`] from the enumerator.
///
/// # Examples
///
/// ```
/// use lkmm_exec::model::{check_test, ConsistencyModel, Verdict};
/// use lkmm_exec::{enumerate::EnumOptions, ExecFacts, Execution};
///
/// /// A model that allows everything.
/// struct Anything;
/// impl ConsistencyModel for Anything {
///     fn name(&self) -> &str { "anything" }
///     fn allows_with(&self, _: &Execution, _: &ExecFacts<'_>) -> bool { true }
/// }
///
/// let test = lkmm_litmus::library::by_name("SB").unwrap().test();
/// let r = check_test(&Anything, &test, &EnumOptions::default()).unwrap();
/// assert_eq!(r.verdict, Verdict::Allowed); // SB is observable without axioms
/// ```
pub fn check_test(
    model: &dyn ConsistencyModel,
    test: &Test,
    opts: &EnumOptions,
) -> Result<TestResult, EnumError> {
    let mut session = open_session(model);
    let mut cache = FactsCache::new();
    let mut candidates = 0usize;
    let mut allowed = 0usize;
    let mut witnesses = 0usize;
    let mut all_allowed_satisfy = true;
    for_each_execution(test, opts, &mut |x| {
        candidates += 1;
        let facts = cache.facts(x);
        if session.try_allows_with(x, &facts).expect("unmetered sessions never stop") {
            allowed += 1;
            if x.satisfies_prop(&test.condition.prop) {
                witnesses += 1;
            } else {
                all_allowed_satisfy = false;
            }
        }
    })?;
    let verdict = if witnesses > 0 { Verdict::Allowed } else { Verdict::Forbidden };
    let condition_holds = match test.condition.quantifier {
        Quantifier::Exists => witnesses > 0,
        Quantifier::NotExists => witnesses == 0,
        Quantifier::Forall => all_allowed_satisfy,
    };
    Ok(TestResult { verdict, condition_holds, candidates, allowed, witnesses })
}

/// The model with no axioms beyond coherence pruning: allows every
/// candidate execution. Useful as a baseline and in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllowAll;

impl ConsistencyModel for AllowAll {
    fn name(&self) -> &str {
        "allow-all"
    }

    fn allows_with(&self, _: &Execution, _: &ExecFacts<'_>) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::library;

    #[test]
    fn allow_all_observes_every_relaxed_outcome() {
        for name in ["LB", "SB", "MP", "WRC", "RWC"] {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&AllowAll, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Allowed, "{name}");
            assert!(r.allowed == r.candidates);
        }
    }

    #[test]
    fn quantifier_semantics() {
        // `~exists` on an observable outcome does not hold.
        let mut t = library::by_name("SB").unwrap().test();
        t.condition.quantifier = Quantifier::NotExists;
        let r = check_test(&AllowAll, &t, &EnumOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Allowed);
        assert!(!r.condition_holds);
        // `forall` fails because not every execution ends in the SB state.
        t.condition.quantifier = Quantifier::Forall;
        let r = check_test(&AllowAll, &t, &EnumOptions::default()).unwrap();
        assert!(!r.condition_holds);
    }
}
