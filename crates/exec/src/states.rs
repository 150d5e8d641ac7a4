//! herd-style final-state histograms.
//!
//! herd7 reports, for each litmus test, the set of reachable final states
//! with how many candidate executions produce each, marking the ones that
//! satisfy the condition (`*>`). [`collect_states`] reproduces that
//! output for any [`ConsistencyModel`].

use crate::enumerate::{for_each_execution, EnumError, EnumOptions};
use crate::model::ConsistencyModel;
use lkmm_litmus::ast::Test;
use std::collections::BTreeMap;
use std::fmt;

/// One final state: the rendered values of the condition's terms.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct State(pub String);

/// Aggregated per-state counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateCount {
    /// Model-allowed executions ending in this state.
    pub allowed: usize,
    /// Model-forbidden executions ending in this state.
    pub forbidden: usize,
    /// Whether the state satisfies the condition's proposition.
    pub satisfies: bool,
}

/// The histogram over reachable final states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateSummary {
    /// Test name.
    pub test_name: String,
    /// Model name.
    pub model_name: String,
    /// Per-state counts, sorted by state rendering.
    pub states: BTreeMap<State, StateCount>,
}

impl StateSummary {
    /// Number of allowed executions satisfying the proposition
    /// (herd's "Positive").
    pub fn positive(&self) -> usize {
        self.states.values().filter(|c| c.satisfies).map(|c| c.allowed).sum()
    }

    /// Number of allowed executions not satisfying it (herd's "Negative").
    pub fn negative(&self) -> usize {
        self.states.values().filter(|c| !c.satisfies).map(|c| c.allowed).sum()
    }
}

impl fmt::Display for StateSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Test {} ({})", self.test_name, self.model_name)?;
        let reachable = self.states.values().filter(|c| c.allowed > 0).count();
        writeln!(f, "States {reachable}")?;
        for (state, count) in &self.states {
            if count.allowed == 0 {
                continue;
            }
            let marker = if count.satisfies { "*>" } else { ":>" };
            writeln!(f, "{:<6} {marker} {}", count.allowed, state.0)?;
        }
        write!(f, "Positive: {} Negative: {}", self.positive(), self.negative())
    }
}

/// Enumerate all candidate executions and build the state histogram.
///
/// # Errors
///
/// Propagates [`EnumError`] from the enumerator.
///
/// # Examples
///
/// ```
/// use lkmm_exec::model::AllowAll;
/// use lkmm_exec::states::collect_states;
/// use lkmm_exec::enumerate::EnumOptions;
///
/// let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
/// let summary = collect_states(&AllowAll, &sb, &EnumOptions::default()).unwrap();
/// assert_eq!(summary.states.len(), 4); // all four read-value combinations
/// assert_eq!(summary.positive(), 1);   // exactly one is the SB state
/// ```
pub fn collect_states(
    model: &dyn ConsistencyModel,
    test: &Test,
    opts: &EnumOptions,
) -> Result<StateSummary, EnumError> {
    let mut states: BTreeMap<State, StateCount> = BTreeMap::new();
    for_each_execution(test, opts, &mut |x| {
        let vals = x.term_values();
        let entry = states.entry(State(x.program.render(&vals, "; "))).or_default();
        entry.satisfies = x.program.holds(&test.condition.prop, &vals);
        if model.allows(x) {
            entry.allowed += 1;
        } else {
            entry.forbidden += 1;
        }
    })?;
    Ok(StateSummary {
        test_name: test.name.clone(),
        model_name: model.name().to_string(),
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::Execution;
    use crate::model::AllowAll;
    use lkmm_litmus::library;

    #[test]
    fn herd_style_output_shape() {
        let t = library::by_name("MP").unwrap().test();
        let s = collect_states(&AllowAll, &t, &EnumOptions::default()).unwrap();
        let text = s.to_string();
        assert!(text.contains("States 4"), "{text}");
        assert!(text.contains("*>"), "{text}");
        assert!(text.contains("Positive: 1"), "{text}");
        assert_eq!(s.positive() + s.negative(), 4);
    }

    #[test]
    fn forbidden_states_disappear_under_the_model() {
        // Under a model that forbids the weak state, it is not reachable.
        struct NoWeak;
        impl ConsistencyModel for NoWeak {
            fn name(&self) -> &str {
                "no-weak"
            }
            fn allows(&self, x: &Execution) -> bool {
                // Forbid executions where both final regs are (1, 0).
                let reg = |name| x.final_regs[1][x.program.reg(1, name).unwrap() as usize];
                !(reg("r0") == Some(crate::event::Val::Int(1))
                    && reg("r1") == Some(crate::event::Val::Int(0)))
            }
        }
        let t = library::by_name("MP").unwrap().test();
        let s = collect_states(&NoWeak, &t, &EnumOptions::default()).unwrap();
        assert_eq!(s.positive(), 0);
        let weak = s.states.values().find(|c| c.satisfies).unwrap();
        assert_eq!(weak.allowed, 0);
        assert_eq!(weak.forbidden, 1);
    }

    #[test]
    fn pointer_states_render_symbolically() {
        let t = library::by_name("MP+wmb+addr").unwrap().test();
        let s = collect_states(&AllowAll, &t, &EnumOptions::default()).unwrap();
        assert!(s.states.keys().any(|k| k.0.contains("=&w")), "{:?}", s.states.keys());
    }
}
