//! Exhaustive operational exploration: every scheduler interleaving.
//!
//! The Monte-Carlo [runner](crate::runner) samples schedules; this module
//! *enumerates* them — a depth-first search over all enabled actions of
//! the same machine, memoised on a key of the machine state (a word
//! vector naming everything that decides the state's future). For
//! litmus-scale tests this terminates quickly and yields the **exact**
//! set of operationally reachable final states, which the test suite
//! compares against the axiomatic models (the Owens-style TSO
//! equivalence, done empirically).

use crate::machine::{Arch, Machine, MachineError};
use lkmm_exec::lower::Program;
use lkmm_exec::Val;
use lkmm_litmus::ast::Test;
use std::collections::{BTreeSet, HashSet};

/// Result of exhaustive exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreResult {
    /// Every reachable final state, rendered over the condition's terms
    /// (same format as [`lkmm_exec::states`]).
    pub outcomes: BTreeSet<String>,
    /// Whether any reachable final state satisfies the condition.
    pub observable: bool,
    /// Distinct machine states visited.
    pub states_visited: usize,
    /// True if the search hit `max_states` and stopped early.
    pub truncated: bool,
}

/// Exhaustively explore `test` on `arch`, visiting at most `max_states`
/// distinct machine states.
///
/// # Errors
///
/// Returns [`MachineError`] for unsupported constructs or deadlocks.
///
/// # Examples
///
/// ```
/// use lkmm_sim::{explore, Arch};
///
/// let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
/// let r = explore(&sb, Arch::X86, 100_000).unwrap();
/// assert!(r.observable); // all four SB states reachable under TSO
/// assert_eq!(r.outcomes.len(), 4);
/// ```
pub fn explore(test: &Test, arch: Arch, max_states: usize) -> Result<ExploreResult, MachineError> {
    let prog = Program::lower(test);
    let mut result = ExploreResult {
        outcomes: BTreeSet::new(),
        observable: false,
        states_visited: 0,
        truncated: false,
    };
    let mut visited: HashSet<Box<[u64]>> = HashSet::new();
    let mut finals: HashSet<Box<[Option<Val>]>> = HashSet::new();
    let mut key = Vec::new();
    let mut vals = Vec::new();
    let mut actions = Vec::new();
    let mut stack = vec![Machine::new(&prog, arch)];

    while let Some(mut m) = stack.pop() {
        key.clear();
        m.state_key(&mut key);
        if visited.contains(key.as_slice()) {
            continue;
        }
        visited.insert(key.as_slice().into());
        result.states_visited += 1;
        if result.states_visited >= max_states {
            result.truncated = true;
            break;
        }
        m.enabled_actions(&mut actions);
        if actions.is_empty() {
            if !m.finished() {
                return Err(MachineError::Deadlock);
            }
            m.final_values(&mut vals);
            if !finals.contains(vals.as_slice()) {
                finals.insert(vals.as_slice().into());
            }
            continue;
        }
        for &a in &actions {
            let mut next = m.clone();
            next.execute(a)?;
            stack.push(next);
        }
    }
    result.observable = finals.iter().any(|vals| prog.holds(&test.condition.prop, vals));
    result.outcomes = finals.iter().map(|vals| prog.render(vals, "; ")).collect();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::library;

    const CAP: usize = 2_000_000;

    fn outcomes(name: &str, arch: Arch) -> ExploreResult {
        let t = library::by_name(name).unwrap().test();
        let r = explore(&t, arch, CAP).unwrap();
        assert!(!r.truncated, "{name} truncated at {} states", r.states_visited);
        r
    }

    #[test]
    fn sb_x86_reaches_all_four_states() {
        let r = outcomes("SB", Arch::X86);
        assert_eq!(r.outcomes.len(), 4);
        assert!(r.observable);
    }

    #[test]
    fn mp_x86_reaches_exactly_the_tso_states() {
        let r = outcomes("MP", Arch::X86);
        // The weak state (r0=1, r1=0) is unreachable under TSO.
        assert!(!r.observable);
        assert_eq!(r.outcomes.len(), 3);
    }

    #[test]
    fn lb_unreachable_everywhere_exhaustively() {
        for arch in Arch::ALL {
            let r = outcomes("LB", arch);
            assert!(!r.observable, "{}", arch.name());
        }
    }

    #[test]
    fn wrc_weak_state_exhaustively_reachable_on_power() {
        let r = outcomes("WRC", Arch::Power);
        assert!(r.observable, "non-MCA must expose WRC");
        let r86 = outcomes("WRC", Arch::X86);
        assert!(!r86.observable);
    }

    #[test]
    fn rcu_tests_exhaustively_unobservable() {
        for arch in [Arch::X86, Arch::Armv8] {
            for name in ["RCU-MP", "RCU-deferred-free"] {
                let r = outcomes(name, arch);
                assert!(!r.observable, "{name} on {}", arch.name());
            }
        }
    }
}
