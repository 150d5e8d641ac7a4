//! Sequential consistency.

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution};
use lkmm_relation::acquire_rel;

/// Lamport's sequential consistency: all events execute in some total
/// order consistent with program order — axiomatically,
/// `acyclic(po ∪ rf ∪ co ∪ fr)` plus RMW atomicity
/// (`empty(rmw ∩ (fre ; coe))`).
///
/// The atomicity conjunct is part of what "interleaving semantics"
/// means once the language has `cmpxchg`/`atomic_fetch_add`: an RMW's
/// read and write occupy one indivisible step of the total order, so no
/// foreign write can fall between them. Without it SC would *allow*
/// two CASes to both claim the same old value — an outcome no
/// interleaving can produce — and SC would fail to be a subset of
/// x86-TSO on RMW-bearing tests, breaking the envelope-ordering oracle.
///
/// # Examples
///
/// ```
/// use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
/// use lkmm_models::Sc;
///
/// let mp = lkmm_litmus::library::by_name("MP").unwrap().test();
/// let r = check_test(&Sc, &mp, &EnumOptions::default()).unwrap();
/// assert_eq!(r.verdict, Verdict::Forbidden); // no weak behaviour under SC
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Sc;

impl ConsistencyModel for Sc {
    fn name(&self) -> &str {
        "SC"
    }

    fn allows(&self, x: &Execution) -> bool {
        self.allows_with(x, &ExecFacts::new(x))
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        if !facts.atomicity_ok() {
            return false;
        }
        let mut order = acquire_rel(facts.arena(), x.shape.po.universe());
        order.copy_from(&x.shape.po);
        order.union_in_place(facts.com());
        order.is_acyclic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::EnumOptions;
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library;

    #[test]
    fn sc_forbids_every_weak_idiom() {
        for name in ["SB", "MP", "LB", "WRC", "RWC", "PeterZ-No-Synchro"] {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&Sc, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Forbidden, "{name}");
            assert!(r.allowed > 0, "{name}: SC must allow some execution");
        }
    }

    #[test]
    fn sc_is_stricter_than_lkmm_on_candidates() {
        use lkmm_exec::enumerate::for_each_execution;
        let lkmm = lkmm::Lkmm::new();
        for pt in library::all() {
            let t = pt.test();
            for_each_execution(&t, &EnumOptions::default(), &mut |x| {
                if Sc.allows(x) {
                    assert!(lkmm.allows(x), "{}: SC-allowed but LKMM-forbidden\n{x}", pt.name);
                }
            })
            .unwrap();
        }
    }
}
