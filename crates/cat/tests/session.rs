//! A session's static slots are reused only for candidates of the same
//! pre-execution: switching between pre-executions of equal universe
//! must recompute them, never serve the other one's values.

use lkmm_cat::{linux_kernel_model, CatSession};
use lkmm_exec::enumerate::{enumerate, EnumOptions};
use lkmm_exec::{Execution, FactsCache};
use lkmm_litmus::library;

fn candidates(name: &str) -> Vec<Execution> {
    let t = library::by_name(name).unwrap().test();
    enumerate(&t, &EnumOptions::default()).unwrap()
}

#[test]
fn interleaved_pre_executions_match_fresh_sessions() {
    // Same universe, different fences: the static `mb`, `wmb` and `rmb`
    // nodes differ, and so do the verdicts they lead to.
    let a = candidates("SB+mbs");
    let b = candidates("MP+wmb+rmb");
    assert_eq!(a[0].universe(), b[0].universe());
    let model = linux_kernel_model();
    let fresh = |x: &Execution| model.evaluate(x).unwrap();
    assert!(a.iter().chain(&b).any(|x| !fresh(x).allowed()));

    // Pre-execution by pre-execution: A, B, A.
    let mut session = CatSession::new(&model);
    for x in a.iter().chain(&b).chain(&a) {
        assert_eq!(session.evaluate(x).unwrap(), fresh(x));
    }
    // Candidate by candidate, alternating, with the facts layer shared
    // across candidates as the pipeline shares it.
    let mut session = CatSession::new(&model);
    let mut cache = FactsCache::new();
    for (xa, xb) in a.iter().zip(&b).chain(a.iter().zip(&b)) {
        for x in [xa, xb, xa] {
            assert_eq!(session.evaluate_with(x, &cache.facts(x)).unwrap(), fresh(x));
        }
    }
}
