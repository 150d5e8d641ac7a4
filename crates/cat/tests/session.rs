//! A session's static slots are reused only for candidates of the same
//! shape: switching between pre-executions of equal universe but
//! different structure must recompute them, never serve the other one's
//! values.

use lkmm_cat::{linux_kernel_model, CatSession};
use lkmm_exec::enumerate::{enumerate, EnumOptions};
use lkmm_exec::{Execution, FactsCache};
use lkmm_litmus::library;
use std::sync::Arc;

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

/// One test, two shapes of equal universe: P0 runs `smp_mb()` or
/// `smp_wmb()` between its write and its read, depending on what it read
/// from `z`. The SB outcome is forbidden under the first and allowed
/// under the second, so statics served across shapes change verdicts.
const TWO_SHAPES: &str = "C two-shapes\n{ x=0; y=0; z=0; }\n\
    P0(int *x, int *y, int *z) { int r0; int r1; WRITE_ONCE(*x, 1); r0 = READ_ONCE(*z); \
    if (r0) { smp_mb(); } else { smp_wmb(); } r1 = READ_ONCE(*y); }\n\
    P1(int *x, int *y) { int r2; WRITE_ONCE(*y, 1); smp_mb(); r2 = READ_ONCE(*x); }\n\
    P2(int *z) { WRITE_ONCE(*z, 1); }\n\
    exists (0:r1=0 /\\ 1:r2=0)";

#[test]
fn one_tests_shapes_visited_a_b_a_match_fresh_sessions() {
    let t = lkmm_litmus::parse(TWO_SHAPES).unwrap();
    let xs = enumerate(&t, &EnumOptions::default()).unwrap();
    let (a, b): (Vec<&Execution>, Vec<&Execution>) =
        xs.iter().partition(|x| Arc::ptr_eq(&x.shape, &xs[0].shape));
    assert!(!b.is_empty() && b.iter().all(|x| Arc::ptr_eq(&x.shape, &b[0].shape)), "two shapes");
    assert_eq!(a[0].universe(), b[0].universe());
    let model = linux_kernel_model();
    let fresh = |x: &Execution| model.evaluate(x).unwrap();
    let weak = |xs: &[&Execution]| -> Vec<bool> {
        let weak = xs.iter().filter(|x| x.satisfies_prop(&t.condition.prop));
        weak.map(|x| fresh(x).allowed()).collect()
    };
    let (weak_a, weak_b) = (weak(&a), weak(&b));
    assert!(weak_a.contains(&false) != weak_b.contains(&false), "the fences decide the SB outcome");

    let mut session = CatSession::new(&model);
    let mut cache = FactsCache::new();
    for x in a.iter().chain(&b).chain(&a) {
        assert_eq!(session.evaluate_with(x, &cache.facts(x)).unwrap(), fresh(x));
    }
}
