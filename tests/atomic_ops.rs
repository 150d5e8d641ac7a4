//! The arithmetic RMW family (`atomic_add_return` and friends, the
//! kernel's atomic-ops semantics document \[69\] that the paper's Table 3
//! builds on): orderings and atomicity across the axiomatic model, the
//! simulators, and the host runner.

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::Verdict;

fn lkmm(source: &str) -> Verdict {
    Herd::new(ModelId::LkmmNative).check_source(source).unwrap().result.verdict
}

/// Two concurrent increments never lose an update (the At axiom).
#[test]
fn concurrent_increments_are_atomic() {
    let v = lkmm(
        "C inc-inc\n{ c=0; }\n\
         P0(atomic_t *c) { int r0; r0 = atomic_add_return(1, c); }\n\
         P1(atomic_t *c) { int r0; r0 = atomic_add_return(1, c); }\n\
         exists (c=1)",
    );
    assert_eq!(v, Verdict::Forbidden, "an increment was lost");
    let v2 = lkmm(
        "C inc-inc2\n{ c=0; }\n\
         P0(atomic_t *c) { int r0; r0 = atomic_add_return(1, c); }\n\
         P1(atomic_t *c) { int r0; r0 = atomic_add_return(1, c); }\n\
         exists (c=2 /\\ 0:r0=1 /\\ 1:r0=2)",
    );
    assert_eq!(v2, Verdict::Allowed, "serialised increments return 1 then 2");
}

/// `atomic_add_return()` (no suffix) is fully ordered: it forbids store
/// buffering like `smp_mb` (Table 3's xchg pattern extends to the whole
/// value-returning family).
#[test]
fn full_atomic_add_return_orders_like_mb() {
    let v = lkmm(
        "C SB+add-returns\n{ x=0; y=0; c=0; d=0; }\n\
         P0(int *x, int *y, atomic_t *c) { int t; int r0; WRITE_ONCE(*x, 1); \
         t = atomic_add_return(1, c); r0 = READ_ONCE(*y); }\n\
         P1(int *x, int *y, atomic_t *d) { int t; int r0; WRITE_ONCE(*y, 1); \
         t = atomic_add_return(1, d); r0 = READ_ONCE(*x); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    );
    assert_eq!(v, Verdict::Forbidden);
    // The relaxed variant provides no such ordering.
    let v2 = lkmm(
        "C SB+add-return-relaxed\n{ x=0; y=0; c=0; d=0; }\n\
         P0(int *x, int *y, atomic_t *c) { int t; int r0; WRITE_ONCE(*x, 1); \
         t = atomic_add_return_relaxed(1, c); r0 = READ_ONCE(*y); }\n\
         P1(int *x, int *y, atomic_t *d) { int t; int r0; WRITE_ONCE(*y, 1); \
         t = atomic_add_return_relaxed(1, d); r0 = READ_ONCE(*x); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    );
    assert_eq!(v2, Verdict::Allowed);
}

/// Void `atomic_add()` provides no ordering at all ([69]: "void atomic
/// operations give no ordering guarantees").
#[test]
fn void_atomic_add_is_unordered() {
    let v = lkmm(
        "C MP+atomic-add\n{ x=0; y=0; c=0; }\n\
         P0(int *x, int *y, atomic_t *c) { WRITE_ONCE(*x, 1); atomic_add(1, c); \
         WRITE_ONCE(*y, 1); }\n\
         P1(int *x, int *y) { int r0; int r1; r0 = READ_ONCE(*y); smp_rmb(); \
         r1 = READ_ONCE(*x); }\n\
         exists (1:r0=1 /\\ 1:r1=0)",
    );
    assert_eq!(v, Verdict::Allowed);
}

/// `atomic_fetch_add` returns the old value, `atomic_add_return` the new.
#[test]
fn fetch_vs_return_values() {
    let v = lkmm(
        "C fetch-vs-return\n{ c=5; }\n\
         P0(atomic_t *c) { int old; int new; old = atomic_fetch_add_relaxed(2, c); \
         new = atomic_add_return_relaxed(3, c); }\n\
         exists (0:old=5 /\\ 0:new=10 /\\ c=10)",
    );
    assert_eq!(v, Verdict::Allowed);
    let v2 = lkmm(
        "C fetch-wrong\n{ c=5; }\n\
         P0(atomic_t *c) { int old; old = atomic_fetch_add_relaxed(2, c); }\n\
         exists (0:old=7)",
    );
    assert_eq!(v2, Verdict::Forbidden, "fetch_add must return the old value");
}

/// Release/acquire variants chain like store-release/load-acquire.
#[test]
fn acquire_release_atomic_ops_give_message_passing() {
    let v = lkmm(
        "C MP+add-rel+add-acq\n{ x=0; c=0; }\n\
         P0(int *x, atomic_t *c) { int t; WRITE_ONCE(*x, 1); \
         t = atomic_add_return_release(1, c); }\n\
         P1(int *x, atomic_t *c) { int t; int r1; t = atomic_fetch_add_acquire(0, c); \
         r1 = READ_ONCE(*x); }\n\
         exists (1:t=1 /\\ 1:r1=0)",
    );
    assert_eq!(v, Verdict::Forbidden);
}

/// The simulators and the host agree: no lost updates, full-ordered SB
/// never observed.
#[test]
fn atomic_ops_on_simulators_and_host() {
    use lkmm_klitmus::{run_on_host, HostConfig};
    use lkmm_sim::{run_test, Arch, RunConfig};
    let lost_update = lkmm_litmus::parse(
        "C inc-inc\n{ c=0; }\n\
         P0(atomic_t *c) { int r0; r0 = atomic_add_return(1, c); }\n\
         P1(atomic_t *c) { int r0; r0 = atomic_add_return(1, c); }\n\
         exists (c=1)",
    )
    .unwrap();
    for arch in Arch::ALL {
        let stats =
            run_test(&lost_update, arch, &RunConfig { iterations: 3_000, seed: 77 }).unwrap();
        assert_eq!(stats.observed, 0, "lost update on {}", arch.name());
    }
    let stats = run_on_host(&lost_update, &HostConfig { iterations: 20_000 }).unwrap();
    assert_eq!(stats.observed, 0, "lost update on the host");
}

/// Round-trip through the pretty-printer.
#[test]
fn atomic_ops_round_trip() {
    let src = "C rt\n{ c=0; }\n\
         P0(atomic_t *c) { int a; int b; a = atomic_fetch_add_acquire(1, c); \
         b = atomic_sub_return_release(2, c); atomic_xor(3, c); }\n\
         exists (c=2)";
    let t = lkmm_litmus::parse(src).unwrap();
    let printed = t.to_litmus_string();
    let reparsed = lkmm_litmus::parse(&printed).unwrap_or_else(|e| panic!("{printed}\n{e}"));
    assert_eq!(t, reparsed, "{printed}");
}
