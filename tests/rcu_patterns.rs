//! Additional RCU patterns beyond Figures 10/11: multiple readers,
//! multiple grace periods, RCU mixed with fences, and the classic
//! pointer-publish idiom with `rcu_dereference`/`rcu_assign_pointer`
//! (Table 4).

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::Verdict;
use lkmm_sim::{run_test, Arch, RunConfig};

fn lkmm(source: &str) -> Verdict {
    Herd::new(ModelId::LkmmNative).check_source(source).unwrap().result.verdict
}

fn assert_sim_sound(source: &str) {
    let test = lkmm_litmus::parse(source).unwrap();
    for arch in Arch::ALL {
        let stats = run_test(&test, arch, &RunConfig { iterations: 2_000, seed: 13 }).unwrap();
        assert_eq!(stats.observed, 0, "{} on {}", test.name, arch.name());
    }
}

/// Two independent readers against one updater: both readers' critical
/// sections are protected by the same grace period.
#[test]
fn two_readers_one_updater() {
    let src = "C RCU-MP-two-readers\n{ x=0; y=0; }\n\
         P0(int *x, int *y) { int r1; int r2; rcu_read_lock(); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); rcu_read_unlock(); }\n\
         P1(int *x, int *y) { int r1; int r2; rcu_read_lock(); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); rcu_read_unlock(); }\n\
         P2(int *x, int *y) { WRITE_ONCE(*y, 1); synchronize_rcu(); \
         WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(src), Verdict::Forbidden);
    assert_sim_sound(src);
    // The second reader independently too.
    let src2 = src.replace("exists (0:r1=1 /\\ 0:r2=0)", "exists (1:r1=1 /\\ 1:r2=0)");
    assert_eq!(lkmm(&src2), Verdict::Forbidden);
}

/// The classic publish idiom: rcu_assign_pointer is a release store and
/// rcu_dereference carries the Alpha barrier, so a reader dereferencing
/// the new pointer must see the initialised payload.
#[test]
fn pointer_publish_with_rcu_primitives() {
    let src = "C rcu-publish\n{ p=&z; z=0; w=0; }\n\
         P0(int **p, int *w) { WRITE_ONCE(*w, 1); rcu_assign_pointer(*p, &w); }\n\
         P1(int **p) { int *r1; int r2; rcu_read_lock(); \
         r1 = rcu_dereference(*p); r2 = READ_ONCE(*r1); rcu_read_unlock(); }\n\
         exists (1:r1=&w /\\ 1:r2=0)";
    assert_eq!(lkmm(src), Verdict::Forbidden, "publish must not expose stale payload");
    assert_sim_sound(src);
    // With a plain READ_ONCE of the pointer the outcome is allowed (the
    // Alpha gap again: no rb-dep).
    let src2 = src
        .replace("r1 = rcu_dereference(*p);", "r1 = READ_ONCE(*p);")
        .replace("C rcu-publish", "C rcu-publish-plain");
    assert_eq!(lkmm(&src2), Verdict::Allowed);
}

/// A grace period between two updates seen from inside one RSCS: the
/// reader may not see the second update *before* the first (reads in
/// either order).
#[test]
fn rscs_cannot_straddle_two_writes_separated_by_gp() {
    for (name, reads) in [
        ("fwd", "r1 = READ_ONCE(*x); r2 = READ_ONCE(*y);"),
        ("rev", "r2 = READ_ONCE(*y); r1 = READ_ONCE(*x);"),
    ] {
        let src = format!(
            "C rcu-straddle-{name}\n{{ x=0; y=0; }}\n\
             P0(int *x, int *y) {{ int r1; int r2; rcu_read_lock(); {reads} \
             rcu_read_unlock(); }}\n\
             P1(int *x, int *y) {{ WRITE_ONCE(*y, 1); synchronize_rcu(); \
             WRITE_ONCE(*x, 1); }}\n\
             exists (0:r1=1 /\\ 0:r2=0)"
        );
        assert_eq!(lkmm(&src), Verdict::Forbidden, "{name}");
    }
}

/// Unlike a grace period, a full fence on the updater side with an
/// *unordered* reader does not forbid the pattern — the RSCS is what
/// makes both read orders forbidden (the §4.1 "stronger than fences"
/// point, exercised beyond Figure 11).
#[test]
fn fences_cannot_replace_the_critical_section() {
    let src = "C no-rscs\n{ x=0; y=0; }\n\
         P0(int *x, int *y) { int r1; int r2; \
         r2 = READ_ONCE(*y); r1 = READ_ONCE(*x); }\n\
         P1(int *x, int *y) { WRITE_ONCE(*y, 1); smp_mb(); WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(src), Verdict::Allowed, "no RSCS, reversed reads: allowed");
    let src2 = src
        .replace(
            "r2 = READ_ONCE(*y); r1 = READ_ONCE(*x); }",
            "rcu_read_lock(); r2 = READ_ONCE(*y); r1 = READ_ONCE(*x); rcu_read_unlock(); }",
        )
        .replace("smp_mb();", "synchronize_rcu();")
        .replace("C no-rscs", "C with-rscs");
    assert_eq!(lkmm(&src2), Verdict::Forbidden, "RSCS + GP forbids both orders");
}

/// Two grace periods in one updater: transitively protects a three-write
/// chain from one reader.
#[test]
fn two_grace_periods_chain() {
    let src = "C rcu-two-gps\n{ x=0; y=0; z=0; }\n\
         P0(int *x, int *z) { int r1; int r2; rcu_read_lock(); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*z); rcu_read_unlock(); }\n\
         P1(int *x, int *y, int *z) { WRITE_ONCE(*z, 1); synchronize_rcu(); \
         WRITE_ONCE(*y, 1); synchronize_rcu(); WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(src), Verdict::Forbidden);
    assert_sim_sound(src);
}

/// An RSCS in *each* of two readers with a GP between the updater's
/// writes: a cycle through both RSCSes and one GP is allowed (one GP
/// cannot order two independent critical sections against each other) —
/// the "counting" side of Theorem 1: #RSCS > #GP.
#[test]
fn one_gp_cannot_order_two_rscs() {
    let src = "C rcu-2rscs-1gp\n{ x=0; y=0; z=0; w=0; }\n\
         P0(int *x, int *y) { int r1; rcu_read_lock(); WRITE_ONCE(*x, 1); \
         r1 = READ_ONCE(*y); rcu_read_unlock(); }\n\
         P1(int *y, int *z) { WRITE_ONCE(*y, 1); synchronize_rcu(); \
         WRITE_ONCE(*z, 1); }\n\
         P2(int *x, int *z) { int r1; int r2; rcu_read_lock(); \
         r1 = READ_ONCE(*z); r2 = READ_ONCE(*x); rcu_read_unlock(); }\n\
         exists (0:r1=0 /\\ 2:r1=1 /\\ 2:r2=0)";
    assert_eq!(lkmm(src), Verdict::Allowed, "two RSCSes, one GP: cycle permitted");
    // A second grace period tips the count: #GP >= #RSCS forbids it.
    let src2 = src
        .replace(
            "P2(int *x, int *z) { int r1; int r2; rcu_read_lock(); \
         r1 = READ_ONCE(*z); r2 = READ_ONCE(*x); rcu_read_unlock(); }",
            "P2(int *x, int *z) { int r1; int r2; \
         r1 = READ_ONCE(*z); synchronize_rcu(); r2 = READ_ONCE(*x); }",
        )
        .replace("C rcu-2rscs-1gp", "C rcu-1rscs-2gp");
    assert_eq!(lkmm(&src2), Verdict::Forbidden, "one RSCS, two GPs: forbidden");
}
