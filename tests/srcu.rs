//! SRCU (sleepable RCU): per-domain grace periods, the signature property
//! being that **domains are independent** — a grace period of one domain
//! does not wait for read-side critical sections of another. An extension
//! beyond the paper (its §7 future-work direction; the kernel's LKMM
//! gained SRCU support in 2019).

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::Verdict;
use lkmm_klitmus::{run_on_host, HostConfig};
use lkmm_sim::{run_test, Arch, RunConfig};

fn lkmm(source: &str) -> Verdict {
    Herd::new(ModelId::LkmmNative).check_source(source).unwrap().result.verdict
}

const SRCU_MP: &str = "C SRCU-MP\n{ ss=0; x=0; y=0; }\n\
     P0(srcu_struct *ss, int *x, int *y) { int r1; int r2; srcu_read_lock(ss); \
     r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); srcu_read_unlock(ss); }\n\
     P1(srcu_struct *ss, int *x, int *y) { WRITE_ONCE(*y, 1); \
     synchronize_srcu(ss); WRITE_ONCE(*x, 1); }\n\
     exists (0:r1=1 /\\ 0:r2=0)";

/// Same-domain SRCU gives the RCU-MP guarantee.
#[test]
fn same_domain_srcu_mp_is_forbidden() {
    assert_eq!(lkmm(SRCU_MP), Verdict::Forbidden);
}

/// The independence property: a reader in domain `ss1` is *not* waited
/// for by `synchronize_srcu(ss2)` — the same shape across domains is
/// allowed.
#[test]
fn cross_domain_srcu_is_independent() {
    let cross = "C SRCU-MP-cross\n{ ss1=0; ss2=0; x=0; y=0; }\n\
         P0(srcu_struct *ss1, int *x, int *y) { int r1; int r2; srcu_read_lock(ss1); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); srcu_read_unlock(ss1); }\n\
         P1(srcu_struct *ss2, int *x, int *y) { WRITE_ONCE(*y, 1); \
         synchronize_srcu(ss2); WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(cross), Verdict::Allowed, "different domains must not interact");
}

/// RCU critical sections are likewise not ordered by SRCU grace periods
/// (and vice versa).
#[test]
fn srcu_and_rcu_are_independent() {
    let mixed = "C RCU-vs-SRCU\n{ ss=0; x=0; y=0; }\n\
         P0(int *x, int *y) { int r1; int r2; rcu_read_lock(); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); rcu_read_unlock(); }\n\
         P1(srcu_struct *ss, int *x, int *y) { WRITE_ONCE(*y, 1); \
         synchronize_srcu(ss); WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(mixed), Verdict::Allowed);
    let mixed2 = "C SRCU-vs-RCU\n{ ss=0; x=0; y=0; }\n\
         P0(srcu_struct *ss, int *x, int *y) { int r1; int r2; srcu_read_lock(ss); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); srcu_read_unlock(ss); }\n\
         P1(int *x, int *y) { WRITE_ONCE(*y, 1); synchronize_rcu(); \
         WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(mixed2), Verdict::Allowed);
}

/// synchronize_srcu still carries strong-fence ordering (the kernel's
/// documented guarantee): it can stand in for smp_mb like
/// synchronize_rcu does.
#[test]
fn synchronize_srcu_is_a_strong_fence() {
    let sb = "C SB+srcu-sync+mb\n{ ss=0; x=0; y=0; }\n\
         P0(srcu_struct *ss, int *x, int *y) { int r0; WRITE_ONCE(*x, 1); \
         synchronize_srcu(ss); r0 = READ_ONCE(*y); }\n\
         P1(int *x, int *y) { int r0; WRITE_ONCE(*y, 1); smp_mb(); \
         r0 = READ_ONCE(*x); }\n\
         exists (0:r0=0 /\\ 1:r0=0)";
    assert_eq!(lkmm(sb), Verdict::Forbidden);
}

/// Nested same-domain sections match at the outermost pair.
#[test]
fn nested_srcu_sections() {
    let nested = "C SRCU-nested\n{ ss=0; x=0; y=0; }\n\
         P0(srcu_struct *ss, int *x, int *y) { int r1; int r2; srcu_read_lock(ss); \
         srcu_read_lock(ss); r1 = READ_ONCE(*x); srcu_read_unlock(ss); \
         r2 = READ_ONCE(*y); srcu_read_unlock(ss); }\n\
         P1(srcu_struct *ss, int *x, int *y) { WRITE_ONCE(*y, 1); \
         synchronize_srcu(ss); WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)";
    assert_eq!(lkmm(nested), Verdict::Forbidden, "outermost matching spans both reads");
}

/// Unbalanced SRCU sections are rejected.
#[test]
fn unbalanced_srcu_rejected() {
    let herd = Herd::new(ModelId::LkmmNative);
    let err = herd
        .check_source(
            "C bad\n{ ss=0; x=0; }\nP0(srcu_struct *ss, int *x) { srcu_read_lock(ss); \
             WRITE_ONCE(*x, 1); }\nexists (x=1)",
        )
        .unwrap_err();
    assert!(err.to_string().contains("unbalanced"), "{err}");
}

/// Theorem 1 extends to SRCU: the per-domain axiom and the per-domain law
/// agree on every candidate execution of the SRCU tests here.
#[test]
fn theorem1_holds_with_srcu() {
    use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
    let t = lkmm_litmus::parse(SRCU_MP).unwrap();
    let mut n = 0;
    for_each_execution(&t, &EnumOptions::default(), &mut |x| {
        assert!(lkmm_rcu::check_equivalence(x).agree(), "{x}");
        n += 1;
    })
    .unwrap();
    assert!(n > 0);
}

/// Operational and host soundness: the same-domain forbidden pattern is
/// never observed; the cross-domain one is observable on the simulators.
#[test]
fn srcu_on_simulators_and_host() {
    let same = lkmm_litmus::parse(SRCU_MP).unwrap();
    for arch in Arch::ALL {
        let stats = run_test(&same, arch, &RunConfig { iterations: 2_000, seed: 3 }).unwrap();
        assert_eq!(stats.observed, 0, "SRCU-MP observed on {}", arch.name());
    }
    let stats = run_on_host(&same, &HostConfig { iterations: 3_000 }).unwrap();
    assert_eq!(stats.observed, 0, "SRCU-MP observed on the host");
}
