//! Locking semantics (paper §7 and Table 2): spinlocks emulated as
//! acquire-RMW / store-release, reproducing the LKML findings the model
//! helped settle — in particular that an UNLOCK+LOCK pair is *not* a full
//! barrier (the srcu ordering fix \[64\] and the ARM64 `spin_unlock_wait`
//! discussions \[26, 83\]).

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::Verdict;

fn lkmm(source: &str) -> Verdict {
    Herd::new(ModelId::LkmmNative).check_source(source).unwrap().result.verdict
}

/// \[64\]: code incorrectly relied on fully ordered lock-unlock pairs.
/// An UNLOCK followed by a LOCK on the *same* CPU does not order a write
/// before a later read (no strong fence): SB through unlock+lock remains
/// observable.
#[test]
fn unlock_lock_is_not_a_full_barrier() {
    let v = lkmm(
        "C SB+unlock-lock+unlock-lock\n{ s=0; t=0; x=0; y=0; }\n\
         P0(spinlock_t *s, int *x, int *y) { int r0; spin_lock(&s); \
         WRITE_ONCE(*x, 1); spin_unlock(&s); spin_lock(&s); \
         r0 = READ_ONCE(*y); spin_unlock(&s); }\n\
         P1(spinlock_t *t, int *x, int *y) { int r0; spin_lock(&t); \
         WRITE_ONCE(*y, 1); spin_unlock(&t); spin_lock(&t); \
         r0 = READ_ONCE(*x); spin_unlock(&t); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    );
    assert_eq!(v, Verdict::Allowed, "unlock+lock must not restore SC");
}

/// The fix for \[64\]: an explicit smp_mb (the kernel grew
/// `smp_mb__after_unlock_lock` for this) does forbid it.
#[test]
fn unlock_lock_plus_mb_is_a_full_barrier() {
    let v = lkmm(
        "C SB+unlock-lock-mb+unlock-lock-mb\n{ s=0; t=0; x=0; y=0; }\n\
         P0(spinlock_t *s, int *x, int *y) { int r0; spin_lock(&s); \
         WRITE_ONCE(*x, 1); spin_unlock(&s); spin_lock(&s); smp_mb(); \
         r0 = READ_ONCE(*y); spin_unlock(&s); }\n\
         P1(spinlock_t *t, int *x, int *y) { int r0; spin_lock(&t); \
         WRITE_ONCE(*y, 1); spin_unlock(&t); spin_lock(&t); smp_mb(); \
         r0 = READ_ONCE(*x); spin_unlock(&t); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    );
    assert_eq!(v, Verdict::Forbidden);
}

/// Critical sections on the *same* lock are ordered: message passing
/// through a lock works (the roach-motel property of acquire/release).
#[test]
fn same_lock_critical_sections_give_message_passing() {
    let v = lkmm(
        "C MP+locks\n{ s=0; x=0; y=0; }\n\
         P0(spinlock_t *s, int *x, int *y) { WRITE_ONCE(*x, 1); spin_lock(&s); \
         WRITE_ONCE(*y, 1); spin_unlock(&s); }\n\
         P1(spinlock_t *s, int *x, int *y) { int r0; int r1; spin_lock(&s); \
         r0 = READ_ONCE(*y); spin_unlock(&s); r1 = READ_ONCE(*x); }\n\
         exists (1:r0=1 /\\ 1:r1=0)",
    );
    assert_eq!(v, Verdict::Forbidden, "lock hand-off must publish prior writes");
}

/// Accesses are free to *enter* a critical section (roach motel): a write
/// before a lock may be delayed into it, so it is not ordered against a
/// later read inside the section.
#[test]
fn roach_motel_allows_sb_into_critical_sections() {
    let v = lkmm(
        "C SB+into-cs\n{ s=0; t=0; x=0; y=0; }\n\
         P0(spinlock_t *s, int *x, int *y) { int r0; WRITE_ONCE(*x, 1); \
         spin_lock(&s); r0 = READ_ONCE(*y); spin_unlock(&s); }\n\
         P1(spinlock_t *t, int *x, int *y) { int r0; WRITE_ONCE(*y, 1); \
         spin_lock(&t); r0 = READ_ONCE(*x); spin_unlock(&t); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    );
    assert_eq!(v, Verdict::Allowed);
}

/// Lock acquisitions on one lock form a total order: two critical
/// sections cannot both observe the other's write as missing.
#[test]
fn lock_acquisitions_totally_ordered() {
    let v = lkmm(
        "C SB+in-same-lock\n{ s=0; x=0; y=0; }\n\
         P0(spinlock_t *s, int *x, int *y) { int r0; spin_lock(&s); \
         WRITE_ONCE(*x, 1); r0 = READ_ONCE(*y); spin_unlock(&s); }\n\
         P1(spinlock_t *s, int *x, int *y) { int r0; spin_lock(&s); \
         WRITE_ONCE(*y, 1); r0 = READ_ONCE(*x); spin_unlock(&s); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    );
    assert_eq!(v, Verdict::Forbidden, "mutual exclusion forbids both-miss");
}

/// Host validation: the same-lock properties hold with real CAS loops on
/// real threads.
#[test]
fn locking_properties_hold_on_host() {
    use lkmm_klitmus::{run_on_host, HostConfig};
    let forbidden = [
        "C MP+locks\n{ s=0; x=0; y=0; }\n\
         P0(spinlock_t *s, int *x, int *y) { WRITE_ONCE(*x, 1); spin_lock(&s); \
         WRITE_ONCE(*y, 1); spin_unlock(&s); }\n\
         P1(spinlock_t *s, int *x, int *y) { int r0; int r1; spin_lock(&s); \
         r0 = READ_ONCE(*y); spin_unlock(&s); r1 = READ_ONCE(*x); }\n\
         exists (1:r0=1 /\\ 1:r1=0)",
    ];
    for src in forbidden {
        let test = lkmm_litmus::parse(src).unwrap();
        let stats = run_on_host(&test, &HostConfig { iterations: 10_000 }).unwrap();
        assert_eq!(stats.observed, 0, "{}", test.name);
    }
}
