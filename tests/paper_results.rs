//! End-to-end integration: every result the paper reports, checked
//! through the public facade API.

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::Verdict;
use lkmm_litmus::library::{self, Expect};

fn expect_to_verdict(e: Expect) -> Verdict {
    match e {
        Expect::Allowed => Verdict::Allowed,
        Expect::Forbidden => Verdict::Forbidden,
    }
}

#[test]
fn table5_model_column_via_facade() {
    let herd = Herd::new(ModelId::LkmmNative);
    for pt in library::table5() {
        let report = herd.check(&pt.test()).unwrap();
        assert_eq!(report.result.verdict, expect_to_verdict(pt.lkmm), "{}", pt.name);
    }
}

#[test]
fn table5_c11_column_via_facade() {
    let herd = Herd::new(ModelId::C11);
    for pt in library::table5() {
        let Some(c11) = pt.c11 else { continue };
        let report = herd.check(&pt.test()).unwrap();
        assert_eq!(report.result.verdict, expect_to_verdict(c11), "{}", pt.name);
    }
}

#[test]
fn interpreted_cat_model_matches_native_on_all_figures() {
    let native = Herd::new(ModelId::LkmmNative);
    let cat = Herd::new(ModelId::LkmmCat);
    for pt in library::all() {
        let t = pt.test();
        let a = native.check(&t).unwrap().result;
        let b = cat.check(&t).unwrap().result;
        assert_eq!(a.verdict, b.verdict, "{}", pt.name);
        assert_eq!(a.allowed, b.allowed, "{}", pt.name);
    }
}

#[test]
fn sc_forbids_everything_lkmm_forbids() {
    let sc = Herd::new(ModelId::Sc);
    for pt in library::all() {
        if pt.lkmm == Expect::Forbidden {
            let report = sc.check(&pt.test()).unwrap();
            assert_eq!(report.result.verdict, Verdict::Forbidden, "{}", pt.name);
        }
    }
}

#[test]
fn round_trip_print_parse_check() {
    // Print every library test, re-parse it, and verify the verdict is
    // unchanged — the full front-end loop.
    let herd = Herd::new(ModelId::LkmmNative);
    for pt in library::all() {
        let t = pt.test();
        let reparsed = lkmm_litmus::parse(&t.to_litmus_string()).unwrap();
        let a = herd.check(&t).unwrap().result.verdict;
        let b = herd.check(&reparsed).unwrap().result.verdict;
        assert_eq!(a, b, "{}", pt.name);
    }
}

#[test]
fn section7_locking_emulation() {
    // §7: "we model a spinlock as a shared location; spin_lock behaves
    // like xchg_acquire, spin_unlock like smp_store_release".
    let herd = Herd::new(ModelId::LkmmNative);
    let report = herd
        .check_source(
            "C lock-hand-off\n{ s=0; x=0; }\n\
             P0(spinlock_t *s, int *x) { spin_lock(&s); WRITE_ONCE(*x, 1); \
             spin_unlock(&s); }\n\
             P1(spinlock_t *s, int *x) { int r0; int r1; spin_lock(&s); \
             r0 = READ_ONCE(*x); spin_unlock(&s); r1 = READ_ONCE(*x); }\n\
             exists (1:r0=1 /\\ 1:r1=0)",
        )
        .unwrap();
    // Once the lock has passed P0's critical section to P1, x stays 1.
    assert!(!report.allowed());
}

#[test]
fn synchronize_rcu_replaces_smp_mb() {
    // §4.2: gp joins strong-fence. SB with one synchronize_rcu and one
    // smp_mb is forbidden, like SB+mbs.
    let herd = Herd::new(ModelId::LkmmNative);
    let report = herd
        .check_source(
            "C SB+sync+mb\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r0; WRITE_ONCE(*x, 1); synchronize_rcu(); \
             r0 = READ_ONCE(*y); }\n\
             P1(int *x, int *y) { int r0; WRITE_ONCE(*y, 1); smp_mb(); \
             r0 = READ_ONCE(*x); }\n\
             exists (0:r0=0 /\\ 1:r0=0)",
        )
        .unwrap();
    assert!(!report.allowed());
}
