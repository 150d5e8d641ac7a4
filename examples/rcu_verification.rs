//! The RCU story end to end (paper §4 and §6):
//!
//! 1. the RCU axiom forbids Figures 10 and 11;
//! 2. the fundamental law agrees — and Theorem 1's equivalence is checked
//!    on every candidate execution;
//! 3. the Figure 15 implementation, substituted for the RCU primitives
//!    (Theorem 2), still forbids them;
//! 4. the same algorithm runs as a real threaded runtime and upholds the
//!    grace-period guarantee under stress.
//!
//! ```sh
//! cargo run --release --example rcu_verification
//! ```

use lkmm::Lkmm;
use lkmm_exec::enumerate::{enumerate, for_each_execution, EnumOptions};
use lkmm_exec::check_test;
use lkmm_litmus::library;
use lkmm_rcu::{check_equivalence, expand_rcu, satisfies_fundamental_law, Urcu};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn main() {
    let opts = EnumOptions::default();
    let model = Lkmm::new();

    for name in ["RCU-MP", "RCU-deferred-free"] {
        let test = library::by_name(name).unwrap().test();
        println!("== {name} ==");

        // (1) The RCU axiom.
        let r = check_test(&model, &test, &opts).unwrap();
        println!("  RCU axiom verdict: {}", r.verdict);

        // (2) The fundamental law on the weak-outcome candidate.
        let execs = enumerate(&test, &opts).unwrap();
        let weak = execs.iter().find(|x| x.satisfies_prop(&test.condition.prop)).unwrap();
        let law = satisfies_fundamental_law(weak);
        println!(
            "  fundamental law on the weak outcome: {} ({} (RSCS,GP) pair(s), no precedes \
             function works)",
            if law.holds() { "holds" } else { "violated" },
            law.pairs
        );

        // Theorem 1 across all candidates.
        let mut agree = 0usize;
        for_each_execution(&test, &opts, &mut |x| {
            assert!(check_equivalence(x).agree());
            agree += 1;
        })
        .unwrap();
        println!("  Theorem 1 equivalence verified on {agree} candidate executions");

        // (3) Theorem 2: substitute Figure 15.
        let expanded = expand_rcu(&test).unwrap();
        let r2 = check_test(&model, &expanded, &opts).unwrap();
        println!(
            "  Figure 15 expansion ({} candidates): {}",
            r2.candidates, r2.verdict
        );
        assert_eq!(r.verdict, r2.verdict, "Theorem 2 violated!");
        println!();
    }

    // (4) The runtime: readers must never observe a retired object.
    println!("== runtime urcu stress (grace-period guarantee) ==");
    const READERS: usize = 4;
    const POISON: usize = usize::MAX;
    let rcu = Arc::new(Urcu::new(READERS));
    let slots: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(1), AtomicUsize::new(POISON)]);
    let current = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for tid in 0..READERS {
        let (rcu, slots, current, stop) =
            (rcu.clone(), slots.clone(), current.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while stop.load(Ordering::Acquire) == 0 {
                let _g = rcu.read_guard(tid);
                let idx = current.load(Ordering::Relaxed);
                let v = slots[idx].load(Ordering::Relaxed);
                assert_ne!(v, POISON, "reader observed freed memory!");
                reads += 1;
            }
            reads
        }));
    }
    for gen in 2..3_000usize {
        let old = current.load(Ordering::Relaxed);
        slots[1 - old].store(gen, Ordering::Relaxed);
        current.store(1 - old, Ordering::Relaxed);
        rcu.synchronize_rcu();
        slots[old].store(POISON, Ordering::Relaxed); // "free" after the GP
    }
    stop.store(1, Ordering::Release);
    let reads: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    println!("  {reads} reads across {READERS} readers, 2998 grace periods, zero violations");
}
