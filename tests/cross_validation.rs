//! Cross-validation between independent subsystems: the axiomatic models,
//! the operational simulators, the host runner and the RCU machinery must
//! tell one consistent story.

use linux_kernel_memory_model::{Herd, ModelChoice};
use lkmm_exec::enumerate::EnumOptions;
use lkmm_exec::states::collect_states;
use lkmm_exec::Verdict;
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use lkmm_klitmus::{run_on_host, HostConfig};
use lkmm_litmus::library;
use lkmm_sim::{run_test, Arch, RunConfig};
use std::collections::BTreeSet;

/// Simulators never observe LKMM-forbidden outcomes — on the paper's
/// tests *and* a sweep of generated ones.
#[test]
fn simulator_soundness_on_generated_tests() {
    let herd = Herd::new(ModelChoice::Lkmm);
    let cycles = cycles_up_to(4, &default_alphabet());
    let mut forbidden_checked = 0usize;
    for (i, cycle) in cycles.iter().enumerate() {
        if i % 5 != 0 {
            continue; // sample for test-suite speed; benches sweep all
        }
        let test = generate(cycle).unwrap();
        if herd.check(&test).unwrap().result.verdict == Verdict::Forbidden {
            for arch in Arch::ALL {
                let stats =
                    run_test(&test, arch, &RunConfig { iterations: 300, seed: 11 }).unwrap();
                assert_eq!(stats.observed, 0, "{} on {}", test.name, arch.name());
            }
            forbidden_checked += 1;
        }
    }
    assert!(forbidden_checked > 5);
}

/// The host runner (real threads, real silicon) is likewise sound.
#[test]
fn host_soundness_on_paper_tests() {
    let herd = Herd::new(ModelChoice::Lkmm);
    for pt in library::table5() {
        let test = pt.test();
        if herd.check(&test).unwrap().result.verdict == Verdict::Forbidden {
            let stats = run_on_host(&test, &HostConfig { iterations: 5_000 }).unwrap();
            assert_eq!(stats.observed, 0, "{} observed on the host", pt.name);
        }
    }
}

/// Every final state the host runner observes on a library test is one
/// the LKMM allows, not only the condition's: both sides are printed by
/// the lowered program's renderer, with `" "` between terms on the host
/// and `"; "` in herd's histogram.
#[test]
fn host_states_are_lkmm_allowed() {
    let lkmm = lkmm::Lkmm::new();
    for pt in library::all() {
        let test = pt.test();
        let summary = collect_states(&lkmm, &test, &EnumOptions::default()).unwrap();
        let allowed: BTreeSet<String> = summary
            .states
            .iter()
            .filter(|(_, count)| count.allowed > 0)
            .map(|(state, _)| state.0.replace("; ", " "))
            .collect();
        let stats = run_on_host(&test, &HostConfig { iterations: 2_000 }).unwrap();
        for state in stats.histogram.keys() {
            assert!(allowed.contains(state), "{}: the host observed {state}", pt.name);
        }
    }
}

/// TSO (the axiomatic model) and the x86 simulator (operational) agree on
/// observability direction: anything the simulator observes, the
/// axiomatic TSO model allows.
#[test]
fn x86_simulator_within_axiomatic_tso() {
    let tso = Herd::new(ModelChoice::Tso);
    for pt in library::all().iter().filter(|p| !p.name.starts_with("RCU")) {
        let test = pt.test();
        let stats = run_test(&test, Arch::X86, &RunConfig { iterations: 3_000, seed: 23 })
            .unwrap();
        if stats.observed > 0 {
            assert_eq!(
                tso.check(&test).unwrap().result.verdict,
                Verdict::Allowed,
                "{}: x86 sim observed an outcome axiomatic TSO forbids",
                pt.name
            );
        }
    }
}

/// The §4.1 "RCU is stronger than fences" contrast: swapping the reads
/// preserves the RCU verdict but flips the fence verdict.
#[test]
fn rcu_stronger_than_fences() {
    let herd = Herd::new(ModelChoice::Lkmm);
    // Fence version of RCU-deferred-free's shape: allowed.
    let fences = herd
        .check_source(
            "C deferred-free-fences\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r1; int r2; r1 = READ_ONCE(*y); smp_rmb(); \
             r2 = READ_ONCE(*x); }\n\
             P1(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }\n\
             exists (0:r1=1 /\\ 0:r2=0)",
        )
        .unwrap();
    assert!(!fences.allowed(), "MP shape is forbidden with fences");
    // Swap the reads: with fences the outcome becomes allowed...
    let swapped = herd
        .check_source(
            "C deferred-free-fences-swapped\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r1; int r2; r1 = READ_ONCE(*x); smp_rmb(); \
             r2 = READ_ONCE(*y); }\n\
             P1(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }\n\
             exists (0:r2=1 /\\ 0:r1=0)",
        )
        .unwrap();
    assert!(swapped.allowed(), "fences do not order the swapped reads");
    // ...but with RCU it stays forbidden (Figure 11 vs Figure 10).
    for name in ["RCU-MP", "RCU-deferred-free"] {
        let t = library::by_name(name).unwrap().test();
        assert!(!herd.check(&t).unwrap().allowed(), "{name}");
    }
}
