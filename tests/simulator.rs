//! Pinned behaviour of the operational simulators.
//!
//! `run_test` is seeded, so every observed count and histogram is a
//! pure function of the test, the architecture and the seed; `explore`
//! is exhaustive, so its outcome sets and visited-state counts are pure
//! functions of the test and the architecture. Both are hashed here over
//! the whole paper library: a change to the machine that alters one
//! enabled-action order, one RNG draw or one memoised state fails here.

use lkmm_litmus::library;
use lkmm_service::hash::fnv64;
use lkmm_sim::{explore, run_test, Arch, RunConfig};
use std::fmt::Write;

/// Every library test on every machine at seeds 1–3: the full
/// `RunStats` (observed, total, histogram) or the error, in order.
#[test]
fn run_test_stats_are_pinned() {
    let mut text = String::new();
    for pt in library::all() {
        let test = pt.test();
        for arch in Arch::ALL_WITH_ALPHA {
            for seed in 1..=3 {
                let stats = run_test(&test, arch, &RunConfig { iterations: 200, seed });
                let _ = writeln!(text, "{} {} {seed} {stats:?}", pt.name, arch.name());
            }
        }
    }
    let digest = fnv64(text.as_bytes());
    assert_eq!(digest, 0x68e5_52ac_b037_414a, "{digest:#018x}");
}

/// Every library test on every machine, explored exhaustively: outcome
/// sets, observability, states visited and truncation. About five
/// seconds in release; run with `--release -- --ignored`.
#[test]
#[ignore = "release-only: explores the whole library on five machines"]
fn explore_results_are_pinned() {
    let mut text = String::new();
    for pt in library::all() {
        let test = pt.test();
        for arch in Arch::ALL_WITH_ALPHA {
            let result = explore(&test, arch, 2_000_000);
            let _ = writeln!(text, "{} {} {result:?}", pt.name, arch.name());
        }
    }
    let digest = fnv64(text.as_bytes());
    assert_eq!(digest, 0x951f_d3db_f673_36f4, "{digest:#018x}");
}

/// A failing `cmpxchg` returns the value it read, as the LKMM and the
/// hardware do, on every machine: sampled and explored, and also when a
/// later statement depends on it.
#[test]
fn failing_cmpxchg_returns_the_old_value() {
    let failing = "C cmpxchg-fails\n{ x=0; y=0; }\n\
                   P0(int *x, int *y) { int r0; r0 = cmpxchg(x, 1, 2); }\nexists (0:r0=0)\n";
    let dependent = "C cmpxchg-fails-then-stores\n{ x=0; y=0; }\n\
                     P0(int *x, int *y) { int r0; r0 = cmpxchg(x, 1, 2); WRITE_ONCE(*y, r0); }\n\
                     exists (0:r0=0)\n";
    let config = RunConfig { iterations: 50, seed: 1 };
    for arch in Arch::ALL_WITH_ALPHA {
        let test = lkmm_litmus::parse(failing).unwrap();
        let stats = run_test(&test, arch, &config).unwrap();
        assert_eq!((stats.observed, stats.histogram.len()), (50, 1), "{}", arch.name());
        assert!(stats.histogram.contains_key("0:r0=0"), "{}", arch.name());
        let explored = explore(&test, arch, 10_000).unwrap();
        assert_eq!(explored.outcomes, ["0:r0=0".to_string()].into(), "{}", arch.name());
        let test = lkmm_litmus::parse(dependent).unwrap();
        assert_eq!(run_test(&test, arch, &config).unwrap().observed, 50, "{}", arch.name());
        assert!(explore(&test, arch, 10_000).unwrap().observable, "{}", arch.name());
    }
}
