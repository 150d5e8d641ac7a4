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
