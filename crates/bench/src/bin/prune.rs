//! Enumerator pruning micro-bench: naive generate-then-judge vs the
//! consistency-driven strategy.
//!
//! Dependency-free (no criterion): enumerates every candidate execution
//! of the contended conformance corpus (paper library + every generated
//! diy cycle + each cycle's contended twin) at cycle length 4 and then
//! 6, once per strategy, and compares
//!
//! * `co_leaves_tested` — full `(rf, co)` candidates actually built and
//!   judged (the naive path builds every coherence permutation for every
//!   reads-from combination and filters afterwards; the pruned path
//!   abandons doomed rf prefixes, saturates forced `co` edges, and only
//!   branches on genuinely unconstrained write pairs, so it builds
//!   exactly the candidates it emits);
//! * `rf_prefixes_pruned` — partial reads-from assignments the pruned
//!   strategy abandoned before touching `co` at all;
//! * wall-clock seconds.
//!
//! Both strategies are asserted to emit the identical candidate count —
//! a bench run doubles as an equivalence check over the full corpus —
//! and the length-4 sweep is asserted to show at least a 5x reduction in
//! candidates tested. Writes `BENCH_PRUNE.json` in the working
//! directory.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin prune [-- --iters N] [--max-cycle-len L]
//! ```

use lkmm_conformance::campaign::{corpus_stream, CampaignConfig};
use lkmm_exec::{enumerate, EnumOptions, EnumSnapshot, EnumStrategy, Stats};
use lkmm_litmus::Test;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Measurement {
    max_cycle_len: usize,
    strategy: &'static str,
    seconds: f64,
    tests: usize,
    snap: EnumSnapshot,
}

fn corpus_tests(max_cycle_len: usize) -> Vec<Test> {
    let cfg = CampaignConfig { max_cycle_len, contended: true, ..CampaignConfig::default() };
    corpus_stream(&cfg)
        .map(|entry| entry.expect("default-alphabet corpus generates").test)
        .collect()
}

fn sweep(tests: &[Test], strategy: EnumStrategy, iters: usize) -> (f64, EnumSnapshot) {
    let mut seconds = 0.0;
    let mut snap = EnumSnapshot::default();
    for i in 0..iters {
        let stats = Arc::new(Stats::default());
        let opts = EnumOptions { strategy, stats: Some(Arc::clone(&stats)), ..Default::default() };
        let start = Instant::now();
        for t in tests {
            let _ = enumerate(t, &opts).expect("corpus test enumerates");
        }
        seconds += start.elapsed().as_secs_f64();
        if i == 0 {
            snap = stats.snapshot().enumeration;
        }
    }
    (seconds / iters as f64, snap)
}

fn main() {
    let mut iters = 3usize;
    let mut max_cycle_len = 6usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            "--max-cycle-len" => {
                max_cycle_len = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-cycle-len needs an integer >= 4");
            }
            "--help" | "-h" => {
                println!(
                    "usage: prune [--iters N] [--max-cycle-len L]   \
                     (timed repetitions per config, default 3; deepest sweep, default 6)"
                );
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    assert!(max_cycle_len >= 4, "--max-cycle-len must be at least 4");

    let mut measurements: Vec<Measurement> = Vec::new();
    for len in [4, max_cycle_len] {
        // The deep sweep subsumes the shallow one when the requested
        // maximum is already 4.
        if measurements.iter().any(|m| m.max_cycle_len == len) {
            continue;
        }
        let tests = corpus_tests(len);
        let (naive_secs, naive_snap) = sweep(&tests, EnumStrategy::Naive, iters);
        let (pruned_secs, pruned_snap) = sweep(&tests, EnumStrategy::Pruned, iters);
        assert_eq!(
            pruned_snap.candidates_emitted, naive_snap.candidates_emitted,
            "strategies disagree on the emitted candidate set at cycle length {len}"
        );
        assert_eq!(
            pruned_snap.co_leaves_tested, pruned_snap.candidates_emitted,
            "pruned path built candidates it did not emit at cycle length {len}"
        );
        if len == 4 {
            let reduction =
                naive_snap.co_leaves_tested as f64 / pruned_snap.co_leaves_tested as f64;
            assert!(
                reduction >= 5.0,
                "cycle length 4: only {reduction:.2}x candidate reduction (need >= 5x)"
            );
        }
        measurements.push(Measurement {
            max_cycle_len: len,
            strategy: "naive",
            seconds: naive_secs,
            tests: tests.len(),
            snap: naive_snap,
        });
        measurements.push(Measurement {
            max_cycle_len: len,
            strategy: "pruned",
            seconds: pruned_secs,
            tests: tests.len(),
            snap: pruned_snap,
        });
    }

    println!(
        "{:>3} {:8} {:>10} {:>7} {:>12} {:>12} {:>12} {:>9} {:>8}",
        "len", "strategy", "secs", "tests", "leaves", "emitted", "rf-pruned", "reduction", "speedup"
    );
    let mut json_entries = String::new();
    for m in &measurements {
        let naive = measurements
            .iter()
            .find(|n| n.max_cycle_len == m.max_cycle_len && n.strategy == "naive")
            .expect("naive twin");
        let reduction = naive.snap.co_leaves_tested as f64 / m.snap.co_leaves_tested as f64;
        let speedup = naive.seconds / m.seconds;
        println!(
            "{:>3} {:8} {:>10.4} {:>7} {:>12} {:>12} {:>12} {:>8.2}x {:>7.2}x",
            m.max_cycle_len,
            m.strategy,
            m.seconds,
            m.tests,
            m.snap.co_leaves_tested,
            m.snap.candidates_emitted,
            m.snap.rf_prefixes_pruned,
            reduction,
            speedup
        );
        if !json_entries.is_empty() {
            json_entries.push_str(",\n");
        }
        write!(
            json_entries,
            "    {{\"max_cycle_len\": {}, \"strategy\": \"{}\", \"seconds\": {:.6}, \
             \"tests\": {}, \"co_leaves_tested\": {}, \"candidates_emitted\": {}, \
             \"rf_prefixes_pruned\": {}, \"co_pairs_saturated\": {}, \"co_pairs_branched\": {}, \
             \"candidate_reduction_vs_naive\": {:.3}, \"speedup_vs_naive\": {:.3}}}",
            m.max_cycle_len,
            m.strategy,
            m.seconds,
            m.tests,
            m.snap.co_leaves_tested,
            m.snap.candidates_emitted,
            m.snap.rf_prefixes_pruned,
            m.snap.co_pairs_saturated,
            m.snap.co_pairs_branched,
            reduction,
            speedup
        )
        .expect("write to string");
    }

    let json = format!(
        "{{\n  \"bench\": \"enumerator-pruning\",\n  \"corpus\": \"library + diy cycles + \
         contended twins\",\n  \"iters\": {iters},\n  \
         \"measurements\": [\n{json_entries}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_PRUNE.json", &json).expect("write BENCH_PRUNE.json");
    println!("\nwrote BENCH_PRUNE.json");
}
