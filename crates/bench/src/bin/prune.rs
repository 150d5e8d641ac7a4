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

use lkmm_bench::{Flag, Report, Row, Val};
use lkmm_conformance::campaign::{corpus_stream, CampaignConfig};
use lkmm_exec::{enumerate, EnumOptions, EnumSnapshot, EnumStrategy, Stats};
use lkmm_litmus::Test;
use std::sync::Arc;
use std::time::Instant;

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
    let (mut iters, mut max_cycle_len) = (3, 6);
    lkmm_bench::flags(&mut [
        Flag::count("--iters", &mut iters, "timed repetitions per config"),
        Flag::int("--max-cycle-len", &mut max_cycle_len, 4, "deepest sweep"),
    ]);

    // The deep sweep subsumes the shallow one when the requested
    // maximum is already 4.
    let mut lens = vec![4, max_cycle_len];
    lens.dedup();
    let mut rows = Vec::new();
    for len in lens {
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
        let naive_leaves = naive_snap.co_leaves_tested as f64;
        let row = |strategy: &str, seconds: f64, snap: &EnumSnapshot| -> Row {
            let leaves = snap.co_leaves_tested as f64;
            vec![
                ("max_cycle_len", len.into()),
                ("strategy", strategy.into()),
                ("seconds", Val::Fixed(seconds, 6)),
                ("tests", tests.len().into()),
                ("co_leaves_tested", Val::Int(snap.co_leaves_tested)),
                ("candidates_emitted", Val::Int(snap.candidates_emitted)),
                ("rf_prefixes_pruned", Val::Int(snap.rf_prefixes_pruned)),
                ("co_pairs_saturated", Val::Int(snap.co_pairs_saturated)),
                ("co_pairs_branched", Val::Int(snap.co_pairs_branched)),
                ("candidate_reduction_vs_naive", Val::Fixed(naive_leaves / leaves, 3)),
                ("speedup_vs_naive", Val::Fixed(naive_secs / seconds, 3)),
            ]
        };
        rows.push(row("naive", naive_secs, &naive_snap));
        rows.push(row("pruned", pruned_secs, &pruned_snap));
    }
    Report {
        bench: "enumerator-pruning",
        params: vec![
            ("corpus", "library + diy cycles + contended twins".into()),
            ("iters", iters.into()),
        ],
        rows,
    }
    .finish("BENCH_PRUNE.json");
}
