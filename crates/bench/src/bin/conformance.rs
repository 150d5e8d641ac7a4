//! Cold-vs-warm throughput micro-bench for the conformance engine.
//!
//! Dependency-free (no criterion): times a full differential campaign
//! (library + generated cycles, all seven checkers, all oracles) in two
//! configurations —
//!
//! * `cold` — a fresh on-disk verdict store: every cell of the verdict
//!   matrix is enumerated and checked, then persisted;
//! * `warm` — the same store reopened: every cell replays from cache and
//!   nothing is enumerated, so the remaining time is corpus generation
//!   plus oracle evaluation;
//!
//! then writes `BENCH_CONFORMANCE.json` in the working directory and
//! prints a summary table. The simulator soundness pass is disabled
//! while timing (simulator runs are never cached, so they would blur the
//! cold/warm comparison). Both passes are asserted discrepancy-free and
//! report-identical, and the warm pass is asserted to enumerate zero
//! candidates, so a bench run doubles as a conformance check.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin conformance [-- --iters N] [--max-cycle-len L]
//! ```

use lkmm_bench::{pass_stats, Flag, Report, Val};
use lkmm_conformance::{json_report, run_campaign, CampaignConfig, SimConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn campaign_config(max_cycle_len: usize, store_path: &Path) -> CampaignConfig {
    CampaignConfig {
        max_cycle_len,
        store_path: Some(store_path.to_path_buf()),
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        ..CampaignConfig::default()
    }
}

fn main() {
    let (mut iters, mut max_cycle_len) = (3, 4);
    lkmm_bench::flags(&mut [
        Flag::count("--iters", &mut iters, "timed repetitions per config"),
        Flag::int("--max-cycle-len", &mut max_cycle_len, 0, "cycle length"),
    ]);

    let store_path: PathBuf = std::env::temp_dir()
        .join(format!("lkmm-bench-conformance-{}.bin", std::process::id()));
    let cfg = campaign_config(max_cycle_len, &store_path);

    // Cold: fresh store each iteration (full enumeration + write path).
    let mut cold_seconds = 0.0;
    let mut cold_json = String::new();
    let mut cold_stats = (0usize, 0usize, 0usize);
    let mut tests = 0usize;
    for i in 0..iters {
        let _ = std::fs::remove_file(&store_path);
        let start = Instant::now();
        let report = run_campaign(&cfg).expect("cold campaign runs");
        cold_seconds += start.elapsed().as_secs_f64();
        assert!(report.clean(), "cold campaign found discrepancies");
        let (cells, enumerated, hits, _) = pass_stats(&report);
        assert_eq!(hits, 0, "cold pass hit a fresh store");
        assert!(enumerated > 0, "cold pass enumerated nothing");
        if i == 0 {
            cold_json = json_report(&report, &cfg).to_string();
            cold_stats = (cells, enumerated, hits);
            tests = report.corpus_total();
        }
    }

    // Warm: reopen the populated store each iteration (pure replay).
    let mut warm_seconds = 0.0;
    let mut warm_stats = (0usize, 0usize, 0usize);
    for _ in 0..iters {
        let start = Instant::now();
        let report = run_campaign(&cfg).expect("warm campaign runs");
        warm_seconds += start.elapsed().as_secs_f64();
        assert!(report.clean(), "warm campaign found discrepancies");
        let (cells, enumerated, hits, deduped) = pass_stats(&report);
        assert_eq!(enumerated, 0, "warm pass enumerated candidates");
        // Every cell is either a store hit or an in-corpus duplicate.
        assert_eq!(hits + deduped, cells, "warm pass missed the store somewhere");
        let warm_json = json_report(&report, &cfg).to_string();
        assert_eq!(warm_json, cold_json, "warm report differs from cold");
        warm_stats = (cells, enumerated, hits);
    }
    let _ = std::fs::remove_file(&store_path);

    let row = |config: &str, seconds: f64, (cells, enumerated, hits): (usize, usize, usize)| {
        let seconds = seconds / iters as f64;
        vec![
            ("config", config.into()),
            ("seconds", Val::Fixed(seconds, 6)),
            ("tests", tests.into()),
            ("tests_per_sec", Val::Fixed(tests as f64 / seconds, 1)),
            ("matrix_cells", cells.into()),
            ("candidates_enumerated", enumerated.into()),
            ("hits", hits.into()),
            ("speedup_vs_cold", Val::Fixed(cold_seconds / iters as f64 / seconds, 3)),
        ]
    };
    Report {
        bench: "conformance-campaign",
        params: vec![("max_cycle_len", max_cycle_len.into()), ("iters", iters.into())],
        rows: vec![row("cold", cold_seconds, cold_stats), row("warm", warm_seconds, warm_stats)],
    }
    .finish("BENCH_CONFORMANCE.json");
}
