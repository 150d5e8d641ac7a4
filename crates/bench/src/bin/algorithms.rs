//! Cold-vs-warm throughput micro-bench for the algorithm-family tier.
//!
//! Dependency-free (no criterion): times a full `conformance
//! --algorithms` campaign — every family expanded at the configured
//! size, all seven axiomatic columns, family safety, and the exhaustive
//! interleave-agreement pass — in two configurations:
//!
//! * `cold` — a fresh on-disk verdict store: every matrix cell is
//!   enumerated, checked, and persisted;
//! * `warm` — the same store reopened: every cell replays from cache,
//!   so the remaining time is family expansion, oracle evaluation, and
//!   the interleaving exploration (which is deterministic recomputation
//!   by design — machine reachability is never cached).
//!
//! The simulator and host passes are disabled while timing (neither is
//! cached, and host runs schedule real threads, so both would blur the
//! cold/warm comparison). Both passes are asserted discrepancy-free and
//! report-identical, and the warm pass is asserted to enumerate zero
//! candidates, so a bench run doubles as an algorithm-tier conformance
//! check. Writes `BENCH_ALGOS.json` in the working directory.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin algorithms \
//!     [-- --iters N] [--threads T] [--sections S] [--retries R]
//! ```

use lkmm_algorithms::FamilyParams;
use lkmm_bench::{pass_stats, Flag, Report, Val};
use lkmm_conformance::{algo_json_report, run_algo_campaign, AlgoConfig, SimConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn algo_config(params: FamilyParams, store_path: &Path) -> AlgoConfig {
    AlgoConfig {
        params,
        store_path: Some(store_path.to_path_buf()),
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        host_iterations: 0,
        ..AlgoConfig::default()
    }
}

fn main() {
    let mut iters = 3;
    let mut params = FamilyParams::default();
    lkmm_bench::flags(&mut [
        Flag::count("--iters", &mut iters, "timed repetitions per config"),
        Flag::count("--threads", &mut params.threads, "threads per program"),
        Flag::count("--sections", &mut params.sections, "sections or payload words per thread"),
        Flag::count("--retries", &mut params.retries, "retry depth"),
    ]);

    let store_path: PathBuf =
        std::env::temp_dir().join(format!("lkmm-bench-algorithms-{}.bin", std::process::id()));
    let cfg = algo_config(params, &store_path);

    // Cold: fresh store each iteration (full enumeration + write path).
    let mut cold_seconds = 0.0;
    let mut cold_json = String::new();
    let mut cold_stats = (0usize, 0usize, 0usize);
    let mut programs = 0usize;
    let mut families = Vec::new();
    for i in 0..iters {
        let _ = std::fs::remove_file(&store_path);
        let start = Instant::now();
        let report = run_algo_campaign(&cfg).expect("cold campaign runs");
        cold_seconds += start.elapsed().as_secs_f64();
        assert!(report.campaign.clean(), "cold campaign found discrepancies");
        let (cells, enumerated, hits, _) = pass_stats(&report.campaign);
        assert_eq!(hits, 0, "cold pass hit a fresh store");
        assert!(enumerated > 0, "cold pass enumerated nothing");
        if i == 0 {
            cold_json = algo_json_report(&report, &cfg).to_string();
            cold_stats = (cells, enumerated, hits);
            programs = report.programs();
            for f in &report.families {
                families.push(vec![
                    ("family", f.family.name().into()),
                    ("programs", f.programs.into()),
                    ("interleave_checked", f.interleave.checked.into()),
                ]);
            }
        }
    }

    // Warm: reopen the populated store each iteration (matrix replay;
    // the interleave pass recomputes by design).
    let mut warm_seconds = 0.0;
    let mut warm_stats = (0usize, 0usize, 0usize);
    for _ in 0..iters {
        let start = Instant::now();
        let report = run_algo_campaign(&cfg).expect("warm campaign runs");
        warm_seconds += start.elapsed().as_secs_f64();
        assert!(report.campaign.clean(), "warm campaign found discrepancies");
        let (cells, enumerated, hits, deduped) = pass_stats(&report.campaign);
        assert_eq!(enumerated, 0, "warm pass enumerated candidates");
        assert_eq!(hits + deduped, cells, "warm pass missed the store somewhere");
        let warm_json = algo_json_report(&report, &cfg).to_string();
        assert_eq!(warm_json, cold_json, "warm report differs from cold");
        warm_stats = (cells, enumerated, hits);
    }
    let _ = std::fs::remove_file(&store_path);

    let row = |config: &str, seconds: f64, (cells, enumerated, hits): (usize, usize, usize)| {
        let seconds = seconds / iters as f64;
        vec![
            ("config", config.into()),
            ("seconds", Val::Fixed(seconds, 6)),
            ("programs", programs.into()),
            ("programs_per_sec", Val::Fixed(programs as f64 / seconds, 1)),
            ("matrix_cells", cells.into()),
            ("candidates_enumerated", enumerated.into()),
            ("hits", hits.into()),
            ("speedup_vs_cold", Val::Fixed(cold_seconds / iters as f64 / seconds, 3)),
        ]
    };
    Report {
        bench: "algorithm-families",
        params: vec![
            ("threads", params.threads.into()),
            ("sections", params.sections.into()),
            ("retries", params.retries.into()),
            ("iters", iters.into()),
            ("families", Val::Rows(families)),
        ],
        rows: vec![row("cold", cold_seconds, cold_stats), row("warm", warm_seconds, warm_stats)],
    }
    .finish("BENCH_ALGOS.json");
}
