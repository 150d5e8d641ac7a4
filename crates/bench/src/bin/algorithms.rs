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
use lkmm_conformance::{algo_json_report, run_algo_campaign, AlgoConfig, AlgoReport, SimConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Measurement {
    config: &'static str,
    seconds: f64,
    programs: usize,
    cells: usize,
    candidates_enumerated: usize,
    hits: usize,
}

fn algo_config(params: FamilyParams, store_path: &Path) -> AlgoConfig {
    AlgoConfig {
        params,
        store_path: Some(store_path.to_path_buf()),
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        host_iterations: 0,
        ..AlgoConfig::default()
    }
}

fn pass_stats(report: &AlgoReport) -> (usize, usize, usize) {
    let models = &report.campaign.models;
    let cells = models.iter().map(|m| m.pass.checked).sum();
    let enumerated = models.iter().map(|m| m.pass.candidates_enumerated).sum();
    let hits = models.iter().map(|m| m.pass.hits).sum();
    (cells, enumerated, hits)
}

/// Cells answered without touching the store: duplicates of another
/// program with the same canonical form.
fn deduped(report: &AlgoReport) -> usize {
    report.campaign.models.iter().map(|m| m.pass.deduped).sum()
}

fn main() {
    let mut iters = 3usize;
    let mut params = FamilyParams::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut count = |flag: &str| {
            args.next()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or_else(|| panic!("{flag} needs a positive integer"))
        };
        match a.as_str() {
            "--iters" => iters = count("--iters"),
            "--threads" => params.threads = count("--threads"),
            "--sections" => params.sections = count("--sections"),
            "--retries" => params.retries = count("--retries"),
            "--help" | "-h" => {
                println!(
                    "usage: algorithms [--iters N] [--threads T] [--sections S] [--retries R]   \
                     (timed repetitions per config, default 3; family size, default 2/1/1)"
                );
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let store_path: PathBuf =
        std::env::temp_dir().join(format!("lkmm-bench-algorithms-{}.bin", std::process::id()));
    let cfg = algo_config(params, &store_path);

    // Cold: fresh store each iteration (full enumeration + write path).
    let mut cold_seconds = 0.0;
    let mut cold_json = String::new();
    let mut cold_stats = (0usize, 0usize, 0usize);
    let mut programs = 0usize;
    let mut families = String::new();
    for i in 0..iters {
        let _ = std::fs::remove_file(&store_path);
        let start = Instant::now();
        let report = run_algo_campaign(&cfg).expect("cold campaign runs");
        cold_seconds += start.elapsed().as_secs_f64();
        assert!(report.campaign.clean(), "cold campaign found discrepancies");
        let (cells, enumerated, hits) = pass_stats(&report);
        assert_eq!(hits, 0, "cold pass hit a fresh store");
        assert!(enumerated > 0, "cold pass enumerated nothing");
        if i == 0 {
            cold_json = algo_json_report(&report, &cfg).to_string();
            cold_stats = (cells, enumerated, hits);
            programs = report.programs();
            for f in &report.families {
                if !families.is_empty() {
                    families.push_str(",\n");
                }
                write!(
                    families,
                    "    {{\"family\": \"{}\", \"programs\": {}, \"interleave_checked\": {}}}",
                    f.family.name(),
                    f.programs,
                    f.interleave.checked
                )
                .expect("write to string");
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
        let (cells, enumerated, hits) = pass_stats(&report);
        assert_eq!(enumerated, 0, "warm pass enumerated candidates");
        assert_eq!(hits + deduped(&report), cells, "warm pass missed the store somewhere");
        let warm_json = algo_json_report(&report, &cfg).to_string();
        assert_eq!(warm_json, cold_json, "warm report differs from cold");
        warm_stats = (cells, enumerated, hits);
    }
    let _ = std::fs::remove_file(&store_path);

    let measurements = [
        Measurement {
            config: "cold",
            seconds: cold_seconds / iters as f64,
            programs,
            cells: cold_stats.0,
            candidates_enumerated: cold_stats.1,
            hits: cold_stats.2,
        },
        Measurement {
            config: "warm",
            seconds: warm_seconds / iters as f64,
            programs,
            cells: warm_stats.0,
            candidates_enumerated: warm_stats.1,
            hits: warm_stats.2,
        },
    ];

    println!(
        "{:8} {:>10} {:>12} {:>8} {:>9} {:>7} {:>9}",
        "config", "secs", "progs/sec", "cells", "cands", "hits", "speedup"
    );
    let mut json_entries = String::new();
    for m in &measurements {
        let speedup = measurements[0].seconds / m.seconds;
        let throughput = m.programs as f64 / m.seconds;
        println!(
            "{:8} {:>10.5} {:>12.0} {:>8} {:>9} {:>7} {:>8.2}x",
            m.config, m.seconds, throughput, m.cells, m.candidates_enumerated, m.hits, speedup
        );
        if !json_entries.is_empty() {
            json_entries.push_str(",\n");
        }
        write!(
            json_entries,
            "    {{\"config\": \"{}\", \"seconds\": {:.6}, \"programs\": {}, \
             \"programs_per_sec\": {:.1}, \"matrix_cells\": {}, \"candidates_enumerated\": {}, \
             \"hits\": {}, \"speedup_vs_cold\": {:.3}}}",
            m.config,
            m.seconds,
            m.programs,
            throughput,
            m.cells,
            m.candidates_enumerated,
            m.hits,
            speedup
        )
        .expect("write to string");
    }

    let json = format!(
        "{{\n  \"bench\": \"algorithm-families\",\n  \"threads\": {},\n  \"sections\": {},\n  \
         \"retries\": {},\n  \"iters\": {iters},\n  \"families\": [\n{families}\n  ],\n  \
         \"measurements\": [\n{json_entries}\n  ]\n}}\n",
        params.threads, params.sections, params.retries
    );
    std::fs::write("BENCH_ALGOS.json", &json).expect("write BENCH_ALGOS.json");
    println!("\nwrote BENCH_ALGOS.json");
}
