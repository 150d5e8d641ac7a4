//! Cold-vs-warm throughput micro-bench for the verdict store.
//!
//! Dependency-free (no criterion): times three configurations of the
//! batch checker over two corpora (the paper's litmus library and a
//! generated MP-family sweep, both under the native LKMM) —
//!
//! * `uncached`  — every test checked from scratch, no store;
//! * `cold`      — a fresh on-disk store: canonicalize + hash + check +
//!                 append, i.e. the cache's write-path overhead;
//! * `warm`      — the same store reopened: pure replay, zero candidate
//!                 enumerations;
//!
//! then writes `BENCH_CACHE.json` in the working directory and prints a
//! summary table. Results are asserted identical across configurations
//! while timing, and the warm pass is asserted to compute nothing, so a
//! bench run doubles as a cache-correctness check.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin cache [-- --iters N]
//! ```

use lkmm::Lkmm;
use lkmm_bench::{Flag, Report, Row, Val};
use lkmm_exec::TestResult;
use lkmm_litmus::ast::Test;
use lkmm_service::{ColumnReport, MultiBatchChecker, MultiColumn, VerdictStore};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Workload {
    name: &'static str,
    tests: Vec<Test>,
}

fn workloads() -> Vec<Workload> {
    let library: Vec<Test> =
        lkmm_litmus::library::all().iter().map(lkmm_litmus::library::PaperTest::test).collect();
    let mp = lkmm_generator::parse_cycle("PodWW Rfe PodRR Fre").expect("MP cycle parses");
    let family = lkmm_generator::family::family_tests(&mp).expect("MP base is valid");
    vec![
        Workload { name: "table5-library", tests: library },
        Workload { name: "mp-family-sweep", tests: family },
    ]
}

/// One pass over `tests` through a fresh one-column checker on `store`.
fn check_pass(model: &Lkmm, store: VerdictStore, tests: &[Test]) -> ColumnReport {
    let column = MultiColumn { model, salt: "bench".into() };
    let mut checker = MultiBatchChecker::new(vec![column], store);
    let report = checker.check_corpus(tests, &[vec![true; tests.len()]]).expect("corpus checks");
    report.columns.into_iter().next().expect("one column")
}

fn results(col: &ColumnReport) -> Vec<TestResult> {
    col.outcomes
        .iter()
        .map(|cell| {
            let cell = cell.as_ref().expect("every cell enabled");
            cell.outcome.result().expect("unbudgeted check completes").clone()
        })
        .collect()
}

/// One timed pass over `tests` through a fresh checker on `store`.
fn run_store_pass(
    store: VerdictStore,
    tests: &[Test],
) -> (f64, usize, usize, usize, Vec<TestResult>) {
    let model = Lkmm::new();
    let start = Instant::now();
    let col = check_pass(&model, store, tests);
    let seconds = start.elapsed().as_secs_f64();
    (seconds, col.candidates_enumerated, col.hits, col.deduped, results(&col))
}

fn bench_workload(w: &Workload, iters: usize, store_path: &Path) -> Vec<Row> {
    // Baseline: no store at all (the pre-cache code path).
    let model = Lkmm::new();
    let herd_results = results(&check_pass(&model, VerdictStore::in_memory(), &w.tests));
    let start = Instant::now();
    for _ in 0..iters {
        // A throwaway in-memory store per iteration: every test is a miss,
        // so this measures canonicalize + hash + check with no replay.
        let report = check_pass(&model, VerdictStore::in_memory(), &w.tests);
        assert_eq!(report.hits, 0);
        std::hint::black_box(report);
    }
    let uncached_seconds = start.elapsed().as_secs_f64() / iters as f64;
    let enumerated: usize = herd_results.iter().map(|r| r.candidates).sum();
    let row = |config: &str, seconds: f64, enumerated: usize, hits: usize, deduped: usize| -> Row {
        vec![
            ("workload", w.name.into()),
            ("config", config.into()),
            ("seconds", Val::Fixed(seconds, 6)),
            ("tests", w.tests.len().into()),
            ("tests_per_sec", Val::Fixed(w.tests.len() as f64 / seconds, 1)),
            ("candidates_enumerated", enumerated.into()),
            ("hits", hits.into()),
            ("deduped", deduped.into()),
            ("speedup_vs_uncached", Val::Fixed(uncached_seconds / seconds, 3)),
        ]
    };
    let mut out = vec![row("uncached", uncached_seconds, enumerated, 0, 0)];

    // Cold: fresh on-disk store each iteration (write-path overhead).
    let mut cold_seconds = 0.0;
    let mut cold_results = Vec::new();
    for i in 0..iters {
        let _ = std::fs::remove_file(store_path);
        let store = VerdictStore::open(store_path).expect("store opens");
        let (s, _, hits, _, results) = run_store_pass(store, &w.tests);
        assert_eq!(hits, 0, "{}: cold pass hit a fresh store", w.name);
        cold_seconds += s;
        if i == 0 {
            cold_results = results;
        }
    }
    assert_eq!(cold_results, herd_results, "{}: store changed results", w.name);
    out.push(row("cold", cold_seconds / iters as f64, enumerated, 0, 0));

    // Warm: reopen the populated store each iteration (pure replay).
    let mut warm_seconds = 0.0;
    let mut warm_hits = 0;
    let mut warm_deduped = 0;
    for _ in 0..iters {
        let store = VerdictStore::open(store_path).expect("store reopens");
        let (s, enumerated, hits, deduped, results) = run_store_pass(store, &w.tests);
        assert_eq!(enumerated, 0, "{}: warm pass enumerated candidates", w.name);
        assert_eq!(results, herd_results, "{}: warm results differ", w.name);
        warm_seconds += s;
        warm_hits = hits;
        warm_deduped = deduped;
    }
    let _ = std::fs::remove_file(store_path);
    out.push(row("warm", warm_seconds / iters as f64, 0, warm_hits, warm_deduped));
    out
}

fn main() {
    let mut iters = 5;
    lkmm_bench::flags(&mut [Flag::count("--iters", &mut iters, "timed repetitions per config")]);

    let store_path: PathBuf =
        std::env::temp_dir().join(format!("lkmm-bench-cache-{}.bin", std::process::id()));

    Report {
        bench: "verdict-cache",
        params: vec![("model", "LKMM".into()), ("iters", iters.into())],
        rows: workloads().iter().flat_map(|w| bench_workload(w, iters, &store_path)).collect(),
    }
    .finish("BENCH_CACHE.json");
}
