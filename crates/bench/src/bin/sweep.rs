//! Sequential-vs-parallel throughput micro-bench for the check pipeline.
//!
//! Dependency-free (no criterion): times `check_test` against the check
//! engine (`check`) at several job counts over three workloads —
//! the paper's Table 5 litmus library under the native LKMM, a generated
//! MP-family sweep, and a model-eval-heavy stress workload under the
//! interpreted cat LKMM — then writes `BENCH_PIPELINE.json` in the
//! working directory and prints a summary table.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin sweep [-- --iters N] [--assert-bar X]
//! ```
//!
//! `--assert-bar X` turns the run into a perf gate: after writing the
//! JSON it fails (exit 1) if any workload's `pipeline-j2` speedup fell
//! below `X` — CI uses `--assert-bar 1.0` to pin "two workers are never
//! slower than sequential".
//!
//! Verdicts are asserted identical across all configurations while
//! timing, so a bench run doubles as a cross-check. The timing
//! methodology is built for a noisy shared host: every workload pass
//! (a few milliseconds) cycles through all configurations with a
//! rotating start, a repetition accumulates enough cycles to span
//! ~100ms per configuration, and the reported speedup is the **median
//! of paired ratios** — each repetition's per-config total divided by
//! the same repetition's sequential total. Pass-level pairing cancels
//! host drift at every timescale coarser than one pass, instead of
//! letting it systematically favour whichever config runs first or
//! last.
//!
//! Reading the numbers: a check splits its pre-executions over the
//! workers, each enumerating and evaluating its own ranges, only once it
//! has worked through a fixed inline prefix. The library and MP-family
//! tests have single-digit candidate counts and never leave that prefix,
//! so their rows compare the inline engine against the allocating
//! `check_test`; the stress workload is where a multi-core machine shows
//! the split (`stress_test(3, 2)` has 4 096 pre-executions). On a
//! single-hardware-thread host every speedup clamps to ≈1×; the JSON
//! records `hardware_threads` so results are interpretable.

use lkmm::Lkmm;
use lkmm_bench::{stress_test, Flag, Report, Val};
use lkmm_exec::enumerate::EnumOptions;
use lkmm_exec::{check, check_test, effective_jobs, PipelineOptions, TestResult};
use lkmm_litmus::ast::Test;
use std::time::Instant;

enum BenchModel {
    NativeLkmm,
    CatLkmm,
}

struct Workload {
    name: &'static str,
    model: BenchModel,
    tests: Vec<Test>,
}

fn workloads() -> Vec<Workload> {
    let library: Vec<Test> =
        lkmm_litmus::library::all().iter().map(lkmm_litmus::library::PaperTest::test).collect();
    let mp = [
        lkmm_generator::Edge::internal(
            lkmm_generator::InternalKind::Po,
            lkmm_generator::Extremity::W,
            lkmm_generator::Extremity::W,
        ),
        lkmm_generator::Edge::Rfe,
        lkmm_generator::Edge::internal(
            lkmm_generator::InternalKind::Po,
            lkmm_generator::Extremity::R,
            lkmm_generator::Extremity::R,
        ),
        lkmm_generator::Edge::Fre,
    ];
    let family = lkmm_generator::family::family_tests(&mp).expect("MP base is valid");
    vec![
        Workload { name: "table5-library", model: BenchModel::NativeLkmm, tests: library },
        Workload { name: "mp-family-sweep", model: BenchModel::NativeLkmm, tests: family },
        Workload {
            name: "stress-cat",
            model: BenchModel::CatLkmm,
            tests: vec![stress_test(3, 1), stress_test(3, 2), stress_test(2, 2)],
        },
    ]
}

/// Time `passes` back-to-back runs of the workload and report the mean
/// seconds per pass. Litmus workloads finish in single-digit
/// milliseconds, which is below the noise floor of a shared host — the
/// caller picks `passes` so one sample spans long enough to measure.
fn time_config(
    model: &dyn lkmm_exec::ConsistencyModel,
    tests: &[Test],
    opts: &EnumOptions,
    pipe: Option<&PipelineOptions>,
    passes: usize,
) -> (f64, Vec<TestResult>) {
    let mut results = Vec::new();
    let start = Instant::now();
    for _ in 0..passes {
        results = tests
            .iter()
            .map(|t| match pipe {
                None => check_test(model, t, opts).expect("enumeration"),
                Some(p) => {
                    check(&[model], t, opts, p).into_result().expect("enumeration").remove(0)
                }
            })
            .collect();
    }
    (start.elapsed().as_secs_f64() / passes as f64, results)
}

/// Seconds one timed sample should span: long enough that scheduler
/// jitter and timer granularity stop dominating sub-10ms workloads.
const SAMPLE_TARGET_SECS: f64 = 0.1;

fn main() {
    let (mut iters, mut assert_bar) = (3, None);
    lkmm_bench::flags(&mut [
        Flag::count("--iters", &mut iters, "best-of repetitions per config"),
        Flag::number("--assert-bar", &mut assert_bar, "exit 1 if any pipeline-j2 speedup < X"),
    ]);

    let opts = EnumOptions::default();
    let hw = effective_jobs(0);
    let job_counts: Vec<usize> = {
        let mut v = vec![1, 2, 4];
        if !v.contains(&hw) {
            v.push(hw);
        }
        v.retain(|&j| j <= hw.max(4));
        v
    };

    let mut rows = Vec::new();
    let mut below = Vec::new();
    for w in workloads() {
        let native;
        let cat;
        let model: &dyn lkmm_exec::ConsistencyModel = match &w.model {
            BenchModel::NativeLkmm => {
                native = Lkmm::new();
                &native
            }
            BenchModel::CatLkmm => {
                cat = lkmm_cat::linux_kernel_model();
                &cat
            }
        };
        let configs: Vec<(String, usize, Option<PipelineOptions>)> =
            std::iter::once(("sequential".to_string(), 1, None))
                .chain(job_counts.iter().map(|&jobs| {
                    let pipe = PipelineOptions { jobs, ..Default::default() };
                    (format!("pipeline-j{jobs}"), jobs, Some(pipe))
                }))
                .collect();
        // Warm-up pass per config (also captures the reference results,
        // cross-checks every configuration against sequential, and
        // sizes the per-sample pass count so each timed sample spans
        // roughly SAMPLE_TARGET_SECS).
        let (warm_secs, seq_results) = time_config(model, &w.tests, &opts, None, 1);
        let candidates: usize = seq_results.iter().map(|r| r.candidates).sum();
        for (name, _, pipe) in &configs {
            let (_, results) = time_config(model, &w.tests, &opts, pipe.as_ref(), 1);
            assert_eq!(results, seq_results, "{}: results drifted at {name}", w.name);
        }
        let passes = ((SAMPLE_TARGET_SECS / warm_secs.max(1e-9)).ceil() as usize).clamp(1, 1000);
        // Paired, pass-level interleaved repetitions: within each
        // repetition every single workload pass (a few milliseconds)
        // cycles through *all* configurations, rotating the starting
        // configuration so none systematically rides the front or back
        // of a cycle, and each configuration's speedup is the ratio
        // against the *same repetition's* sequential total — the median
        // of those paired ratios is reported. Fine-grained pairing
        // cancels host drift (a noisy-neighbour VM, thermal throttling)
        // at every timescale coarser than one pass, which best-of-N
        // cannot: best-of picks each config's luckiest window, and luck
        // differs.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
        for _ in 0..iters {
            let mut totals = vec![0.0f64; configs.len()];
            for pass in 0..passes {
                for k in 0..configs.len() {
                    let i = (k + pass) % configs.len();
                    let (s, r) = time_config(model, &w.tests, &opts, configs[i].2.as_ref(), 1);
                    std::hint::black_box(r);
                    totals[i] += s;
                }
            }
            for (sample, total) in samples.iter_mut().zip(&totals) {
                sample.push(total / passes as f64);
            }
        }
        let median = |xs: &[f64]| -> f64 {
            let mut v = xs.to_vec();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let seq_samples = samples[0].clone();
        for ((name, jobs, _), config_samples) in configs.iter().zip(&samples) {
            let ratios: Vec<f64> = seq_samples
                .iter()
                .zip(config_samples)
                .map(|(seq, s)| seq / s)
                .collect();
            let (seconds, speedup) = (median(config_samples), median(&ratios));
            if name == "pipeline-j2" && assert_bar.is_some_and(|bar| speedup < bar) {
                below.push(format!("{} ({speedup:.3}x)", w.name));
            }
            rows.push(vec![
                ("workload", w.name.into()),
                ("config", name.as_str().into()),
                ("jobs", (*jobs).into()),
                ("seconds", Val::Fixed(seconds, 6)),
                ("candidates", candidates.into()),
                ("candidates_per_sec", Val::Fixed(candidates as f64 / seconds, 1)),
                ("speedup_vs_sequential", Val::Fixed(speedup, 3)),
            ]);
        }
    }
    Report {
        bench: "pipeline-sweep",
        params: vec![
            ("model", "LKMM".into()),
            ("hardware_threads", hw.into()),
            ("iters", iters.into()),
        ],
        rows,
    }
    .finish("BENCH_PIPELINE.json");

    if let Some(bar) = assert_bar {
        if !below.is_empty() {
            eprintln!("sweep: pipeline-j2 speedup below the {bar} bar: {}", below.join(", "));
            std::process::exit(1);
        }
        println!("assert-bar {bar}: every pipeline-j2 row passed");
    }
}
