//! Budget-governance overhead micro-bench.
//!
//! Dependency-free (no criterion): times three configurations of the
//! same checking work over the pipeline-sweep workloads —
//!
//! * `ungoverned`   — `check` read through its strict `into_result` view
//!   with the default (unlimited) budget: the pre-governance fast path;
//! * `passive`      — `check`'s governed outcome with the default budget:
//!   the meter exists but every poll is a no-op branch;
//! * `metered`      — `check`'s governed outcome under a generous explicit
//!   budget on every axis: strided fuel countdowns and deadline polls are
//!   live but never trip.
//!
//! Verdicts are asserted identical across all three while timing, then
//! `BENCH_BUDGET.json` is written in the working directory with the
//! overhead of each governed configuration relative to `ungoverned`. The
//! acceptance bar for this repo is `metered` overhead ≤ 3 %.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin budget [-- --iters N]
//! ```

use lkmm::Lkmm;
use lkmm_exec::enumerate::EnumOptions;
use lkmm_exec::{check, effective_jobs, Budget, CheckOutcome, PipelineOptions, TestResult};
use lkmm_litmus::ast::Test;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

enum BenchModel {
    NativeLkmm,
    CatLkmm,
}

struct Workload {
    name: &'static str,
    model: BenchModel,
    tests: Vec<Test>,
}

/// Same shape as the sweep bench's stress workload: wide rf/co space,
/// cheap enumeration, expensive interpreted evaluation.
fn stress_test(threads: usize, reads: usize) -> Test {
    let mut src = format!("C stress-{threads}w{reads}r\n{{ x=0; }}\n");
    for i in 0..threads {
        let mut decls = String::new();
        let mut body = format!("WRITE_ONCE(*x, {}); ", i + 1);
        for r in 0..reads {
            decls.push_str(&format!("int r{r}; "));
            body.push_str(&format!("r{r} = READ_ONCE(*x); "));
        }
        src.push_str(&format!("P{i}(int *x) {{ {decls}{body}}}\n"));
    }
    src.push_str("exists (0:r0=1)\n");
    lkmm_litmus::parse(&src).expect("stress test parses")
}

fn workloads() -> Vec<Workload> {
    let library: Vec<Test> =
        lkmm_litmus::library::all().iter().map(lkmm_litmus::library::PaperTest::test).collect();
    vec![
        Workload { name: "table5-library", model: BenchModel::NativeLkmm, tests: library },
        Workload {
            name: "stress-cat",
            model: BenchModel::CatLkmm,
            tests: vec![stress_test(3, 1), stress_test(3, 2), stress_test(2, 2)],
        },
    ]
}

/// A budget that polls on every axis but can never trip on this workload.
fn generous() -> Budget {
    Budget::default()
        .with_max_candidates(1_000_000_000)
        .with_max_eval_steps(1_000_000_000_000)
        .with_time_limit(Duration::from_secs(24 * 3600))
}

enum Config {
    Ungoverned,
    Passive,
    Metered,
}

fn run_config(
    model: &BenchModel,
    tests: &[Test],
    pipe: &PipelineOptions,
    config: &Config,
    iters: usize,
) -> (f64, usize, Vec<TestResult>) {
    let native;
    let cat;
    let model: &dyn lkmm_exec::ConsistencyModel = match model {
        BenchModel::NativeLkmm => {
            native = Lkmm::new();
            &native
        }
        BenchModel::CatLkmm => {
            cat = lkmm_cat::linux_kernel_model();
            &cat
        }
    };
    let opts = match config {
        Config::Ungoverned | Config::Passive => EnumOptions::default(),
        Config::Metered => EnumOptions { budget: generous(), ..EnumOptions::default() },
    };
    let check = |t: &Test| -> TestResult {
        match config {
            Config::Ungoverned => {
                check(&[model], t, &opts, pipe).into_result().expect("enumeration").remove(0)
            }
            Config::Passive | Config::Metered => {
                match check(&[model], t, &opts, pipe).into_first() {
                    CheckOutcome::Complete(r) => r,
                    CheckOutcome::Inconclusive { reason, .. } => {
                        panic!("generous budget went inconclusive: {reason}")
                    }
                }
            }
        }
    };
    // Warm-up pass (also captures the reference results).
    let results: Vec<TestResult> = tests.iter().map(check).collect();
    let candidates: usize = results.iter().map(|r| r.candidates).sum();
    let start = Instant::now();
    for _ in 0..iters {
        for t in tests {
            std::hint::black_box(check(t));
        }
    }
    let seconds = start.elapsed().as_secs_f64() / iters as f64;
    (seconds, candidates, results)
}

fn main() {
    let mut iters = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            "--help" | "-h" => {
                println!("usage: budget [--iters N]   (timed repetitions per config, default 5)");
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let pipe = PipelineOptions { jobs: 1, ..Default::default() };
    let configs: [(&str, Config); 3] = [
        ("ungoverned", Config::Ungoverned),
        ("passive", Config::Passive),
        ("metered", Config::Metered),
    ];

    println!("{:18} {:12} {:>10} {:>14} {:>10}", "workload", "config", "secs", "cands/sec", "overhead");
    let mut json_entries = String::new();
    for w in workloads() {
        // Alternate configs across rounds and keep each config's best
        // time: scheduler noise inflates individual rounds but never
        // deflates one, so minima compare the configs' true costs.
        const ROUNDS: usize = 5;
        let mut best: Vec<(f64, usize, Vec<TestResult>)> = Vec::new();
        for round in 0..ROUNDS {
            for (i, (_, config)) in configs.iter().enumerate() {
                let m = run_config(&w.model, &w.tests, &pipe, config, iters);
                if round == 0 {
                    best.push(m);
                } else if m.0 < best[i].0 {
                    best[i] = m;
                }
            }
        }
        let mut baseline_seconds = 0.0;
        let mut baseline_results: Vec<TestResult> = Vec::new();
        for ((name, config), (seconds, candidates, results)) in configs.iter().zip(best) {
            if matches!(config, Config::Ungoverned) {
                baseline_seconds = seconds;
                baseline_results = results;
            } else {
                assert_eq!(
                    results, baseline_results,
                    "{}: {name} results differ from ungoverned",
                    w.name
                );
            }
            let overhead_percent = (seconds / baseline_seconds - 1.0) * 100.0;
            let throughput = candidates as f64 / seconds;
            println!(
                "{:18} {:12} {:>10.4} {:>14.0} {:>9.2}%",
                w.name, name, seconds, throughput, overhead_percent
            );
            if !json_entries.is_empty() {
                json_entries.push_str(",\n");
            }
            write!(
                json_entries,
                "    {{\"workload\": \"{}\", \"config\": \"{name}\", \
                 \"seconds\": {seconds:.6}, \"candidates\": {candidates}, \
                 \"candidates_per_sec\": {throughput:.1}, \
                 \"overhead_percent\": {overhead_percent:.2}}}",
                w.name
            )
            .expect("write to string");
        }
    }

    let hw = effective_jobs(0);
    let json = format!(
        "{{\n  \"bench\": \"budget-overhead\",\n  \"model\": \"LKMM\",\n  \
         \"hardware_threads\": {hw},\n  \"iters\": {iters},\n  \
         \"acceptance\": \"metered overhead_percent <= 3.0 on each workload\",\n  \
         \"measurements\": [\n{json_entries}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_BUDGET.json", &json).expect("write BENCH_BUDGET.json");
    println!("\nwrote BENCH_BUDGET.json");
}
