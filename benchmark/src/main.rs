//! One benchmark for the LKMM reproduction's two user-facing surfaces:
//! differential conformance campaigns and the TCP verdict server.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload W --seed S [--seconds N] [--trace [0|1]]
//! ```
//!
//! Each invocation runs one workload in its own process, checks the
//! program's outputs, and prints one JSON object as its last line:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Workloads (load sized for two hardware threads: campaigns use two
//! pipeline jobs, the server two workers, the client two connections).
//! Cold passes start from a fresh on-disk store, warm passes reopen it.
//! Each workload makes its minimum number of passes and then repeats
//! them until the passes have taken `--seconds`. The kinds alternate so
//! each spans the run, and the median pass of each kind is reported.
//! Set-up is timed many times per run and its median reported. Every
//! time is scaled by a per-core speed gauge (`src/gauge.rs`) to what it
//! would have been on cores at full speed that the host never takes
//! away: other tenants of the host slow this process's cores by up to
//! about 1.4× and take them away for up to a third of the time, in
//! phases that can outlast a run.
//!
//! * `campaign-l6` — every diy cycle up to length 6 plus the paper
//!   library (63 473 tests, about 4 candidates each) through all seven
//!   checkers: one cold pass, at least two warm. Per-test costs
//!   dominate: canonicalisation and keys, store appends, oracles.
//! * `campaign-contended` — cycles up to length 5 with their contended
//!   twins (7 211 tests, about 72 candidates per twin): one cold pass,
//!   at least ten warm. Model evaluation dominates; a per-candidate
//!   change shows here, a per-test one should not.
//! * `campaign-sim` — cycles up to length 4 with the simulator soundness
//!   pass at the CLI defaults (200 iterations, stride 1, seeded from
//!   `--seed`): at least three cold and three warm passes. Simulator
//!   runs are never cached, so they dominate both kinds; no other
//!   workload runs them.
//! * `serve-mixed` — `serve_tcp` with two workers over one on-disk
//!   shard, driven by a closed loop of `check` requests for 10 000
//!   distinct tests drawn by seed from the cycle-length-6 tests. Each of
//!   at least three rounds starts a server on an empty store and sends
//!   every request once (all misses: check, append), then replays them
//!   three times against the populated store (all hits), then times ten
//!   restarts on that store. Only the two ends are timed: no mix of the
//!   two is known to be typical.
//!
//! End-to-end metrics (tracing off), printed for every workload:
//! `setup_s` (median corpus-stream build, or median server start to
//! first `stats` reply), `cold_tests_per_s` (tests or requests answered
//! per second starting from an empty store), `warm_tests_per_s` (the
//! same inputs again once their verdicts are stored) and `peak_rss_mb`
//! (`VmHWM` after the first cold pass). The same metrics from unscaled
//! wall-clock medians are printed on a `# wall clock:` line.
//!
//! `--trace 1` instead runs the untraced passes once more and then a
//! decomposed pass that replays the same inputs through each layer's
//! public functions, timing every call from here; it prints the
//! per-layer table (`<crate>.<call>.<stat>`) with `trace.coverage`, the
//! share of the decomposed wall clock the layers account for, and the
//! residuals `campaign.driver_overhead_s` and
//! `server.outside_check_ms.p50`.
//!
//! Output checks run on every pass and a failed one makes the run exit
//! with status 1: campaign reports must be clean (native ≡ cat, the
//! envelope, the library expectations), match their pinned digest, and
//! warm reports must equal the cold one byte for byte; every server
//! reply must equal the allocating `check_test` reference.

use lkmm_benchmark::{run, RunSpec, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload W --seed S [--seconds N] [--trace [0|1]]\n\
                     workloads: campaign-l6, campaign-contended, campaign-sim, serve-mixed";

fn parse_args() -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(RunSpec {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir,
    })
}

fn main() -> ExitCode {
    let spec = match parse_args() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark {} failed: {e}", spec.workload.name());
            return ExitCode::from(3);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.check_failures {
        eprintln!("output check failed: {failure}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
