//! The end-to-end benchmark as a library, so the binary and the smoke
//! test run the same code. See `src/main.rs` for what is measured and
//! why; [`run`] is the single entry point.

mod campaign;
mod gauge;
mod serve;
mod trace;

use gauge::{Gauge, Mark, Timings};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Pipeline worker threads per campaign check and server workers: the
/// load is sized for a host with two hardware threads.
const JOBS: usize = 2;

/// The benchmark's workloads. Their names are fixed: later changes and
/// `BENCHMARK.json` refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold then warm cycle-length-6 campaign on an on-disk store.
    CampaignL6,
    /// Cold then warm cycle-length-5 campaign with contended twins.
    CampaignContended,
    /// Cycle-length-4 campaign with the simulator soundness pass on.
    CampaignSim,
    /// Closed-loop `check` traffic against the TCP verdict server.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CampaignL6,
        Workload::CampaignContended,
        Workload::CampaignSim,
        Workload::ServeMixed,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignL6 => "campaign-l6",
            Workload::CampaignContended => "campaign-contended",
            Workload::CampaignSim => "campaign-sim",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is the benchmark proper; `Smoke` runs every code
/// path of a workload at toy size (campaigns at cycle length 4, 200
/// server requests) so the test suite keeps the benchmark working.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One benchmark run.
#[derive(Debug)]
pub struct RunSpec {
    pub workload: Workload,
    /// Seed for the generated inputs (server traffic, simulator runs).
    pub seed: u64,
    /// Minimum measured time; each workload also has a minimum amount
    /// of work it always does.
    pub seconds: f64,
    /// Run the decomposed per-layer pass and report per-layer metrics
    /// instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for stores; created and removed by [`run`].
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: matrix cells for campaigns, requests for
    /// the server.
    pub attempted: u64,
    /// Attempted operations that failed: inconclusive cells and
    /// quarantined units, or error, rejected and unanswered requests.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold; empty when every check passed.
    pub check_failures: Vec<String>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Record an output check; `what` describes the failure.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Run one workload. `Err` means the benchmark could not run at all
/// (I/O, a server that would not start); wrong outputs are reported in
/// [`Outcome::check_failures`] instead.
///
/// # Errors
///
/// Work-directory or store I/O failures, and servers that fail to start.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    std::fs::create_dir_all(&spec.work_dir)
        .map_err(|e| format!("create {}: {e}", spec.work_dir.display()))?;
    let result = match campaign::CampaignSpec::of(spec.workload, spec.scale) {
        Some(c) => campaign::run(spec, &c),
        None => serve::run(spec),
    };
    let _ = std::fs::remove_dir_all(&spec.work_dir);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = spec.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut out = result?;
    for m in &out.metrics {
        out.check_failures.extend(
            (!m.value.is_finite()).then(|| format!("metric {} is not a finite number", m.name)),
        );
    }
    Ok(out)
}

/// Set `out`'s end-to-end metrics from a workload's timed set-ups and
/// cold and warm passes over `items` tests or requests: medians of the
/// times scaled by `gauge` to whole cores at full speed. A note gives the same
/// metrics from wall-clock medians, for comparison.
///
/// # Errors
///
/// No gauge sample near one of the intervals.
fn end_to_end(
    out: &mut Outcome,
    gauge: &Gauge,
    items: f64,
    [setup, cold, warm]: [&[(Mark, Mark)]; 3],
    peak_rss_mb: f64,
) -> Result<(), String> {
    let setup = gauge.timings(setup)?;
    let cold = gauge.timings(cold)?;
    let warm = gauge.timings(warm)?;
    let metrics = |time: fn(&Timings) -> f64| {
        [
            ("setup_s", time(&setup)),
            ("cold_tests_per_s", items / time(&cold)),
            ("warm_tests_per_s", items / time(&warm)),
        ]
    };
    out.notes.push(format!("set-up {setup}"));
    out.notes.push(format!("cold passes {cold}"));
    out.notes.push(format!("warm passes {warm}"));
    out.notes.push(gauge.to_string());
    out.notes.push(format!(
        "wall clock: {}",
        metrics(|t| median(&t.wall_s))
            .map(|(name, v)| format!("{name}={v}"))
            .join(" ")
    ));
    out.metrics = metrics(|t| median(&t.nominal_s))
        .into_iter()
        .map(|(name, v)| Metric::new(name, v, if name == "setup_s" { "s" } else { "1/s" }))
        .chain([Metric::new("peak_rss_mb", peak_rss_mb, "MB")])
        .collect();
    Ok(())
}

/// Median of `xs` (the mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty slice.
fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
