//! Per-layer spans for the decomposed pass, and process probes.
//!
//! The decomposed pass replays a workload's inputs through each layer's
//! public functions and times every call from here, in the benchmark's
//! own code: the program under test is not instrumented. Spans are
//! contiguous and never nested, so a layer's total is its self time and
//! the totals add up to the traced wall clock minus the benchmark's own
//! glue (`trace.coverage` says how close).

use crate::Metric;
use std::time::Instant;

/// Model columns, in the conformance matrix's order.
pub const MODEL_COLUMNS: [&str; 7] = ["lkmm", "lkmm-cat", "sc", "tso", "armv8", "power", "c11"];

/// Simulated architectures, in `lkmm_sim::Arch::ALL` order.
pub const SIM_ARCHS: [&str; 4] = ["power", "armv8", "armv7", "x86"];

/// A clock that counts its reads, so the cost of tracing can be
/// estimated as reads × the calibrated cost of one read.
#[derive(Debug, Default)]
pub struct Clock {
    reads: u64,
}

impl Clock {
    /// Start a span.
    pub fn now(&mut self) -> Instant {
        self.reads += 1;
        Instant::now()
    }

    /// Seconds since `t`; `t` moves to now, so consecutive laps tile the
    /// timeline with one clock read each.
    pub fn lap(&mut self, t: &mut Instant) -> f64 {
        let now = self.now();
        let d = now.duration_since(*t).as_secs_f64();
        *t = now;
        d
    }

    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// A clock plus the per-layer totals it feeds.
#[derive(Debug, Default)]
pub struct Tracer {
    pub clock: Clock,
    pub layers: Layers,
}

impl Tracer {
    pub fn now(&mut self) -> Instant {
        self.clock.now()
    }

    pub fn lap(&mut self, t: &mut Instant) -> f64 {
        self.clock.lap(t)
    }

    /// Close the decomposed pass: record its wall clock and the
    /// estimated cost of the clock reads it made.
    pub fn finish(mut self, wall_s: f64) -> Layers {
        self.layers.wall_s = wall_s;
        self.layers.overhead_s = self.clock.reads() as f64 * clock_read_cost();
        self.layers
    }
}

/// Seconds one `Instant::now()` costs on this host, measured over a
/// burst of reads.
pub fn clock_read_cost() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(start).as_secs_f64() / f64::from(N)
}

/// Per-layer totals for one traced run. Times are seconds of self time
/// unless the name says otherwise; counts are calls or items.
#[derive(Debug, Default)]
pub struct Layers {
    /// `open_session` plus `try_allows_with`, per model column.
    pub model_eval_s: [f64; 7],
    /// Candidates evaluated, per model column.
    pub model_evals: [u64; 7],
    /// `lkmm_exec::enumerate`.
    pub enumerate_s: f64,
    pub candidates: u64,
    /// `FactsCache::facts`, the shared facts forced once per candidate,
    /// and `satisfies_prop`.
    pub facts_s: f64,
    /// `check_test(&Lkmm::new(), …)` on server misses.
    pub check_s: f64,
    pub checks: u64,
    /// `cycles_up_to` plus `generate` / `generate_contended`.
    pub generate_s: f64,
    pub generated: u64,
    /// `lkmm_litmus::parse`, including the library's `PaperTest::test`.
    pub litmus_parse_s: f64,
    /// `canonical_text` plus every `cache_key_of_text`.
    pub canon_s: f64,
    pub keys: u64,
    pub store_open_s: f64,
    pub store_get_s: f64,
    pub store_lookups: u64,
    pub store_hits: u64,
    pub store_put_s: f64,
    pub store_appends: u64,
    pub store_flush_s: f64,
    /// `Json::parse` on each request line.
    pub json_parse_s: f64,
    /// Building and printing each response object.
    pub json_render_s: f64,
    pub server_check_p50_ms: f64,
    pub server_check_p99_ms: f64,
    pub server_outside_check_p50_ms: f64,
    pub serve_p50_ms: f64,
    pub serve_p99_ms: f64,
    pub serve_samples: u64,
    /// `check_row`.
    pub oracle_s: f64,
    /// `json_report`.
    pub report_s: f64,
    /// `lkmm_sim::run_test`, per architecture.
    pub sim_run_test_s: [f64; 4],
    pub sim_runs: [u64; 4],
    /// Untraced wall minus decomposed wall over the same passes.
    pub driver_overhead_s: f64,
    /// CPU seconds per wall second over the untraced passes.
    pub cpu_busy: f64,
    /// Wall clock of the decomposed pass.
    pub wall_s: f64,
    pub overhead_s: f64,
}

impl Layers {
    /// Sum of every layer's self time.
    pub fn covered_s(&self) -> f64 {
        self.model_eval_s.iter().sum::<f64>()
            + self.sim_run_test_s.iter().sum::<f64>()
            + self.enumerate_s
            + self.facts_s
            + self.check_s
            + self.generate_s
            + self.litmus_parse_s
            + self.canon_s
            + self.store_open_s
            + self.store_get_s
            + self.store_put_s
            + self.store_flush_s
            + self.json_parse_s
            + self.json_render_s
            + self.oracle_s
            + self.report_s
    }

    /// Share of the decomposed wall clock the layers account for.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.covered_s() / self.wall_s
        } else {
            0.0
        }
    }

    /// Every per-layer metric, always the same names in the same order
    /// (layers a workload does not exercise read 0).
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        for (c, col) in MODEL_COLUMNS.iter().enumerate() {
            m.push(Metric::new(
                format!("models.{col}.eval_s"),
                self.model_eval_s[c],
                "s",
            ));
            m.push(Metric::new(
                format!("models.{col}.evals"),
                self.model_evals[c] as f64,
                "count",
            ));
        }
        let rows: [(&str, f64, &'static str); 27] = [
            ("exec.enumerate_s", self.enumerate_s, "s"),
            ("exec.candidates", self.candidates as f64, "count"),
            ("exec.facts_s", self.facts_s, "s"),
            ("exec.check_s", self.check_s, "s"),
            ("exec.checks", self.checks as f64, "count"),
            ("generator.generate_s", self.generate_s, "s"),
            ("generator.tests", self.generated as f64, "count"),
            ("litmus.parse_s", self.litmus_parse_s, "s"),
            ("service.canon_s", self.canon_s, "s"),
            ("service.keys", self.keys as f64, "count"),
            ("service.store.open_s", self.store_open_s, "s"),
            ("service.store.get_s", self.store_get_s, "s"),
            ("service.store.lookups", self.store_lookups as f64, "count"),
            ("service.store.hits", self.store_hits as f64, "count"),
            ("service.store.put_s", self.store_put_s, "s"),
            ("service.store.appends", self.store_appends as f64, "count"),
            ("service.store.flush_s", self.store_flush_s, "s"),
            ("service.json.parse_s", self.json_parse_s, "s"),
            ("service.json.render_s", self.json_render_s, "s"),
            ("server.check_ms.p50", self.server_check_p50_ms, "ms"),
            ("server.check_ms.p99", self.server_check_p99_ms, "ms"),
            (
                "server.outside_check_ms.p50",
                self.server_outside_check_p50_ms,
                "ms",
            ),
            ("serve.p50_ms", self.serve_p50_ms, "ms"),
            ("serve.p99_ms", self.serve_p99_ms, "ms"),
            ("serve.latency_samples", self.serve_samples as f64, "count"),
            ("conformance.oracle_s", self.oracle_s, "s"),
            ("conformance.report_s", self.report_s, "s"),
        ];
        m.extend(
            rows.into_iter()
                .map(|(name, value, unit)| Metric::new(name, value, unit)),
        );
        for (a, arch) in SIM_ARCHS.iter().enumerate() {
            m.push(Metric::new(
                format!("sim.{arch}.run_test_s"),
                self.sim_run_test_s[a],
                "s",
            ));
            m.push(Metric::new(
                format!("sim.{arch}.runs"),
                self.sim_runs[a] as f64,
                "count",
            ));
        }
        let tail: [(&str, f64, &'static str); 5] = [
            ("campaign.driver_overhead_s", self.driver_overhead_s, "s"),
            ("process.cpu_busy", self.cpu_busy, "cores"),
            ("trace.wall_s", self.wall_s, "s"),
            ("trace.coverage", self.coverage(), "ratio"),
            ("trace.overhead_s", self.overhead_s, "s"),
        ];
        m.extend(
            tail.into_iter()
                .map(|(name, value, unit)| Metric::new(name, value, unit)),
        );
        m
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Errors
///
/// `/proc/self/status` unreadable or without a `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// User plus system CPU seconds this process has used.
///
/// # Errors
///
/// `/proc/self/stat` unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    // Linux reports utime and stime in USER_HZ ticks, fixed at 100.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_S),
        _ => Err("malformed /proc/self/stat".to_string()),
    }
}
