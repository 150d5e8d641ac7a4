//! A per-core speed gauge, so that timings taken on a shared host can
//! be compared across runs.
//!
//! The benchmark's host is a few virtual cores of a machine other
//! tenants also load. While a tenant runs on the hardware sibling of one
//! of this process's cores, that core runs this process's code about
//! 1.4 times slower, in phases of seconds to minutes, independently of
//! the other core; a pass run in a slow phase reads slow however often
//! it is repeated. The gauge measures those phases on each core: a
//! sampling thread moves to the next core every [`PERIOD`], runs a fixed
//! kernel written here (so no change to the program under test can
//! change it) once to warm up and once timed, and records the timed
//! run's thread CPU time, which counts only time spent on the core, not
//! time waiting for it. The core's speed is then [`NOMINAL_S`], the
//! kernel's time on a core with an idle sibling, divided by the sample.
//!
//! The host also takes the cores away outright for a share of the time
//! (steal time in `/proc/stat`: up to a third of it in bursts of tens of
//! seconds), which thread CPU time does not count and a sample therefore
//! never sees. The sampling thread reads the core's busy and stolen
//! ticks along with each sample.
//!
//! [`Gauge::speed`] gives the speed of the cores between two [`Mark`]s:
//! each core's speed times the share of the time it wanted that the host
//! gave it, averaged with the time each core wanted as weight. The wall
//! clock times that speed is the time the same work would have taken on
//! cores at speed 1 that the host never takes away.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Time between samples. Each core is sampled every `PERIOD` × cores.
const PERIOD: Duration = Duration::from_millis(10);

/// Speed is averaged over at least this much time around an interval,
/// so a short interval still sees several samples of every core.
const MIN_WINDOW: Duration = Duration::from_millis(200);

/// Thread CPU seconds one timed kernel run takes on a core of the
/// calibration host whose sibling is idle: about the 10th percentile of
/// the samples in the calibration runs (README, Calibration).
pub const NOMINAL_S: f64 = 5.0e-5;

/// Cores a `cpu_set_t` describes.
const MAX_CPUS: usize = 1024;
type CpuSet = [u64; MAX_CPUS / 64];

/// One timed kernel run, with its core's ticks so far read just after
/// it. (Fixed-size, so that sampling adds little to the memory the
/// benchmark measures.)
#[derive(Clone, Copy, Debug)]
struct Sample {
    cpu: usize,
    end: Instant,
    cpu_s: f64,
    busy: u64,
    steal: u64,
}

/// Clock ticks per core so far, indexed by core number.
#[derive(Clone, Debug, Default)]
struct Ticks {
    /// Running (user, nice, system, irq, softirq).
    busy: Vec<u64>,
    /// Wanting to run while the host ran something else.
    steal: Vec<u64>,
}

impl Ticks {
    /// Core `cpu`'s (busy, stolen) ticks; zeros for a core not listed.
    fn of(&self, cpu: usize) -> (u64, u64) {
        let get = |v: &[u64]| v.get(cpu).copied().unwrap_or(0);
        (get(&self.busy), get(&self.steal))
    }
}

/// A point in time.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    at: Instant,
}

impl Mark {
    pub fn now() -> Mark {
        Mark { at: Instant::now() }
    }

    /// Wall seconds from `earlier` to this mark.
    pub fn since(&self, earlier: &Mark) -> f64 {
        self.at.duration_since(earlier.at).as_secs_f64()
    }
}

/// A running gauge. Dropping it stops and joins the sampling thread.
pub struct Gauge {
    /// Cores sampled in turn.
    cpus: usize,
    /// Every core's ticks when the gauge started, before any [`Mark`].
    first: Ticks,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Gauge {
    /// Start sampling every core this process may run on.
    ///
    /// # Errors
    ///
    /// The process's cores, its thread CPU clock or `/proc/stat` cannot
    /// be read.
    pub fn start() -> Result<Gauge, String> {
        let cpus = allowed_cpus()?;
        thread_cpu_s()?;
        let first = ticks()?;
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let n = cpus.len();
        let handle = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            thread::spawn(move || {
                // The flag carries no data, so relaxed ordering suffices.
                for &cpu in cpus.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    thread::sleep(PERIOD);
                    if let Some(s) = sample(cpu) {
                        samples
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(s);
                    }
                }
            })
        };
        Ok(Gauge {
            cpus: n,
            first,
            samples,
            stop,
            handle: Some(handle),
        })
    }

    /// The speed of the cores from `from` to `to`: per core, its mean
    /// sampled speed times the share of the ticks it wanted (busy or
    /// stolen) that it ran, averaged with the ticks wanted as weights.
    /// Wall seconds times this are the seconds the same work would have
    /// taken on cores at speed 1 that the host never took away.
    ///
    /// # Errors
    ///
    /// No sample near the interval.
    pub fn speed(&self, from: &Mark, to: &Mark) -> Result<f64, String> {
        let wall = to.at.duration_since(from.at);
        // Widen the window around its middle to at least `MIN_WINDOW`.
        let pad = MIN_WINDOW.saturating_sub(wall) / 2;
        let lo = from.at.checked_sub(pad).unwrap_or(from.at);
        let hi = to.at + pad;
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        // Per core: (sum of speeds, samples).
        let mut per_cpu: Vec<(f64, u32)> = vec![(0.0, 0); MAX_CPUS];
        for s in samples.iter().filter(|s| s.end >= lo && s.end <= hi) {
            per_cpu[s.cpu].0 += NOMINAL_S / s.cpu_s;
            per_cpu[s.cpu].1 += 1;
        }
        // Per sampled core: (mean speed, busy ticks, stolen ticks), the
        // ticks from the core's last reading before the window to its
        // first after it.
        let mut cores: Vec<(f64, f64, f64)> = Vec::new();
        for (c, &(sum, n)) in per_cpu.iter().enumerate().filter(|(_, &(_, n))| n > 0) {
            let (b0, s0) = samples
                .iter()
                .rev()
                .find(|s| s.cpu == c && s.end <= lo)
                .map_or(self.first.of(c), |s| (s.busy, s.steal));
            let (b1, s1) = samples
                .iter()
                .find(|s| s.cpu == c && s.end >= hi)
                .map(|s| (s.busy, s.steal))
                .ok_or("no gauge sample after the interval")?;
            cores.push((
                sum / f64::from(n),
                b1.saturating_sub(b0) as f64,
                s1.saturating_sub(s0) as f64,
            ));
        }
        if cores.is_empty() {
            return Err(format!(
                "no gauge sample within {:.3} s",
                (hi - lo).as_secs_f64()
            ));
        }
        let wanted: f64 = cores.iter().map(|&(_, busy, steal)| busy + steal).sum();
        if wanted == 0.0 {
            // No core ran a tick in the window: weigh them equally.
            return Ok(cores.iter().map(|&(s, _, _)| s).sum::<f64>() / cores.len() as f64);
        }
        Ok(cores.iter().map(|&(s, busy, _)| s * busy).sum::<f64>() / wanted)
    }

    /// Wall and nominal seconds of each `(from, to)` interval, once the
    /// gauge has sampled every core past the last interval's window.
    ///
    /// # Errors
    ///
    /// No sample near one of the intervals.
    pub fn timings(&self, intervals: &[(Mark, Mark)]) -> Result<Timings, String> {
        if let Some(last) = intervals.iter().map(|(_, to)| to.at).max() {
            let settled = last + MIN_WINDOW / 2 + PERIOD * (self.cpus as u32 + 1);
            thread::sleep(settled.saturating_duration_since(Instant::now()));
        }
        let mut t = Timings::default();
        for (from, to) in intervals {
            let wall = to.since(from);
            t.wall_s.push(wall);
            t.nominal_s.push(wall * self.speed(from, to)?);
        }
        Ok(t)
    }
}

/// Repeated measurements of the same work.
#[derive(Debug, Default)]
pub struct Timings {
    pub wall_s: Vec<f64>,
    /// Wall seconds scaled to every core at speed 1 and never taken away.
    pub nominal_s: Vec<f64>,
}

impl std::fmt::Display for Timings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} × wall {:.4?} s, nominal {:.4?} s",
            self.wall_s.len(),
            self.wall_s,
            self.nominal_s
        )
    }
}

impl std::fmt::Display for Gauge {
    /// The samples so far: how many, the kernel's time, the mean speed
    /// they read, and the share of the ticks the cores wanted that the
    /// host took away.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        if samples.is_empty() {
            return write!(f, "gauge: no samples");
        }
        // Each core's ticks from the start to its last sample.
        let (mut busy, mut steal) = (0, 0);
        let mut seen = vec![false; MAX_CPUS];
        for s in samples.iter().rev() {
            if !std::mem::replace(&mut seen[s.cpu], true) {
                let (b0, s0) = self.first.of(s.cpu);
                busy += s.busy.saturating_sub(b0);
                steal += s.steal.saturating_sub(s0);
            }
        }
        let (busy, steal) = (busy as f64, steal as f64);
        let mut t: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
        t.sort_by(f64::total_cmp);
        let speed = t.iter().map(|s| NOMINAL_S / s).sum::<f64>() / t.len() as f64;
        write!(
            f,
            "gauge: {} samples on {} cores, kernel p10 {:.2} µs, median {:.2} µs, \
             mean speed {speed:.3}, stolen {:.1}%",
            t.len(),
            self.cpus,
            t[t.len() / 10] * 1e6,
            t[t.len() / 2] * 1e6,
            100.0 * steal / (busy + steal).max(1.0)
        )
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Move to `cpu`, run the kernel once to warm the core's caches and
/// predictors, then once timed on this thread's CPU clock; then read
/// the core's ticks.
fn sample(cpu: usize) -> Option<Sample> {
    let mut set: CpuSet = [0; MAX_CPUS / 64];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer for the call's
    // duration; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc != 0 {
        return None;
    }
    black_box(kernel());
    let before = thread_cpu_s().ok()?;
    black_box(kernel());
    let after = thread_cpu_s().ok()?;
    let end = Instant::now();
    let (busy, steal) = ticks().ok()?.of(cpu);
    Some(Sample {
        cpu,
        end,
        cpu_s: after - before,
        busy,
        steal,
    })
}

/// Fixed work resembling the program's: sorting a small pseudo-random
/// array (branchy, cache-resident loads), squaring a 64×64 bit matrix
/// (word-parallel bit operations, as the relation kernels do) and eight
/// independent xorshift streams (many instructions per cycle, which is
/// what a busy hardware sibling takes away). Of the kernels tried, this
/// mix tracked the campaigns' pass times most closely (README,
/// Host-speed gauge).
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u32> = (0..2048).map(|_| next() as u32).collect();
    keys.sort_unstable();
    let rows: Vec<u64> = (0..64).map(|_| next() & next()).collect();
    let mut square = [0u64; 64];
    for (i, row) in rows.iter().enumerate() {
        for (j, r) in rows.iter().enumerate() {
            if row >> j & 1 == 1 {
                square[i] |= r;
            }
        }
    }
    let mut streams = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..4000 {
        for v in &mut streams {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    square
        .iter()
        .chain(&streams)
        .fold(u64::from(keys[1024]), |a, r| a ^ r)
}

/// The cores this process may run on.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; MAX_CPUS / 64];
    // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer for the
    // call's duration; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let cpus: Vec<usize> = (0..MAX_CPUS)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err("no core to run on".to_string());
    }
    Ok(cpus)
}

/// Every core's busy and stolen ticks so far, from the `cpuN` lines of
/// `/proc/stat`.
fn ticks() -> Result<Ticks, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let mut t = Ticks::default();
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        let Some(cpu) = fields
            .next()
            .and_then(|f| f.strip_prefix("cpu"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        let n: Vec<u64> = fields.map_while(|f| f.parse().ok()).collect();
        if n.len() < 8 || cpu >= MAX_CPUS {
            return Err(format!("malformed /proc/stat line: {line}"));
        }
        if t.busy.len() <= cpu {
            t.busy.resize(cpu + 1, 0);
            t.steal.resize(cpu + 1, 0);
        }
        // user nice system idle iowait irq softirq steal …
        t.busy[cpu] = n[0] + n[1] + n[2] + n[5] + n[6];
        t.steal[cpu] = n[7];
    }
    Ok(t)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// This thread's CPU time in seconds. (`/proc/thread-self/schedstat`
/// would need no `unsafe`, but lags a running thread by up to a
/// scheduler tick, longer than one kernel run.)
fn thread_cpu_s() -> Result<f64, String> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` for the call's
    // duration, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed".to_string());
    }
    Ok(t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9)
}
