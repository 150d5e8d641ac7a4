//! The `serve-mixed` workload: `serve_tcp` with two workers over one
//! on-disk shard, checking with the native LKMM, driven by one closed
//! loop of two connections (each waits for its reply before sending the
//! next request, as callers waiting for verdicts do).
//!
//! The requests are distinct tests drawn, by seed and without repeats,
//! from the cycle-length-6 tests. Each round starts a server on an empty
//! store and sends every request once (the cold pass: every request
//! misses, so it is checked and appended), then sends them again against
//! the populated store (the replays: every request hits), and finally
//! restarts servers on the populated store (the set-up samples). The
//! workload measures only the two ends; how often real callers repeat a
//! test is not known, so no guessed mix of the two is timed.
//!
//! The store is not durable, as `herd-rs serve` runs it unless given
//! `--durable`: an fsync per append would put the latency of the host's
//! shared virtual disk, which varies about twofold from minute to
//! minute, on the critical path of every timed request.

use crate::gauge::{Gauge, Mark};
use crate::trace::{self, Layers, Tracer};
use crate::{end_to_end, median, percentile, Outcome, RunSpec, Scale, JOBS};
use lkmm::Lkmm;
use lkmm_exec::{check_test, ConsistencyModel, EnumOptions, TestResult, Verdict};
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use lkmm_litmus::ast::Test;
use lkmm_server::{serve_tcp, ServerConfig, ServerSummary};
use lkmm_service::json::Json;
use lkmm_service::{cache_key_of_text, canonical_text, ShardedStore};
use lkmm_sim::rng::SplitMix64;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Cache salt shared by the server and the decomposed replay.
const SALT: &str = "benchmark";
/// Client connections, all driven by this one process.
const CONNECTIONS: usize = 2;
/// Distinct tests per pass. Every pass of a run sends the same seeded
/// requests, so the passes are identical work and their median stands
/// for all of them.
const REQUESTS: usize = 10_000;
const SMOKE_REQUESTS: usize = 200;
/// Rounds every run makes, however long they take; more follow until
/// the passes have taken `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Server restarts timed at the end of each round.
const STARTUPS_PER_ROUND: usize = 10;
/// Replays after each round's cold pass. A replay's speed depends on
/// where the scheduler puts the client and server threads, so several
/// are needed for their median to be representative.
const REPLAYS_PER_ROUND: usize = 3;
const STATS: &str = r#"{"op":"stats"}"#;

/// Run the server workload.
///
/// # Errors
///
/// Generator failures, store I/O, and a server that does not start or
/// answer.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let plan = Plan::new(spec.seed, spec.scale)?;
    let mut out = Outcome::default();
    let (expected, mut verify_s) = reference(&plan);
    out.check(expected.iter().all(Option::is_some), || {
        "reference check_test failed".into()
    });
    if spec.trace {
        let layers = traced(spec, &plan, &expected, &mut out)?;
        out.metrics = layers.metrics();
        return Ok(out);
    }
    // A round gives a fresh server (empty store) the cold pass and
    // replays of it, then times restarts on the store it filled. Rounds
    // repeat so each kind of sample spans the run.
    let gauge = Gauge::start()?;
    let (mut setup, mut cold, mut replay, mut latencies) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let measured = |passes: &[&Vec<(Mark, Mark)>]| -> f64 {
        passes
            .iter()
            .flat_map(|p| p.iter())
            .map(|(f, t)| t.since(f))
            .sum()
    };
    while cold.len() < MIN_ROUNDS || measured(&[&cold, &replay]) < spec.seconds {
        let round = cold.len();
        let store = spec.work_dir.join(format!("serve-{round}.store"));
        let server = Server::start(store.clone())?;
        let ((c, replays), stats, summary) = server.session(|addr| {
            let c = drive(addr, &plan)?;
            if round == 0 {
                // Memory the server and its client need for one pass;
                // later rounds only add allocator fragmentation.
                peak_rss_mb = trace::peak_rss_mb()?;
            }
            let replays = (0..REPLAYS_PER_ROUND)
                .map(|_| drive(addr, &plan))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((c, replays))
        })?;
        verify_s += verify(&plan, &expected, &c, &replays, &stats, &summary, &mut out);
        latencies.extend(c.latencies_ms());
        cold.push(c.interval());
        replay.extend(replays.iter().map(Drive::interval));
        for _ in 0..STARTUPS_PER_ROUND {
            let (interval, stats) = startup(&store)?;
            check_entries(&plan, &stats, &mut out);
            setup.push(interval);
        }
    }

    let n = plan.lines.len() as f64;
    out.notes.push(format!("{n} distinct requests"));
    out.notes.push(format!(
        "cold-pass latency p50 {:.4} ms, p99 {:.4} ms over {} samples; verify_s {verify_s:.3}",
        median(&latencies),
        percentile(&latencies, 0.99),
        latencies.len()
    ));
    end_to_end(&mut out, &gauge, n, [&setup, &cold, &replay], peak_rss_mb)?;
    Ok(out)
}

/// The requests: distinct tests, each with its `check` request line,
/// sent in this order.
struct Plan {
    tests: Vec<Test>,
    /// Newline-terminated `check` request per test.
    lines: Vec<String>,
}

impl Plan {
    fn new(seed: u64, scale: Scale) -> Result<Plan, String> {
        let (cycle_len, requests) = match scale {
            Scale::Full => (6, REQUESTS),
            Scale::Smoke => (4, SMOKE_REQUESTS),
        };
        let mut cycles = cycles_up_to(cycle_len, &default_alphabet());
        let n = requests.min(cycles.len());
        // A partial Fisher–Yates shuffle: the first `n` cycles become a
        // uniform seeded draw without repeats.
        let mut rng = SplitMix64::seed_from_u64(seed);
        for i in 0..n {
            let j = i + rng.gen_index(cycles.len() - i);
            cycles.swap(i, j);
        }
        let mut plan = Plan {
            tests: Vec::with_capacity(n),
            lines: Vec::with_capacity(n),
        };
        for cycle in &cycles[..n] {
            let test = generate(cycle).map_err(|e| format!("generator: {e}"))?;
            let request = Json::obj(vec![
                ("op", Json::str("check")),
                ("source", Json::str(test.to_litmus_string())),
            ]);
            plan.lines.push(format!("{request}\n"));
            plan.tests.push(test);
        }
        Ok(plan)
    }
}

/// A `serve_tcp` session on a loopback port, opening its store inside
/// the server thread as `herd-rs serve --listen` does at start-up.
struct Server {
    addr: SocketAddr,
    handle: JoinHandle<Result<ServerSummary, String>>,
}

impl Server {
    fn start(base: PathBuf) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let handle = thread::spawn(move || {
            let store = ShardedStore::open(&base, 1)
                .map_err(|e| format!("open {}: {e}", base.display()))?;
            let config = ServerConfig {
                workers: JOBS,
                ..ServerConfig::default()
            };
            serve_tcp(
                listener,
                &|| Box::new(Lkmm::new()),
                SALT,
                Arc::new(store),
                &config,
            )
            .map_err(|e| format!("server: {e}"))
        });
        Ok(Server { addr, handle })
    }

    /// One request on its own connection; the reply line.
    fn request(&self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("request {line}: {e}");
        let mut stream = TcpStream::connect(self.addr).map_err(io)?;
        writeln!(stream, "{line}").map_err(io)?;
        stream.shutdown(Shutdown::Write).map_err(io)?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).map_err(io)?;
        Ok(reply)
    }

    /// Drive `traffic` once the server answers, then read its final
    /// stats and shut it down, also when `traffic` fails.
    fn session<T>(
        self,
        traffic: impl FnOnce(SocketAddr) -> Result<T, String>,
    ) -> Result<(T, String, ServerSummary), String> {
        let result = self.request(STATS).and_then(|_| traffic(self.addr));
        let stats = self.request(STATS);
        let summary = self.stop();
        Ok((result?, stats?, summary?))
    }

    /// Shut the server down and wait for it.
    fn stop(self) -> Result<ServerSummary, String> {
        let asked = self.request(r#"{"op":"shutdown"}"#);
        let summary = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        asked.map(|_| summary)
    }
}

/// From spawning a server on the store at `base` (opening and
/// recovering it) to its first answered `{"op":"stats"}`; and that reply.
fn startup(base: &Path) -> Result<((Mark, Mark), String), String> {
    let from = Mark::now();
    let server = Server::start(base.to_path_buf())?;
    let stats = server.request(STATS);
    let to = Mark::now();
    server.stop()?;
    let stats = stats?;
    if !stats.contains("\"ok\":true") {
        return Err(format!("stats request failed: {stats}"));
    }
    Ok(((from, to), stats))
}

/// The allocating `check_test` verdict of every distinct test (`None`
/// where it failed), and the seconds computing them took.
fn reference(plan: &Plan) -> (Vec<Option<TestResult>>, f64) {
    let start = Instant::now();
    let model = Lkmm::new();
    let opts = EnumOptions::default();
    let expected = plan
        .tests
        .iter()
        .map(|t| check_test(&model, t, &opts).ok())
        .collect();
    (expected, start.elapsed().as_secs_f64())
}

/// One parsed reply.
struct Answer {
    result: TestResult,
    /// Cache provenance: `hit` or `computed`.
    cache: String,
    /// The server's own time for the check.
    micros: u64,
}

struct Reply {
    latency_s: f64,
    answer: Result<Answer, String>,
}

/// One closed-loop pass over the request sequence.
struct Drive {
    /// Before the first connection opens and after the last closes.
    from: Mark,
    to: Mark,
    /// One slot per request; `None` where the connection dropped first.
    replies: Vec<Option<Reply>>,
}

impl Drive {
    fn interval(&self) -> (Mark, Mark) {
        (self.from, self.to)
    }

    fn seconds(&self) -> f64 {
        self.to.since(&self.from)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .flatten()
            .map(|r| r.latency_s * 1e3)
            .collect()
    }
}

/// What one connection saw: request index, latency and reply line.
type Replies = Vec<(usize, f64, String)>;

/// Send every request of `plan` over `CONNECTIONS` connections, each
/// sending its next request only once the previous reply arrived.
/// Replies are parsed after the timed window.
fn drive(addr: SocketAddr, plan: &Plan) -> Result<Drive, String> {
    let next = AtomicUsize::new(0);
    let from = Mark::now();
    let conns = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| connection(addr, plan, &next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let to = Mark::now();
    if conns.iter().all(Vec::is_empty) {
        return Err("no request was answered".to_string());
    }
    let mut replies: Vec<Option<Reply>> = (0..plan.lines.len()).map(|_| None).collect();
    for (i, latency_s, text) in conns.into_iter().flatten() {
        replies[i] = Some(Reply {
            latency_s,
            answer: parse_answer(&text),
        });
    }
    Ok(Drive { from, to, replies })
}

fn connection(addr: SocketAddr, plan: &Plan, next: &AtomicUsize) -> Result<Replies, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    let mut replies = Replies::new();
    loop {
        // The counter only hands out request indices; it publishes no
        // other data, so relaxed ordering suffices.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(line) = plan.lines.get(i) else {
            break;
        };
        let sent = Instant::now();
        let mut text = String::new();
        let answered = writer
            .write_all(line.as_bytes())
            .and_then(|()| reader.read_line(&mut text))
            .is_ok_and(|n| n > 0);
        if !answered {
            // A dropped connection leaves this and its later requests
            // unanswered; the other connection carries on.
            break;
        }
        replies.push((i, sent.elapsed().as_secs_f64(), text));
    }
    Ok(replies)
}

fn parse_answer(text: &str) -> Result<Answer, String> {
    let j = Json::parse(text.trim_end()).map_err(|e| format!("reply is not JSON ({e}): {text}"))?;
    if j.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error reply: {}", text.trim_end()));
    }
    let count = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("reply lacks `{k}`: {text}"))
    };
    let verdict = match j.get("verdict").and_then(Json::as_str) {
        Some("Allow") => Verdict::Allowed,
        Some("Forbid") => Verdict::Forbidden,
        _ => return Err(format!("reply has no verdict: {text}")),
    };
    Ok(Answer {
        result: TestResult {
            verdict,
            condition_holds: j
                .get("condition_holds")
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("reply lacks `condition_holds`: {text}"))?,
            candidates: count("candidates")? as usize,
            allowed: count("allowed")? as usize,
            witnesses: count("witnesses")? as usize,
        },
        cache: j
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        micros: count("micros")?,
    })
}

/// Check one server's replies against the reference verdicts and the
/// cache provenance (the cold pass computes every request, a replay hits
/// on every one), the store's final size and the server's rejection
/// counters; count attempted and failed requests. Returns the seconds
/// the check took.
fn verify(
    plan: &Plan,
    expected: &[Option<TestResult>],
    cold: &Drive,
    replays: &[Drive],
    stats: &str,
    summary: &ServerSummary,
    out: &mut Outcome,
) -> f64 {
    let start = Instant::now();
    let mut wrong = 0usize;
    let mut first_error = None;
    let passes = std::iter::once(("cold", "computed", cold))
        .chain(replays.iter().map(|r| ("replay", "hit", r)));
    for (pass, provenance, drive) in passes {
        for (i, reply) in drive.replies.iter().enumerate() {
            out.attempted += 1;
            let error = match reply.as_ref().map(|r| &r.answer) {
                Some(Ok(a)) if Some(&a.result) == expected[i].as_ref() && a.cache == provenance => {
                    continue
                }
                Some(Ok(a)) => {
                    wrong += 1;
                    format!(
                        "{:?} ({}), check_test gives {:?}",
                        a.result, a.cache, expected[i]
                    )
                }
                Some(Err(e)) => {
                    out.failed += 1;
                    e.clone()
                }
                None => {
                    out.failed += 1;
                    "unanswered".to_string()
                }
            };
            first_error.get_or_insert_with(|| format!("{pass} request {i}: {error}"));
        }
    }
    out.check(wrong == 0, || {
        format!("{wrong} replies disagree with check_test or their provenance")
    });
    out.check(first_error.is_none(), || {
        first_error.clone().unwrap_or_default()
    });
    check_entries(plan, stats, out);
    out.check(!stats.contains("poisoned"), || {
        format!("a store shard is poisoned: {stats}")
    });
    out.check(summary.over_quota + summary.overloaded == 0, || {
        format!(
            "{} over-quota and {} overloaded rejections",
            summary.over_quota, summary.overloaded
        )
    });
    start.elapsed().as_secs_f64()
}

/// Check that a server's `stats` reply counts one stored verdict per
/// distinct test.
fn check_entries(plan: &Plan, stats: &str, out: &mut Outcome) {
    let entries = Json::parse(stats.trim_end())
        .ok()
        .and_then(|j| j.get("entries").and_then(Json::as_u64));
    out.check(entries == Some(plan.tests.len() as u64), || {
        format!(
            "store holds {entries:?} verdicts, expected {}",
            plan.tests.len()
        )
    });
}

/// The traced run: an untraced cold pass (client latency, the server's
/// own check time) and one replay, then the decomposed replay of both
/// through the layers a `check` request crosses.
fn traced(
    spec: &RunSpec,
    plan: &Plan,
    expected: &[Option<TestResult>],
    out: &mut Outcome,
) -> Result<Layers, String> {
    let server = Server::start(spec.work_dir.join("serve.store"))?;
    let ((cold, replay, cpu_busy), stats, summary) = server.session(|addr| {
        let cpu = trace::cpu_seconds()?;
        let cold = drive(addr, plan)?;
        let replay = drive(addr, plan)?;
        let cpu_busy = (trace::cpu_seconds()? - cpu) / (cold.seconds() + replay.seconds());
        Ok((cold, replay, cpu_busy))
    })?;
    let replay_s = replay.seconds();
    verify(plan, expected, &cold, &[replay], &stats, &summary, out);

    let mut tr = Tracer::default();
    let start = Instant::now();
    decomposed(plan, &spec.work_dir.join("decomposed.store"), &mut tr)?;
    let mut layers = tr.finish(start.elapsed().as_secs_f64());
    layers.cpu_busy = cpu_busy;

    let answered: Vec<(f64, &Answer)> = cold
        .replies
        .iter()
        .flatten()
        .filter_map(|r| r.answer.as_ref().ok().map(|a| (r.latency_s * 1e3, a)))
        .collect();
    if answered.is_empty() {
        return Err("no request was answered".to_string());
    }
    let latencies: Vec<f64> = answered.iter().map(|&(l, _)| l).collect();
    let check_ms: Vec<f64> = answered
        .iter()
        .map(|(_, a)| a.micros as f64 / 1e3)
        .collect();
    let outside_ms: Vec<f64> = answered
        .iter()
        .map(|(l, a)| l - a.micros as f64 / 1e3)
        .collect();
    layers.serve_p50_ms = median(&latencies);
    layers.serve_p99_ms = percentile(&latencies, 0.99);
    layers.serve_samples = latencies.len() as u64;
    layers.server_check_p50_ms = median(&check_ms);
    layers.server_check_p99_ms = percentile(&check_ms, 0.99);
    layers.server_outside_check_p50_ms = median(&outside_ms);
    out.check(layers.coverage() >= 0.9, || {
        format!("trace coverage {:.3} < 0.9", layers.coverage())
    });
    out.notes.push(format!(
        "cold {:.3} s, replay {:.3} s; decomposed {:.3} s, coverage {:.3}; \
         cold p50 {:.4} ms, {:.4} ms of it outside the check",
        cold.seconds(),
        replay_s,
        layers.wall_s,
        layers.coverage(),
        layers.serve_p50_ms,
        layers.server_outside_check_p50_ms
    ));
    Ok(layers)
}

/// Replay the requests in order, twice (cold, then every one a hit),
/// through the layers one `check` request crosses in a worker: request
/// JSON, litmus parser, canonical key, store, checker, response
/// JSON. Framing, admission and TCP have no public entry point; they are
/// the latency outside the server's own check time.
fn decomposed(plan: &Plan, base: &Path, tr: &mut Tracer) -> Result<(), String> {
    let mut t = tr.now();
    let store = ShardedStore::open(base, 1).map_err(|e| format!("open {}: {e}", base.display()))?;
    tr.layers.store_open_s += tr.lap(&mut t);
    let model = Lkmm::new();
    tr.layers.check_s += tr.lap(&mut t);
    let opts = EnumOptions::default();
    let salt = format!("{SALT}|{opts:?}");
    for line in plan.lines.iter().chain(&plan.lines) {
        let mut t = tr.now();
        let request = Json::parse(line.trim_end()).map_err(|e| format!("request: {e}"))?;
        tr.layers.json_parse_s += tr.lap(&mut t);
        let source = request
            .get("source")
            .and_then(Json::as_str)
            .ok_or("request without a source")?;
        let test = lkmm_litmus::parse(source).map_err(|e| format!("parse: {e}"))?;
        drop(request);
        tr.layers.litmus_parse_s += tr.lap(&mut t);
        let key = cache_key_of_text(&canonical_text(&test), model.name(), &salt);
        tr.layers.canon_s += tr.lap(&mut t);
        tr.layers.keys += 1;
        let hit = store.get(key);
        tr.layers.store_get_s += tr.lap(&mut t);
        tr.layers.store_lookups += 1;
        let (result, cache) = match hit {
            Some(result) => {
                tr.layers.store_hits += 1;
                (result, "hit")
            }
            None => {
                let result =
                    check_test(&model, &test, &opts).map_err(|e| format!("check: {e:?}"))?;
                tr.layers.check_s += tr.lap(&mut t);
                tr.layers.checks += 1;
                let wrote = store
                    .put(key, result.clone())
                    .map_err(|e| format!("store append: {e}"))?;
                tr.layers.store_put_s += tr.lap(&mut t);
                tr.layers.store_appends += u64::from(wrote);
                (result, "computed")
            }
        };
        let response = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("check")),
            ("name", Json::str(&test.name)),
            ("key", Json::str(format!("{key:032x}"))),
            ("verdict", Json::str(result.verdict.to_string())),
            ("condition_holds", Json::Bool(result.condition_holds)),
            ("candidates", Json::num(result.candidates as u64)),
            ("allowed", Json::num(result.allowed as u64)),
            ("witnesses", Json::num(result.witnesses as u64)),
            ("cache", Json::str(cache)),
        ]);
        black_box(response.to_string());
        drop((response, test));
        tr.layers.json_render_s += tr.lap(&mut t);
    }
    let mut t = tr.now();
    drop(store);
    tr.layers.store_open_s += tr.lap(&mut t);
    Ok(())
}
