//! # lkmm-server
//!
//! Sharded multi-client verdict service: the `herd-rs serve --listen`
//! backend. Three pieces, each reusing an existing layer rather than
//! reinventing it:
//!
//! * **listener** — a `std::net` TCP accept loop (the workspace is
//!   dependency-free; no async runtime). Each connection gets a reader
//!   thread (the stdio loop's own line framing,
//!   [`lkmm_service::serve::read_request`]: byte cap, UTF-8 check; then
//!   admission) and a writer thread (responses flow back through a
//!   per-connection channel, re-sequenced so they leave in request
//!   order);
//! * **worker pool** — N workers, each owning its *own* model instance
//!   and a [`lkmm_service::ServeSession`] (a one-column checker) over a
//!   *shared* [`lkmm_service::ShardedStore`] handle, pulling requests
//!   from the fair [`admission::Admission`] queue and answering them
//!   with the stdio serve loop's own
//!   [`lkmm_service::serve::answer_isolated`] — the protocol, cache
//!   keys, and verdicts are those of `herd-rs serve` on stdin/stdout
//!   (a test replays one session through both and compares the bytes);
//! * **admission control** — per-client [`lkmm_core::quota`] quotas:
//!   a lifetime request allowance (over-quota rejections), a bounded
//!   pending queue (overload rejections), round-robin dequeue across
//!   clients, and a per-request absolute deadline armed from the quota
//!   budget at dispatch.
//!
//! ## Shutdown
//!
//! `{"op":"shutdown"}` from any client stops the accept loop (a
//! self-connection wakes it), lets admitted work drain, and closes
//! every connection. The store shards are flushed before
//! [`serve_tcp`] returns.
//!
//! ## Fault tolerance
//!
//! A connection failing mid-request costs only that connection. A
//! panic while answering is contained per-request (the worker and its
//! store handle survive). A failed `accept` (or the `server.accept`
//! faultpoint) drops that one connection attempt. A poisoned store
//! shard quarantines inside [`lkmm_service::ShardedStore`] — verdicts
//! keep flowing, appends to the sick shard are dropped and counted.

pub mod admission;

use admission::{Admission, Job};
use lkmm_core::faultpoint;
use lkmm_core::quota::{ClientQuota, QuotaMeter, RejectKind};
use lkmm_service::json::Json;
use lkmm_service::serve::{answer_isolated, read_request, Request, ServeOptions};
use lkmm_service::{ServeSession, ShardedStore};
use lkmm_exec::ConsistencyModel;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// A model constructor the worker pool can call once per worker: each
/// worker owns its model instance, so nothing in the checking path is
/// shared but the store.
pub type ModelFactory<'f> = dyn Fn() -> Box<dyn ConsistencyModel> + Sync + 'f;

/// Tuning for one [`serve_tcp`] session.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads answering requests (≥ 1).
    pub workers: usize,
    /// Pipeline jobs *per worker* for cold checks (0 = one per
    /// hardware thread; never part of cache keys).
    pub jobs: usize,
    /// Per-client allowance; `budget` is the per-request governance
    /// template, its `time_limit` armed as an absolute deadline at
    /// dispatch.
    pub quota: ClientQuota,
    /// Line-level hardening, shared with the stdio serve loop.
    pub serve: ServeOptions,
    /// Concurrent connections accepted; one past the cap is answered
    /// with a single overload line and closed.
    pub max_conns: usize,
    /// Inter-byte read timeout: a connection that keeps a request line
    /// unfinished longer than this is dropped (slowloris defense —
    /// each arriving byte resets it, so it bounds silence, not total
    /// request time).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            jobs: 1,
            quota: ClientQuota::default(),
            serve: ServeOptions::default(),
            max_conns: 64,
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Counters for one [`serve_tcp`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted and served (not counting over-cap drops).
    pub connections: usize,
    /// Request lines answered, rejections included.
    pub requests: usize,
    /// Requests rejected over-quota.
    pub over_quota: usize,
    /// Requests rejected for overload (full backlog or over-cap
    /// connections).
    pub overloaded: usize,
}

/// Shared mutable server state, all lock-free counters except the
/// connection registry.
struct Shared {
    admission: Admission,
    stop: AtomicBool,
    requests: AtomicUsize,
    over_quota: AtomicUsize,
    overloaded: AtomicUsize,
    connections: AtomicUsize,
    active_conns: AtomicUsize,
    next_client: AtomicU64,
    /// Write halves of every live connection, for shutdown.
    registry: Mutex<HashMap<u64, TcpStream>>,
}

/// Serve clients on `listener` until a `{"op":"shutdown"}` request.
///
/// Every worker builds its checker with `factory()` and `salt`, writing
/// through the shared `store` — the same salt the sequential
/// `herd-rs --store` path uses, so verdict logs are interchangeable.
///
/// # Errors
///
/// Only listener-level failures; per-connection and per-request
/// failures are contained.
pub fn serve_tcp(
    listener: TcpListener,
    factory: &ModelFactory<'_>,
    salt: &str,
    store: Arc<ShardedStore>,
    config: &ServerConfig,
) -> io::Result<ServerSummary> {
    assert!(config.workers >= 1, "the pool needs at least one worker");
    let local_addr = listener.local_addr()?;
    let shared = Shared {
        admission: Admission::new(),
        stop: AtomicBool::new(false),
        requests: AtomicUsize::new(0),
        over_quota: AtomicUsize::new(0),
        overloaded: AtomicUsize::new(0),
        connections: AtomicUsize::new(0),
        active_conns: AtomicUsize::new(0),
        next_client: AtomicU64::new(0),
        registry: Mutex::new(HashMap::new()),
    };

    thread::scope(|scope| {
        for _ in 0..config.workers {
            scope.spawn(|| worker_loop(factory, salt, store.clone(), config, &shared));
        }

        for stream in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // A failed accept (transient resource exhaustion, or a
                // connection gone before we picked it up) costs only
                // that attempt.
                Err(_) => continue,
            };
            if faultpoint::should_fail("server.accept") {
                drop(stream);
                continue;
            }
            if shared.active_conns.load(Ordering::SeqCst) >= config.max_conns {
                let _ = reject_connection(&stream);
                shared.overloaded.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                shared.registry.lock().unwrap_or_else(|e| e.into_inner()).insert(client, clone);
            }
            shared.active_conns.fetch_add(1, Ordering::SeqCst);
            shared.connections.fetch_add(1, Ordering::Relaxed);
            let shared = &shared;
            scope.spawn(move || {
                connection_loop(client, stream, config, shared, local_addr);
                shared.registry.lock().unwrap_or_else(|e| e.into_inner()).remove(&client);
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            });
        }

        // Accept loop is done (shutdown requested): unblock every
        // reader, let the backlog drain, stop the workers.
        for (_, stream) in shared.registry.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        shared.admission.close();
    });

    // Workers flush on exit, but a shard poisoned *by* that flush only
    // shows in stats; one more explicit flush keeps the final state as
    // durable as a clean stdio session's.
    store.flush();
    Ok(ServerSummary {
        connections: shared.connections.load(Ordering::Relaxed),
        requests: shared.requests.load(Ordering::Relaxed),
        over_quota: shared.over_quota.load(Ordering::Relaxed),
        overloaded: shared.overloaded.load(Ordering::Relaxed),
    })
}

/// One worker: own model, own session, shared store; pulls until the
/// admission queue closes.
fn worker_loop(
    factory: &ModelFactory<'_>,
    salt: &str,
    store: Arc<ShardedStore>,
    config: &ServerConfig,
    shared: &Shared,
) {
    let model = factory();
    let budget = config.quota.budget.clone();
    let limit = budget.time_limit.or(config.serve.request_time_limit);
    let mut session = ServeSession::new(model.as_ref(), store, salt, config.jobs, budget);
    while let Some(job) = shared.admission.next() {
        let response = answer_isolated(&mut session, &job.line, limit).to_string();
        // A dead writer (client gone) is the writer thread's problem,
        // not ours.
        let _ = job.reply.send((job.seq, response));
        shared.admission.done(job.client);
    }
    let _ = session.flush();
}

/// A typed admission rejection: an error response plus its `code`.
fn reject_line(kind: RejectKind) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(kind.to_string())),
        ("code", Json::str(kind.code())),
    ])
    .to_string()
}

/// Over-cap connections get one overload line, then the door.
fn reject_connection(stream: &TcpStream) -> io::Result<()> {
    let mut w = stream.try_clone()?;
    writeln!(w, "{}", reject_line(RejectKind::Overloaded))?;
    w.flush()?;
    stream.shutdown(Shutdown::Both)
}

/// Reader side of one connection: frame lines, enforce the byte cap and
/// quota, submit admitted work, and hand rejections straight to the
/// writer (sequence-tagged, so they interleave correctly with worker
/// responses).
fn connection_loop(
    client: u64,
    stream: TcpStream,
    config: &ServerConfig,
    shared: &Shared,
    local_addr: std::net::SocketAddr,
) {
    let _ = stream.set_read_timeout(config.idle_timeout);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = channel::<(u64, String)>();
    shared.admission.register(client, config.quota.max_pending);
    let mut quota = QuotaMeter::new(&config.quota);

    thread::scope(|scope| {
        let writer = scope.spawn(move || writer_loop(write_half, reply_rx));

        let mut input = BufReader::new(&stream);
        let mut seq = 0u64;
        let mut buf = Vec::new();
        // An error is an idle timeout, reset, or shutdown: this
        // connection is done (a half-read line dies with it — mid-request
        // disconnect costs the client its own request only).
        while let Ok(Some(request)) =
            read_request(&mut input, config.serve.max_request_bytes, &mut buf)
        {
            let line = match request {
                Request::Blank => continue,
                Request::Line(line) => line,
                Request::Rejected(response) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    let _ = reply_tx.send((seq, response.to_string()));
                    seq += 1;
                    continue;
                }
            };
            shared.requests.fetch_add(1, Ordering::Relaxed);
            if is_shutdown(line) {
                let _ = reply_tx.send((
                    seq,
                    Json::obj(vec![("ok", Json::Bool(true)), ("op", Json::str("shutdown"))])
                        .to_string(),
                ));
                shared.stop.store(true, Ordering::SeqCst);
                // The accept loop blocks in `accept`; a throwaway
                // self-connection wakes it to observe `stop`.
                let _ = TcpStream::connect(local_addr);
                break;
            }
            if let Err(kind) = quota.admit() {
                shared.over_quota.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send((seq, reject_line(kind)));
                seq += 1;
                continue;
            }
            let job = Job { client, seq, line: line.to_string(), reply: reply_tx.clone() };
            if let Err(kind) = shared.admission.submit(job) {
                shared.overloaded.fetch_add(1, Ordering::Relaxed);
                let _ = reply_tx.send((seq, reject_line(kind)));
            }
            seq += 1;
        }
        // A clean half-close means "answer what I sent": the admitted
        // backlog keeps draining after EOF. Dropping our sender lets
        // the writer exit once the last in-flight job has replied;
        // only then is the client's admission state torn down.
        drop(reply_tx);
        let _ = writer.join();
        shared.admission.unregister(client);
    });
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writer side: responses arrive tagged with their request sequence
/// number (workers and the reader interleave freely) and leave in
/// order.
fn writer_loop(stream: TcpStream, replies: Receiver<(u64, String)>) {
    let mut out = io::BufWriter::new(stream);
    let mut next = 0u64;
    let mut held: HashMap<u64, String> = HashMap::new();
    let mut dead = false;
    for (seq, line) in replies {
        held.insert(seq, line);
        while let Some(line) = held.remove(&next) {
            next += 1;
            if dead {
                continue;
            }
            // A client that disconnected mid-request stops reading
            // responses; keep draining the channel so workers never
            // block on us (they don't — the channel is unbounded — but
            // the reorder buffer must stay coherent).
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                dead = true;
            }
        }
    }
}

/// A literal shutdown request, detected in the reader so it works even
/// with every worker busy.
fn is_shutdown(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|req| req.get("op").and_then(Json::as_str).map(|op| op == "shutdown"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::model::AllowAll;
    use std::io::BufRead;
    use std::net::TcpListener;

    fn start(
        config: ServerConfig,
        shards: usize,
    ) -> (std::net::SocketAddr, thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let store = Arc::new(ShardedStore::in_memory(shards));
            serve_tcp(listener, &|| Box::new(AllowAll), "tcp-test", store, &config)
                .expect("server runs")
        });
        (addr, handle)
    }

    fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            // The server may close on us (connection cap): read
            // whatever it said anyway.
            let _ = writeln!(stream, "{line}");
        }
        let _ = stream.shutdown(Shutdown::Write);
        let reader = BufReader::new(&stream);
        reader.lines().map_while(Result::ok).collect()
    }

    #[test]
    fn serves_checks_and_shuts_down() {
        let (addr, handle) = start(ServerConfig::default(), 2);
        let responses = roundtrip(
            addr,
            &[r#"{"op":"check","name":"SB"}"#, r#"{"op":"check","name":"SB"}"#, r#"{"op":"stats"}"#],
        );
        assert_eq!(responses.len(), 3);
        assert!(responses[0].contains("\"cache\":\"computed\""), "{}", responses[0]);
        assert!(responses[1].contains("\"cache\":\"hit\""), "{}", responses[1]);
        assert!(responses[2].contains("\"shards\""), "sharded stats: {}", responses[2]);
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        let summary = handle.join().unwrap();
        assert_eq!(summary.connections, 2);
        assert!(summary.requests >= 4);
    }

    #[test]
    fn responses_keep_request_order_per_connection() {
        let (addr, handle) = start(ServerConfig { workers: 4, ..ServerConfig::default() }, 4);
        let lines: Vec<String> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    r#"{"op":"check","name":"SB"}"#.to_string()
                } else {
                    format!(r#"{{"op":"check","name":"no-such-test-{i}"}}"#)
                }
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let responses = roundtrip(addr, &refs);
        assert_eq!(responses.len(), 8);
        for (i, r) in responses.iter().enumerate() {
            if i % 2 == 0 {
                assert!(r.contains("\"ok\":true"), "slot {i}: {r}");
            } else {
                assert!(r.contains(&format!("no-such-test-{i}")), "slot {i}: {r}");
            }
        }
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        handle.join().unwrap();
    }

    #[test]
    fn over_quota_client_gets_typed_rejections() {
        let config = ServerConfig {
            quota: ClientQuota::default().with_max_requests(2),
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config, 1);
        let responses = roundtrip(
            addr,
            &[r#"{"op":"stats"}"#, r#"{"op":"stats"}"#, r#"{"op":"stats"}"#, r#"{"op":"stats"}"#],
        );
        assert_eq!(responses.len(), 4);
        assert!(responses[1].contains("\"ok\":true"));
        assert!(responses[2].contains("\"code\":\"over-quota\""), "{}", responses[2]);
        assert!(responses[3].contains("\"code\":\"over-quota\""));
        // A fresh connection has a fresh quota.
        let fresh = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert!(fresh[0].contains("\"ok\":true"));
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        let summary = handle.join().unwrap();
        assert_eq!(summary.over_quota, 2);
    }

    #[test]
    fn connection_cap_rejects_with_overload_line() {
        let config = ServerConfig { max_conns: 1, ..ServerConfig::default() };
        let (addr, handle) = start(config, 1);
        // Hold one connection open…
        let held = TcpStream::connect(addr).unwrap();
        // …wait for the server to register it…
        std::thread::sleep(Duration::from_millis(100));
        // …and watch the next one bounce.
        let responses = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].contains("\"code\":\"overloaded\""), "{}", responses[0]);
        drop(held);
        std::thread::sleep(Duration::from_millis(100));
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        handle.join().unwrap();
    }
}
