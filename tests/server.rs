//! End-to-end TCP server tests (ISSUE 9 satellite 4): whatever mix of
//! concurrent clients, worker jobs, and store shards serves the
//! library, the resulting verdict log must be byte-identical (after a
//! key-ordered export) to the sequential `--store` pipeline's — and
//! warm stores must be interchangeable between the two paths in both
//! directions.

use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::model::Lkmm;
use linux_kernel_memory_model::server::{serve_tcp, ServerConfig, ServerSummary};
use linux_kernel_memory_model::service::{
    MultiBatchChecker, MultiBatchReport, MultiColumn, ServeSession, ShardedStore, VerdictStore,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

/// Must match on both paths: cache keys fold the salt in.
const SALT: &str = "server-it";

fn temp_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lkmm-server-it-{tag}-{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(base: &Path) {
    for n in 1..=8 {
        for path in ShardedStore::shard_paths(base, n) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Run a file-backed server on an ephemeral port. The store lives (and
/// dies) inside the server thread, so its locks are released by the
/// time `join` returns.
fn start_server(
    base: PathBuf,
    shards: usize,
    jobs: usize,
) -> (SocketAddr, thread::JoinHandle<ServerSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let store = Arc::new(ShardedStore::open(&base, shards).unwrap());
        let config = ServerConfig { workers: 4, jobs, ..ServerConfig::default() };
        serve_tcp(listener, &|| Box::new(Lkmm::new()), SALT, store, &config).unwrap()
    });
    (addr, handle)
}

/// One client connection: request `names` as a single batch, return the
/// response lines.
fn batch_client(addr: SocketAddr, names: &[&str]) -> Vec<String> {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    let req = format!("{{\"op\":\"batch\",\"names\":[{}]}}", quoted.join(","));
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{req}").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map_while(Result::ok).collect()
}

fn shutdown_server(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = writeln!(stream, "{}", r#"{"op":"shutdown"}"#);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = BufReader::new(stream).lines().map_while(Result::ok).count();
}

/// The library names split round-robin into `n` disjoint slices.
fn partition(n: usize) -> Vec<Vec<&'static str>> {
    let mut parts = vec![Vec::new(); n];
    for (i, pt) in library::all().iter().enumerate() {
        parts[i % n].push(pt.name);
    }
    parts
}

/// The sequential `--library --store` pipeline over the store at
/// `base`: one pass through a one-column checker.
fn sequential_library(base: &Path) -> MultiBatchReport {
    let model = Lkmm::new();
    let column = MultiColumn { model: &model, salt: SALT.into() };
    let mut checker = MultiBatchChecker::new(vec![column], VerdictStore::open(base).unwrap());
    let tests: Vec<_> = library::all().iter().map(|pt| pt.test()).collect();
    checker.check_corpus(&tests, &[vec![true; tests.len()]]).unwrap()
}

/// The sequential pipeline's export of a full-library store: the
/// reference bytes every server configuration must reproduce.
fn sequential_export() -> Vec<u8> {
    let base = temp_base("seq");
    sequential_library(&base);
    let out = temp_base("seq-export");
    ShardedStore::export_merged(&base, &out).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    cleanup(&base);
    cleanup(&out);
    bytes
}

#[test]
fn concurrent_clients_match_the_sequential_store_byte_for_byte() {
    let want = sequential_export();
    // The ISSUE matrix: jobs 1/2/8 per worker, shards 1/4, several
    // concurrent clients splitting the library between them.
    for &(clients, jobs, shards) in
        &[(1, 1, 1), (2, 2, 1), (8, 8, 1), (2, 1, 4), (4, 2, 4), (8, 8, 4)]
    {
        let base = temp_base(&format!("matrix-{clients}-{jobs}-{shards}"));
        let (addr, handle) = start_server(base.clone(), shards, jobs);
        let parts = partition(clients);
        thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|names| scope.spawn(move || batch_client(addr, names)))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let responses = h.join().unwrap();
                assert_eq!(responses.len(), 1, "client {i}: one batch, one response");
                assert!(
                    responses[0].contains("\"ok\":true"),
                    "client {i} of ({clients},{jobs},{shards}): {}",
                    responses[0]
                );
            }
        });
        shutdown_server(addr);
        handle.join().unwrap();
        let out = temp_base(&format!("matrix-out-{clients}-{jobs}-{shards}"));
        ShardedStore::export_merged(&base, &out).unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            want,
            "({clients} clients, {jobs} jobs, {shards} shards) diverged from sequential"
        );
        cleanup(&base);
        cleanup(&out);
    }
}

#[test]
fn warm_stores_interchange_between_sequential_and_server_paths() {
    // Sequential-written store, replayed by a sharded server: after
    // promotion into a 4-way family every request is a cache hit and
    // the family still exports the same bytes.
    let seq = temp_base("warm-seq");
    sequential_library(&seq);
    let want = {
        let out = temp_base("warm-seq-export");
        ShardedStore::export_merged(&seq, &out).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        cleanup(&out);
        bytes
    };
    let family = temp_base("warm-family");
    ShardedStore::merge_into_shards(&family, 4, &seq).unwrap();
    let (addr, handle) = start_server(family.clone(), 4, 1);
    let names: Vec<&str> = library::all().iter().map(|pt| pt.name).collect();
    let responses = batch_client(addr, &names);
    assert_eq!(responses.len(), 1);
    // Everything answers from cache (two library tests share a key, so
    // one replays as an in-batch dedup rather than a store hit).
    assert!(responses[0].contains("\"computed\":0"), "warm replay: {}", responses[0]);
    shutdown_server(addr);
    handle.join().unwrap();
    let out = temp_base("warm-family-export");
    ShardedStore::export_merged(&family, &out).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), want, "warm replay must not change the store");
    cleanup(&family);
    cleanup(&out);

    // Server-written store, replayed by the sequential pipeline: a
    // 1-shard server log opens as a plain store and answers the whole
    // library from cache.
    let served = temp_base("warm-served");
    let (addr, handle) = start_server(served.clone(), 1, 2);
    let responses = batch_client(addr, &names);
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    shutdown_server(addr);
    handle.join().unwrap();
    let report = &sequential_library(&served).columns[0];
    assert_eq!(report.computed, 0, "server-written store must replay sequentially");
    assert_eq!(report.hits + report.deduped, names.len());
    cleanup(&seq);
    cleanup(&served);
}

/// One scripted session touching every reply shape: checks by name and
/// by source, a repeat that hits, a batch mixing `names` and `family`
/// (the family's MP variant dedupes against the named MP), a malformed
/// line, an unknown op, `stats` and `flush`.
const SESSION: &[&str] = &[
    r#"{"op":"check","name":"SB"}"#,
    r#"{"op":"check","source":"C src\n{ x=0; y=0; }\nP0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }\nP1(int *x, int *y) { int r0; int r1; r0 = READ_ONCE(*y); smp_rmb(); r1 = READ_ONCE(*x); }\nexists (1:r0=1 /\\ 1:r1=0)"}"#,
    r#"{"op":"check","name":"SB"}"#,
    r#"{"op":"batch","names":["SB","MP"],"family":"PodWW Rfe PodRR Fre"}"#,
    "not json",
    r#"{"op":"nope"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"flush"}"#,
];

/// `"micros":N` is wall-clock; every other byte of a reply is pinned.
fn mask_micros(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\"micros\":") {
        let (head, tail) = rest.split_at(at + "\"micros\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A reply without its `shards` field, which only a sharded store emits.
fn without_shards(line: &str) -> String {
    use linux_kernel_memory_model::service::json::Json;
    match Json::parse(line).unwrap() {
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "shards").collect()).to_string()
        }
        other => other.to_string(),
    }
}

#[test]
fn stdio_and_tcp_sessions_give_the_same_replies() {
    use linux_kernel_memory_model::service::hash::fnv64;
    use linux_kernel_memory_model::service::serve::serve;

    let model = Lkmm::new();
    let mut session = ServeSession::new(&model, VerdictStore::in_memory(), SALT, 0, Default::default());
    let mut out = Vec::new();
    serve(&mut session, SESSION.join("\n").as_bytes(), &mut out).unwrap();
    let stdio: Vec<String> =
        String::from_utf8(out).unwrap().lines().map(mask_micros).collect();
    assert_eq!(stdio.len(), SESSION.len());
    // Computed before the cached-check paths were folded into one: the
    // fold must not change a byte of this session.
    let digest = fnv64(stdio.join("\n").as_bytes());
    assert_eq!(digest, 0xe2fe_04a0_fea9_da4d, "stdio session digest {digest:#018x}:\n{}", stdio.join("\n"));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let store = Arc::new(ShardedStore::in_memory(1));
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        serve_tcp(listener, &|| Box::new(Lkmm::new()), SALT, store, &config).unwrap()
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    for line in SESSION {
        writeln!(stream, "{line}").unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let tcp: Vec<String> =
        BufReader::new(stream).lines().map(|l| mask_micros(&l.unwrap())).collect();
    shutdown_server(addr);
    handle.join().unwrap();
    assert_eq!(tcp.len(), stdio.len());
    for (i, (s, t)) in stdio.iter().zip(&tcp).enumerate() {
        assert_eq!(without_shards(s), without_shards(t), "reply {i} differs");
    }
}

/// `herd-rs client` forwards stdin's bytes unchanged, so the server's
/// framing answers every line: a line that is not UTF-8 gets an error
/// reply, and the requests after it are still answered.
#[test]
fn client_forwards_every_line_after_one_that_is_not_utf8() {
    use std::process::{Command, Stdio};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let store = Arc::new(ShardedStore::in_memory(1));
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        serve_tcp(listener, &|| Box::new(Lkmm::new()), SALT, store, &config).unwrap()
    });
    let mut client = Command::new(env!("CARGO_BIN_EXE_herd-rs"))
        .args(["client", "--connect", &addr.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let input: &[u8] =
        b"{\"op\":\"stats\"}\n\xff\xfe bad\n{\"op\":\"check\",\"name\":\"SB\"}\n{\"op\":\"stats\"}\n";
    client.stdin.take().unwrap().write_all(input).unwrap();
    let out = client.wait_with_output().unwrap();
    shutdown_server(addr);
    handle.join().unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let replies = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), 4, "{replies:#?}");
    assert!(replies[1].contains("not valid UTF-8"), "{}", replies[1]);
    assert!(replies[2].contains("\"verdict\""), "{}", replies[2]);
}

/// Every way of opening a store from the command line names the store's
/// path exactly once when the open fails: a plain or sharded open over
/// a family of another shard count (exit 5, nothing created), and a
/// path whose directory does not exist.
#[test]
fn store_open_failures_name_the_path_once() {
    use std::process::{Command, Stdio};

    let family = temp_base("once-family");
    let s = ShardedStore::open(&family, 4).unwrap();
    drop(s);
    let source = temp_base("once-source");
    drop(VerdictStore::open(&source).unwrap());
    let missing = temp_base("once-missing").join("x.bin");
    let (family, source, missing) =
        (family.to_str().unwrap(), source.to_str().unwrap(), missing.to_str().unwrap());
    let campaign = ["conformance", "--max-cycle-len", "0", "--sim-iterations", "0", "--store"];
    let listen = ["serve", "--listen", "127.0.0.1:0", "--shards", "2", "--store"];
    for path in [family, missing] {
        let runs: [Vec<&str>; 5] = [
            vec!["--library", "--store", path],
            vec!["serve", "--store", path],
            [&campaign[..], &[path]].concat(),
            [&listen[..], &[path]].concat(),
            vec!["store", "merge", "--shards", "2", path, source],
        ];
        for args in runs {
            let out = Command::new(env!("CARGO_BIN_EXE_herd-rs"))
                .args(&args)
                .env_remove("LKMM_FAULTPOINTS")
                .stdin(Stdio::null())
                .output()
                .unwrap();
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(5), "{args:?}: {stderr}");
            assert_eq!(stderr.matches(path).count(), 1, "{args:?}: {stderr}");
            if path == family {
                assert!(stderr.contains("a 4-shard store is already there"), "{stderr}");
                let left = ShardedStore::members(Path::new(family));
                assert_eq!(left, ShardedStore::shard_paths(Path::new(family), 4), "{args:?}");
                assert!(!Path::new(family).exists(), "{args:?} left a plain log");
            }
        }
    }
    cleanup(Path::new(family));
    cleanup(Path::new(source));
}

/// `herd-rs store stats PATH`, which must only read.
fn store_stats(path: &Path) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_herd-rs"))
        .args(["store", "stats", path.to_str().unwrap()])
        .env_remove("LKMM_FAULTPOINTS")
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap()
}

/// Over a log with the wrong magic, `store stats` reports the member and
/// leaves the file where it is.
#[test]
fn store_stats_leaves_a_wrong_magic_log_in_place() {
    let junk = temp_base("stats-junk");
    let corrupt = PathBuf::from(format!("{}.corrupt", junk.display()));
    std::fs::write(&junk, "junk, not a verdict store\n").unwrap();
    let out = store_stats(&junk);
    let moved = corrupt.exists();
    let _ = std::fs::remove_file(&corrupt);
    assert_eq!(std::fs::read_to_string(&junk).unwrap(), "junk, not a verdict store\n");
    assert!(!moved, "stats quarantined the log");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains(": shard 0 of 1: 0 records, 0 superseded, wrong magic\n"), "{stdout}");
    assert!(stdout.ends_with(" 0 superseded frames, 1 with wrong magic\n"), "{stdout}");
    cleanup(&junk);
}

/// Over a log with a torn tail, `store stats` counts the valid frames
/// and cuts nothing.
#[test]
fn store_stats_leaves_a_torn_tail_in_place() {
    let torn = temp_base("stats-torn");
    sequential_library(&torn);
    let mut bytes = std::fs::read(&torn).unwrap();
    bytes.extend_from_slice(b"abc");
    std::fs::write(&torn, &bytes).unwrap();
    let out = store_stats(&torn);
    assert_eq!(std::fs::read(&torn).unwrap(), bytes, "stats changed a torn log");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let total =
        " 1 shard(s), 32 distinct keys in the index, 0 superseded frames, 0 with wrong magic";
    assert!(stdout.ends_with(&format!("{total}\n")), "{stdout}");
    cleanup(&torn);
}

/// Over a family missing a member, `store stats` exits 5 naming that
/// member and does not create it.
#[test]
fn store_stats_refuses_a_family_missing_a_member() {
    let source = temp_base("stats-source");
    sequential_library(&source);
    let family = temp_base("stats-family");
    ShardedStore::merge_into_shards(&family, 4, &source).unwrap();
    let missing = &ShardedStore::shard_paths(&family, 4)[2];
    std::fs::remove_file(missing).unwrap();
    let out = store_stats(&family);
    let created = missing.exists();
    cleanup(&source);
    cleanup(&family);
    assert!(!created, "stats created the missing member");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(5), "{stderr}");
    assert!(stderr.contains(&format!("store stats: {}: ", missing.display())), "{stderr}");
}
