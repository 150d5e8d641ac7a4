//! Fault-injection integration tests (run via
//! `cargo test --features fault-injection --test fault_injection`).
//!
//! Each test arms a `lkmm_core::faultpoint` site, drives the real stack
//! through it, and checks two things: the fault surfaces as a structured
//! outcome (never an abort), and the system recovers once the site is
//! disarmed. Every test holds [`serial`] for its whole body:
//! `faultpoint::arm` serialises only the armed windows, so without it
//! one test's unarmed code — a check counting `worker.panic` hits, an
//! unarmed `flush` — runs beside another test's armed site.

#![cfg(feature = "fault-injection")]

use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::service::{BatchChecker, Provenance, VerdictStore};
use linux_kernel_memory_model::{CheckOutcome, Herd, InconclusiveReason, ModelChoice};
use lkmm_core::faultpoint;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The file-wide test lock (a failed test poisons it; the next one
/// still runs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn injected_worker_panic_is_contained_and_recovers() {
    let _serial = serial();
    let herd = Herd::new(ModelChoice::Lkmm).with_jobs(4);
    let test = library::by_name("SB").unwrap().test();

    let guard = faultpoint::arm("worker.panic");
    match herd.check_governed(&test).outcome {
        CheckOutcome::Inconclusive { reason: InconclusiveReason::WorkerPanicked, .. } => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    drop(guard);

    // Disarmed: the same checker object completes normally.
    let report = herd.check_governed(&test).report().expect("disarmed check completes");
    assert!(report.allowed(), "SB is Allowed under LKMM");
}

#[test]
fn injected_enumerator_budget_trip_is_inconclusive() {
    let _serial = serial();
    let herd = Herd::new(ModelChoice::Lkmm);
    let test = library::by_name("MP").unwrap().test();

    let guard = faultpoint::arm("enum.budget");
    match herd.check_governed(&test).outcome {
        CheckOutcome::Inconclusive {
            reason:
                InconclusiveReason::BudgetExceeded(linux_kernel_memory_model::BudgetKind::Candidates),
            ..
        } => {}
        other => panic!("expected injected candidate-budget trip, got {other:?}"),
    }
    drop(guard);
    assert!(herd.check_governed(&test).report().is_some());
}

#[test]
fn torn_store_append_is_an_error_and_reopen_recovers_the_valid_prefix() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("lkmm-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.vstore");
    let _ = std::fs::remove_file(&path);

    let model = linux_kernel_memory_model::model::Lkmm::new();
    let sb = library::by_name("SB").unwrap().test();
    let mp = library::by_name("MP").unwrap().test();

    // One good record, then a torn append under the armed fault.
    {
        let store = VerdictStore::open(&path).unwrap();
        let mut checker = BatchChecker::new(&model, store, "fault");
        checker.check_one(&sb).unwrap();
        assert_eq!(checker.store().len(), 1);

        let guard = faultpoint::arm("store.append.torn");
        let err = checker.check_one(&mp).unwrap_err();
        assert!(err.to_string().contains("store.append.torn"), "got {err}");
        drop(guard);
    }

    // Reopen: recovery truncates the half-written record, keeps the good
    // one, and the store accepts appends again.
    {
        let store = VerdictStore::open(&path).unwrap();
        let recovery = store.recovery();
        assert_eq!(recovery.records, 1, "the good record survives");
        assert!(recovery.truncated_bytes() > 0, "the torn tail is truncated");
        assert!(!recovery.quarantined);

        let mut checker = BatchChecker::new(&model, store, "fault");
        let hit = checker.check_one(&sb).unwrap();
        assert_eq!(hit.provenance, Provenance::Hit);
        let computed = checker.check_one(&mp).unwrap();
        assert_eq!(computed.provenance, Provenance::Computed);
        assert_eq!(checker.store().len(), 2);
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn injected_flush_failure_is_an_error_then_clears() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("lkmm-fault-flush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flush.vstore");
    let _ = std::fs::remove_file(&path);

    let mut store = VerdictStore::open(&path).unwrap();

    let guard = faultpoint::arm("store.flush");
    let err = store.flush().unwrap_err();
    assert!(err.to_string().contains("store.flush"), "got {err}");
    drop(guard);

    store.flush().expect("disarmed flush succeeds");

    drop(store);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn injected_dir_sync_failure_fails_first_flush_then_clears() {
    let _serial = serial();
    // The first flush of a store's lifetime also fsyncs the parent
    // directory (so a crash can't lose the just-created file entry);
    // `store.append.sync` sits on exactly that path.
    let dir = std::env::temp_dir().join(format!("lkmm-fault-dirsync-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dirsync.vstore");
    let _ = std::fs::remove_file(&path);

    let mut store = VerdictStore::open(&path).unwrap();

    let guard = faultpoint::arm("store.append.sync");
    let err = store.flush().unwrap_err();
    assert!(err.to_string().contains("store.append.sync"), "got {err}");
    drop(guard);

    // The directory sync is retried on the next flush, not lost.
    store.flush().expect("disarmed flush performs the deferred dir sync");
    let guard = faultpoint::arm("store.append.sync");
    store.flush().expect("dir already synced: the site is no longer on the path");
    drop(guard);

    drop(store);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn crashed_compaction_leaves_the_original_log_intact() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("lkmm-fault-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("compact.vstore");
    let _ = std::fs::remove_file(&path);

    let model = linux_kernel_memory_model::model::Lkmm::new();
    let sb = library::by_name("SB").unwrap().test();
    let mp = library::by_name("MP").unwrap().test();
    {
        let store = VerdictStore::open(&path).unwrap();
        let mut checker = BatchChecker::new(&model, store, "fault");
        checker.check_one(&sb).unwrap();
        checker.check_one(&mp).unwrap();
        checker.flush().unwrap();
    }
    let before = std::fs::read(&path).unwrap();

    // Crash mid-rewrite: the temp file is torn, the rename never runs.
    let guard = faultpoint::arm("store.compact.crash");
    let err = VerdictStore::compact(&path).unwrap_err();
    assert!(err.to_string().contains("store.compact.crash"), "got {err}");
    drop(guard);
    assert_eq!(std::fs::read(&path).unwrap(), before, "original log untouched");

    // Retried compaction truncates the stray temp file and succeeds.
    let report = VerdictStore::compact(&path).unwrap();
    assert_eq!(report.records_out, 2);
    let store = VerdictStore::open(&path).unwrap();
    assert!(store.recovery().is_clean());
    assert_eq!(store.len(), 2);

    drop(store);
    for f in std::fs::read_dir(&dir).unwrap() {
        let _ = std::fs::remove_file(f.unwrap().path());
    }
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn nth_hit_trigger_fires_on_exactly_that_hit() {
    let _serial = serial();
    // `worker.panic=2`: the first evaluated candidate passes, the second
    // panics. The check still reports WorkerPanicked (containment), which
    // shows the trigger grammar works end-to-end through the pipeline.
    let herd = Herd::new(ModelChoice::Lkmm).with_jobs(1);
    let test = library::by_name("SB").unwrap().test();

    let guard = faultpoint::arm("worker.panic=2");
    match herd.check_governed(&test).outcome {
        CheckOutcome::Inconclusive { reason: InconclusiveReason::WorkerPanicked, partial } => {
            assert_eq!(partial.candidates, 1, "exactly the first candidate completed");
        }
        other => panic!("expected WorkerPanicked on the 2nd candidate, got {other:?}"),
    }
    drop(guard);
}

// --- TCP server faultpoints (ISSUE 9 satellite 3) ---------------------

mod server_faults {
    use lkmm_core::faultpoint;
    use linux_kernel_memory_model::exec::model::AllowAll;
    use linux_kernel_memory_model::server::{serve_tcp, ServerConfig, ServerSummary};
    use linux_kernel_memory_model::service::ShardedStore;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::Arc;
    use std::thread;

    fn start(
        store: Arc<ShardedStore>,
        workers: usize,
    ) -> (SocketAddr, thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServerConfig { workers, ..ServerConfig::default() };
        let handle = thread::spawn(move || {
            serve_tcp(listener, &|| Box::new(AllowAll), "fault-tcp", store, &config)
                .expect("faults are contained, the server survives")
        });
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            let _ = writeln!(stream, "{line}");
        }
        let _ = stream.shutdown(Shutdown::Write);
        BufReader::new(stream).lines().map_while(Result::ok).collect()
    }

    #[test]
    fn poisoned_shard_quarantines_without_killing_the_server() {
        let _serial = super::serial();
        let store = Arc::new(ShardedStore::in_memory(4));
        // The first append fails: exactly one shard poisons itself.
        let guard = faultpoint::arm("shard.append=1");
        let (addr, handle) = start(store.clone(), 1);
        let responses = roundtrip(
            addr,
            &[r#"{"op":"batch","names":["SB","MP","LB","R","S","WRC","RWC","ISA2"]}"#],
        );
        assert_eq!(responses.len(), 1);
        // Verdicts keep flowing even though one append was eaten.
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        let stats = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert!(stats[0].contains("\"poisoned\""), "stats surface the quarantine: {}", stats[0]);
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        handle.join().unwrap();
        drop(guard);
        let shard_stats = store.stats();
        let poisoned: Vec<_> = shard_stats.iter().filter(|s| s.poisoned.is_some()).collect();
        assert_eq!(poisoned.len(), 1, "exactly one shard quarantined");
        let healthy_records: usize = shard_stats
            .iter()
            .filter(|s| s.poisoned.is_none())
            .map(|s| s.records)
            .sum();
        assert!(healthy_records > 0, "the other shards kept appending");
    }

    #[test]
    fn injected_accept_failure_drops_one_connection_not_the_server() {
        let _serial = super::serial();
        let store = Arc::new(ShardedStore::in_memory(1));
        let guard = faultpoint::arm("server.accept=1");
        let (addr, handle) = start(store, 2);
        // The first connection is accepted at the TCP level, then
        // dropped by the armed faultpoint: EOF, no responses.
        let responses = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert!(responses.is_empty(), "dropped connection answers nothing: {responses:?}");
        // The very next connection is served normally.
        let responses = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        let summary = handle.join().unwrap();
        drop(guard);
        assert_eq!(summary.connections, 2, "only the faulted accept was lost");
    }
}
