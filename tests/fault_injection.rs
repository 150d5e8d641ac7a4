//! Fault-injection integration tests. The sites are compiled into
//! every build, so these run in the plain `cargo test`.
//!
//! Each test arms a `lkmm_core::faultpoint` site, drives the real stack
//! through it, and checks two things: the fault surfaces as a structured
//! outcome (never an abort), and the system recovers once the site is
//! disarmed. Every test holds [`serial`] for its whole body:
//! `faultpoint::arm` serialises only the armed windows, so without it
//! one test's unarmed code — a check counting `worker.panic` hits, an
//! unarmed `flush` — runs beside another test's armed site.

use linux_kernel_memory_model::cat::linux_kernel_model;
use linux_kernel_memory_model::exec::{
    enumerate, open_session, ConsistencyModel, EnumOptions, ExecFacts, TestResult, Verdict,
};
use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::litmus::Test;
use linux_kernel_memory_model::model::Lkmm;
use linux_kernel_memory_model::service::{
    MultiBatchChecker, MultiColumn, Provenance, ShardedStore, UnitCell, VerdictStore,
};
use std::io;
use linux_kernel_memory_model::{CheckOutcome, Herd, InconclusiveReason, ModelId};
use lkmm_core::faultpoint;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The file-wide test lock (a failed test poisons it; the next one
/// still runs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `herd-rs FILE --store` under salt "fault": `test` through a
/// one-column checker, the store synced after.
fn check_one(checker: &mut MultiBatchChecker<'_>, test: &Test) -> io::Result<UnitCell> {
    let mut report = checker.check_corpus(std::slice::from_ref(test), &[vec![true]])?;
    Ok(report.columns.remove(0).outcomes.remove(0).expect("the one column is enabled"))
}

fn checker(model: &Lkmm, store: VerdictStore) -> MultiBatchChecker<'_> {
    MultiBatchChecker::new(vec![MultiColumn { model, salt: "fault".into() }], store)
}

#[test]
fn injected_worker_panic_is_contained_and_recovers() {
    let _serial = serial();
    let herd = Herd::new(ModelId::LkmmNative).with_jobs(4);
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
    let herd = Herd::new(ModelId::LkmmNative);
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
fn misjudge_sites_invert_both_lkmm_formulations() {
    let _serial = serial();
    let (native, cat) = (Lkmm::new(), linux_kernel_model());
    let models: [&dyn ConsistencyModel; 2] = [&native, &cat];
    for name in ["SB", "MP+wmb+rmb"] {
        let xs =
            enumerate(&library::by_name(name).unwrap().test(), &EnumOptions::default()).unwrap();
        // Every candidate's verdict through the model and through a
        // session, the path the check engine takes.
        let verdicts = |model: &dyn ConsistencyModel| -> Vec<(bool, bool)> {
            let mut session = open_session(model);
            xs.iter()
                .map(|x| {
                    let through_session = session.try_allows_with(x, &ExecFacts::new(x));
                    (model.allows(x), through_session.unwrap())
                })
                .collect()
        };
        let honest = models.map(verdicts);
        assert!(honest[0].iter().any(|v| v.0), "{name}: LKMM allows some candidate");
        assert!(honest[0].iter().all(|v| v.0 == v.1), "{name}: allows ≡ session");
        assert_eq!(honest[0], honest[1], "{name}: native ≡ cat");
        for (armed, site) in ["lkmm.misjudge", "cat.misjudge"].into_iter().enumerate() {
            let guard = faultpoint::arm(site);
            for (k, &model) in models.iter().enumerate() {
                let expect: Vec<_> = if k == armed {
                    honest[k].iter().map(|&(a, b)| (!a, !b)).collect()
                } else {
                    honest[k].clone()
                };
                assert_eq!(verdicts(model), expect, "{site} armed, {} on {name}", model.name());
            }
            drop(guard);
            assert_eq!(models.map(verdicts), honest, "{site} disarmed on {name}");
        }
    }
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
        let mut checker = checker(&model, store);
        check_one(&mut checker, &sb).unwrap();
        assert_eq!(checker.store().len(), 1);

        let guard = faultpoint::arm("store.append.torn");
        let err = check_one(&mut checker, &mp).unwrap_err();
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

        let mut checker = checker(&model, store);
        let hit = check_one(&mut checker, &sb).unwrap();
        assert_eq!(hit.provenance, Provenance::Hit);
        let computed = check_one(&mut checker, &mp).unwrap();
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
        let mut checker = checker(&model, store);
        check_one(&mut checker, &sb).unwrap();
        check_one(&mut checker, &mp).unwrap();
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
fn sharded_merge_surfaces_append_and_flush_errors() {
    let _serial = serial();
    // An offline merge writes through each member's plain store, so a
    // failed append or flush into a sharded family is an error, as it is
    // into a plain store: never a merge that reports success short.
    let dir = std::env::temp_dir().join(format!("lkmm-fault-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("src.vstore");
    {
        let mut store = VerdictStore::open(&src).unwrap();
        for i in 0..32usize {
            let result = TestResult {
                verdict: Verdict::Allowed,
                condition_holds: true,
                candidates: i,
                allowed: i,
                witnesses: 0,
            };
            // Keys spread over the routing prefix, so every shard gets some.
            store.put((i as u128) << 96 | i as u128, result).unwrap();
        }
        store.flush().unwrap();
    }
    let faults = [("store.append.torn", "store.append.torn=3"), ("store.flush", "store.flush=2")];
    for (site, spec) in faults {
        let guard = faultpoint::arm(spec);
        let err = ShardedStore::merge_into_shards(dir.join(site), 4, &src).unwrap_err();
        drop(guard);
        assert!(err.to_string().contains(site), "{spec}: got {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nth_hit_trigger_fires_on_exactly_that_hit() {
    let _serial = serial();
    // `worker.panic=2`: the first evaluated candidate passes, the second
    // panics. The check still reports WorkerPanicked (containment), which
    // shows the trigger grammar works end-to-end through the pipeline.
    let herd = Herd::new(ModelId::LkmmNative).with_jobs(1);
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

/// The mutant-catching path end to end: arming `algo.weaken` makes the
/// ticket family silently generate its relaxed orderings while still
/// claiming Forbidden, and the family-safety oracle must catch every
/// misjudged program and shrink it to a minimal wrong-verdict witness.
/// Runs storeless, as every fault injection campaign must — a poisoned
/// verdict must never be persisted.
#[test]
fn weakened_ticket_family_is_caught_and_shrunk() {
    use linux_kernel_memory_model::algorithms::FamilyId;
    use linux_kernel_memory_model::conformance::{
        recheck_violated, run_algo_campaign, AlgoConfig, ModelSet, OracleKind, SimConfig,
    };
    use linux_kernel_memory_model::exec::{check_test, PipelineOptions};
    use linux_kernel_memory_model::models::Sc;

    let _serial = serial();
    let cfg = AlgoConfig {
        families: vec![FamilyId::Ticket],
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        host_iterations: 0,
        ..AlgoConfig::default()
    };

    let guard = faultpoint::arm("algo.weaken");
    let report = run_algo_campaign(&cfg).unwrap();
    drop(guard);

    assert!(!report.campaign.clean(), "the weakened family must not pass");
    let safety: Vec<_> = report
        .campaign
        .discrepancies
        .iter()
        .filter(|d| d.oracle == OracleKind::FamilySafety)
        .collect();
    assert!(!safety.is_empty(), "family safety catches the weakened lock");
    for d in safety {
        let shrunk = d.shrunk.as_ref().expect("family-safety discrepancies shrink");
        let witness = linux_kernel_memory_model::litmus::parse(&shrunk.litmus).unwrap();
        // The minimal witness still discriminates: the real LKMM says
        // Allowed where the weakened family claimed Forbidden.
        assert!(recheck_violated(
            &d.check,
            &witness,
            &ModelSet::standard(),
            &EnumOptions::default(),
            &PipelineOptions::default(),
        ));
        // ... and it is a genuine weak-memory witness, not the
        // trivially-allowed empty program: the SC+atomicity reference
        // forbids the very outcome the LKMM admits.
        let lkmm = check_test(&Lkmm::new(), &witness, &EnumOptions::default()).unwrap();
        let sc = check_test(&Sc, &witness, &EnumOptions::default()).unwrap();
        assert_eq!(lkmm.verdict, Verdict::Allowed, "{}", witness.name);
        assert_eq!(sc.verdict, Verdict::Forbidden, "{}", witness.name);
    }

    // Disarmed, the same campaign is clean again.
    let healed = run_algo_campaign(&cfg).unwrap();
    assert!(
        healed.campaign.clean(),
        "{:?}",
        healed.campaign.discrepancies.first().map(|d| &d.detail)
    );
}

/// The environment-armed path through the binary: `LKMM_FAULTPOINTS`
/// arms `enum.budget` in a child `herd-rs`, which announces the armed
/// site once on stderr and reports the injected trip as inconclusive
/// (exit 6). Without the variable the same run completes silently.
#[test]
fn env_armed_binary_announces_its_sites_and_trips() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("lkmm-fault-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("one-thread.litmus");
    let litmus = "C one-thread\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)\n";
    std::fs::write(&path, litmus).unwrap();
    let run = |faults: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_herd-rs"));
        cmd.arg(&path).env_remove("LKMM_FAULTPOINTS");
        if let Some(spec) = faults {
            cmd.env("LKMM_FAULTPOINTS", spec);
        }
        let out = cmd.output().expect("spawn herd-rs");
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };
    let (code, stderr) = run(Some("enum.budget"));
    assert_eq!(code, Some(6), "injected trip is inconclusive: {stderr}");
    assert!(stderr.contains("inconclusive"), "{stderr}");
    let notices: Vec<_> = stderr.lines().filter(|l| l.starts_with("faultpoint:")).collect();
    assert_eq!(notices, ["faultpoint: LKMM_FAULTPOINTS armed enum.budget"], "{stderr}");

    let (code, stderr) = run(None);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("faultpoint"), "unarmed runs announce nothing: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
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
