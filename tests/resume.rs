//! Crash-survival integration tests: drive the real `herd-rs` binary
//! through kill/suspend/resume cycles and assert the invariant the
//! whole resilience layer exists for — a resumed campaign's JSON
//! report is byte-identical to an uninterrupted run's.
//!
//! The always-on tests use the clean `--stop-after` suspend and the
//! advisory store lock. The crash tests (killing mid-campaign via
//! `campaign.kill`, tearing a checkpoint frame, crashing mid-compaction,
//! poisoning a unit) need the injection sites compiled in:
//! `cargo test --features fault-injection --test resume`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_herd-rs");

/// Campaign flags shared by every test: the library-only corpus
/// (33 units), simulators off, instant retries, a frame every 4 units.
const CAMPAIGN: &[&str] = &[
    "--max-cycle-len",
    "0",
    "--sim-iterations",
    "0",
    "--retry-base-ms",
    "0",
    "--json",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lkmm-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `herd-rs` with `args`, optionally with `LKMM_FAULTPOINTS=spec`.
/// The variable is explicitly cleared otherwise so a fault-armed parent
/// can never leak faults into a run that must succeed.
fn herd(args: &[&str], faults: Option<&str>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).env_remove("LKMM_FAULTPOINTS");
    if let Some(spec) = faults {
        cmd.env("LKMM_FAULTPOINTS", spec);
    }
    cmd.output().expect("spawn herd-rs")
}

fn campaign_args<'a>(
    store: &'a str,
    ckpt: &'a str,
    jobs: &'a str,
    extra: &[&'a str],
) -> Vec<&'a str> {
    let mut args = CAMPAIGN.to_vec();
    args.extend_from_slice(&[
        "--store",
        store,
        "--checkpoint",
        ckpt,
        "--checkpoint-every",
        "4",
        "--jobs",
        jobs,
    ]);
    args.extend_from_slice(extra);
    args.push("conformance");
    args
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

/// The uninterrupted reference report for this corpus. Runs in its own
/// directory so its store can't warm anyone else's run.
fn reference_json(dir: &Path) -> String {
    let store = dir.join("ref.vstore");
    let ckpt = dir.join("ref.ck");
    let out = herd(
        &campaign_args(store.to_str().unwrap(), ckpt.to_str().unwrap(), "2", &[]),
        None,
    );
    assert_eq!(out.status.code(), Some(0), "reference run failed: {}", stderr(&out));
    stdout(&out)
}

fn assert_scrub_clean(store: &str) {
    let out = herd(&["store", "scrub", store], None);
    assert_eq!(out.status.code(), Some(0), "scrub: {}", stderr(&out));
    assert!(stdout(&out).contains("clean"), "scrub output: {}", stdout(&out));
}

#[test]
fn stop_after_then_resume_is_byte_identical() {
    let dir = temp_dir("stop");
    let reference = reference_json(&dir);
    let store = dir.join("s.vstore");
    let store = store.to_str().unwrap();
    let ckpt = dir.join("s.ck");
    let ckpt = ckpt.to_str().unwrap();

    let out = herd(&campaign_args(store, ckpt, "2", &["--stop-after", "7"]), None);
    assert_eq!(out.status.code(), Some(0), "suspend is a clean exit: {}", stderr(&out));
    assert!(stdout(&out).is_empty(), "a suspended campaign prints no report");
    assert!(
        stderr(&out).contains("suspended at unit 7/33"),
        "stderr: {}",
        stderr(&out)
    );

    let out = herd(&campaign_args(store, ckpt, "2", &["--resume"]), None);
    assert_eq!(out.status.code(), Some(0), "resume: {}", stderr(&out));
    assert_eq!(stdout(&out), reference, "resumed JSON must be byte-identical");
    assert!(stderr(&out).contains("resumed from checkpoint at unit 7"));
    assert_scrub_clean(store);
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_config() {
    let dir = temp_dir("mismatch");
    let store = dir.join("s.vstore");
    let store = store.to_str().unwrap();
    let ckpt = dir.join("s.ck");
    let ckpt = ckpt.to_str().unwrap();

    let out = herd(&campaign_args(store, ckpt, "2", &["--stop-after", "5"]), None);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Same checkpoint, different corpus salt: exit 2, no report.
    let out = herd(
        &campaign_args(store, ckpt, "2", &["--resume", "--salt", "other"]),
        None,
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("refusing to resume"), "stderr: {}", stderr(&out));
}

#[test]
fn live_lock_holder_is_refused_with_exit_9() {
    let dir = temp_dir("locked");
    let store = dir.join("s.vstore");
    // This test process holds the lock; it is very much alive.
    std::fs::write(
        dir.join("s.vstore.lock"),
        format!("{}\n", std::process::id()),
    )
    .unwrap();
    let store = store.to_str().unwrap();
    let ckpt = dir.join("s.ck");

    let out = herd(
        &campaign_args(store, ckpt.to_str().unwrap(), "1", &[]),
        None,
    );
    assert_eq!(out.status.code(), Some(9), "campaign on a held store: {}", stderr(&out));
    assert!(stderr(&out).contains("locked by live process"), "{}", stderr(&out));

    let out = herd(&["store", "scrub", store], None);
    assert_eq!(out.status.code(), Some(9), "scrub on a held store: {}", stderr(&out));
}

#[test]
fn store_verbs_roundtrip_a_campaign_store() {
    let dir = temp_dir("verbs");
    let store = dir.join("s.vstore");
    let store = store.to_str().unwrap();
    let ckpt = dir.join("s.ck");
    let out = herd(&campaign_args(store, ckpt.to_str().unwrap(), "2", &[]), None);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_scrub_clean(store);

    let out = herd(&["store", "compact", store], None);
    assert_eq!(out.status.code(), Some(0), "compact: {}", stderr(&out));
    assert_scrub_clean(store);

    let exported = dir.join("export.vstore");
    let exported = exported.to_str().unwrap();
    let out = herd(&["store", "export", store, exported], None);
    assert_eq!(out.status.code(), Some(0), "export: {}", stderr(&out));
    assert_scrub_clean(exported);

    let merged = dir.join("merged.vstore");
    let merged = merged.to_str().unwrap();
    let out = herd(&["store", "merge", merged, store, exported], None);
    assert_eq!(out.status.code(), Some(0), "merge: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0 merged") && text.contains("unchanged"), "second source is a no-op: {text}");
    assert_scrub_clean(merged);
}

/// The crash tests proper: these arm injection sites in the child via
/// `LKMM_FAULTPOINTS`, so they only exist when the sites are compiled in.
#[cfg(feature = "fault-injection")]
mod crash {
    use super::*;

    #[test]
    fn kill_mid_campaign_then_resume_is_byte_identical_at_every_job_count() {
        let dir = temp_dir("kill");
        let reference = reference_json(&dir);
        for (kill_at, jobs) in [("3", "1"), ("3", "2"), ("3", "8"), ("12", "2"), ("25", "8")] {
            let tag = format!("kill{kill_at}-j{jobs}");
            let store = dir.join(format!("{tag}.vstore"));
            let store = store.to_str().unwrap();
            let ckpt = dir.join(format!("{tag}.ck"));
            let ckpt = ckpt.to_str().unwrap();

            // `campaign.kill=N` aborts the process at the Nth unit
            // boundary — a SIGKILL stand-in with no cleanup, no flush.
            let killed = herd(
                &campaign_args(store, ckpt, jobs, &[]),
                Some(&format!("campaign.kill={kill_at}")),
            );
            assert!(!killed.status.success(), "{tag}: the killed run must die");

            let resumed = herd(&campaign_args(store, ckpt, jobs, &["--resume"]), None);
            assert_eq!(resumed.status.code(), Some(0), "{tag}: {}", stderr(&resumed));
            assert_eq!(stdout(&resumed), reference, "{tag}: resumed JSON differs");
            assert_scrub_clean(store);
        }
    }

    #[test]
    fn torn_checkpoint_frame_falls_back_to_the_previous_frame() {
        let dir = temp_dir("torn-ckpt");
        let reference = reference_json(&dir);
        let store = dir.join("s.vstore");
        let store = store.to_str().unwrap();
        let ckpt = dir.join("s.ck");
        let ckpt = ckpt.to_str().unwrap();

        // Frame 1 (unit 4) lands; the append of frame 2 (unit 8) tears
        // mid-write. The campaign surfaces it as a checkpoint error.
        let out = herd(&campaign_args(store, ckpt, "2", &[]), Some("ckpt.torn=2"));
        assert_eq!(out.status.code(), Some(5), "torn frame is a store-class failure");
        assert!(stderr(&out).contains("checkpoint"), "{}", stderr(&out));

        // Resume: the torn tail is truncated, frame 1 wins, and the
        // report still comes out byte-identical.
        let out = herd(&campaign_args(store, ckpt, "2", &["--resume"]), None);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert!(stderr(&out).contains("resumed from checkpoint at unit 4"), "{}", stderr(&out));
        assert_eq!(stdout(&out), reference);
        assert_scrub_clean(store);
    }

    #[test]
    fn crash_mid_compaction_preserves_the_original_store() {
        let dir = temp_dir("compact-crash");
        let reference = reference_json(&dir);
        let store = dir.join("s.vstore");
        let store = store.to_str().unwrap();
        let ckpt = dir.join("s.ck");
        let ckpt = ckpt.to_str().unwrap();
        let out = herd(&campaign_args(store, ckpt, "2", &[]), None);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

        // The crash hits after half the snapshot reaches the temp file
        // and before the rename: the original must be untouched.
        let out = herd(&["store", "compact", store], Some("store.compact.crash"));
        assert_eq!(out.status.code(), Some(5), "injected crash: {}", stderr(&out));
        assert_scrub_clean(store);

        // And the store still answers: a warm re-run replays every
        // verdict from it, byte-identical.
        let out = herd(&campaign_args(store, ckpt, "2", &[]), None);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert_eq!(stdout(&out), reference);
    }

    #[test]
    fn transient_fault_storm_is_retried_into_a_clean_report() {
        let dir = temp_dir("storm-recovered");
        let reference = reference_json(&dir);
        for jobs in ["1", "2", "8"] {
            let store = dir.join(format!("s-j{jobs}.vstore"));
            let store = store.to_str().unwrap();
            let ckpt = dir.join(format!("s-j{jobs}.ck"));
            let ckpt = ckpt.to_str().unwrap();

            // Two injected failures, --max-retries 2: the third attempt
            // at unit 0 succeeds and the storm leaves no trace in the
            // report.
            let out = herd(
                &campaign_args(store, ckpt, jobs, &["--max-retries", "2"]),
                Some("worker.transient=1:2"),
            );
            assert_eq!(out.status.code(), Some(0), "jobs={jobs}: {}", stderr(&out));
            assert_eq!(stdout(&out), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn poisoned_unit_is_quarantined_and_the_campaign_degrades() {
        let dir = temp_dir("quarantine");
        for jobs in ["1", "2", "8"] {
            let store = dir.join(format!("s-j{jobs}.vstore"));
            let store = store.to_str().unwrap();
            let ckpt = dir.join(format!("s-j{jobs}.ck"));
            let ckpt = ckpt.to_str().unwrap();

            // Three injected failures swallow attempts 1..=3 of unit 0:
            // quarantine, but the other 32 units complete.
            let out = herd(
                &campaign_args(store, ckpt, jobs, &["--max-retries", "2"]),
                Some("worker.transient=1:3"),
            );
            assert_eq!(out.status.code(), Some(8), "jobs={jobs}: degraded exit: {}", stderr(&out));
            let json = stdout(&out);
            assert!(json.contains("\"partial\":true"), "jobs={jobs}: {json}");
            assert!(
                json.contains("\"kind\":\"transient-io\"") && json.contains("\"attempts\":3"),
                "jobs={jobs}: {json}"
            );
            assert!(stderr(&out).contains("quarantined") || json.contains("failed_units"));
            assert_scrub_clean(store);

            // The quarantine is sticky across resume (no doomed
            // re-retries), and a fresh fault-free run of the same store
            // heals the row.
            let out = herd(&campaign_args(store, ckpt, jobs, &["--max-retries", "2"]), None);
            assert_eq!(
                out.status.code(),
                Some(0),
                "jobs={jobs}: warm fault-free rerun: {}",
                stderr(&out)
            );
            assert!(stdout(&out).contains("\"partial\":false"), "{}", stdout(&out));
        }
    }
}
