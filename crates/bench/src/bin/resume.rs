//! Checkpoint/resume overhead micro-bench for the conformance driver.
//!
//! Dependency-free (no criterion): times the crash-recovery story the
//! resilience layer promises —
//!
//! * `cold` — a full campaign from nothing: fresh verdict store, fresh
//!   checkpoint file, every matrix cell enumerated;
//! * `resume` — the same campaign suspended at ~90% completion (the
//!   deterministic `stop_after` suspend), then resumed: the completed
//!   prefix restores from the checkpoint's aggregates (no generation,
//!   no store replay) while only the tail is computed;
//!
//! then writes `BENCH_RESUME.json` in the working directory and prints
//! a summary table. The suspended leg is setup, not measurement: only
//! the resumed invocation is timed. The run doubles as a correctness
//! check — the resumed report must be byte-identical to the cold one,
//! and the resume must cost at most 15% of a cold campaign (the whole
//! point of checkpointing is that a crash near the end is cheap).
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin resume [-- --iters N] [--max-cycle-len L]
//! ```

use lkmm_bench::{pass_stats, Flag, Report, Row, Val};
use lkmm_conformance::{
    corpus_stream, json_report, run_campaign, CampaignConfig, CampaignError, ResilienceConfig,
    SimConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn campaign_config(max_cycle_len: usize, store: &Path, ckpt: &Path) -> CampaignConfig {
    CampaignConfig {
        max_cycle_len,
        store_path: Some(store.to_path_buf()),
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        resilience: ResilienceConfig {
            checkpoint: Some(ckpt.to_path_buf()),
            checkpoint_every: 8,
            ..ResilienceConfig::default()
        },
        ..CampaignConfig::default()
    }
}

fn main() {
    let (mut iters, mut max_cycle_len) = (3, 4);
    lkmm_bench::flags(&mut [
        Flag::count("--iters", &mut iters, "timed repetitions per config"),
        Flag::int("--max-cycle-len", &mut max_cycle_len, 0, "cycle length"),
    ]);

    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let cold_store: PathBuf = tmp.join(format!("lkmm-bench-resume-cold-{pid}.bin"));
    let cold_ckpt: PathBuf = tmp.join(format!("lkmm-bench-resume-cold-{pid}.ck"));
    let part_store: PathBuf = tmp.join(format!("lkmm-bench-resume-part-{pid}.bin"));
    let part_ckpt: PathBuf = tmp.join(format!("lkmm-bench-resume-part-{pid}.ck"));

    let cold_cfg = campaign_config(max_cycle_len, &cold_store, &cold_ckpt);
    let total = corpus_stream(&cold_cfg).total();
    let suspend_at = (total * 9) / 10;
    assert!(suspend_at > 0 && suspend_at < total, "corpus too small to suspend at 90%");

    // Cold: everything from nothing, checkpointing all the way.
    let mut cold_seconds = 0.0;
    let mut cold_json = String::new();
    let mut cold_hits = 0usize;
    let mut cold_enumerated = 0usize;
    for i in 0..iters {
        let _ = std::fs::remove_file(&cold_store);
        let _ = std::fs::remove_file(&cold_ckpt);
        let start = Instant::now();
        let report = run_campaign(&cold_cfg).expect("cold campaign runs");
        cold_seconds += start.elapsed().as_secs_f64();
        assert!(report.clean(), "cold campaign found discrepancies");
        assert!(!report.degraded(), "cold campaign quarantined units");
        if i == 0 {
            cold_json = json_report(&report, &cold_cfg).to_string();
            (_, cold_enumerated, cold_hits, _) = pass_stats(&report);
        }
    }

    // Resume: suspend at ~90% (setup, untimed), then time the resumed
    // invocation that replays the prefix and computes the tail.
    let mut resume_seconds = 0.0;
    let mut resume_hits = 0usize;
    let mut resume_enumerated = 0usize;
    for _ in 0..iters {
        let _ = std::fs::remove_file(&part_store);
        let _ = std::fs::remove_file(&part_ckpt);
        let mut suspend_cfg = campaign_config(max_cycle_len, &part_store, &part_ckpt);
        suspend_cfg.resilience.stop_after = Some(suspend_at);
        match run_campaign(&suspend_cfg) {
            Err(CampaignError::Suspended { cursor, .. }) => assert_eq!(cursor, suspend_at),
            other => panic!("expected suspension, got {other:?}"),
        }

        let mut resume_cfg = campaign_config(max_cycle_len, &part_store, &part_ckpt);
        resume_cfg.resilience.resume = true;
        let start = Instant::now();
        let report = run_campaign(&resume_cfg).expect("resumed campaign runs");
        resume_seconds += start.elapsed().as_secs_f64();
        assert_eq!(report.resumed_at, Some(suspend_at), "resume missed the checkpoint");
        let resume_json = json_report(&report, &resume_cfg).to_string();
        assert_eq!(resume_json, cold_json, "resumed report differs from cold");
        (_, resume_enumerated, resume_hits, _) = pass_stats(&report);
        assert!(resume_enumerated > 0, "the tail must compute fresh");
        assert!(
            resume_enumerated < cold_enumerated / 2,
            "resume re-enumerated most of the corpus ({resume_enumerated} of {cold_enumerated})"
        );
    }
    for p in [&cold_store, &cold_ckpt, &part_store, &part_ckpt] {
        let _ = std::fs::remove_file(p);
    }

    let cold_avg = cold_seconds / iters as f64;
    let resume_avg = resume_seconds / iters as f64;
    let ratio = resume_avg / cold_avg;
    assert!(
        ratio <= 0.15,
        "resume at {:.0}% completion cost {:.1}% of a cold campaign \
         ({resume_avg:.3} s against {cold_avg:.3} s; budget: 15%)",
        100.0 * suspend_at as f64 / total as f64,
        100.0 * ratio
    );

    let row = |config: &str, seconds: f64, hits: usize, enumerated: usize| -> Row {
        vec![
            ("config", config.into()),
            ("seconds", Val::Fixed(seconds, 6)),
            ("tests", total.into()),
            ("hits", hits.into()),
            ("candidates_enumerated", enumerated.into()),
            ("fraction_of_cold", Val::Fixed(seconds / cold_avg, 4)),
        ]
    };
    Report {
        bench: "conformance-resume",
        params: vec![
            ("max_cycle_len", max_cycle_len.into()),
            ("iters", iters.into()),
            ("corpus_total", total.into()),
            ("suspended_at", suspend_at.into()),
            ("resume_budget_fraction", Val::Fixed(0.15, 2)),
        ],
        rows: vec![
            row("cold", cold_avg, cold_hits, cold_enumerated),
            row("resume", resume_avg, resume_hits, resume_enumerated),
        ],
    }
    .finish("BENCH_RESUME.json");
}
