//! The verdict store and the campaign checkpoint write the same frame
//! log: an 8-byte magic, then `len:u32le fnv64:u64le payload` frames,
//! read back up to the first torn or corrupt frame. This pins the bytes
//! each log writes, so that warm stores and checkpoints written before a
//! change still replay after it, and runs one table of hand-made tails
//! through the store's open and scrub and through `checkpoint::load`
//! and a resuming `CheckpointLog::open`, so that both logs keep the
//! frames, and classify and cut the bytes, exactly as before.

use linux_kernel_memory_model::conformance::checkpoint::{
    self, Checkpoint, CheckpointLog, FailedUnit, FailureKind, PrefixStats,
};
use linux_kernel_memory_model::conformance::{ModelPass, OracleSummary};
use linux_kernel_memory_model::exec::{TestResult, Verdict};
use linux_kernel_memory_model::service::hash::fnv64;
use linux_kernel_memory_model::service::VerdictStore;
use std::path::{Path, PathBuf};

/// `fnv64` of the store the fixed `put`s below write.
const STORE_DIGEST: u64 = 0x8b11_ea25_de69_3f1b;
/// `fnv64` of the three-frame checkpoint below.
const CHECKPOINT_DIGEST: u64 = 0xafef_464f_086d_cb36;

fn result(verdict: Verdict, condition_holds: bool, n: usize) -> TestResult {
    TestResult { verdict, condition_holds, candidates: 10 * n, allowed: 3 * n, witnesses: n }
}

/// Four frames over three keys: the third `put` supersedes the first.
fn write_store(path: &Path) {
    let mut store = VerdictStore::open(path).unwrap();
    let puts = [
        (0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, result(Verdict::Allowed, true, 4)),
        (0xdead_beef_0000_0001_0000_0000_0000_0002, result(Verdict::Forbidden, false, 7)),
        (0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, result(Verdict::Forbidden, true, 5)),
        (u128::MAX, result(Verdict::Allowed, false, 1)),
    ];
    for (key, r) in puts {
        assert!(store.put(key, r).unwrap());
    }
    store.flush().unwrap();
}

/// Three frames: one with a clean prefix, one without, and one carrying
/// a quarantined unit.
fn write_checkpoint(path: &Path) {
    let prefix = PrefixStats {
        corpus_library: 5,
        corpus_generated: 12,
        passes: (0..7)
            .map(|i| ModelPass {
                checked: 17 - i,
                allowed: 9,
                forbidden: 6 - i,
                inconclusive: 1,
                skipped: i,
                ..ModelPass::default()
            })
            .collect(),
        oracles: (0..4).map(|i| OracleSummary { checked: 17, violations: 0, skipped: i }).collect(),
    };
    let frame = |cursor: usize| Checkpoint {
        fingerprint: 0x0bad_f00d_dead_beef,
        cursor,
        watermarks: vec![cursor; 7],
        failed_units: Vec::new(),
        prefix: None,
    };
    let mut log = CheckpointLog::open(path, false).unwrap();
    log.append(&Checkpoint { prefix: Some(prefix), ..frame(4) }).unwrap();
    log.append(&frame(8)).unwrap();
    let failed = FailedUnit {
        index: 9,
        test: "W+RWC+po\"q\"".into(),
        kind: FailureKind::TransientIo,
        attempts: 3,
        detail: "injected I/O error".into(),
    };
    log.append(&Checkpoint { failed_units: vec![failed], ..frame(12) }).unwrap();
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lkmm-frame-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A frame holding `payload`, as both logs encode it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How a log reads once `bytes` follow its valid frames (or, for a
/// whole-file case, replace the file).
struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    /// `bytes` are the whole file, not a tail after the valid frames.
    whole: bool,
    torn: u64,
    corrupt_frames: usize,
    corrupt_bytes: u64,
}

fn cases() -> Vec<Case> {
    let tail = |name, bytes: Vec<u8>, torn, corrupt_frames, corrupt_bytes| Case {
        name,
        bytes,
        whole: false,
        torn,
        corrupt_frames,
        corrupt_bytes,
    };
    // Neither log parses 42 bytes of 0xff: no verdict byte is 0xff, and
    // no manifest is invalid UTF-8.
    let junk = [0xffu8; 42];
    let mut short_payload = frame(&junk);
    short_payload.truncate(12 + 10);
    let mut over_cap = u32::MAX.to_le_bytes().to_vec();
    over_cap.extend_from_slice(&[0x11; 28]);
    let mut bad_checksum = frame(&junk);
    bad_checksum[4] ^= 1;
    vec![
        tail("short header", vec![0xaa; 5], 5, 0, 0),
        tail("short payload", short_payload, 22, 0, 0),
        tail("length over the cap", over_cap, 0, 1, 32),
        tail("bad checksum", bad_checksum, 0, 1, 54),
        tail("unparsable payload", frame(&junk), 0, 1, 54),
        Case { whole: true, ..tail("wrong magic", b"NOTALOG!, then junk".to_vec(), 0, 0, 0) },
        Case { whole: true, ..tail("empty file", Vec::new(), 0, 0, 0) },
    ]
}

#[test]
fn both_logs_keep_their_bytes_and_recover_hand_made_tails_alike() {
    let dir = temp_dir();
    let store = dir.join("pinned.vstore");
    let ckpt = dir.join("pinned.ck");
    write_store(&store);
    write_checkpoint(&ckpt);
    let store_bytes = std::fs::read(&store).unwrap();
    let ckpt_bytes = std::fs::read(&ckpt).unwrap();
    assert_eq!(fnv64(&store_bytes), STORE_DIGEST, "store bytes: {}", store_bytes.len());
    assert_eq!(fnv64(&ckpt_bytes), CHECKPOINT_DIGEST, "checkpoint bytes: {}", ckpt_bytes.len());

    for (i, case) in cases().into_iter().enumerate() {
        let name = case.name;
        let body = |valid: &[u8]| {
            if case.whole {
                case.bytes.clone()
            } else {
                [valid, &case.bytes].concat()
            }
        };
        // What the valid prefix holds, and how long a file is once an
        // open has cut it back (a wrong-magic or empty file starts again
        // at its magic).
        let (store_frames, ckpt_frames) = if case.whole { (0, 0) } else { (4, 3) };
        let kept = |valid: &[u8]| if case.whole { 8 } else { valid.len() as u64 };
        let wrong_magic = name == "wrong magic";

        let path = dir.join(format!("case{i}.vstore"));
        std::fs::write(&path, body(&store_bytes)).unwrap();
        let scrub = VerdictStore::scrub(&path, false).unwrap();
        assert_eq!(scrub.records, store_frames, "{name}: scrub records");
        assert_eq!(scrub.torn_bytes, case.torn, "{name}: scrub torn");
        assert_eq!(scrub.corrupt_frames, case.corrupt_frames, "{name}: scrub corrupt frames");
        assert_eq!(scrub.corrupt_bytes, case.corrupt_bytes, "{name}: scrub corrupt bytes");
        assert_eq!(scrub.wrong_magic, wrong_magic, "{name}: scrub magic");
        let opened = VerdictStore::open(&path).unwrap();
        let recovery = opened.recovery();
        assert_eq!(recovery.records, store_frames, "{name}: open records");
        assert_eq!(opened.len(), store_frames.saturating_sub(1), "{name}: open keys");
        assert_eq!(recovery.torn_bytes, case.torn, "{name}: open torn");
        assert_eq!(recovery.corrupt_frames, case.corrupt_frames, "{name}: open corrupt frames");
        assert_eq!(recovery.corrupt_bytes, case.corrupt_bytes, "{name}: open corrupt bytes");
        assert_eq!(recovery.quarantined, wrong_magic, "{name}: open quarantine");
        drop(opened);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), kept(&store_bytes), "{name}: cut");

        let path = dir.join(format!("case{i}.ck"));
        let bytes = body(&ckpt_bytes);
        std::fs::write(&path, &bytes).unwrap();
        let scan = checkpoint::load(&path).unwrap();
        assert_eq!(scan.frames, ckpt_frames, "{name}: checkpoint frames");
        let dropped = if wrong_magic { bytes.len() as u64 } else { case.torn + case.corrupt_bytes };
        assert_eq!(scan.dropped_bytes, dropped, "{name}: checkpoint dropped");
        assert_eq!(scan.latest.map(|ck| ck.cursor), (!case.whole).then_some(12), "{name}");
        drop(CheckpointLog::open(&path, true).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), kept(&ckpt_bytes), "{name}: ckpt cut");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
