//! Framed, checksummed campaign checkpoints.
//!
//! A checkpoint file (`LKMMCK01`) is an append-only sequence of
//! *manifest frames*, each a complete snapshot of campaign progress:
//! the config fingerprint, the corpus cursor (units `0..cursor` are
//! done), per-column watermarks, and the quarantined units. Appending a
//! whole frame per checkpoint — rather than rewriting one in place —
//! means a crash *during* a checkpoint write costs nothing: the torn
//! frame fails its length or checksum test on load and the previous
//! frame wins. The file is a [`lkmm_service::frame`] log, as the verdict
//! store is: load scans the valid prefix, stops at the first bad frame,
//! and takes the **latest valid** manifest.
//!
//! Each frame's payload is a JSON manifest, so a human can inspect a
//! checkpoint with `xxd`/`jq` when a campaign goes sideways. The
//! fingerprint is serialized as a hex string — the vendored JSON type
//! holds numbers as `f64`, which cannot carry 64 significant bits.
//!
//! Fault points: `ckpt.torn` tears a frame mid-append (half the frame
//! reaches the file, the append returns an injected error), simulating
//! a crash inside the checkpoint write itself.

use crate::matrix::ModelPass;
use crate::oracle::OracleSummary;
use crate::report::{oracle_counts, pass_counts};
use lkmm_service::frame::{Format, FrameLog, WrongMagic};
use lkmm_service::json::Json;
use std::io;
use std::path::Path;

/// The checkpoint log. The magic's trailing `01` versions the manifest
/// schema; a wrong-magic file starts over on a resuming open.
static FORMAT: Format = Format {
    magic: b"LKMMCK01",
    // A manifest is small JSON: a length beyond this is corruption, not
    // a big checkpoint.
    max_len: 1 << 24,
    wrong_magic: WrongMagic::StartOver,
    torn_fault: "ckpt.torn",
    dir_sync_fault: None,
};

/// Why a quarantined unit was given up on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The unit panicked past the retry budget — either the driver
    /// caught the panic itself or every retry left contained
    /// worker-panic cells.
    Panic,
    /// Transient store/checkpoint I/O kept failing.
    TransientIo,
    /// The unit kept tripping the relative wall-clock limit.
    Deadline,
}

impl FailureKind {
    /// Stable name used in reports and checkpoint manifests.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::TransientIo => "transient-io",
            FailureKind::Deadline => "deadline",
        }
    }

    fn from_name(name: &str) -> Option<FailureKind> {
        match name {
            "panic" => Some(FailureKind::Panic),
            "transient-io" => Some(FailureKind::TransientIo),
            "deadline" => Some(FailureKind::Deadline),
            _ => None,
        }
    }
}

/// One quarantined corpus unit: the supervisor retried it
/// `attempts` times, every attempt failed the same way, and the
/// campaign carried on without it (its matrix row stays all-`None`, the
/// oracles skip it, and the run reports as degraded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedUnit {
    /// Corpus index (stable across resume — the corpus is a
    /// deterministic function of the config).
    pub index: usize,
    /// Test name, for the report.
    pub test: String,
    /// The failure class every attempt landed in.
    pub kind: FailureKind,
    /// Attempts made (first try + retries).
    pub attempts: u32,
    /// Last failure's message.
    pub detail: String,
}

impl FailedUnit {
    /// The unit as the reports and checkpoints list it.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::num(self.index as u64)),
            ("test", Json::str(&self.test)),
            ("kind", Json::str(self.kind.name())),
            ("attempts", Json::num(u64::from(self.attempts))),
            ("detail", Json::str(&self.detail)),
        ])
    }

    fn from_json(v: &Json) -> Option<FailedUnit> {
        Some(FailedUnit {
            index: v.get("index")?.as_u64()? as usize,
            test: v.get("test")?.as_str()?.to_string(),
            kind: FailureKind::from_name(v.get("kind")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()? as u32,
            detail: v.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// Aggregate campaign state over the finished prefix `0..cursor` — the
/// whole deterministic report boiled down to sums. Present in a
/// manifest when (and only when) that prefix is discrepancy-free, which
/// lets a resume *continue the arithmetic* instead of replaying the
/// prefix: pass counts and oracle summaries restart from these numbers
/// and only tail units are ever generated or checked. A prefix that
/// found discrepancies would need their full structure in the manifest
/// (test ASTs, recheck specs — the shrinker re-reduces them at the
/// end); rather than serialise all that, a dirty campaign records no
/// prefix and resume falls back to replaying through the warm store.
/// Discrepancies are the rare stop-the-world case; a cheap resume of a
/// clean campaign is the common one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Library rows in the prefix.
    pub corpus_library: usize,
    /// Generated rows in the prefix.
    pub corpus_generated: usize,
    /// Per-column deterministic counts, in
    /// [`crate::matrix::ModelId::ALL`] order. Only the report fields
    /// (checked/allowed/forbidden/inconclusive/skipped) are carried;
    /// the observability counters (hits, computed, …) are per-process
    /// and deliberately absent.
    pub passes: Vec<ModelPass>,
    /// Per-oracle summaries, in [`crate::oracle::OracleKind::ALL`]
    /// order.
    pub oracles: Vec<OracleSummary>,
}

impl PrefixStats {
    fn to_json(&self) -> Json {
        let passes = self.passes.iter().map(|p| Json::obj(pass_counts(p)));
        let oracles = self.oracles.iter().map(|o| Json::obj(oracle_counts(o)));
        Json::obj(vec![
            ("library", Json::num(self.corpus_library as u64)),
            ("generated", Json::num(self.corpus_generated as u64)),
            ("passes", Json::Arr(passes.collect())),
            ("oracles", Json::Arr(oracles.collect())),
        ])
    }

    fn from_json(v: &Json) -> Option<PrefixStats> {
        let passes = v
            .get("passes")?
            .as_arr()?
            .iter()
            .map(|p| {
                Some(ModelPass {
                    checked: p.get("checked")?.as_u64()? as usize,
                    allowed: p.get("allowed")?.as_u64()? as usize,
                    forbidden: p.get("forbidden")?.as_u64()? as usize,
                    inconclusive: p.get("inconclusive")?.as_u64()? as usize,
                    skipped: p.get("skipped")?.as_u64()? as usize,
                    ..ModelPass::default()
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let oracles = v
            .get("oracles")?
            .as_arr()?
            .iter()
            .map(|o| {
                Some(OracleSummary {
                    checked: o.get("checked")?.as_u64()? as usize,
                    violations: o.get("violations")?.as_u64()? as usize,
                    skipped: o.get("skipped")?.as_u64()? as usize,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PrefixStats {
            corpus_library: v.get("library")?.as_u64()? as usize,
            corpus_generated: v.get("generated")?.as_u64()? as usize,
            passes,
            oracles,
        })
    }
}

/// One manifest: everything a resumed campaign needs to pick up where
/// this one stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-64 over the canonical config string; resume refuses to
    /// continue under a different fingerprint.
    pub fingerprint: u64,
    /// Units `0..cursor` are done (checked or quarantined) and their
    /// completed verdicts are durable in the store — the driver flushes
    /// the store before every frame.
    pub cursor: usize,
    /// Per-column checked-cell counts at frame time, in
    /// [`crate::matrix::ModelId::ALL`] order. Observability only.
    pub watermarks: Vec<usize>,
    /// Quarantined units so far; resume skips them without retrying.
    pub failed_units: Vec<FailedUnit>,
    /// Aggregates over the clean prefix, or `None` when the prefix has
    /// discrepancies (resume then replays through the store instead).
    pub prefix: Option<PrefixStats>,
}

impl Checkpoint {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            ("cursor", Json::num(self.cursor as u64)),
            (
                "watermarks",
                Json::Arr(self.watermarks.iter().map(|&w| Json::num(w as u64)).collect()),
            ),
            (
                "failed_units",
                Json::Arr(self.failed_units.iter().map(FailedUnit::to_json).collect()),
            ),
        ];
        if let Some(prefix) = &self.prefix {
            fields.push(("prefix", prefix.to_json()));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Option<Checkpoint> {
        let fingerprint = u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?;
        let cursor = v.get("cursor")?.as_u64()? as usize;
        let watermarks = v
            .get("watermarks")?
            .as_arr()?
            .iter()
            .map(|w| w.as_u64().map(|w| w as usize))
            .collect::<Option<Vec<_>>>()?;
        let failed_units = v
            .get("failed_units")?
            .as_arr()?
            .iter()
            .map(FailedUnit::from_json)
            .collect::<Option<Vec<_>>>()?;
        // A malformed prefix section poisons the whole frame (the
        // previous frame wins) rather than silently resuming without it.
        let prefix = match v.get("prefix") {
            None => None,
            Some(p) => Some(PrefixStats::from_json(p)?),
        };
        Some(Checkpoint { fingerprint, cursor, watermarks, failed_units, prefix })
    }
}

/// What a checkpoint-file scan found.
#[derive(Clone, Debug, Default)]
pub struct CheckpointScan {
    /// The latest valid manifest, if any frame survived.
    pub latest: Option<Checkpoint>,
    /// Valid frames in the prefix.
    pub frames: usize,
    /// Bytes past the last valid frame (a torn or corrupt tail — the
    /// expected residue of a crash mid-checkpoint).
    pub dropped_bytes: u64,
}

/// Scan `path` and return the latest valid manifest. A missing file is
/// an empty scan, not an error; a wrong-magic file is treated as no
/// checkpoint at all (never silently reused across format versions).
///
/// # Errors
///
/// Underlying read errors only — torn and corrupt frames are recovery
/// input, not errors.
pub fn load(path: &Path) -> io::Result<CheckpointScan> {
    let bytes = match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CheckpointScan::default()),
        bytes => bytes?,
    };
    let mut scan = FORMAT.scan(&bytes, parse_manifest);
    let frames = scan.frames.len();
    Ok(CheckpointScan { latest: scan.frames.pop(), frames, dropped_bytes: scan.dropped_bytes() })
}

fn parse_manifest(payload: &[u8]) -> Option<Checkpoint> {
    Checkpoint::from_json(&Json::parse(std::str::from_utf8(payload).ok()?).ok()?)
}

/// An open checkpoint file the driver appends manifest frames to.
pub struct CheckpointLog {
    log: FrameLog,
}

impl CheckpointLog {
    /// Open `path` for appending. `resume: false` truncates any
    /// previous campaign's frames (their fingerprint may differ);
    /// `resume: true` keeps them — but first truncates the file back to
    /// its valid prefix, so new frames never land after a torn tail.
    ///
    /// # Errors
    ///
    /// File creation/truncation errors.
    pub fn open(path: &Path, resume: bool) -> io::Result<CheckpointLog> {
        if !resume {
            std::fs::File::create(path)?;
        }
        Ok(CheckpointLog { log: FrameLog::open(path, &FORMAT, parse_manifest)?.0 })
    }

    /// Append one manifest frame and sync it to stable storage. The
    /// first append of a log's lifetime also fsyncs the parent
    /// directory, so a crash cannot lose the file entry itself.
    ///
    /// # Errors
    ///
    /// Write/sync failures, including the injected `ckpt.torn` tear
    /// (half the frame reaches the file; the next [`load`] drops it).
    pub fn append(&mut self, ck: &Checkpoint) -> io::Result<()> {
        self.log.append(ck.to_json().to_string().as_bytes())?;
        self.log.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("lkmm-ckpt-{}-{tag}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample(cursor: usize) -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            cursor,
            watermarks: vec![cursor; 7],
            failed_units: vec![FailedUnit {
                index: 3,
                test: "W+W".into(),
                kind: FailureKind::TransientIo,
                attempts: 3,
                detail: "injected".into(),
            }],
            prefix: None,
        }
    }

    #[test]
    fn prefix_aggregates_round_trip() {
        let path = temp_path("prefix");
        let ck = Checkpoint {
            prefix: Some(PrefixStats {
                corpus_library: 5,
                corpus_generated: 4,
                passes: (0..7)
                    .map(|i| ModelPass {
                        checked: 9 - i,
                        allowed: 4,
                        forbidden: 3,
                        inconclusive: 1,
                        skipped: i,
                        // Observability counters must not survive the
                        // round trip: they are per-process noise.
                        hits: 1000,
                        computed: 1000,
                        deduped: 1000,
                        candidates_enumerated: 1000,
                    })
                    .collect(),
                oracles: vec![
                    OracleSummary { checked: 9, violations: 0, skipped: 2 };
                    4
                ],
            }),
            ..sample(9)
        };
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&ck).unwrap();
        drop(log);
        let got = load(&path).unwrap().latest.unwrap();
        let prefix = got.prefix.expect("prefix survives");
        assert_eq!(prefix.corpus_library, 5);
        assert_eq!(prefix.corpus_generated, 4);
        assert_eq!(prefix.passes.len(), 7);
        assert_eq!(prefix.passes[2].checked, 7);
        assert_eq!(prefix.passes[2].skipped, 2);
        assert_eq!(prefix.passes[0].hits, 0, "observability counters are dropped");
        assert_eq!(prefix.passes[0].candidates_enumerated, 0);
        assert_eq!(prefix.oracles.len(), 4);
        assert_eq!(prefix.oracles[1].skipped, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn latest_valid_frame_wins() {
        let path = temp_path("latest");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        for cursor in [1, 5, 9] {
            log.append(&sample(cursor)).unwrap();
        }
        drop(log);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 3);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.latest, Some(sample(9)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_falls_back_to_the_previous_frame() {
        let path = temp_path("torn");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        log.append(&sample(8)).unwrap();
        drop(log);
        // Crash mid-append: chop bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 1);
        assert!(scan.dropped_bytes > 0);
        assert_eq!(scan.latest.unwrap().cursor, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_for_resume_truncates_the_tear_and_appends_cleanly() {
        let path = temp_path("reopen");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        drop(log);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().append(true).open(&path).unwrap()
            .write_all(&[0x55; 9]).unwrap();
        let mut log = CheckpointLog::open(&path, true).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "tear truncated");
        log.append(&sample(12)).unwrap();
        drop(log);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 2);
        assert_eq!(scan.latest.unwrap().cursor, 12);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_open_discards_a_previous_campaign() {
        let path = temp_path("fresh");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        drop(log);
        let log = CheckpointLog::open(&path, false).unwrap();
        drop(log);
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 0);
        assert!(scan.latest.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_is_dropped() {
        let path = temp_path("corrupt");
        let mut log = CheckpointLog::open(&path, false).unwrap();
        log.append(&sample(4)).unwrap();
        log.append(&sample(8)).unwrap();
        drop(log);
        // Flip a byte inside the second frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 10;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = load(&path).unwrap();
        assert_eq!(scan.frames, 1);
        assert_eq!(scan.latest.unwrap().cursor, 4);
        assert!(scan.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_scan() {
        let path = temp_path("missing");
        let scan = load(&path).unwrap();
        assert!(scan.latest.is_none());
        assert_eq!(scan.frames, 0);
    }

    #[test]
    fn wrong_magic_is_no_checkpoint() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTACKPT whatever").unwrap();
        let scan = load(&path).unwrap();
        assert!(scan.latest.is_none());
        assert!(scan.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
