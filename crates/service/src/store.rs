//! Persistent verdict store: an append-only, checksummed binary log with
//! an in-memory index.
//!
//! ## Log format
//!
//! The log is a [`crate::frame`] log with magic `LKMMVS01` whose
//! payloads are verdicts:
//!
//! ```text
//! payload := key:u128le verdict:u8 condition_holds:u8
//!            candidates:u64le allowed:u64le witnesses:u64le
//! ```
//!
//! A payload is 42 bytes today; readers accept longer payloads whose
//! prefix parses, so fields can be appended later. Durability is a
//! [`VerdictStore::flush`] (`fsync` of the file, plus — once per store
//! lifetime — of the parent directory, so a crash cannot lose the
//! just-created file itself) away.
//!
//! ## Crash safety & recovery
//!
//! On open, the log is cut back to its valid prefix: a torn tail (a
//! crash mid-append) and a corrupt frame (rot) are told apart and
//! counted in the [`RecoveryReport`] (see [`crate::frame`]). A file
//! whose magic is wrong is treated as empty (quarantined to
//! `<path>.corrupt` rather than deleted). Within the valid prefix,
//! later records win — re-checking a test after a semantic change
//! appends rather than rewrites.
//!
//! ## Locking
//!
//! Opening a store takes a sibling `<path>.lock` advisory lockfile
//! (create-exclusive, holding the owner's PID). A second opener gets
//! [`StoreError::Locked`] instead of interleaving appends into the same
//! log. A lockfile whose PID is no longer alive is stale (the holder
//! crashed before its `Drop` ran) and is reclaimed.
//!
//! ## Maintenance
//!
//! [`VerdictStore::scrub`] verifies every frame checksum read-only (or
//! repairs defects in place), [`VerdictStore::compact`] rewrites the
//! log dropping superseded frames behind an atomic rename (fsyncing
//! file *and* directory), and [`crate::ShardedStore::export_merged`] /
//! [`crate::ShardedStore::merge_into_shards`] copy warm verdicts between
//! stores (a plain store is a one-shard family) with last-writer-wins
//! determinism.

use crate::frame::{self, fsync_dir, sibling, Format, FrameLog, Scan, WrongMagic, HEADER_LEN};
use crate::shard::ShardedStore;
use lkmm_core::faultpoint;
use lkmm_exec::{TestResult, Verdict};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A store's log: a wrong-magic file is quarantined, never overwritten.
static FORMAT: Format = Format {
    magic: b"LKMMVS01",
    // No legitimate payload is remotely this large.
    max_len: 1 << 20,
    wrong_magic: WrongMagic::Quarantine,
    torn_fault: "store.append.torn",
    dir_sync_fault: Some("store.append.sync"),
};
const PAYLOAD_LEN: usize = 16 + 1 + 1 + 8 + 8 + 8;

/// Errors from opening or maintaining a store.
#[derive(Debug)]
pub enum StoreError {
    /// Another live process (or another handle in this one) holds the
    /// store's advisory lockfile.
    Locked {
        /// The lockfile that is held.
        lock: PathBuf,
        /// The holder's PID as recorded in the lockfile, if readable.
        pid: Option<u32>,
    },
    /// Plain I/O failure.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Locked { lock, pid } => match pid {
                Some(pid) => {
                    write!(f, "store is locked by pid {pid} (lockfile {})", lock.display())
                }
                None => write!(f, "store is locked (lockfile {})", lock.display()),
            },
            StoreError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    /// For callers that only speak `io::Error`; `Locked` degrades to
    /// [`io::ErrorKind::WouldBlock`] (typed callers match on
    /// [`StoreError`] directly to keep the distinct exit code).
    fn from(e: StoreError) -> io::Error {
        match e {
            StoreError::Io(e) => e,
            e @ StoreError::Locked { .. } => io::Error::new(io::ErrorKind::WouldBlock, e.to_string()),
        }
    }
}

/// What [`VerdictStore::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records recovered into the index.
    pub records: usize,
    /// Bytes discarded from an incomplete final frame — the expected
    /// artifact of a crash mid-append (0 on a clean log).
    pub torn_bytes: u64,
    /// Complete-but-invalid frames dropped (bad checksum, absurd
    /// length, or unparseable payload): genuine corruption, which an
    /// append crash cannot produce.
    pub corrupt_frames: usize,
    /// Bytes discarded because of corrupt frames (the frames themselves
    /// plus everything after them, whose boundaries can't be trusted).
    pub corrupt_bytes: u64,
    /// Whether the magic was wrong and the old file was quarantined.
    pub quarantined: bool,
    /// PID recorded in a stale lockfile this open reclaimed (the holder
    /// crashed before its `Drop` removed the lock). `None` when the lock
    /// was free, or when the stale lockfile held no readable PID.
    pub reclaimed_pid: Option<u32>,
}

impl RecoveryReport {
    /// Total bytes discarded past the last valid record, regardless of
    /// why.
    pub fn truncated_bytes(&self) -> u64 {
        self.torn_bytes + self.corrupt_bytes
    }

    /// Whether the log was pristine: every byte accounted for, right
    /// magic.
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes() == 0 && !self.quarantined
    }
}

/// What [`VerdictStore::scrub`] found (and possibly repaired).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Valid frames in the log.
    pub records: usize,
    /// Distinct keys after last-writer-wins replay.
    pub distinct_keys: usize,
    /// Frames superseded by a later frame for the same key.
    pub superseded: usize,
    /// See [`RecoveryReport::torn_bytes`].
    pub torn_bytes: u64,
    /// See [`RecoveryReport::corrupt_frames`].
    pub corrupt_frames: usize,
    /// See [`RecoveryReport::corrupt_bytes`].
    pub corrupt_bytes: u64,
    /// The file's magic was wrong: nothing in it is trustworthy.
    pub wrong_magic: bool,
    /// Whether a repair pass ran and the defects above were healed.
    pub repaired: bool,
}

impl ScrubReport {
    /// Whether the log has any defect a repair would change.
    pub fn defects(&self) -> bool {
        self.wrong_magic || self.torn_bytes > 0 || self.corrupt_frames > 0
    }
}

/// What [`VerdictStore::compact`] / [`crate::ShardedStore::export_merged`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Valid frames read from the source log.
    pub records_in: usize,
    /// Frames written to the compacted log (one per distinct key).
    pub records_out: usize,
    /// Superseded frames dropped (`records_in - records_out`).
    pub superseded: usize,
    /// Defective tail bytes dropped (torn or corrupt).
    pub defect_bytes: u64,
    /// Source log size in bytes.
    pub bytes_before: u64,
    /// Compacted log size in bytes.
    pub bytes_after: u64,
}

/// What [`crate::ShardedStore::merge_into_shards`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Distinct keys replayed from the source store.
    pub source_keys: usize,
    /// Entries appended into the destination (new keys, plus existing
    /// keys whose result differed — the source wins).
    pub merged: usize,
    /// Entries already present with an identical result.
    pub unchanged: usize,
}

/// RAII advisory lockfile: `<store>.lock` created `create_new` with the
/// owner's PID inside. Dropped (and the file removed) when the store
/// closes. A lockfile naming a dead PID is stale — its holder crashed —
/// and is reclaimed. This is advisory: it serialises cooperating
/// `herd-rs` processes, it does not stop a hostile writer.
pub(crate) struct LockFile {
    path: PathBuf,
    /// PID named by a stale lockfile this acquisition reclaimed, so the
    /// opener can tell the operator *whose* crashed lock it took over.
    reclaimed_pid: Option<u32>,
}

impl LockFile {
    pub(crate) fn acquire(store_path: &Path) -> Result<LockFile, StoreError> {
        let path = sibling(store_path, ".lock");
        let mut reclaimed_pid = None;
        for reclaim_attempted in [false, true] {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    // Best-effort: a lockfile without a readable PID is
                    // simply treated as stale by the next contender.
                    let _ = writeln!(f, "{}", std::process::id());
                    let _ = f.sync_data();
                    return Ok(LockFile { path, reclaimed_pid });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let pid = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match pid {
                        Some(pid) => !pid_alive(pid),
                        // Unreadable/empty lockfile: the holder died
                        // between create and write. Reclaim.
                        None => true,
                    };
                    if stale && !reclaim_attempted {
                        reclaimed_pid = pid;
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    return Err(StoreError::Locked { lock: path, pid });
                }
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
        unreachable!("lock acquisition loop always returns");
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        // No portable liveness probe: never reclaim, fail safe.
        true
    }
}

/// Last-writer-wins replay into key order: deterministic content for
/// compacted snapshots regardless of original append order.
pub(crate) fn replay_sorted(records: &[(u128, TestResult)]) -> Vec<(u128, TestResult)> {
    let mut map: HashMap<u128, TestResult> = HashMap::with_capacity(records.len());
    for (key, result) in records {
        map.insert(*key, result.clone());
    }
    let mut out: Vec<(u128, TestResult)> = map.into_iter().collect();
    out.sort_unstable_by_key(|(k, _)| *k);
    out
}

/// Write a fresh log holding exactly `records` to `dst`, atomically:
/// build `<dst>.tmp`, fsync it, rename over `dst`, fsync the directory.
/// A crash at any point leaves either the old `dst` intact (plus a
/// stray `.tmp` the next attempt truncates) or the complete new one.
pub(crate) fn write_snapshot(dst: &Path, records: &[(u128, TestResult)]) -> io::Result<u64> {
    let tmp = sibling(dst, ".tmp");
    let frames = records.len() * (HEADER_LEN + PAYLOAD_LEN);
    let mut out = Vec::with_capacity(FORMAT.magic.len() + frames);
    out.extend_from_slice(FORMAT.magic);
    for (key, result) in records {
        frame::encode(&mut out, &encode_payload(*key, result));
    }
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    if faultpoint::should_fail("store.compact.crash") {
        // Simulated crash mid-rewrite: half the snapshot reaches the
        // temp file, the rename never happens, the original survives.
        f.write_all(&out[..out.len() / 2])?;
        return Err(io::Error::new(
            io::ErrorKind::Other,
            "faultpoint: injected crash at `store.compact.crash`",
        ));
    }
    f.write_all(&out)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, dst)?;
    fsync_dir(dst)?;
    Ok(out.len() as u64)
}

/// Scan the log at `path` for maintenance that rewrites or copies its
/// records: a wrong-magic file is an error, since only `scrub --repair`
/// may touch it.
pub(crate) fn read_records(path: &Path) -> io::Result<Scan<(u128, TestResult)>> {
    let scan = FORMAT.scan(&fs::read(path)?, parse_payload);
    if scan.wrong_magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a verdict store (run scrub --repair first)", path.display()),
        ));
    }
    Ok(scan)
}

/// Write one key-ordered snapshot of the records of `logs` to `dst`,
/// the last record of a key winning, dropping superseded frames and
/// defective tails: how [`VerdictStore::compact`] rewrites a log and
/// [`crate::ShardedStore::export_merged`] copies a family.
pub(crate) fn snapshot(logs: &[PathBuf], dst: &Path) -> io::Result<CompactReport> {
    let mut records = Vec::new();
    let mut bytes_before = 0u64;
    let mut defect_bytes = 0u64;
    for log in logs {
        let scan = read_records(log)?;
        bytes_before += scan.len;
        defect_bytes += scan.dropped_bytes();
        records.extend(scan.frames);
    }
    let sorted = replay_sorted(&records);
    let bytes_after = write_snapshot(dst, &sorted)?;
    Ok(CompactReport {
        records_in: records.len(),
        records_out: sorted.len(),
        superseded: records.len() - sorted.len(),
        defect_bytes,
        bytes_before,
        bytes_after,
    })
}

/// Append-only on-disk verdict cache with an in-memory index.
///
/// All lookups hit the index; the file is only read at open and only
/// appended afterwards. An in-memory store (no backing file) supports
/// the same API for tests and ephemeral servers.
pub struct VerdictStore {
    index: HashMap<u128, TestResult>,
    /// The backing log; `None` for an in-memory store.
    log: Option<FrameLog>,
    recovery: RecoveryReport,
    appended: usize,
    /// Held for the lifetime of a file-backed store; removed on drop.
    _lock: Option<LockFile>,
    /// Log records whose verdict a later record for the same key has
    /// replaced: reclaimable space a compaction would drop.
    superseded: usize,
}

impl VerdictStore {
    /// Open (creating if absent) the store at `path`, taking its
    /// advisory lockfile and recovering the valid prefix of the log. A
    /// sharded family at `path` is refused before anything is created:
    /// a plain log beside it would orphan the family's verdicts.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if another live process holds the store;
    /// otherwise that refusal, or I/O errors opening, reading, or
    /// truncating the file.
    pub fn open(path: impl AsRef<Path>) -> Result<VerdictStore, StoreError> {
        let lock = LockFile::acquire(path.as_ref())?;
        ShardedStore::refuse_other_family(path.as_ref(), 1)?;
        Self::open_locked(path.as_ref(), lock)
    }

    /// [`VerdictStore::open`] under an already taken `lock`, without
    /// looking for a family at `path`: how a family's members open, once
    /// [`ShardedStore`] has checked the family.
    pub(crate) fn open_locked(path: &Path, lock: LockFile) -> Result<VerdictStore, StoreError> {
        let (log, scan) = FrameLog::open(path, &FORMAT, parse_payload)?;
        let recovery = RecoveryReport {
            records: scan.frames.len(),
            torn_bytes: scan.torn_bytes,
            corrupt_frames: scan.corrupt_frames,
            corrupt_bytes: scan.corrupt_bytes,
            quarantined: scan.wrong_magic,
            reclaimed_pid: lock.reclaimed_pid,
        };
        let index: HashMap<u128, TestResult> = scan.frames.into_iter().collect();
        Ok(VerdictStore {
            superseded: recovery.records - index.len(),
            index,
            log: Some(log),
            recovery,
            appended: 0,
            _lock: Some(lock),
        })
    }

    /// A store with no backing file: same semantics, nothing persists.
    pub fn in_memory() -> VerdictStore {
        VerdictStore {
            index: HashMap::new(),
            log: None,
            recovery: RecoveryReport::default(),
            appended: 0,
            _lock: None,
            superseded: 0,
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.log.as_ref().map(FrameLog::path)
    }

    /// What recovery found at open time.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Number of distinct keys in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Records appended since open.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Log records superseded by a later write to the same key — the
    /// space [`VerdictStore::compact`] would reclaim.
    pub fn superseded(&self) -> usize {
        self.superseded
    }

    /// Cached result for `key`.
    pub fn get(&self, key: u128) -> Option<&TestResult> {
        self.index.get(&key)
    }

    /// Every live entry, in unspecified order. Callers needing
    /// determinism (snapshots, merges) sort by key.
    pub fn entries(&self) -> impl Iterator<Item = (u128, &TestResult)> + '_ {
        self.index.iter().map(|(&k, v)| (k, v))
    }

    /// Insert `result` under `key`, appending to the log. A no-op if an
    /// identical entry is already present; a differing entry for the same
    /// key (e.g. after a model change without a salt bump) is overwritten
    /// in the index and appended, so replay keeps the newer verdict.
    ///
    /// A failed append leaves the index untouched and is safe to retry:
    /// the next `put` cuts any torn bytes from the previous attempt back
    /// off the file before writing.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the log.
    pub fn put(&mut self, key: u128, result: TestResult) -> io::Result<bool> {
        if self.index.get(&key) == Some(&result) {
            return Ok(false);
        }
        if let Some(log) = &mut self.log {
            log.append(&encode_payload(key, &result))?;
        }
        if self.index.insert(key, result).is_some() {
            self.superseded += 1;
        }
        self.appended += 1;
        Ok(true)
    }

    /// Force appended records to stable storage: `fsync` the file, and —
    /// the first time — the parent directory, so a crash can't lose the
    /// directory entry of a just-created store.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(log) = &mut self.log {
            faultpoint::inject_io("store.flush")?;
            log.sync()?;
        }
        Ok(())
    }

    /// Verify every frame of the log at `path` read-only; with `repair`,
    /// additionally heal what was found (truncate a defective tail,
    /// quarantine a wrong-magic file and re-initialise).
    ///
    /// Takes the store lock: scrubbing under a live writer would
    /// misreport its in-flight tail as torn.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if the store is in use; I/O errors
    /// reading (including a missing file) or repairing.
    pub fn scrub(path: impl AsRef<Path>, repair: bool) -> Result<ScrubReport, StoreError> {
        let path = path.as_ref();
        let _lock = LockFile::acquire(path)?;
        let scan = FORMAT.scan(&fs::read(path)?, parse_payload);
        let mut report = ScrubReport { wrong_magic: scan.wrong_magic, ..ScrubReport::default() };
        if scan.wrong_magic {
            if repair {
                FORMAT.quarantine(path)?;
                report.repaired = true;
            }
            return Ok(report);
        }
        report.records = scan.frames.len();
        report.distinct_keys = replay_sorted(&scan.frames).len();
        report.superseded = report.records - report.distinct_keys;
        report.torn_bytes = scan.torn_bytes;
        report.corrupt_frames = scan.corrupt_frames;
        report.corrupt_bytes = scan.corrupt_bytes;
        if repair && report.defects() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(scan.end)?;
            f.sync_data()?;
            report.repaired = true;
        }
        Ok(report)
    }

    /// Rewrite the log at `path` in place, dropping superseded frames
    /// and any defective tail, behind an atomic rename (+ fsync of file
    /// and directory). The surviving entries are written in key order,
    /// so equal stores compact to byte-identical files.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if the store is in use; an I/O error for a
    /// missing or wrong-magic file (scrub with repair first) or a failed
    /// rewrite — in which case the original log is untouched.
    pub fn compact(path: impl AsRef<Path>) -> Result<CompactReport, StoreError> {
        let path = path.as_ref();
        let _lock = LockFile::acquire(path)?;
        Ok(snapshot(&[path.to_path_buf()], path)?)
    }
}

/// Per-shard health line reported by sharded backends (see
/// [`crate::shard::ShardedStore`]); a plain [`VerdictStore`] reports
/// none.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard ordinal (0-based).
    pub shard: usize,
    /// Backing log path, if file-backed.
    pub path: Option<PathBuf>,
    /// Distinct keys in the shard's index.
    pub records: usize,
    /// Records appended to the shard since open.
    pub appended: usize,
    /// Superseded frames a compaction would drop.
    pub superseded: usize,
    /// Whether open-time recovery quarantined a wrong-magic log.
    pub quarantined: bool,
    /// Why the shard stopped accepting appends, if it has been poisoned
    /// by an append failure (reads keep working).
    pub poisoned: Option<String>,
    /// Appends dropped because the shard was already poisoned.
    pub dropped: usize,
}

/// The storage behaviour the checking layers actually need: keyed
/// verdict lookup, append, and durability — the [`VerdictStore`] API
/// minus maintenance statics. Splitting this out lets
/// [`crate::MultiBatchChecker`] run unchanged over a plain store, a
/// shared [`crate::ShardedStore`] handle, or anything else that can
/// answer these six questions.
///
/// The two stores keep apart because their failure contracts differ:
/// [`VerdictStore::put`] returns an append error, so the campaign
/// supervisor retries the unit, while [`crate::ShardedStore`]
/// quarantines a failing shard and drops its appends, so the server
/// keeps answering.
///
/// `get` returns an owned result (not `&TestResult`) so that
/// lock-guarded backends can release their lock before returning.
pub trait VerdictLog {
    /// Cached result for `key`.
    fn get(&self, key: u128) -> Option<TestResult>;
    /// Insert `result` under `key`. `Ok(false)` if nothing was written
    /// (already present, or the backend dropped it after quarantining a
    /// failing shard).
    fn put(&mut self, key: u128, result: TestResult) -> io::Result<bool>;
    /// Force appended records to stable storage.
    fn flush(&mut self) -> io::Result<()>;
    /// Distinct keys stored.
    fn len(&self) -> usize;
    /// Whether the log holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Records appended since open.
    fn appended(&self) -> usize;
    /// Aggregate open-time recovery findings.
    fn recovery(&self) -> RecoveryReport;
    /// Backing path (the base path for sharded backends), if any.
    fn path(&self) -> Option<PathBuf>;
    /// Per-shard breakdown; empty for unsharded backends.
    fn shard_stats(&self) -> Vec<ShardStats> {
        Vec::new()
    }
}

impl VerdictLog for VerdictStore {
    fn get(&self, key: u128) -> Option<TestResult> {
        VerdictStore::get(self, key).cloned()
    }

    fn put(&mut self, key: u128, result: TestResult) -> io::Result<bool> {
        VerdictStore::put(self, key, result)
    }

    fn flush(&mut self) -> io::Result<()> {
        VerdictStore::flush(self)
    }

    fn len(&self) -> usize {
        VerdictStore::len(self)
    }

    fn appended(&self) -> usize {
        VerdictStore::appended(self)
    }

    fn recovery(&self) -> RecoveryReport {
        VerdictStore::recovery(self)
    }

    fn path(&self) -> Option<PathBuf> {
        VerdictStore::path(self).map(Path::to_path_buf)
    }
}

fn encode_payload(key: u128, r: &TestResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_LEN);
    out.extend_from_slice(&key.to_le_bytes());
    out.push(match r.verdict {
        Verdict::Forbidden => 0,
        Verdict::Allowed => 1,
    });
    out.push(u8::from(r.condition_holds));
    out.extend_from_slice(&(r.candidates as u64).to_le_bytes());
    out.extend_from_slice(&(r.allowed as u64).to_le_bytes());
    out.extend_from_slice(&(r.witnesses as u64).to_le_bytes());
    out
}

fn parse_payload(payload: &[u8]) -> Option<(u128, TestResult)> {
    if payload.len() < PAYLOAD_LEN {
        return None;
    }
    let key = u128::from_le_bytes(payload[0..16].try_into().unwrap());
    let verdict = match payload[16] {
        0 => Verdict::Forbidden,
        1 => Verdict::Allowed,
        _ => return None,
    };
    let condition_holds = match payload[17] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let u64_at = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
    let result = TestResult {
        verdict,
        condition_holds,
        candidates: u64_at(18) as usize,
        allowed: u64_at(26) as usize,
        witnesses: u64_at(34) as usize,
    };
    Some((key, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::quarantine_path;
    use crate::ShardedStore;

    fn sample(i: usize) -> TestResult {
        TestResult {
            verdict: if i % 2 == 0 { Verdict::Allowed } else { Verdict::Forbidden },
            condition_holds: i % 3 == 0,
            candidates: 10 + i,
            allowed: 5 + i,
            witnesses: i,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lkmm-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(sibling(&p, ".lock"));
        p
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_path("roundtrip");
        {
            let mut s = VerdictStore::open(&path).unwrap();
            for i in 0..10 {
                assert!(s.put(i as u128 * 7, sample(i)).unwrap());
            }
            // Identical re-put is a no-op.
            assert!(!s.put(0, sample(0)).unwrap());
            s.flush().unwrap();
        }
        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.recovery(), RecoveryReport { records: 10, ..Default::default() });
        assert!(s.recovery().is_clean());
        for i in 0..10 {
            assert_eq!(s.get(i as u128 * 7), Some(&sample(i)));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_kept() {
        let path = temp_path("torn");
        {
            let mut s = VerdictStore::open(&path).unwrap();
            for i in 0..5 {
                s.put(i as u128, sample(i)).unwrap();
            }
        }
        // Chop the file mid-way through the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.recovery().torn_bytes > 0, "a chopped tail is torn, not corrupt");
        assert_eq!(s.recovery().corrupt_frames, 0);
        for i in 0..4 {
            assert_eq!(s.get(i as u128), Some(&sample(i)));
        }
        // The truncation is durable: a third open sees a clean log.
        drop(s);
        let s = VerdictStore::open(&path).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let path = temp_path("corrupt");
        {
            let mut s = VerdictStore::open(&path).unwrap();
            for i in 0..5 {
                s.put(i as u128, sample(i)).unwrap();
            }
        }
        // Flip one payload byte in the third record.
        let mut bytes = std::fs::read(&path).unwrap();
        let record = 12 + PAYLOAD_LEN;
        let offset = 8 + 2 * record + 12 + 3;
        bytes[offset] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.len(), 2, "records before the corruption survive");
        assert_eq!(s.recovery().corrupt_frames, 1, "a checksum failure is corruption");
        assert!(s.recovery().corrupt_bytes > 0);
        assert_eq!(s.recovery().torn_bytes, 0, "nothing was torn, the frame was whole");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_quarantines() {
        let path = temp_path("magic");
        std::fs::write(&path, b"definitely not a verdict store").unwrap();
        let s = VerdictStore::open(&path).unwrap();
        assert!(s.recovery().quarantined);
        assert_eq!(s.len(), 0);
        assert!(quarantine_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(quarantine_path(&path)).unwrap();
    }

    #[test]
    fn quarantine_keeps_the_whole_file_name() {
        // `x.bin` goes to `x.bin.corrupt`, not `x.corrupt`, both when an
        // open finds the wrong magic and when scrub repairs it.
        for repair in [false, true] {
            let name = format!("lkmm-store-test-{}-quarantine-{repair}.bin", std::process::id());
            let path = std::env::temp_dir().join(name);
            let junk = format!("junk, not a verdict store ({repair})");
            std::fs::write(&path, &junk).unwrap();
            if repair {
                assert!(VerdictStore::scrub(&path, true).unwrap().repaired);
            } else {
                assert!(VerdictStore::open(&path).unwrap().recovery().quarantined);
            }
            let aside = sibling(&path, ".corrupt");
            assert_eq!(std::fs::read_to_string(&aside).unwrap(), junk);
            assert!(!path.with_extension("corrupt").exists(), "the name kept its extension");
            assert_eq!(std::fs::read(&path).unwrap(), FORMAT.magic, "a fresh log in its place");
            std::fs::remove_file(&path).unwrap();
            std::fs::remove_file(&aside).unwrap();
        }
    }

    #[test]
    fn later_records_win_on_replay() {
        let path = temp_path("lastwins");
        {
            let mut s = VerdictStore::open(&path).unwrap();
            s.put(42, sample(0)).unwrap();
            s.put(42, sample(1)).unwrap();
        }
        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(42), Some(&sample(1)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_store_has_same_semantics() {
        let mut s = VerdictStore::in_memory();
        assert!(s.is_empty());
        assert!(s.put(1, sample(1)).unwrap());
        assert!(!s.put(1, sample(1)).unwrap());
        assert_eq!(s.get(1), Some(&sample(1)));
        s.flush().unwrap();
        assert!(s.path().is_none());
    }

    #[test]
    fn second_opener_is_locked_out() {
        let path = temp_path("locked");
        let s = VerdictStore::open(&path).unwrap();
        match VerdictStore::open(&path) {
            Err(StoreError::Locked { pid, .. }) => {
                assert_eq!(pid, Some(std::process::id()));
            }
            other => panic!("expected Locked, got {:?}", other.map(|_| "store")),
        }
        // Maintenance verbs respect the same lock.
        assert!(matches!(VerdictStore::scrub(&path, false), Err(StoreError::Locked { .. })));
        assert!(matches!(VerdictStore::compact(&path), Err(StoreError::Locked { .. })));
        drop(s);
        // The lock dies with the store.
        let _ = VerdictStore::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        let path = temp_path("stale");
        // No PID this large exists: the holder is long gone.
        std::fs::write(sibling(&path, ".lock"), format!("{}\n", u32::MAX)).unwrap();
        let s = VerdictStore::open(&path).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.recovery().reclaimed_pid, Some(u32::MAX), "reclaim names the holder PID");
        drop(s);
        // An unreadable lockfile (holder died pre-write) is also stale,
        // but there is no PID to report.
        std::fs::write(sibling(&path, ".lock"), "").unwrap();
        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.recovery().reclaimed_pid, None);
        drop(s);
        // A clean open reclaims nothing.
        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.recovery().reclaimed_pid, None);
        drop(s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scrub_classifies_and_repairs_defects() {
        let path = temp_path("scrub");
        {
            let mut s = VerdictStore::open(&path).unwrap();
            for i in 0..6 {
                s.put(i as u128 % 4, sample(i)).unwrap(); // 2 keys superseded
            }
            s.flush().unwrap();
        }
        let clean = VerdictStore::scrub(&path, false).unwrap();
        assert_eq!(clean.records, 6);
        assert_eq!(clean.distinct_keys, 4);
        assert_eq!(clean.superseded, 2);
        assert!(!clean.defects() && !clean.repaired);

        // Tear the tail; verify-only scrub reports but leaves it.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 7).unwrap();
        let torn = VerdictStore::scrub(&path, false).unwrap();
        assert_eq!(torn.torn_bytes, (12 + PAYLOAD_LEN - 7) as u64);
        assert_eq!(torn.corrupt_frames, 0);
        assert!(torn.defects() && !torn.repaired);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 7, "verify-only never writes");

        // Repair truncates; the next scrub is clean.
        let repaired = VerdictStore::scrub(&path, true).unwrap();
        assert!(repaired.repaired);
        let after = VerdictStore::scrub(&path, false).unwrap();
        assert!(!after.defects());
        assert_eq!(after.records, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scrub_repairs_wrong_magic() {
        let path = temp_path("scrub-magic");
        std::fs::write(&path, b"garbage, not a store").unwrap();
        let report = VerdictStore::scrub(&path, false).unwrap();
        assert!(report.wrong_magic && report.defects() && !report.repaired);
        let report = VerdictStore::scrub(&path, true).unwrap();
        assert!(report.wrong_magic && report.repaired);
        assert!(quarantine_path(&path).exists());
        assert!(!VerdictStore::scrub(&path, false).unwrap().defects());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(quarantine_path(&path)).unwrap();
    }

    #[test]
    fn compact_drops_superseded_and_defective_tail() {
        let path = temp_path("compact");
        {
            let mut s = VerdictStore::open(&path).unwrap();
            for i in 0..8 {
                s.put(i as u128 % 3, sample(i)).unwrap();
            }
            s.flush().unwrap();
        }
        // Tear the tail too: compaction drops it along with dupes.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 5).unwrap();

        let report = VerdictStore::compact(&path).unwrap();
        assert_eq!(report.records_in, 7);
        assert_eq!(report.records_out, 3);
        assert_eq!(report.superseded, 4);
        assert!(report.defect_bytes > 0);
        assert!(report.bytes_after < report.bytes_before);

        // Content survives: last writer per key, scrub spotless.
        let s = VerdictStore::open(&path).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), Some(&sample(6)));
        assert_eq!(s.get(1), Some(&sample(4)), "the torn i=7 record never counted");
        assert_eq!(s.get(2), Some(&sample(5)));
        drop(s);
        let scrub = VerdictStore::scrub(&path, false).unwrap();
        assert!(!scrub.defects());
        assert_eq!(scrub.superseded, 0);

        // Compaction is canonical: compacting again changes nothing.
        let again = VerdictStore::compact(&path).unwrap();
        assert_eq!(again.bytes_before, again.bytes_after);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compacting_an_empty_log_drops_nothing() {
        // Created but never written: no magic, no frames, no defect.
        let path = temp_path("compact-empty");
        std::fs::write(&path, b"").unwrap();
        let report = VerdictStore::compact(&path).unwrap();
        assert_eq!((report.records_in, report.defect_bytes, report.bytes_before), (0, 0, 0));
        assert_eq!(std::fs::read(&path).unwrap(), FORMAT.magic);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn export_snapshots_and_merge_pools() {
        let a = temp_path("merge-a");
        let b = temp_path("merge-b");
        let snap = temp_path("merge-snap");
        {
            let mut s = VerdictStore::open(&a).unwrap();
            s.put(1, sample(1)).unwrap();
            s.put(2, sample(2)).unwrap();
            s.put(5, sample(0)).unwrap(); // conflicts with b's 5
            s.flush().unwrap();
        }
        {
            let mut s = VerdictStore::open(&b).unwrap();
            s.put(3, sample(3)).unwrap();
            s.put(2, sample(2)).unwrap(); // identical to a's 2
            s.put(5, sample(5)).unwrap(); // wins: merged-in store is newer
            s.flush().unwrap();
        }
        let exported = ShardedStore::export_merged(&b, &snap).unwrap();
        assert_eq!(exported.records_out, 3);
        // Source store is untouched and openable.
        assert_eq!(VerdictStore::open(&b).unwrap().len(), 3);

        let report = ShardedStore::merge_into_shards(&a, 1, &snap).unwrap();
        assert_eq!(report.source_keys, 3);
        assert_eq!(report.merged, 2, "new key 3 plus conflicting key 5");
        assert_eq!(report.unchanged, 1, "identical key 2 not re-appended");

        let s = VerdictStore::open(&a).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(5), Some(&sample(5)), "merge is last-writer-wins");
        assert_eq!(s.get(1), Some(&sample(1)));
        drop(s);
        for p in [&a, &b, &snap] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn merge_is_deterministic() {
        // Merging the same source into equal destinations produces
        // byte-identical logs, whatever the hash-map iteration order.
        let src = temp_path("mdet-src");
        let d1 = temp_path("mdet-d1");
        let d2 = temp_path("mdet-d2");
        {
            let mut s = VerdictStore::open(&src).unwrap();
            for i in 0..16 {
                s.put((i as u128) << 64 | i as u128, sample(i)).unwrap();
            }
            s.flush().unwrap();
        }
        for d in [&d1, &d2] {
            let mut s = VerdictStore::open(d).unwrap();
            s.put(7, sample(7)).unwrap();
            s.flush().unwrap();
            drop(s);
            ShardedStore::merge_into_shards(d, 1, &src).unwrap();
        }
        assert_eq!(std::fs::read(&d1).unwrap(), std::fs::read(&d2).unwrap());
        for p in [&src, &d1, &d2] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn failed_append_is_retryable_after_tail_heal() {
        // Simulate a torn half-record (as the append faultpoint leaves
        // behind) and check the next put cuts it before appending.
        let path = temp_path("heal");
        let mut s = VerdictStore::open(&path).unwrap();
        s.put(1, sample(1)).unwrap();
        {
            let log = s.log.as_mut().unwrap();
            log.dirty_tail = true; // pretend the last append failed partway
            log.file.write_all(&[0xAB; 9]).unwrap(); // torn garbage past `end`
        }
        s.put(2, sample(2)).unwrap();
        s.flush().unwrap();
        drop(s);
        let s = VerdictStore::open(&path).unwrap();
        assert!(s.recovery().is_clean(), "retry healed the tear in place");
        assert_eq!(s.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
