//! Sharded verdict store: N independent [`VerdictStore`] logs behind one
//! [`VerdictLog`] handle, partitioned by key prefix so concurrent
//! writers never contend on a file.
//!
//! ## Layout
//!
//! With one shard the store *is* a plain [`VerdictStore`] at the base
//! path — byte-interchangeable with the single-store pipeline, so a
//! cold run through a 1-shard server produces the identical log. With
//! `n > 1` shards the logs live at `<base>.shard<i>of<n>` siblings
//! (each with its own PR-8 lockfile) and an advisory lock on the base
//! path itself keeps a plain opener from racing the sharded family.
//!
//! ## Routing
//!
//! A key routes to `(key >> 96) % n`: the *top* 32 bits of the
//! 128-bit content hash, so routing is stable under any shard count
//! and uncorrelated with the low bits other layers use for display.
//! Every key lives in exactly one shard; cross-shard order is
//! therefore irrelevant to replay, which is what makes the merged
//! export below deterministic.
//!
//! ## Quarantine, not collapse
//!
//! An append failure (I/O error, or the `shard.append` faultpoint)
//! *poisons* that one shard: its log stops growing, reads keep being
//! served from its index, later appends to it are counted as dropped,
//! and the other shards are untouched. A multi-client server degrades
//! to a partial cache instead of dying — exactly the contract
//! [`VerdictLog::put`] documents with its `Ok(false)`.

use crate::frame::sibling;
use crate::store::{
    read_records, replay_sorted, snapshot, CompactReport, LockFile, MergeReport, RecoveryReport,
    ShardStats, StoreError, VerdictLog, VerdictStore,
};
use lkmm_core::faultpoint;
use lkmm_exec::TestResult;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// One shard: a plain store plus its quarantine state.
struct Shard {
    store: VerdictStore,
    /// Why this shard stopped accepting appends, if it did.
    poisoned: Option<String>,
    /// Appends discarded because the shard was already poisoned.
    dropped: usize,
}

/// N independent verdict logs behind the [`VerdictLog`] API.
///
/// All methods take `&self`: each shard sits behind its own mutex, so
/// a `ShardedStore` can be shared across worker threads (typically as
/// an `Arc`, which also implements [`VerdictLog`]) and appends to
/// different shards proceed in parallel.
pub struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    base: Option<PathBuf>,
    /// fsync after every successful append (a server acking requests
    /// must not lose acked verdicts to a crash).
    durable: bool,
    /// Advisory lock on the base path while `n > 1` (the shard files
    /// carry their own locks; this one fences plain openers).
    _base_lock: Option<LockFile>,
}

impl ShardedStore {
    /// Open (creating if absent) `shards` logs for the store family at
    /// `base`, locking every member for the lifetime of the handle.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if any member is held by a live process;
    /// I/O errors opening or recovering any shard. `shards` must be
    /// ≥ 1.
    pub fn open(base: impl AsRef<Path>, shards: usize) -> Result<ShardedStore, StoreError> {
        let base = base.as_ref().to_path_buf();
        let (base_lock, members) = Self::open_members(&base, shards)?;
        Ok(ShardedStore {
            shards: members
                .into_iter()
                .map(|store| Mutex::new(Shard { store, poisoned: None, dropped: 0 }))
                .collect(),
            base: Some(base),
            durable: false,
            _base_lock: base_lock,
        })
    }

    /// Lock the `shards`-way family at `base` (the base path too, when
    /// `shards > 1`) and open every member's plain store, in shard order,
    /// once [`ShardedStore::refuse_other_family`] has let it through.
    fn open_members(
        base: &Path,
        shards: usize,
    ) -> Result<(Option<LockFile>, Vec<VerdictStore>), StoreError> {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        Self::refuse_other_family(base, shards)?;
        let base_lock = if shards > 1 { Some(LockFile::acquire(base)?) } else { None };
        let members = Self::shard_paths(base, shards)
            .into_iter()
            .map(|path| VerdictStore::open_locked(&path, LockFile::acquire(&path)?));
        Ok((base_lock, members.collect::<Result<_, _>>()?))
    }

    /// Refuse to open `base` as `shards` shard(s) when a family of
    /// another shard count is already there (a plain log there is the
    /// one-shard family): opening beside it would orphan its logs. The
    /// refusal names both counts, not the path, which the caller names.
    pub(crate) fn refuse_other_family(base: &Path, shards: usize) -> Result<(), StoreError> {
        let found = match Self::discover(base) {
            1 => usize::from(base.exists()),
            n => n,
        };
        if found != 0 && found != shards {
            let refusal = format!(
                "a {found}-shard store is already there; refusing to open it as {shards} shard(s)"
            );
            return Err(StoreError::Io(io::Error::new(io::ErrorKind::AlreadyExists, refusal)));
        }
        Ok(())
    }

    /// `shards` in-memory logs: same semantics, nothing persists.
    pub fn in_memory(shards: usize) -> ShardedStore {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        ShardedStore {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard { store: VerdictStore::in_memory(), poisoned: None, dropped: 0 })
                })
                .collect(),
            base: None,
            durable: false,
            _base_lock: None,
        }
    }

    /// Builder: fsync each append before reporting it stored.
    pub fn durable(mut self, durable: bool) -> ShardedStore {
        self.durable = durable;
        self
    }

    /// The log paths for a `shards`-way family at `base`: the base path
    /// itself for one shard, `<base>.shard<i>of<n>` siblings otherwise.
    pub fn shard_paths(base: &Path, shards: usize) -> Vec<PathBuf> {
        if shards <= 1 {
            vec![base.to_path_buf()]
        } else {
            (0..shards).map(|i| sibling(base, &format!(".shard{i}of{shards}"))).collect()
        }
    }

    /// Discover how many shards the family at `base` has on disk by
    /// probing for `<base>.shard0of<n>` siblings (n = 2..=64). Returns
    /// 1 — a plain store — when none exist.
    pub fn discover(base: &Path) -> usize {
        for n in 2..=64 {
            if sibling(base, &format!(".shard0of{n}")).exists() {
                return n;
            }
        }
        1
    }

    /// The logs an offline verb walks for the store at `base`: the plain
    /// log itself, which must exist, or each member of a sharded family
    /// that exists on disk.
    pub fn members(base: &Path) -> Vec<PathBuf> {
        let shards = Self::discover(base);
        Self::shard_paths(base, shards).into_iter().filter(|m| shards == 1 || m.exists()).collect()
    }

    fn route(&self, key: u128) -> usize {
        route(key, self.shards.len())
    }

    /// A panicking worker must not wedge the whole store: take the data
    /// even from a poisoned mutex (shard state stays consistent — every
    /// mutation below completes or marks the shard poisoned itself).
    fn guard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cached result for `key`, from whichever shard owns it. Poisoned
    /// shards still answer reads.
    pub fn get(&self, key: u128) -> Option<TestResult> {
        self.guard(self.route(key)).store.get(key).cloned()
    }

    /// Insert `result` under `key` in its shard. `Ok(false)` when
    /// nothing was written: the entry was already present, or the shard
    /// is (or just became) quarantined — an append failure poisons the
    /// shard instead of propagating, so one bad log cannot take the
    /// service down.
    pub fn put(&self, key: u128, result: TestResult) -> io::Result<bool> {
        let shard = self.route(key);
        let mut g = self.guard(shard);
        if g.poisoned.is_some() {
            g.dropped += 1;
            return Ok(false);
        }
        let outcome = faultpoint::inject_io("shard.append")
            .and_then(|()| g.store.put(key, result))
            .and_then(|wrote| {
                if wrote && self.durable {
                    g.store.flush()?;
                }
                Ok(wrote)
            });
        match outcome {
            Ok(wrote) => Ok(wrote),
            Err(e) => {
                g.poisoned = Some(e.to_string());
                Ok(false)
            }
        }
    }

    /// Flush every healthy shard. A failing flush quarantines that
    /// shard (visible in [`ShardedStore::stats`]) rather than erroring,
    /// for the same reason as [`ShardedStore::put`].
    pub fn flush(&self) {
        for i in 0..self.shards.len() {
            let mut g = self.guard(i);
            if g.poisoned.is_some() {
                continue;
            }
            if let Err(e) = g.store.flush() {
                g.poisoned = Some(format!("flush failed: {e}"));
            }
        }
    }

    /// Distinct keys across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.guard(i).store.len()).sum()
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records appended across all shards since open.
    pub fn appended(&self) -> usize {
        (0..self.shards.len()).map(|i| self.guard(i).store.appended()).sum()
    }

    /// The base path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.base.as_deref()
    }

    /// Aggregated open-time recovery findings: counters summed,
    /// `quarantined` if any shard was, the first reclaimed PID kept.
    pub fn recovery(&self) -> RecoveryReport {
        let mut agg = RecoveryReport::default();
        for i in 0..self.shards.len() {
            let r = self.guard(i).store.recovery();
            agg.records += r.records;
            agg.torn_bytes += r.torn_bytes;
            agg.corrupt_frames += r.corrupt_frames;
            agg.corrupt_bytes += r.corrupt_bytes;
            agg.quarantined |= r.quarantined;
            agg.reclaimed_pid = agg.reclaimed_pid.or(r.reclaimed_pid);
        }
        agg
    }

    /// Per-shard health, in shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len())
            .map(|i| {
                let g = self.guard(i);
                ShardStats {
                    shard: i,
                    path: g.store.path().map(Path::to_path_buf),
                    records: g.store.len(),
                    appended: g.store.appended(),
                    superseded: g.store.superseded(),
                    quarantined: g.store.recovery().quarantined,
                    poisoned: g.poisoned.clone(),
                    dropped: g.dropped,
                }
            })
            .collect()
    }

    /// Write one key-ordered compacted snapshot of the whole family at
    /// `base` (however many shards it has on disk; a plain store is a
    /// one-shard family) to `dst`. Because every key lives in exactly
    /// one shard, the snapshot does not depend on the shard count — the
    /// mechanism CI uses to compare a sharded multi-client run against
    /// the sequential path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if any member (or `dst`) is in use; I/O
    /// errors reading [`ShardedStore::members`] or writing the snapshot.
    pub fn export_merged(
        base: impl AsRef<Path>,
        dst: impl AsRef<Path>,
    ) -> Result<CompactReport, StoreError> {
        let (base, dst) = (base.as_ref(), dst.as_ref());
        let _base_lock = (Self::discover(base) > 1).then(|| LockFile::acquire(base)).transpose()?;
        let members = Self::members(base);
        let _locks = members.iter().map(|m| LockFile::acquire(m)).collect::<Result<Vec<_>, _>>()?;
        let _dst_lock = LockFile::acquire(dst)?;
        Ok(snapshot(&members, dst)?)
    }

    /// Merge the store at `src` into the `shards`-way family at
    /// `dst_base` (appending; `src` is untouched), routing each key to
    /// its shard — with one shard, into a plain store; with more, how an
    /// existing warm single log is promoted for a sharded server.
    /// Conflicting keys resolve in the source's favour, and entries are
    /// replayed in key order, so merging the same stores always yields
    /// the same logs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] if `src` or any destination member is in
    /// use; I/O errors reading `src`, or appending to or flushing any
    /// member.
    pub fn merge_into_shards(
        dst_base: impl AsRef<Path>,
        shards: usize,
        src: impl AsRef<Path>,
    ) -> Result<MergeReport, StoreError> {
        let (dst_base, src) = (dst_base.as_ref(), src.as_ref());
        let _src_lock = LockFile::acquire(src)?;
        let (_base_lock, mut members) = Self::open_members(dst_base, shards)?;
        let sorted = replay_sorted(&read_records(src)?.frames);
        let mut report = MergeReport { source_keys: sorted.len(), ..MergeReport::default() };
        for (key, result) in sorted {
            if members[route(key, shards)].put(key, result)? {
                report.merged += 1;
            } else {
                report.unchanged += 1;
            }
        }
        for member in &mut members {
            member.flush()?;
        }
        Ok(report)
    }
}

/// The shard of a `shards`-way family that owns `key`.
fn route(key: u128, shards: usize) -> usize {
    ((key >> 96) as u32 as usize) % shards
}

impl VerdictLog for Arc<ShardedStore> {
    fn get(&self, key: u128) -> Option<TestResult> {
        ShardedStore::get(self, key)
    }

    fn put(&mut self, key: u128, result: TestResult) -> io::Result<bool> {
        ShardedStore::put(self, key, result)
    }

    fn flush(&mut self) -> io::Result<()> {
        ShardedStore::flush(self);
        Ok(())
    }

    fn len(&self) -> usize {
        ShardedStore::len(self)
    }

    fn appended(&self) -> usize {
        ShardedStore::appended(self)
    }

    fn recovery(&self) -> RecoveryReport {
        ShardedStore::recovery(self)
    }

    fn path(&self) -> Option<PathBuf> {
        ShardedStore::path(self).map(Path::to_path_buf)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        ShardedStore::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::quarantine_path;
    use lkmm_exec::Verdict;

    fn sample(i: usize) -> TestResult {
        TestResult {
            verdict: if i % 2 == 0 { Verdict::Allowed } else { Verdict::Forbidden },
            condition_holds: i % 3 == 0,
            candidates: 10 + i,
            allowed: 5 + i,
            witnesses: i,
        }
    }

    /// Keys spread across the routing prefix (top 32 bits vary).
    fn spread_key(i: u32) -> u128 {
        ((i as u128) << 96) | i as u128
    }

    fn temp_base(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lkmm-shard-test-{tag}-{}", std::process::id()));
        for n in 1..=8 {
            for path in ShardedStore::shard_paths(&p, n) {
                let _ = std::fs::remove_file(&path);
                let _ = std::fs::remove_file(sibling(&path, ".lock"));
            }
        }
        let _ = std::fs::remove_file(sibling(&p, ".lock"));
        p
    }

    fn cleanup(base: &Path, shards: usize) {
        for path in ShardedStore::shard_paths(base, shards) {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn single_shard_is_a_plain_store() {
        let base = temp_base("plain");
        let s = ShardedStore::open(&base, 1).unwrap();
        for i in 0..16 {
            assert!(s.put(spread_key(i), sample(i as usize)).unwrap());
        }
        s.flush();
        drop(s);
        // A plain VerdictStore opens the very same file.
        let plain = VerdictStore::open(&base).unwrap();
        assert_eq!(plain.len(), 16);
        assert_eq!(plain.get(spread_key(3)), Some(&sample(3)));
        drop(plain);
        cleanup(&base, 1);
    }

    #[test]
    fn keys_partition_across_shards_and_survive_reopen() {
        let base = temp_base("partition");
        let s = ShardedStore::open(&base, 4).unwrap();
        for i in 0..64 {
            assert!(s.put(spread_key(i), sample(i as usize)).unwrap());
        }
        s.flush();
        let stats = s.stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|st| st.records).sum::<usize>(), 64);
        assert!(stats.iter().all(|st| st.records > 0), "spread keys hit every shard");
        drop(s);
        let s = ShardedStore::open(&base, 4).unwrap();
        assert_eq!(s.len(), 64);
        for i in 0..64 {
            assert_eq!(s.get(spread_key(i)), Some(sample(i as usize)));
        }
        assert!(s.recovery().is_clean());
        drop(s);
        cleanup(&base, 4);
    }

    #[test]
    fn sharded_family_locks_out_second_opener() {
        let base = temp_base("locks");
        let s = ShardedStore::open(&base, 2).unwrap();
        // Base lock fences both another family and a plain opener.
        assert!(matches!(ShardedStore::open(&base, 2), Err(StoreError::Locked { .. })));
        assert!(matches!(VerdictStore::open(&base), Err(StoreError::Locked { .. })));
        drop(s);
        let _reopen = ShardedStore::open(&base, 2).unwrap();
        cleanup(&base, 2);
    }

    #[test]
    fn a_family_of_another_shard_count_is_refused() {
        let family = temp_base("recount-family");
        let plain = temp_base("recount-plain");
        let s = ShardedStore::open(&family, 4).unwrap();
        s.put(spread_key(1), sample(1)).unwrap();
        s.flush();
        drop(s);
        drop(ShardedStore::open(&plain, 1).unwrap());
        // Every count but the one on disk, a plain log being the 1-shard
        // family; merges open their destination the same way.
        for (base, found, asked) in [(&family, 4, 2), (&family, 4, 1), (&plain, 1, 3)] {
            let err = match ShardedStore::open(base, asked) {
                Err(StoreError::Io(e)) => e.to_string(),
                other => panic!("{asked} shards over {found}: {:?}", other.map(|s| s.len())),
            };
            assert!(err.contains(&format!("a {found}-shard store")), "{err}");
            assert!(err.contains(&format!("as {asked} shard(s)")), "{err}");
            assert!(ShardedStore::merge_into_shards(base, asked, &plain).is_err());
            let created = ShardedStore::shard_paths(base, asked).into_iter().filter(|p| p.exists());
            assert_eq!(created.count(), 0, "{asked} shards over {found}");
            assert!(!sibling(base, ".lock").exists(), "the base lock is gone");
        }
        // The count on disk still opens, with its contents.
        assert_eq!(ShardedStore::open(&family, 4).unwrap().get(spread_key(1)), Some(sample(1)));
        cleanup(&family, 4);
        cleanup(&plain, 1);
    }

    #[test]
    fn a_plain_open_refuses_a_sharded_family() {
        let family = temp_base("plain-over-family");
        let s = ShardedStore::open(&family, 4).unwrap();
        s.put(spread_key(1), sample(1)).unwrap();
        s.flush();
        drop(s);
        let err = match VerdictStore::open(&family) {
            Err(StoreError::Io(e)) => e.to_string(),
            other => panic!("a plain open over 4 shards: {:?}", other.map(|s| s.len())),
        };
        assert_eq!(err, "a 4-shard store is already there; refusing to open it as 1 shard(s)");
        assert!(!family.exists(), "no plain log beside the family");
        assert!(!sibling(&family, ".lock").exists(), "the lock is gone");
        // The family still opens, with its verdict.
        assert_eq!(ShardedStore::open(&family, 4).unwrap().get(spread_key(1)), Some(sample(1)));
        cleanup(&family, 4);
    }

    #[test]
    fn merged_export_is_byte_identical_to_plain_export() {
        let base_sharded = temp_base("exp-sharded");
        let base_plain = temp_base("exp-plain");
        let sharded = ShardedStore::open(&base_sharded, 4).unwrap();
        let plain = ShardedStore::open(&base_plain, 1).unwrap();
        // Different insertion orders on purpose: exports are key-sorted.
        for i in 0..40 {
            sharded.put(spread_key(i), sample(i as usize)).unwrap();
        }
        for i in (0..40).rev() {
            plain.put(spread_key(i), sample(i as usize)).unwrap();
        }
        sharded.flush();
        plain.flush();
        drop(sharded);
        drop(plain);
        let dst_a = temp_base("exp-out-a");
        let dst_b = temp_base("exp-out-b");
        ShardedStore::export_merged(&base_sharded, &dst_a).unwrap();
        ShardedStore::export_merged(&base_plain, &dst_b).unwrap();
        assert_eq!(std::fs::read(&dst_a).unwrap(), std::fs::read(&dst_b).unwrap());
        cleanup(&base_sharded, 4);
        cleanup(&base_plain, 1);
        cleanup(&dst_a, 1);
        cleanup(&dst_b, 1);
    }

    #[test]
    fn exporting_a_live_plain_store_is_locked() {
        let base = temp_base("live-plain");
        let dst = temp_base("live-plain-out");
        let live = VerdictStore::open(&base).unwrap();
        assert!(matches!(ShardedStore::export_merged(&base, &dst), Err(StoreError::Locked { .. })));
        drop(live);
        ShardedStore::export_merged(&base, &dst).unwrap();
        // A plain source must exist; only a sharded family may lack members.
        cleanup(&base, 1);
        assert!(matches!(ShardedStore::export_merged(&base, &dst), Err(StoreError::Io(_))));
        cleanup(&dst, 1);
    }

    #[test]
    fn merge_into_shards_promotes_a_plain_store() {
        let plain = temp_base("promote-src");
        {
            let s = ShardedStore::open(&plain, 1).unwrap();
            for i in 0..32 {
                s.put(spread_key(i), sample(i as usize)).unwrap();
            }
            s.flush();
        }
        let family = temp_base("promote-dst");
        let report = ShardedStore::merge_into_shards(&family, 4, &plain).unwrap();
        assert_eq!(report.source_keys, 32);
        assert_eq!(report.merged, 32);
        let s = ShardedStore::open(&family, 4).unwrap();
        assert_eq!(s.len(), 32);
        assert_eq!(s.get(spread_key(7)), Some(sample(7)));
        drop(s);
        cleanup(&plain, 1);
        cleanup(&family, 4);
    }

    #[test]
    fn each_bad_member_is_quarantined_beside_itself() {
        // Two junk members of a 4-shard family each go to their own
        // `<member>.corrupt` with their own bytes, whether an open or a
        // repairing scrub of every member finds them.
        for repair in [false, true] {
            let base = temp_base(&format!("quarantine-{repair}"));
            drop(ShardedStore::open(&base, 4).unwrap());
            let members = ShardedStore::shard_paths(&base, 4);
            let junk = |i: usize| format!("junk in shard {i} of 4");
            for (i, member) in members[..2].iter().enumerate() {
                std::fs::write(member, junk(i)).unwrap();
            }
            if repair {
                for member in ShardedStore::members(&base) {
                    VerdictStore::scrub(&member, true).unwrap();
                }
            } else {
                let s = ShardedStore::open(&base, 4).unwrap();
                let stats = s.stats().into_iter().filter(|st| st.quarantined);
                assert_eq!(stats.filter_map(|st| st.path).collect::<Vec<_>>(), members[..2]);
            }
            for (i, member) in members[..2].iter().enumerate() {
                let aside = quarantine_path(member);
                assert_eq!(std::fs::read_to_string(&aside).unwrap(), junk(i), "repair {repair}");
                std::fs::remove_file(aside).unwrap();
            }
            cleanup(&base, 4);
        }
    }
}
