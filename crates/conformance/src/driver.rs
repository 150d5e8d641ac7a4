//! The supervised campaign driver: lazy work units, incremental
//! per-row oracles, retry/backoff, quarantine, and checkpoint/resume.
//!
//! [`drive_campaign`] runs every campaign, the cycle campaign and the
//! algorithm campaign alike. It builds work units on demand from a lazy
//! [`CorpusStream`], feeds them one at a time to the streaming
//! [`CorpusRun`] API, which hands each committed row back, and judges
//! the row with the caller's row-level checks (matrix oracles,
//! simulator soundness, and for the algorithm families family safety,
//! host runs and interleaving) as soon as its cells are known, folding
//! everything straight into the [`CampaignReport`] it returns, in
//! corpus order. No full verdict matrix is ever materialised. That
//! buys three things a monolithic batch call cannot offer:
//!
//! * **Checkpoint.** Every `checkpoint_every` units the driver flushes
//!   the verdict store and appends a framed manifest (see
//!   [`crate::checkpoint`]) recording the corpus cursor — and, when
//!   the prefix is discrepancy-free, the aggregates themselves
//!   ([`crate::checkpoint::PrefixStats`]). Killing the process at
//!   *any* point — mid-unit, mid-append, mid-checkpoint — loses at
//!   most the units since the last frame.
//! * **Supervise.** Each unit runs under a retry loop: a driver-level
//!   panic, a transient store I/O error, or a committed row holding a
//!   contained worker panic or (when the budget has a relative time
//!   limit) a wall-clock trip is retried with bounded exponential
//!   backoff and deterministic seeded jitter. A unit that fails every
//!   attempt is *quarantined*: its row stays all-`None` (the oracles
//!   skip it), it is recorded as a typed [`FailedUnit`], and the
//!   campaign completes degraded instead of dying. Deterministic fuel
//!   trips (candidate or eval-step budgets) are **not** faults —
//!   retrying them reproduces the same inconclusive cell, so they stay
//!   inconclusive cells.
//! * **Resume.** With a valid checkpoint whose config fingerprint
//!   matches, a clean-prefix campaign resumes as *arithmetic*: the
//!   aggregates restart from the frame's [`PrefixStats`], the units
//!   start past the prefix without generating its tests, and only the
//!   tail is checked — resume cost is proportional to the
//!   *remaining* work, not the corpus. A prefix with discrepancies
//!   has no aggregates in its frames (their full structure is needed
//!   for shrinking); resume then replays every unit through the warm
//!   store, which skips enumeration but re-derives the rows. Either
//!   way the final report is byte-identical to an uninterrupted
//!   run's. A mismatched fingerprint is refused — resuming under a
//!   different config would silently mix two campaigns.
//!
//! After the last unit the driver ends the campaign and completes the
//! report: it grafts this process's cache counters onto the aggregates
//! and fills in the quarantine list, the resume cursor, the checkpoint
//! count, and the opt-in enumeration and data-plane counters as they
//! stood after the last unit. All a campaign does afterwards is shrink
//! the discrepancies; those re-checks start from scratch and never show
//! in the counters.
//!
//! Campaigns parallelise over units, not candidates, on the ordered pool
//! ([`prepare_in_order`]) that a check split over workers runs on too:
//! `jobs` threads in all (never more than the host has), the calling
//! thread among them. Units are corpus indices, and each unit lives on
//! one thread from generation to drop: the thread that prepares it
//! builds its test ([`CorpusStream::entry`]), runs the pure half of the
//! unit, [`MultiBatchChecker::prepare`] — keys, store lookups, one
//! inline enumeration on the thread's own model sessions, kept from unit
//! to unit — judges the prepared row (the row oracles and the
//! simulators) and drops the test. Only the prepared row reaches the
//! committing thread, up to 16 units per thread ahead of its cursor.
//! Which thread checked which unit changes only what its sessions had
//! cached, never a verdict or a counter. The calling thread commits
//! units strictly in corpus order ([`CorpusRun::commit`]) and does all
//! of the above that needs order, so reports, counters, checkpoints and
//! fault points behave exactly as with one job, where both halves run
//! inline and no thread is spawned. It keeps a prepared judgement only
//! when the committed row is exactly the prepared one; a row that
//! changed — an in-flight duplicate, a retry, a panicking prepare, a
//! quarantined unit, a tripped corpus deadline — is judged again on the
//! calling thread, so a discarded judgement counts nowhere. Those slow
//! paths, and a quarantine record's test name, are the only ones that
//! build a unit's test again on the calling thread; generation is
//! deterministic, so it is the same test.
//!
//! Fault points: `campaign.kill` aborts the process at a unit boundary
//! (a simulated SIGKILL for crash tests); `worker.transient` injects a
//! transient I/O failure into the supervisor's attempt path;
//! `ckpt.torn` (in [`crate::checkpoint`]) tears a checkpoint frame.

use crate::campaign::{CampaignError, CampaignReport, CorpusStream, ModelStats, OracleStats};
use crate::checkpoint::{self, Checkpoint, CheckpointLog, FailedUnit, FailureKind, PrefixStats};
use crate::matrix::{CorpusEntry, MatrixOptions, ModelId, ModelPass, ModelSet, Origin, RowRef};
use crate::oracle::{Discrepancy, OracleKind, OracleSummary};
use lkmm_core::faultpoint;
use lkmm_core::rng::SplitMix64;
use lkmm_exec::pool::prepare_in_order;
use lkmm_exec::{
    worker_threads, BudgetKind, CheckOutcome, EnumOptions, InconclusiveReason, Verdict,
};
use lkmm_generator::GenError;
use lkmm_litmus::ast::Test;
use lkmm_service::{
    CorpusRun, MultiBatchChecker, MultiColumn, PreparedUnit, StoreError, UnitCell, VerdictStore,
};
use std::cell::OnceCell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// Crash-survival knobs for one campaign.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Checkpoint file; `None` disables checkpointing (and resume).
    pub checkpoint: Option<PathBuf>,
    /// Units between checkpoint frames.
    pub checkpoint_every: usize,
    /// Retries per unit after its first failed attempt; a unit failing
    /// `max_retries + 1` attempts is quarantined.
    pub max_retries: u32,
    /// First-retry backoff in milliseconds (doubled per retry, plus
    /// seeded jitter in `[0, delay/2]`). `0` disables sleeping — what
    /// tests use so injected fault storms retry instantly.
    pub retry_base_ms: u64,
    /// Resume from `checkpoint` if it holds a valid manifest for this
    /// config; a missing or empty checkpoint file starts fresh.
    pub resume: bool,
    /// Stop cleanly after this many units *this invocation* (flush +
    /// final checkpoint frame, then [`CampaignError::Suspended`]).
    /// The deterministic suspend the resume bench and tests build on.
    pub stop_after: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint: None,
            checkpoint_every: 64,
            max_retries: 2,
            retry_base_ms: 25,
            resume: false,
            stop_after: None,
        }
    }
}

/// Seed for the deterministic backoff jitter.
const RETRY_SEED: u64 = 7;

/// Deterministic backoff for retry `attempt` (1-based) of `unit`:
/// exponential in the attempt, jittered by a [`SplitMix64`] stream
/// keyed on `(RETRY_SEED, unit, attempt)` — two runs of the same
/// campaign back off identically, but colliding units spread out.
pub fn backoff_delay(res: &ResilienceConfig, unit: usize, attempt: u32) -> Duration {
    if res.retry_base_ms == 0 {
        return Duration::ZERO;
    }
    let shift = attempt.saturating_sub(1).min(6);
    let base = res.retry_base_ms.saturating_mul(1u64 << shift);
    let mut rng = SplitMix64::seed_from_u64(
        RETRY_SEED
            ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let jitter = rng.gen_index((base / 2 + 1) as usize) as u64;
    Duration::from_millis(base + jitter)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A unit's committed row, one cell per column (`None` where masked),
/// and whether it is exactly the prepared one.
type Committed = (Vec<Option<UnitCell>>, bool);

/// One attempt at one unit: commit its prepared check, or check it
/// afresh on this thread when nothing was prepared. `Ok` is success,
/// deterministic inconclusive cells included; `Err` classifies the
/// failure: a panic while preparing or committing, a store error, or a
/// committed row a retry could plausibly repair. Such a row holds a
/// contained worker panic, or, when `retry_timeouts` holds, a relative
/// wall-clock trip (an absolute corpus deadline is not worth a retry).
/// Deterministic fuel trips (candidates, eval steps) are *not*
/// failures: re-running them reproduces the same inconclusive cell.
fn attempt_unit(
    run: &mut CorpusRun<'_, '_>,
    i: usize,
    test: &UnitTest<'_>,
    mask_row: &[bool],
    prepared: Result<Option<PreparedUnit>, String>,
    retry_timeouts: bool,
) -> Result<Committed, (FailureKind, String)> {
    faultpoint::inject_io("worker.transient")
        .map_err(|e| (FailureKind::TransientIo, e.to_string()))?;
    let committed = match prepared {
        Err(detail) => return Err((FailureKind::Panic, detail)),
        Ok(Some(unit)) => {
            catch_unwind(AssertUnwindSafe(|| run.commit(i, || test.get(), mask_row, unit)))
        }
        Ok(None) => catch_unwind(AssertUnwindSafe(|| {
            run.check_unit(i, test.get(), mask_row).map(|row| (row, false))
        })),
    };
    let (row, as_prepared) = match committed {
        Err(payload) => return Err((FailureKind::Panic, panic_text(payload.as_ref()))),
        Ok(Err(e)) => return Err((FailureKind::TransientIo, format!("verdict store: {e}"))),
        Ok(Ok(committed)) => committed,
    };
    let tripped = |wanted: InconclusiveReason| {
        row.iter().flatten().any(|cell| {
            matches!(&cell.outcome, CheckOutcome::Inconclusive { reason, .. } if *reason == wanted)
        })
    };
    if tripped(InconclusiveReason::WorkerPanicked) {
        let detail = "model evaluation panicked (contained by the pipeline)";
        return Err((FailureKind::Panic, detail.to_string()));
    }
    if retry_timeouts && tripped(InconclusiveReason::BudgetExceeded(BudgetKind::WallClock)) {
        return Err((FailureKind::Deadline, "relative wall-clock limit tripped".to_string()));
    }
    Ok((row, as_prepared))
}

/// Run one unit under the retry supervisor: the first attempt commits
/// what was `prepared`, retries check afresh on this thread. Returns
/// the committed row (never as prepared after a retry), or the
/// quarantine record if every attempt failed. A failed attempt's row is
/// dropped, and the unit is reset before a retry or quarantine, so
/// partial attempts never leak into the matrix (verdicts that reached
/// the store stay — they are content-addressed and replay as hits on
/// the retry).
fn supervise_unit(
    run: &mut CorpusRun<'_, '_>,
    i: usize,
    test: &UnitTest<'_>,
    mask_row: &[bool],
    mut prepared: Result<Option<PreparedUnit>, String>,
    res: &ResilienceConfig,
    retry_timeouts: bool,
) -> Result<Committed, FailedUnit> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let this_attempt = std::mem::replace(&mut prepared, Ok(None));
        match attempt_unit(run, i, test, mask_row, this_attempt, retry_timeouts) {
            Ok(committed) => return Ok(committed),
            Err((kind, detail)) => {
                run.reset_unit(i);
                if attempt > res.max_retries {
                    return Err(FailedUnit {
                        index: i,
                        test: test.get().name.clone(),
                        kind,
                        attempts: attempt,
                        detail,
                    });
                }
                let delay = backoff_delay(res, i, attempt);
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
            }
        }
    }
}

/// One row's oracle results, judged on the thread that prepared the row
/// or at commit, before they join the campaign's.
#[derive(Default)]
struct RowJudgement {
    discrepancies: Vec<Discrepancy>,
    summaries: [OracleSummary; OracleKind::ALL.len()],
}

/// One unit as the thread that prepared it hands it to the committing
/// thread: everything but its test, which that thread built, checked,
/// judged and dropped.
struct PreparedRow {
    origin: Origin,
    mask: [bool; ModelId::ALL.len()],
    /// The prepared check and its judgement (`None` if judging panicked);
    /// `None` for a unit still quarantined from the resumed campaign.
    unit: Option<(PreparedUnit, Option<RowJudgement>)>,
}

/// A unit's test on the committing thread: built again from its corpus
/// index the first time a slow path asks for it (a retry, a fresh check
/// at commit, a judgement of the committed row, a quarantine record).
/// Generation is deterministic, so it is the test the unit was prepared
/// with.
struct UnitTest<'s> {
    stream: &'s CorpusStream,
    i: usize,
    test: OnceCell<Test>,
}

impl UnitTest<'_> {
    fn get(&self) -> &Test {
        self.test.get_or_init(|| {
            let entry = self.stream.entry(self.i);
            entry.expect("the unit's test was built once already").test
        })
    }
}

/// The report a campaign accumulates row by row. Its deterministic
/// substance — exactly what the report JSON is rendered from — is
/// folded in corpus order, so the sums are identical whether a campaign
/// ran uninterrupted or restarted from a [`PrefixStats`] frame. The
/// observability counters (each column's hits, computed, deduped and
/// candidates, and the run's own fields) stay empty until the campaign
/// ends and cover this process only.
impl CampaignReport {
    fn empty() -> CampaignReport {
        CampaignReport {
            corpus_library: 0,
            corpus_generated: 0,
            models: ModelId::ALL.map(|id| ModelStats { id, pass: ModelPass::default() }).to_vec(),
            oracles: OracleKind::ALL
                .map(|kind| OracleStats { kind, summary: OracleSummary::default() })
                .to_vec(),
            discrepancies: Vec::new(),
            enumeration: None,
            data_plane: None,
            failed_units: Vec::new(),
            resumed_at: None,
            checkpoints_written: 0,
        }
    }

    /// Fold one completed row, its origin and cells, into the per-column
    /// counts.
    fn account_row(&mut self, origin: &Origin, cells: &[Option<CheckOutcome>]) {
        match origin {
            Origin::Library { .. } => self.corpus_library += 1,
            _ => self.corpus_generated += 1,
        }
        for (ModelStats { pass, .. }, cell) in self.models.iter_mut().zip(cells) {
            let Some(outcome) = cell else {
                pass.skipped += 1;
                continue;
            };
            pass.checked += 1;
            match outcome {
                CheckOutcome::Complete(result) => match result.verdict {
                    Verdict::Allowed => pass.allowed += 1,
                    Verdict::Forbidden => pass.forbidden += 1,
                },
                CheckOutcome::Inconclusive { .. } => pass.inconclusive += 1,
            }
        }
    }

    /// The checkpoint frame for units `0..cursor` done, with `failed`
    /// quarantined so far: per-column checked-cell counts as watermarks,
    /// and the aggregates as a resumable prefix, `None` once any
    /// discrepancy exists (its AST would have to travel too; resume
    /// replays instead).
    fn checkpoint(&self, fingerprint: u64, cursor: usize, failed: &[FailedUnit]) -> Checkpoint {
        let prefix = self.clean().then(|| PrefixStats {
            corpus_library: self.corpus_library,
            corpus_generated: self.corpus_generated,
            // Their observability counters are still zero, and a frame
            // writes none of them.
            passes: self.models.iter().map(|m| m.pass.clone()).collect(),
            oracles: self.oracles.iter().map(|o| o.summary).collect(),
        });
        Checkpoint {
            fingerprint,
            cursor,
            watermarks: self.models.iter().map(|m| m.pass.checked).collect(),
            failed_units: failed.to_vec(),
            prefix,
        }
    }
}

/// Drive a whole campaign by streaming `stream` through a supervised,
/// checkpointing [`CorpusRun`], and return the campaign's report,
/// unshrunk. `judge` is the row judgement (the matrix-level oracles plus
/// whatever else the caller checks per row — simulator soundness, say):
/// it appends one row's violations and counts into that row's own
/// summaries, on the thread that prepared the row, or at commit when the
/// committed row is not exactly the prepared one. The committed cells
/// and the summaries kept reach `fold`, and every total, in corpus
/// order. See the module docs for the full contract.
///
/// # Errors
///
/// Generator failures, store I/O (after per-unit retries), checkpoint
/// I/O, a refused fingerprint mismatch on resume, and the deliberate
/// [`CampaignError::Suspended`] from `stop_after`.
pub fn drive_campaign(
    stream: CorpusStream,
    fingerprint: u64,
    set: &ModelSet,
    opts: &MatrixOptions<'_>,
    res: &ResilienceConfig,
    judge: impl Fn(usize, RowRef<'_>, &mut Vec<Discrepancy>, &mut [OracleSummary]) + Sync,
    mut fold: impl FnMut(usize, &[Option<CheckOutcome>], &[OracleSummary]),
) -> Result<CampaignReport, CampaignError> {
    let total_units = stream.total();
    let store = match opts.store_path {
        Some(path) => VerdictStore::open(path).map_err(|e| match e {
            StoreError::Locked { lock, pid } => CampaignError::Locked { lock, pid },
            StoreError::Io(e) => {
                CampaignError::Store(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
            }
        })?,
        None => VerdictStore::in_memory(),
    };
    let columns: Vec<MultiColumn<'_>> = ModelId::ALL
        .iter()
        .map(|&id| MultiColumn {
            model: set.get(id),
            salt: format!("{}|col:{}", opts.salt, id.column()),
        })
        .collect();
    // Campaigns parallelise over units, not candidates: `jobs` threads
    // each prepare whole units, checking their candidates inline.
    let workers = worker_threads(opts.jobs);
    let checker = MultiBatchChecker::new(columns, store)
        .with_options(EnumOptions { stats: opts.stats.clone(), ..EnumOptions::default() })
        .with_jobs(1)
        .with_budget(opts.budget.clone());

    // Resume: load the latest valid manifest and refuse a config
    // mismatch. A missing or empty checkpoint is a fresh start. A clean
    // prefix restores the aggregates and starts past the done units; a
    // dirty one replays them through the warm store.
    let mut report = CampaignReport::empty();
    let mut failed: Vec<FailedUnit> = Vec::new();
    let mut resumed_at = None;
    let mut start_at = 0usize;
    if res.resume {
        if let Some(path) = &res.checkpoint {
            let scan = checkpoint::load(path).map_err(CampaignError::Checkpoint)?;
            if let Some(ck) = scan.latest {
                if ck.fingerprint != fingerprint {
                    return Err(CampaignError::CheckpointMismatch {
                        expected: fingerprint,
                        found: ck.fingerprint,
                    });
                }
                failed = ck.failed_units;
                resumed_at = Some(ck.cursor);
                // Shape sanity: the fingerprint pins the column set, but
                // a hand-edited manifest could still disagree — treat it
                // as prefix-less rather than misindex the sums.
                let prefix = ck.prefix.filter(|p| {
                    p.passes.len() == ModelId::ALL.len()
                        && p.oracles.len() == OracleKind::ALL.len()
                });
                if let Some(p) = prefix {
                    report.corpus_library = p.corpus_library;
                    report.corpus_generated = p.corpus_generated;
                    for (model, pass) in report.models.iter_mut().zip(p.passes) {
                        model.pass = pass;
                    }
                    for (oracle, summary) in report.oracles.iter_mut().zip(p.oracles) {
                        oracle.summary = summary;
                    }
                    start_at = ck.cursor;
                }
            }
        }
    }
    let mut log = match &res.checkpoint {
        Some(path) => Some(
            CheckpointLog::open(path, resumed_at.is_some()).map_err(CampaignError::Checkpoint)?,
        ),
        None => None,
    };

    // Only retry wall-clock trips when they can possibly mean "this
    // machine hiccuped": a relative per-check limit. An absolute corpus
    // deadline trips every remaining unit — retrying would turn one
    // late campaign into max_retries late campaigns.
    let retry_timeouts = opts.budget.time_limit.is_some() && opts.budget.deadline.is_none();
    let quarantined: std::collections::BTreeSet<usize> =
        failed.iter().map(|f| f.index).collect();

    let mut run = checker.begin_corpus();
    let mut since_ckpt = 0usize;
    let mut checkpoints_written = 0usize;
    let mut processed = 0usize;
    let mut suspended = None;
    let mask_of = |test: &Test| ModelId::ALL.map(|id| id.supports(test));
    let judge_one = |i: usize, row: RowRef<'_>| {
        let mut judgement = RowJudgement::default();
        judge(i, row, &mut judgement.discrepancies, &mut judgement.summaries);
        judgement
    };

    // Each unit lives on one thread, from generation to drop: it builds
    // the unit's test, prepares it (pure: keys, lookups, enumeration)
    // and judges the prepared row. Everything order- or state-dependent
    // happens at commit, in corpus order, on the calling thread.
    let prepare = |sessions: &mut _, &i: &usize| -> Result<PreparedRow, GenError> {
        let CorpusEntry { test, origin } = stream.entry(i)?;
        let mask = mask_of(&test);
        let unit = (!quarantined.contains(&i)).then(|| {
            let unit = checker.prepare(sessions, &test, &mask);
            let row = RowRef { test: &test, origin: &origin, cells: unit.cells() };
            // A panicking judgement fails nothing here: commit judges again.
            let judgement = catch_unwind(AssertUnwindSafe(|| judge_one(i, row))).ok();
            (unit, judgement)
        });
        Ok(PreparedRow { origin, mask, unit })
    };
    prepare_in_order(
        start_at..total_units,
        workers,
        // Each thread keeps one session per column from unit to unit.
        || checker.sessions(),
        prepare,
        |i, prepared| -> Result<bool, CampaignError> {
            let (origin, mask, prepared, judgement) = match prepared {
                Ok(row) => {
                    let PreparedRow { origin, mask, unit } = row?;
                    let (unit, judgement) = unit.unzip();
                    (origin, mask, Ok(unit), judgement.flatten())
                }
                // The prepare panicked and left nothing: build the unit here.
                Err(payload) => {
                    let entry = stream.entry(i)?;
                    (entry.origin, mask_of(&entry.test), Err(panic_text(payload.as_ref())), None)
                }
            };
            let test = UnitTest { stream: &stream, i, test: OnceCell::new() };
            // Simulated SIGKILL at a unit boundary (crash-storm tests).
            if faultpoint::should_fail("campaign.kill") {
                std::process::abort();
            }
            // A unit still quarantined from the resumed campaign keeps
            // its row `None` without another round of doomed retries; a
            // unit that failed every attempt is quarantined now.
            let (row, as_prepared) = (!quarantined.contains(&i))
                .then(|| supervise_unit(&mut run, i, &test, &mask, prepared, res, retry_timeouts))
                .and_then(|supervised| supervised.map_err(|f| failed.push(f)).ok())
                .unwrap_or_else(|| (vec![None; ModelId::ALL.len()], false));
            let cells: Vec<_> = row.into_iter().map(|cell| cell.map(|c| c.outcome)).collect();
            // The prepared judgement holds only for the row exactly as it
            // was prepared; any other row is judged here.
            let judgement = judgement.filter(|_| as_prepared).unwrap_or_else(|| {
                judge_one(i, RowRef { test: test.get(), origin: &origin, cells: &cells })
            });
            fold(i, &cells, &judgement.summaries);
            for (total, part) in report.oracles.iter_mut().zip(judgement.summaries) {
                total.summary += part;
            }
            report.discrepancies.extend(judgement.discrepancies);
            report.account_row(&origin, &cells);
            processed += 1;
            since_ckpt += 1;
            let done = i + 1;
            if done < total_units {
                if let Some(log) = &mut log {
                    if since_ckpt >= res.checkpoint_every.max(1) {
                        run.flush().map_err(CampaignError::Store)?;
                        log.append(&report.checkpoint(fingerprint, done, &failed))
                            .map_err(CampaignError::Checkpoint)?;
                        checkpoints_written += 1;
                        since_ckpt = 0;
                    }
                }
                if res.stop_after.is_some_and(|stop| processed >= stop) {
                    suspended = Some(done);
                    return Ok(false);
                }
            }
            Ok(true)
        },
    )?;

    if let Some(done) = suspended {
        run.flush().map_err(CampaignError::Store)?;
        if let Some(log) = &mut log {
            log.append(&report.checkpoint(fingerprint, done, &failed))
                .map_err(CampaignError::Checkpoint)?;
        }
        return Err(CampaignError::Suspended { cursor: done, total: total_units });
    }

    let batch = run.finish().map_err(CampaignError::Store)?;
    // Final frame: cursor at the end, so resuming a *finished* clean
    // campaign costs one checkpoint load and zero corpus work.
    if let Some(log) = &mut log {
        log.append(&report.checkpoint(fingerprint, total_units, &failed))
            .map_err(CampaignError::Checkpoint)?;
        checkpoints_written += 1;
    }

    // Graft this process's observability counters onto the
    // deterministic sums (a resumed run reports only its own cache
    // traffic — the JSON never contains these).
    for (ModelStats { pass, .. }, col) in report.models.iter_mut().zip(&batch.columns) {
        pass.hits = col.hits;
        pass.computed = col.computed;
        pass.deduped = col.deduped;
        pass.candidates_enumerated = col.candidates_enumerated;
    }
    let counters = opts.stats.as_ref().map(|s| s.snapshot());
    Ok(CampaignReport {
        enumeration: counters.map(|c| c.enumeration),
        data_plane: counters.map(|c| c.data_plane),
        failed_units: failed,
        resumed_at,
        checkpoints_written,
        ..report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{config_fingerprint, corpus_stream, CampaignConfig, SimConfig};
    use crate::matrix::{reference_row, MatrixRow};
    use crate::oracle::{check_row, judge_matrix};
    use lkmm_exec::{ConsistencyModel, ExecFacts, Execution, ModelSession};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            max_cycle_len: 0,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            ..CampaignConfig::default()
        }
    }

    fn temp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("lkmm-driver-{}-{tag}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn drive(
        cfg: &CampaignConfig,
        store: Option<&std::path::Path>,
        res: &ResilienceConfig,
    ) -> Result<CampaignReport, CampaignError> {
        let stream = corpus_stream(cfg);
        let fp = config_fingerprint(cfg, stream.total());
        let opts = MatrixOptions { store_path: store, ..MatrixOptions::default() };
        drive_campaign(
            stream,
            fp,
            &ModelSet::standard(),
            &opts,
            res,
            |_, row, d, s| judge_matrix(row, d, s),
            |_, _, _| {},
        )
    }

    fn assert_same_substance(a: &CampaignReport, b: &CampaignReport) {
        assert_eq!(a.corpus_library, b.corpus_library);
        assert_eq!(a.corpus_generated, b.corpus_generated);
        for (x, y) in a.models.iter().zip(&b.models) {
            assert_eq!(x.pass.checked, y.pass.checked);
            assert_eq!(x.pass.allowed, y.pass.allowed);
            assert_eq!(x.pass.forbidden, y.pass.forbidden);
            assert_eq!(x.pass.inconclusive, y.pass.inconclusive);
            assert_eq!(x.pass.skipped, y.pass.skipped);
        }
        let summaries = |r: &CampaignReport| r.oracles.iter().map(|o| o.summary).collect::<Vec<_>>();
        assert_eq!(summaries(a), summaries(b));
        assert_eq!(a.discrepancies.len(), b.discrepancies.len());
    }

    #[test]
    fn driven_campaign_matches_the_batch_build() {
        // The reference decides every row column by column with a fresh
        // check each, then folds the rows exactly as the driver does.
        let cfg = quick_config();
        let set = ModelSet::standard();
        let mut reference = CampaignReport::empty();
        let mut summaries = [OracleSummary::default(); OracleKind::ALL.len()];
        let mut rows: Vec<MatrixRow> = Vec::new();
        for entry in corpus_stream(&cfg) {
            let row = reference_row(entry.unwrap(), &set);
            check_row(&row, &mut reference.discrepancies, &mut summaries);
            reference.account_row(&row.origin, &row.cells);
            rows.push(row);
        }
        for (oracle, summary) in reference.oracles.iter_mut().zip(summaries) {
            oracle.summary = summary;
        }
        let res = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        let mut seen = 0;
        let stream = corpus_stream(&cfg);
        let fp = config_fingerprint(&cfg, stream.total());
        let report = drive_campaign(
            stream,
            fp,
            &set,
            &MatrixOptions::default(),
            &res,
            |_, row, d, s| judge_matrix(row, d, s),
            |i, cells, _| {
                // Rows arrive in corpus order, each cell what a
                // dedicated check of that column says.
                assert_eq!(i, seen);
                seen += 1;
                assert_eq!(cells, rows[i].cells, "{}", rows[i].test.name);
            },
        )
        .unwrap();
        assert_eq!(seen, rows.len());
        assert!(report.failed_units.is_empty());
        assert_eq!(report.resumed_at, None);
        assert_same_substance(&report, &reference);
    }

    #[test]
    fn rows_cover_supported_cells_only() {
        let entries = ["MP", "RCU-MP"].map(|name| CorpusEntry {
            test: lkmm_litmus::library::by_name(name).unwrap().test(),
            origin: Origin::Generated,
        });
        let res = ResilienceConfig::default();
        let stream = CorpusStream::from_entries(entries.to_vec());
        let mut rows = Vec::new();
        let report = drive_campaign(
            stream,
            0,
            &ModelSet::standard(),
            &MatrixOptions::default(),
            &res,
            |_, _, _, _| {},
            |i, cells, _| {
                let CorpusEntry { test, origin } = entries[i].clone();
                rows.push(MatrixRow { test, origin, cells: cells.to_vec() });
            },
        )
        .unwrap();
        assert!(rows[0].cells.iter().all(Option::is_some));
        assert!(rows[1].cell(ModelId::C11).is_none());
        assert!(rows[1].cell(ModelId::LkmmNative).is_some());
        assert_eq!(rows[0].verdict(ModelId::LkmmNative), Some(Verdict::Allowed));
        assert_eq!(rows[1].verdict(ModelId::LkmmNative), Some(Verdict::Forbidden));
        let c11_pass = &report.models[ModelId::C11.index()].pass;
        assert_eq!(c11_pass.skipped, 1);
        assert_eq!(c11_pass.checked, 1);
    }

    #[test]
    fn srcu_rows_skip_the_cat_column_and_keep_the_others() {
        // The cat LKMM refuses SRCU events; asked anyway, it panicked on
        // every attempt and the whole row was quarantined.
        let srcu_mp = lkmm_litmus::parse(
            "C SRCU-MP\n{ ss=0; x=0; y=0; }\n\
             P0(srcu_struct *ss, int *x, int *y) { int r1; int r2; srcu_read_lock(ss); \
             r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); srcu_read_unlock(ss); }\n\
             P1(srcu_struct *ss, int *x, int *y) { WRITE_ONCE(*y, 1); \
             synchronize_srcu(ss); WRITE_ONCE(*x, 1); }\n\
             exists (0:r1=1 /\\ 0:r2=0)",
        )
        .unwrap();
        let mp = lkmm_litmus::library::by_name("MP").unwrap().test();
        let entries = [mp, srcu_mp].map(|test| CorpusEntry { test, origin: Origin::Generated });
        let res = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        let mut rows = Vec::new();
        let report = drive_campaign(
            CorpusStream::from_entries(entries.to_vec()),
            0,
            &ModelSet::standard(),
            &MatrixOptions::default(),
            &res,
            |_, row, d, s| judge_matrix(row, d, s),
            |i, cells, _| {
                let CorpusEntry { test, origin } = entries[i].clone();
                rows.push(MatrixRow { test, origin, cells: cells.to_vec() });
            },
        )
        .unwrap();
        assert!(report.failed_units.is_empty(), "{:?}", report.failed_units);
        assert!(rows[0].cells.iter().all(Option::is_some));
        assert!(rows[1].cell(ModelId::LkmmCat).is_none());
        assert_eq!(rows[1].verdict(ModelId::LkmmNative), Some(Verdict::Forbidden));
        assert_eq!(rows[1].verdict(ModelId::Sc), Some(Verdict::Forbidden));
        assert_eq!(report.models[ModelId::LkmmCat.index()].pass.skipped, 1);
        assert!(report.discrepancies.is_empty(), "{:?}", report.discrepancies);
    }

    #[test]
    fn suspend_then_resume_reproduces_the_uninterrupted_campaign() {
        let cfg = quick_config();
        let store = temp("resume-store");
        let ckpt = temp("resume-ckpt");
        let base = ResilienceConfig {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 4,
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        };

        // Uninterrupted reference run (its own store, so no warm help).
        let ref_store = temp("resume-ref");
        let full = drive(
            &cfg,
            Some(&ref_store),
            &ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() },
        )
        .unwrap();

        // Interrupted run: suspend partway with a checkpoint.
        let res = ResilienceConfig { stop_after: Some(7), ..base.clone() };
        match drive(&cfg, Some(&store), &res) {
            Err(CampaignError::Suspended { cursor, total }) => {
                assert_eq!(cursor, 7);
                assert!(cursor < total);
            }
            other => panic!("expected suspension, got {other:?}"),
        }

        // Resume: the clean prefix restores from aggregates (nothing
        // replays — only the tail computes), and the substance matches
        // the uninterrupted run exactly.
        let res = ResilienceConfig { resume: true, ..base };
        let resumed = drive(&cfg, Some(&store), &res).unwrap();
        assert_eq!(resumed.resumed_at, Some(7));
        assert_same_substance(&resumed, &full);
        let full_enum: usize = full.models.iter().map(|m| m.pass.candidates_enumerated).sum();
        let tail_enum: usize = resumed.models.iter().map(|m| m.pass.candidates_enumerated).sum();
        assert!(tail_enum > 0, "the tail computes fresh");
        assert!(tail_enum < full_enum, "the prefix is never re-enumerated");

        for p in [&store, &ckpt, &ref_store] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(p.with_extension("bin.lock"));
        }
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let cfg = quick_config();
        let ckpt = temp("mismatch-ckpt");
        let base = ResilienceConfig {
            checkpoint: Some(ckpt.clone()),
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        };
        let res = ResilienceConfig { stop_after: Some(3), ..base.clone() };
        assert!(matches!(drive(&cfg, None, &res), Err(CampaignError::Suspended { .. })));

        // Same checkpoint, different config (salt): refused.
        let other = CampaignConfig { salt: "other".into(), ..quick_config() };
        let res = ResilienceConfig { resume: true, ..base };
        match drive(&other, None, &res) {
            Err(CampaignError::CheckpointMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected fingerprint refusal, got {other:?}"),
        }
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn resume_without_a_checkpoint_starts_fresh() {
        let cfg = quick_config();
        let ckpt = temp("fresh-ckpt");
        let res = ResilienceConfig {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        };
        let report = drive(&cfg, None, &res).unwrap();
        assert_eq!(report.resumed_at, None);
        assert!(report.checkpoints_written >= 1, "final frame always lands");
        assert!(report.corpus_library + report.corpus_generated > 0);
        let _ = std::fs::remove_file(&ckpt);
    }

    /// SC whose first `session()` call panics — a fault opening the
    /// evaluation session, outside the pipeline's containment, so it
    /// escapes `prepare`. (Key derivation does not call into the model
    /// per unit: the checker hashes each column's key prefix once.)
    struct FirstSessionPanics {
        armed: Arc<AtomicBool>,
        sc: lkmm_models::Sc,
    }

    impl ConsistencyModel for FirstSessionPanics {
        fn name(&self) -> &str {
            self.sc.name()
        }

        fn session(&self) -> Option<Box<dyn ModelSession + '_>> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected panic opening a model session");
            }
            self.sc.session()
        }

        fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
            self.sc.allows_with(x, facts)
        }
    }

    #[test]
    fn panic_while_preparing_is_retried_on_the_calling_thread() {
        let cfg = quick_config();
        let res = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        let reference = drive(&cfg, None, &res).unwrap();
        for jobs in [1, 2] {
            let armed = Arc::new(AtomicBool::new(true));
            let mut set = ModelSet::standard();
            set.replace(
                ModelId::Sc,
                Box::new(FirstSessionPanics { armed: armed.clone(), sc: lkmm_models::Sc }),
            );
            let stream = corpus_stream(&cfg);
            let fp = config_fingerprint(&cfg, stream.total());
            let opts = MatrixOptions { jobs, ..MatrixOptions::default() };
            let report = drive_campaign(
                stream,
                fp,
                &set,
                &opts,
                &res,
                |_, row, d, s| judge_matrix(row, d, s),
                |_, _, _| {},
            )
            .unwrap();
            assert!(!armed.load(Ordering::SeqCst), "jobs={jobs}: the panic fired");
            assert!(report.failed_units.is_empty(), "jobs={jobs}: the retry succeeded");
            assert_same_substance(&report, &reference);
        }
    }

    #[test]
    fn each_row_judgement_is_folded_once_adopted_or_judged_again() {
        // One test twice in a row, and an SC column whose first session
        // panics. Whichever unit opens it fails its prepare and is
        // retried at commit; the other copy is either an in-flight
        // duplicate (judged again at commit) or committed exactly as
        // prepared (its worker's judgement adopted), depending on
        // timing. Either way each row's summaries join the report once.
        let mp = lkmm_litmus::library::by_name("MP").unwrap().test();
        let entries = vec![CorpusEntry { test: mp, origin: Origin::Generated }; 2];
        let res = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        let run = |jobs| {
            let armed = Arc::new(AtomicBool::new(true));
            let mut set = ModelSet::standard();
            set.replace(
                ModelId::Sc,
                Box::new(FirstSessionPanics { armed: armed.clone(), sc: lkmm_models::Sc }),
            );
            let calls = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let mut folds = [0usize; 2];
            let opts = MatrixOptions { jobs, ..MatrixOptions::default() };
            let report = drive_campaign(
                CorpusStream::from_entries(entries.clone()),
                0,
                &set,
                &opts,
                &res,
                |i, row, d, s| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    judge_matrix(row, d, s);
                },
                |i, _, s| {
                    folds[i] += 1;
                    assert_eq!(s[OracleKind::NativeCatAgreement.index()].checked, 1, "unit {i}");
                },
            )
            .unwrap();
            assert!(!armed.load(Ordering::SeqCst), "jobs={jobs}: the panic fired");
            assert!(report.failed_units.is_empty(), "jobs={jobs}: the retry succeeded");
            assert_eq!(folds, [1, 1], "jobs={jobs}: each unit folded once");
            // The retried unit is judged once, at commit; the other at
            // most twice.
            let calls = calls.map(AtomicUsize::into_inner);
            assert!(calls.iter().all(|n| (1..=2).contains(n)), "jobs={jobs}: {calls:?}");
            assert!(calls.contains(&1), "jobs={jobs}: {calls:?}");
            report
        };
        let one = run(1);
        let agreement = &one.oracles[OracleKind::NativeCatAgreement.index()].summary;
        assert_eq!(agreement.checked, 2, "one judgement per unit");
        assert_same_substance(&run(2), &one);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let res = ResilienceConfig { retry_base_ms: 10, ..ResilienceConfig::default() };
        let a = backoff_delay(&res, 3, 1);
        let b = backoff_delay(&res, 3, 1);
        assert_eq!(a, b, "same (seed, unit, attempt) => same delay");
        assert_ne!(
            backoff_delay(&res, 3, 1),
            backoff_delay(&res, 4, 1),
            "different units jitter apart"
        );
        for attempt in 1..=8u32 {
            let d = backoff_delay(&res, 0, attempt) ;
            let exp = 10u64 << u64::from(attempt.saturating_sub(1).min(6));
            assert!(d.as_millis() as u64 >= exp, "at least the exponential base");
            assert!(d.as_millis() as u64 <= exp + exp / 2, "jitter bounded by half");
        }
        let zero = ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() };
        assert_eq!(backoff_delay(&zero, 9, 5), Duration::ZERO);
    }
}
