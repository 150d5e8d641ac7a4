//! Verdict store and batch checking service.
//!
//! Checking a litmus test is expensive — candidate-execution counts grow
//! combinatorially with test size — while corpora (the paper library,
//! generator sweeps, regression suites) are full of repeats and
//! isomorphic variants. This crate makes verdicts *content-addressed*:
//!
//! * [`canon`] — a deterministic canonical form for [`lkmm_litmus::ast::Test`]
//!   (sorted thread order, alpha-renamed locations/registers, normalized
//!   condition) and a 128-bit content hash over it, keyed by model name
//!   and a caller-supplied version salt.
//! * [`store`] — [`store::VerdictStore`], a crash-safe append-only log of
//!   `key → verdict` records with an in-memory index. Recovery tolerates
//!   torn or corrupt tails by truncating to the last valid record. The
//!   [`store::VerdictLog`] trait splits out the lookup/append/flush
//!   surface the checkers need, so they run over any backend.
//! * [`shard`] — [`shard::ShardedStore`], N independent logs partitioned
//!   by key prefix behind the same [`store::VerdictLog`] API: parallel
//!   appends without file contention, per-shard quarantine, and
//!   threshold-triggered in-place compaction.
//! * [`batch`] — [`batch::BatchChecker`], which dedupes a corpus by
//!   canonical key, replays store hits, and schedules only the misses
//!   across the parallel checking pipeline.
//! * [`serve`] — a JSON-lines request/response loop (`herd-rs serve`)
//!   exposing check/batch/stats/flush with per-request observability.
//! * [`hash`] / [`json`] — vendored FNV hashing and a minimal JSON
//!   parser/printer, keeping the workspace dependency-free.
//!
//! Soundness note: the canonical form is only ever a *cache key*. The
//! original test is what gets checked, so an under-aggressive
//! canonicalization costs cache misses, never wrong answers; two tests
//! that reach the same canonical form are isomorphic and share their
//! verdict and counts exactly.

pub mod batch;
pub mod canon;
pub mod hash;
pub mod json;
pub mod multi;
pub mod serve;
pub mod shard;
pub mod store;

pub use batch::{BatchChecker, BatchError, BatchOutcome, BatchReport, Provenance};
pub use multi::{
    ColumnReport, CorpusRun, MultiBatchChecker, MultiBatchReport, MultiColumn, PreparedUnit,
    UnitCell, UnitFault,
};
pub use canon::{cache_key, cache_key_of_text, canonical_text, canonicalize, CANON_REVISION};
pub use serve::{serve, serve_with, ServeOptions, ServeSummary};
pub use shard::ShardedStore;
pub use store::{
    CompactReport, MergeReport, RecoveryReport, ScrubReport, ShardStats, StoreError, VerdictLog,
    VerdictStore,
};
