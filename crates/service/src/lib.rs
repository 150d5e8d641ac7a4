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
//! * [`frame`] — the crash-safe frame log: magic, checksummed frames, a
//!   scan that stops at the first torn or corrupt frame, truncation to
//!   the valid prefix on open, and the directory fsync. The verdict
//!   store and the campaign checkpoint (`lkmm_conformance`) are both
//!   frame logs, told apart by their magic and payloads.
//! * [`store`] — [`store::VerdictStore`], a frame log of `key → verdict`
//!   records with an in-memory index. Recovery tolerates torn or corrupt
//!   tails by truncating to the last valid record. The
//!   [`store::VerdictLog`] trait splits out the lookup/append/flush
//!   surface the checker needs, so it runs over any backend.
//! * [`shard`] — [`shard::ShardedStore`], N independent logs partitioned
//!   by key prefix behind the same [`store::VerdictLog`] API: parallel
//!   appends without file contention and per-shard quarantine.
//! * [`multi`] — [`multi::MultiBatchChecker`], which dedupes a corpus
//!   by canonical key, replays store hits, and checks only the misses:
//!   one enumeration per test serves every column (model + salt) it
//!   holds. One column is the plain memoizing checker; the conformance
//!   campaign runs seven.
//! * [`serve`] — a JSON-lines request/response loop (`herd-rs serve`)
//!   exposing check/batch/stats/flush with per-request observability,
//!   and the request framing and per-request isolation the TCP server
//!   shares with it.
//! * [`hash`] / [`json`] — vendored FNV hashing and a minimal JSON
//!   parser/printer, keeping the workspace dependency-free.
//!
//! Soundness note: the canonical form is only ever a *cache key*. The
//! original test is what gets checked, so an under-aggressive
//! canonicalization costs cache misses, never wrong answers; two tests
//! that reach the same canonical form are isomorphic and share their
//! verdict and counts exactly.

pub mod canon;
pub mod frame;
pub mod hash;
pub mod json;
pub mod multi;
pub mod serve;
pub mod shard;
pub mod store;

pub use multi::{
    ColumnReport, CorpusRun, MultiBatchChecker, MultiBatchReport, MultiColumn, PreparedUnit,
    Provenance, UnitCell, UnitFault,
};
pub use canon::{cache_key, cache_key_of_text, canonical_text, canonicalize, CANON_REVISION};
pub use serve::{serve, serve_with, ServeOptions, ServeSession, ServeSummary};
pub use shard::ShardedStore;
pub use store::{
    CompactReport, MergeReport, RecoveryReport, ScrubReport, ShardStats, StoreError, VerdictLog,
    VerdictStore,
};
