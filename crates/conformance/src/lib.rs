//! Differential conformance engine for the LKMM reproduction.
//!
//! The paper validates the Linux-kernel memory model by cross-checking
//! it against its neighbours: the hand-written cat formalisation must
//! agree with the native implementation everywhere, hardware models
//! must fit inside the envelope SC ⊆ x86-TSO ⊆ LKMM, the operational
//! simulators must never exhibit an outcome the axiomatic model
//! forbids, and the original-C11 divergences of §5.2 must all trace
//! back to a feature C11 genuinely lacks. This crate automates that
//! cross-checking at corpus scale:
//!
//! * [`matrix`] — the per-test × per-model verdict matrix: its columns,
//!   rows and corpus entries (each model column is salted separately,
//!   so two checkers that share a display name — native LKMM and the
//!   cat LKMM both print "LKMM" — can never replay each other's cached
//!   verdicts).
//! * [`oracle`] — typed invariants over matrix rows; each violation is
//!   a structured [`Discrepancy`] carrying the exact [`Recheck`] that
//!   failed, so it can be re-validated from scratch.
//! * [`shrink`] — a delta-debugging minimizer (drop threads, drop
//!   statements, flatten `if`s, drop condition conjuncts) that reduces
//!   a discrepancy to a minimal litmus test still discriminating the
//!   disagreeing checkers.
//! * [`campaign`] — the campaign tying the layers together,
//! * [`driver`] — the supervised matrix driver both campaigns run on:
//!   lazy work units checked on a worker pool through the
//!   content-addressed verdict store, per-unit retry with seeded
//!   backoff, quarantine of poisoned units, and periodic checkpoints;
//!   it returns the finished [`CampaignReport`] both campaigns render,
//! * [`checkpoint`] — framed, checksummed campaign manifests with
//!   latest-valid-frame-wins crash recovery and fingerprint-guarded
//!   resume,
//! * [`report`] — deterministic JSON plus a human summary table, built
//!   from sections both campaigns share, and
//! * [`algorithms`] — the real-algorithm campaign: parameterised
//!   litmus families (locks, refcounts, seqlock, RCU trees, deques)
//!   held to per-family safety invariants across the axiomatic,
//!   simulated, host-threaded, and exhaustively-interleaved layers.
//!
//! Discrepancy re-checks never go through the verdict store: a
//! discrepancy is evidence that at least one checker is wrong, and a
//! store keyed by (test, model, salt) cannot tell a correct verdict
//! from a cached wrong one. Shrinker predicates therefore recompute
//! every candidate from scratch, and fault-injection campaigns must run
//! storeless so poisoned verdicts are never persisted.
//!
//! # Examples
//!
//! ```
//! use lkmm_conformance::campaign::{run_campaign, CampaignConfig, SimConfig};
//!
//! // Library-only campaign, simulators off: fast enough for a doctest.
//! let cfg = CampaignConfig {
//!     max_cycle_len: 0,
//!     sim: SimConfig { iterations: 0, ..SimConfig::default() },
//!     ..CampaignConfig::default()
//! };
//! let report = run_campaign(&cfg).unwrap();
//! assert!(report.clean());
//! assert_eq!(report.corpus_library, lkmm_litmus::library::all().len());
//! ```

pub mod algorithms;
pub mod campaign;
pub mod checkpoint;
pub mod driver;
pub mod matrix;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use algorithms::{
    algo_human_table, algo_json_report, run_algo_campaign, run_algo_campaign_with, AlgoConfig,
    AlgoReport, FamilyStats,
};
pub use campaign::{
    config_fingerprint, corpus_stream, run_campaign, run_campaign_with, CampaignConfig,
    CampaignError, CampaignReport, CorpusStream, ModelStats, OracleStats, SimConfig,
};
pub use checkpoint::{Checkpoint, CheckpointLog, CheckpointScan, FailedUnit, FailureKind};
pub use driver::{backoff_delay, drive_campaign, ResilienceConfig};
pub use matrix::{
    CorpusEntry, MatrixOptions, MatrixRow, ModelId, ModelPass, ModelSet, Origin,
};
pub use oracle::{
    check_row, recheck_violated, Discrepancy, OracleKind, OracleSummary, Recheck, ENVELOPE_PAIRS,
};
pub use report::{data_plane_line, enumeration_line, human_table, json_report, observability_lines};
pub use shrink::{shrink, test_size, Shrunk};
