//! Candidate-execution semantics for LK litmus tests.
//!
//! An axiomatic memory model decides which *candidate executions* of a
//! program are allowed. A candidate execution is a graph: *events* (reads,
//! writes, fences — Table 3/4 of the paper) plus relations — the program
//! order `po`, the dependency relations `addr`/`data`/`ctrl`, the
//! read-modify-write pairing `rmw`, and an *execution witness*: the
//! reads-from relation `rf` and the per-location coherence order `co`.
//!
//! This crate turns a [`lkmm_litmus::Test`] into the full set of its
//! candidate executions:
//!
//! 1. [`lower`] lowers the test once: names become dense indices, the
//!    form the klitmus host runner and the simulators run on too;
//! 2. [`thread`] runs each thread concretely under a *read oracle* (an
//!    assignment of values to its reads), tracking dependencies by taint;
//! 3. [`enumerate()`](crate::enumerate::enumerate) computes the per-location value domains by fixpoint,
//!    iterates all oracles, then all `rf` choices and all `co` orders;
//! 4. [`Execution`] packages the result with every
//!    derived relation a cat model needs (`fr`, `po-loc`, `rfe`, fence
//!    pair relations, the RCU `crit` matching, …).
//!
//! # Examples
//!
//! ```
//! use lkmm_exec::enumerate::{enumerate, EnumOptions};
//!
//! let test = lkmm_litmus::library::by_name("SB").unwrap().test();
//! let execs = enumerate(&test, &EnumOptions::default()).unwrap();
//! // SB has 2 writes and 2 reads over 2 locations: each read sees the
//! // initial value or the other thread's write.
//! assert!(execs.iter().any(|x| x.satisfies_prop(&test.condition.prop)));
//! ```

pub mod enumerate;
pub mod facts;
pub mod model;
pub mod pipeline;
pub mod pool;
pub mod states;
pub mod event;
pub mod execution;
pub mod lower;
pub mod thread;

pub use enumerate::{
    enumerate, for_each_execution, try_for_each_execution, DataPlaneSnapshot, EnumError,
    EnumOptions, EnumSnapshot, EnumStrategy, Stats, StatsSnapshot,
};
pub use event::{Event, EventKind, LocId, ReadAnnot, SrcuKind, Val, WriteAnnot};
pub use execution::{Execution, Shape};
pub use facts::{ExecFacts, FactsCache, SrcuDomainFacts, StaticExecFacts};
pub use lkmm_core::budget::{Budget, BudgetKind, StepFuel};
pub use model::{
    check_test, open_session, ConsistencyModel, EvalStop, ModelSession, TestResult, Verdict,
};
pub use pipeline::{
    check, effective_jobs, worker_threads, CheckOutcome, InconclusiveReason, MultiCheckOutcome,
    PipelineOptions, Sessions, Tally, MAX_JOBS,
};
pub use states::{collect_states, StateSummary};
