//! # lkmm-core
//!
//! Dependency-free runtime substrate shared by every layer of the LKMM
//! toolkit. Its modules sit deliberately below the litmus / execution /
//! model crates so that any of them can use the machinery without
//! dependency cycles:
//!
//! * [`budget`] — resource governance: candidate-count fuel, evaluation
//!   step fuel for `cat` fixpoints and wall-clock deadlines, with a
//!   strided [`budget::Meter`] cheap enough to poll from the innermost
//!   enumeration loops;
//! * [`faultpoint`] — a zero-dependency fault injection harness. Sites
//!   are named strings, compiled into every build and inert until armed
//!   through the `LKMM_FAULTPOINTS` environment variable (which
//!   announces the armed sites on stderr) or the [`faultpoint::arm`]
//!   test guard;
//! * [`quota`] — per-client admission quotas for the multi-client
//!   verdict service, reusing the budget machinery as per-request
//!   governance with typed over-quota / overloaded rejections;
//! * [`rng`] — the vendored SplitMix64 stream every seeded component
//!   draws from.

pub mod budget;
pub mod faultpoint;
pub mod quota;
pub mod rng;
