//! Sweep driver: check every test of a generated family against a model.
//!
//! This is the §5 work-flow ("systematically generate thousands of tests
//! … and run them against the model") as one call. Checking goes through
//! the check engine ([`lkmm_exec::check`]), which splits a test big
//! enough to pay for it over worker threads. Verdicts are identical for
//! every job count.

use crate::family::family_tests;
use crate::{Edge, GenError};
use lkmm_exec::enumerate::{EnumError, EnumOptions};
use lkmm_exec::{check, ConsistencyModel, PipelineOptions, TestResult};
use lkmm_litmus::ast::Test;
use std::fmt;

/// One checked family member.
#[derive(Clone, Debug)]
pub struct SweepEntry {
    /// The generated test.
    pub test: Test,
    /// Its verdict under the swept model.
    pub result: TestResult,
}

/// Sweep failure: generation or enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// The base cycle is invalid.
    Generate(GenError),
    /// A generated test failed to enumerate (names the test).
    Enumerate(String, EnumError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Generate(e) => write!(f, "{e}"),
            SweepError::Enumerate(name, e) => write!(f, "{name}: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Check every variation of `base` (see [`crate::family::family`])
/// against `model`, returning the entries in generation order.
///
/// # Errors
///
/// See [`SweepError`].
///
/// # Examples
///
/// ```
/// use lkmm_exec::enumerate::EnumOptions;
/// use lkmm_exec::{PipelineOptions, Verdict};
/// use lkmm_generator::sweep::sweep_family;
/// use lkmm_generator::{Edge, Extremity::{R, W}, InternalKind};
///
/// let mp = [
///     Edge::internal(InternalKind::Po, W, W),
///     Edge::Rfe,
///     Edge::internal(InternalKind::Po, R, R),
///     Edge::Fre,
/// ];
/// let entries = sweep_family(
///     &lkmm_exec::model::AllowAll,
///     &mp,
///     &EnumOptions::default(),
///     &PipelineOptions::default(),
/// ).unwrap();
/// assert_eq!(entries.len(), 35); // 5 × 7 well-formed MP adornments
/// assert!(entries.iter().all(|e| e.result.verdict == Verdict::Allowed));
/// ```
pub fn sweep_family(
    model: &dyn ConsistencyModel,
    base: &[Edge],
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> Result<Vec<SweepEntry>, SweepError> {
    let tests = family_tests(base).map_err(SweepError::Generate)?;
    tests
        .into_iter()
        .map(|test| {
            let result = check(&[model], &test, opts, pipe)
                .into_result()
                .map_err(|e| SweepError::Enumerate(test.name.clone(), e))?
                .remove(0);
            Ok(SweepEntry { test, result })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Extremity::{R, W};
    use crate::InternalKind;
    use lkmm_exec::model::AllowAll;
    use lkmm_exec::Verdict;

    fn mp_base() -> Vec<Edge> {
        vec![
            Edge::internal(InternalKind::Po, W, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Po, R, R),
            Edge::Fre,
        ]
    }

    #[test]
    fn sweep_is_job_count_invariant() {
        let opts = EnumOptions::default();
        let base = mp_base();
        let seq = sweep_family(
            &AllowAll,
            &base,
            &opts,
            &PipelineOptions { jobs: 1, ..Default::default() },
        )
        .unwrap();
        let par = sweep_family(
            &AllowAll,
            &base,
            &opts,
            &PipelineOptions { jobs: 4, ..Default::default() },
        )
        .unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.test.name, b.test.name);
            assert_eq!(a.result, b.result, "{}", a.test.name);
        }
        // Every cycle is observable with no axioms.
        assert!(seq.iter().all(|e| e.result.verdict == Verdict::Allowed));
    }

    #[test]
    fn invalid_base_reports_generation_error() {
        let err = sweep_family(
            &AllowAll,
            &[Edge::Rfe],
            &EnumOptions::default(),
            &PipelineOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Generate(_)));
    }
}
