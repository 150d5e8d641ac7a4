//! # linux-kernel-memory-model
//!
//! A from-scratch Rust reproduction of *"Frightening Small Children and
//! Disconcerting Grown-ups: Concurrency in the Linux Kernel"* (Alglave,
//! Maranget, McKenney, Parri, Stern — ASPLOS 2018): the Linux-kernel
//! memory model (LKMM) as an executable artifact, together with every
//! substrate the paper's evaluation depends on.
//!
//! The individual crates:
//!
//! * [`relation`] — bitset relation algebra over events;
//! * [`litmus`] — the LK litmus dialect: AST, parser, printer, and the
//!   paper's named test library;
//! * [`exec`] — candidate-execution semantics and exhaustive enumeration;
//! * [`cat`] — an interpreter for the cat modelling language, with the
//!   LKMM embedded as a cat file;
//! * [`model`] (crate `lkmm`) — the native LKMM: Figure 3/8 axioms plus
//!   the Figure 12 RCU axiom, with every intermediate relation exposed;
//! * [`models`] — comparison models: SC, x86-TSO, original C11;
//! * [`rcu`] — the fundamental law, Theorem 1 equivalence checking, the
//!   Figure 15 implementation (axiomatic expansion and a real threaded
//!   runtime);
//! * [`sim`] — operational hardware simulators (x86 / ARMv8 / ARMv7 /
//!   Power8) standing in for the paper's testbeds;
//! * [`generator`] — diy-style critical-cycle test generation;
//! * [`klitmus`] — a host runner on real threads and atomics;
//! * [`service`] — content-addressed verdict store, batch checking
//!   through the cache, and the JSON-lines serve mode behind
//!   `herd-rs serve`;
//! * [`conformance`] — the differential conformance engine behind
//!   `herd-rs conformance`: campaign driver, verdict matrix, oracle
//!   invariants (native≡cat, the SC ⊆ TSO ⊆ LKMM envelope, simulator
//!   soundness, the §5.2 C11 divergence whitelist), and a
//!   delta-debugging discrepancy shrinker;
//! * [`algorithms`] — the real-algorithm verification tier behind
//!   `herd-rs conformance --algorithms`: parameterised litmus-program
//!   families (hierarchical RCU, Arc-style refcount, ticket/CLH locks,
//!   seqlock, Chase-Lev deque) with per-family safety invariants,
//!   loom-style exhaustive interleaving, and threaded reference
//!   implementations.
//!
//! # Quickstart
//!
//! ```
//! use linux_kernel_memory_model::{Herd, ModelChoice};
//!
//! let herd = Herd::new(ModelChoice::Lkmm);
//! let report = herd.check_source(r#"
//! C MP+wmb+rmb
//! { x=0; y=0; }
//! P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }
//! P1(int *x, int *y) {
//!     int r0; int r1;
//!     r0 = READ_ONCE(*y); smp_rmb(); r1 = READ_ONCE(*x);
//! }
//! exists (1:r0=1 /\ 1:r1=0)
//! "#).unwrap();
//! assert!(!report.allowed()); // Figure 2: forbidden
//! ```

pub use lkmm as model;
pub use lkmm_algorithms as algorithms;
pub use lkmm_cat as cat;
pub use lkmm_conformance as conformance;
pub use lkmm_exec as exec;
pub use lkmm_generator as generator;
pub use lkmm_klitmus as klitmus;
pub use lkmm_litmus as litmus;
pub use lkmm_models as models;
pub use lkmm_rcu as rcu;
pub use lkmm_relation as relation;
pub use lkmm_server as server;
pub use lkmm_service as service;
pub use lkmm_sim as sim;

pub use lkmm_exec::{
    Budget, BudgetKind, CancelToken, CheckOutcome, InconclusiveReason, MultiCheckOutcome, Tally,
};

use lkmm_exec::enumerate::EnumOptions;
use lkmm_exec::{check, ConsistencyModel, EnumError, PipelineOptions, TestResult, Verdict};
use lkmm_litmus::{parse, ParseError, Test};
use std::fmt;

/// Which consistency model to check against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelChoice {
    /// The native LKMM (core + RCU axioms).
    Lkmm,
    /// The LKMM interpreted from its embedded cat file.
    LkmmCat,
    /// Sequential consistency.
    Sc,
    /// x86-TSO.
    Tso,
    /// Simplified ARMv8 (ordered-before style).
    Armv8,
    /// IBM Power (herding-cats style).
    Power,
    /// Original C11 under the P0124 mapping.
    C11,
}

impl ModelChoice {
    /// Instantiate the model.
    pub fn model(self) -> Box<dyn ConsistencyModel> {
        match self {
            ModelChoice::Lkmm => Box::new(lkmm::Lkmm::new()),
            ModelChoice::LkmmCat => Box::new(lkmm_cat::linux_kernel_model()),
            ModelChoice::Sc => Box::new(lkmm_models::Sc),
            ModelChoice::Tso => Box::new(lkmm_models::X86Tso),
            ModelChoice::Armv8 => Box::new(lkmm_models::Armv8),
            ModelChoice::Power => Box::new(lkmm_models::Power),
            ModelChoice::C11 => Box::new(lkmm_models::OriginalC11),
        }
    }

    /// Parse a command-line name (`lkmm`, `lkmm-cat`, `sc`, `tso`, `armv8`, `power`, `c11`).
    pub fn parse_name(name: &str) -> Option<ModelChoice> {
        Some(match name.to_ascii_lowercase().as_str() {
            "lkmm" => ModelChoice::Lkmm,
            "lkmm-cat" | "cat" => ModelChoice::LkmmCat,
            "sc" => ModelChoice::Sc,
            "tso" | "x86" | "x86-tso" => ModelChoice::Tso,
            "armv8" | "arm" | "aarch64" => ModelChoice::Armv8,
            "power" | "ppc" | "power8" => ModelChoice::Power,
            "c11" => ModelChoice::C11,
            _ => return None,
        })
    }
}

/// High-level checker: the herd7 work-flow in one object.
///
/// A `Herd` can hold one model ([`Herd::new`]) or several
/// ([`Herd::new_multi`]). With several, [`Herd::check_multi`] and
/// [`Herd::check_multi_governed`] decide every model from **one**
/// enumeration pass over the test's candidate executions — each
/// candidate's derived relations are computed once into a shared facts
/// layer and borrowed by all the checkers. The single-model methods
/// always act on the first model.
pub struct Herd {
    models: Vec<Box<dyn ConsistencyModel>>,
    options: EnumOptions,
    pipeline: PipelineOptions,
}

/// Everything [`Herd::check`] reports about one test.
#[derive(Clone, Debug)]
pub struct Report {
    /// The checked test's name.
    pub test_name: String,
    /// The model's name.
    pub model_name: String,
    /// Raw verdict data.
    pub result: TestResult,
}

impl Report {
    /// Whether the condition's outcome is observable under the model
    /// (the paper's Allow).
    pub fn allowed(&self) -> bool {
        self.result.verdict == Verdict::Allowed
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Test {} ({})", self.test_name, self.model_name)?;
        writeln!(
            f,
            "  candidates={} allowed={} witnesses={}",
            self.result.candidates, self.result.allowed, self.result.witnesses
        )?;
        write!(
            f,
            "  verdict: {} (condition {})",
            self.result.verdict,
            if self.result.condition_holds { "holds" } else { "does not hold" }
        )
    }
}

/// Everything [`Herd::check_governed`] reports about one test.
///
/// Unlike [`Report`] this may be inconclusive: a check stopped by its
/// [`Budget`] (or a contained worker panic) carries the stop reason and
/// the exact partial tallies instead of a verdict.
#[derive(Clone, Debug)]
pub struct GovernedReport {
    /// The checked test's name.
    pub test_name: String,
    /// The model's name.
    pub model_name: String,
    /// Verdict or structured stop reason.
    pub outcome: CheckOutcome,
}

impl GovernedReport {
    /// The completed [`Report`], if the check finished.
    pub fn report(&self) -> Option<Report> {
        self.outcome.result().map(|result| Report {
            test_name: self.test_name.clone(),
            model_name: self.model_name.clone(),
            result: result.clone(),
        })
    }
}

/// Everything [`Herd::check_multi_governed`] reports about one test.
///
/// One enumeration pass decided every model, so either all models get a
/// verdict ([`MultiCheckOutcome::Complete`], in [`Herd::new_multi`]
/// order) or none do and the partial tallies all cover the same
/// candidate prefix.
#[derive(Clone, Debug)]
pub struct MultiGovernedReport {
    /// The checked test's name.
    pub test_name: String,
    /// The models' names, in [`Herd::new_multi`] order.
    pub model_names: Vec<String>,
    /// Per-model verdicts or a shared structured stop reason.
    pub outcome: MultiCheckOutcome,
}

impl MultiGovernedReport {
    /// The completed per-model [`Report`]s, if the check finished.
    pub fn reports(&self) -> Option<Vec<Report>> {
        match &self.outcome {
            MultiCheckOutcome::Complete(results) => Some(
                self.model_names
                    .iter()
                    .zip(results)
                    .map(|(name, result)| Report {
                        test_name: self.test_name.clone(),
                        model_name: name.clone(),
                        result: result.clone(),
                    })
                    .collect(),
            ),
            MultiCheckOutcome::Inconclusive { .. } => None,
        }
    }
}

/// Errors from the high-level API.
#[derive(Debug)]
pub enum HerdError {
    /// Litmus parse failure.
    Parse(ParseError),
    /// Enumeration failure.
    Enumerate(EnumError),
}

impl fmt::Display for HerdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HerdError::Parse(e) => write!(f, "{e}"),
            HerdError::Enumerate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HerdError {}

impl From<ParseError> for HerdError {
    fn from(e: ParseError) -> Self {
        HerdError::Parse(e)
    }
}

impl From<EnumError> for HerdError {
    fn from(e: EnumError) -> Self {
        HerdError::Enumerate(e)
    }
}

impl Herd {
    /// A checker for the chosen model with default enumeration options,
    /// checking sequentially (`jobs = 1`).
    pub fn new(choice: ModelChoice) -> Self {
        Herd::new_multi(&[choice])
    }

    /// A checker deciding every chosen model from a single enumeration
    /// pass per test.
    ///
    /// # Panics
    ///
    /// Panics on an empty choice list.
    pub fn new_multi(choices: &[ModelChoice]) -> Self {
        Herd::from_models(choices.iter().map(|c| c.model()).collect())
    }

    /// A checker for models of the caller's own, in the order given: the
    /// single-model methods act on the first one.
    ///
    /// # Panics
    ///
    /// Panics on an empty model list.
    pub fn from_models(models: Vec<Box<dyn ConsistencyModel>>) -> Self {
        assert!(!models.is_empty(), "Herd needs at least one model");
        Herd {
            models,
            options: EnumOptions::default(),
            pipeline: PipelineOptions { jobs: 1, ..PipelineOptions::default() },
        }
    }

    fn model(&self) -> &dyn ConsistencyModel {
        self.models[0].as_ref()
    }

    fn model_refs(&self) -> Vec<&dyn ConsistencyModel> {
        self.models.iter().map(Box::as_ref).collect()
    }

    /// Override the enumeration options.
    pub fn with_options(mut self, options: EnumOptions) -> Self {
        self.options = options;
        self
    }

    /// Split each test big enough to pay for it over `jobs` worker
    /// threads (`0` = one per hardware thread). Verdicts and counts are
    /// identical for every job count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pipeline.jobs = jobs;
        self
    }

    /// Stop each check as soon as the quantified verdict is decided. The
    /// verdict and `condition_holds` are unaffected; the reported counts
    /// become lower bounds.
    pub fn with_early_exit(mut self, early_exit: bool) -> Self {
        self.pipeline.early_exit = early_exit;
        self
    }

    /// Record arena counters into `stats` while checking.
    /// Observability only — never affects verdicts or counts.
    pub fn with_pipeline_stats(
        mut self,
        stats: Option<std::sync::Arc<lkmm_exec::DataPlaneStats>>,
    ) -> Self {
        self.pipeline.stats = stats;
        self
    }

    /// Bound every check by `budget`. A check that exceeds it reports
    /// [`CheckOutcome::Inconclusive`] through [`Herd::check_governed`]
    /// (plain [`Herd::check`] surfaces it as an enumeration error). A
    /// budget never changes a completed verdict.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.options.budget = budget;
        self
    }

    /// Check a parsed test.
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors; an exhausted budget is
    /// [`EnumError::BudgetExceeded`].
    ///
    /// # Panics
    ///
    /// If model evaluation panics ([`Herd::check_governed`] contains
    /// that instead).
    pub fn check(&self, test: &Test) -> Result<Report, HerdError> {
        let result =
            check(&[self.model()], test, &self.options, &self.pipeline).into_result()?.remove(0);
        Ok(Report {
            test_name: test.name.clone(),
            model_name: self.model().name().to_string(),
            result,
        })
    }

    /// Check a parsed test against every configured model in one
    /// enumeration pass. Reports come back in [`Herd::new_multi`] order
    /// and are identical to what N separate [`Herd::check`] calls would
    /// produce.
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors, as [`Herd::check`] does.
    ///
    /// # Panics
    ///
    /// If model evaluation panics.
    pub fn check_multi(&self, test: &Test) -> Result<Vec<Report>, HerdError> {
        let models = self.model_refs();
        let results = check(&models, test, &self.options, &self.pipeline).into_result()?;
        Ok(models
            .iter()
            .zip(results)
            .map(|(m, result)| Report {
                test_name: test.name.clone(),
                model_name: m.name().to_string(),
                result,
            })
            .collect())
    }

    /// Check a parsed test against every configured model in one
    /// *governed* enumeration pass. Never errors and never panics; a
    /// budget stop yields [`MultiCheckOutcome::Inconclusive`] with one
    /// partial tally per model, all covering the same candidates.
    pub fn check_multi_governed(&self, test: &Test) -> MultiGovernedReport {
        let models = self.model_refs();
        let outcome = check(&models, test, &self.options, &self.pipeline);
        MultiGovernedReport {
            test_name: test.name.clone(),
            model_names: models.iter().map(|m| m.name().to_string()).collect(),
            outcome,
        }
    }

    /// Check a parsed test under the configured [`Budget`]. Never errors
    /// and never panics: enumeration failures, exhausted budgets, and
    /// panics inside model evaluation all come back as structured
    /// [`CheckOutcome::Inconclusive`] outcomes with partial tallies.
    pub fn check_governed(&self, test: &Test) -> GovernedReport {
        let outcome = check(&[self.model()], test, &self.options, &self.pipeline).into_first();
        GovernedReport {
            test_name: test.name.clone(),
            model_name: self.model().name().to_string(),
            outcome,
        }
    }

    /// Parse and check litmus source.
    ///
    /// # Errors
    ///
    /// Returns parse or enumeration errors.
    pub fn check_source(&self, source: &str) -> Result<Report, HerdError> {
        let test = parse(source)?;
        self.check(&test)
    }

    /// herd-style final-state histogram for a test.
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors.
    pub fn states(&self, test: &Test) -> Result<lkmm_exec::StateSummary, HerdError> {
        Ok(lkmm_exec::collect_states(self.model(), test, &self.options)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn herd_checks_library_tests() {
        let herd = Herd::new(ModelChoice::Lkmm);
        let t = lkmm_litmus::library::by_name("SB+mbs").unwrap().test();
        let report = herd.check(&t).unwrap();
        assert!(!report.allowed());
        assert!(report.to_string().contains("Forbid"));
    }

    #[test]
    fn model_choice_parsing() {
        assert_eq!(ModelChoice::parse_name("LKMM"), Some(ModelChoice::Lkmm));
        assert_eq!(ModelChoice::parse_name("x86"), Some(ModelChoice::Tso));
        assert_eq!(ModelChoice::parse_name("bogus"), None);
    }

    #[test]
    fn parse_errors_surface() {
        let herd = Herd::new(ModelChoice::Sc);
        assert!(matches!(herd.check_source("not litmus"), Err(HerdError::Parse(_))));
    }

    #[test]
    fn multi_check_matches_single_model_runs() {
        let choices = [ModelChoice::Lkmm, ModelChoice::Sc, ModelChoice::Tso];
        let herd = Herd::new_multi(&choices);
        let t = lkmm_litmus::library::by_name("SB").unwrap().test();
        let reports = herd.check_multi(&t).unwrap();
        assert_eq!(reports.len(), 3);
        for (choice, multi) in choices.iter().zip(&reports) {
            let single = Herd::new(*choice).check(&t).unwrap();
            assert_eq!(multi.model_name, single.model_name);
            assert_eq!(multi.result, single.result);
        }

        let governed = herd.check_multi_governed(&t);
        let govs = governed.reports().expect("no budget configured");
        for (multi, gov) in reports.iter().zip(&govs) {
            assert_eq!(multi.result, gov.result);
        }
    }
}
