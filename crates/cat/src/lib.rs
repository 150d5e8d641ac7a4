//! An executable semantics for the `cat` consistency-model language.
//!
//! `cat` [Alglave, Cousot & Maranget 2016] is the language in which the
//! paper's LKMM is written: models are sets of constraints (`acyclic`,
//! `irreflexive`, `empty`) over relations built from a candidate
//! execution's base relations with union, intersection, difference,
//! sequence, closures, inverses and (recursive) `let` bindings.
//!
//! The supported dialect covers everything the paper's Figures 8 and 12
//! need: `let`, `let rec … and …` (least fixpoints), user functions
//! (`let A-cumul(r) = rfe? ; r`), the operators `| ; \ & ~ ? + * ^-1`,
//! set-to-relation brackets `[S]`, cartesian product `X * Y`, and named
//! checks (`acyclic hb as Hb`).
//!
//! [`CatModel::parse`] parses a model and compiles it once
//! (`compile`): names resolve to nodes of a typed graph, functions are
//! inlined, identical subexpressions share one node, and each node is
//! tiered by whether it depends on the pre-execution only, on the
//! candidate's `rf`/`co`, or on a `let rec` variable. A [`CatSession`]
//! (`eval`) then evaluates that graph per candidate on demand from the
//! checks, recomputing each node only when its tier says it is stale.
//!
//! The LKMM itself ships as an embedded cat file ([`LINUX_KERNEL_CAT`]);
//! the test suite cross-checks the compiled model against the native
//! Rust implementation in the `lkmm` crate on every library test.
//!
//! # Examples
//!
//! ```
//! use lkmm_cat::CatModel;
//! use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
//!
//! let sc = CatModel::parse(r#"
//! "sequential consistency"
//! let fr = rf^-1 ; co
//! acyclic po | rf | co | fr as sc
//! "#).unwrap();
//!
//! let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
//! let r = check_test(&sc, &sb, &EnumOptions::default()).unwrap();
//! assert_eq!(r.verdict, Verdict::Forbidden); // SC forbids store buffering
//! ```

pub mod ast;
pub mod builtin;
mod compile;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod printer;

pub use ast::{CheckKind, Expr, Instr, Model};
pub use builtin::LINUX_KERNEL_CAT;
pub use eval::{CatOutcome, CatSession, EvalError};
pub use parser::CatParseError;

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution, ModelSession};

/// A parsed and compiled cat model, usable as a [`ConsistencyModel`].
#[derive(Clone, Debug)]
pub struct CatModel {
    model: Model,
    program: compile::Program,
}

impl CatModel {
    /// Parse a cat source file and compile it for evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`CatParseError`] on syntax errors, including expressions
    /// nested deeper than [`parser::MAX_EXPR_DEPTH`]. Semantic errors
    /// (unknown identifiers, type mismatches) are not parse errors: they
    /// surface as [`EvalError`]s when the model is evaluated.
    pub fn parse(src: &str) -> Result<Self, CatParseError> {
        let model = parser::parse(src)?;
        let program = compile::compile(&model);
        Ok(CatModel { model, program })
    }

    /// The model's declared name (first string literal), if any.
    pub fn model_name(&self) -> Option<&str> {
        self.model.name.as_deref()
    }

    /// Evaluate all checks against one candidate execution.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for semantic errors (unknown identifiers,
    /// type mismatches) — a well-formed model never errors.
    pub fn evaluate(&self, x: &Execution) -> Result<CatOutcome, EvalError> {
        CatSession::new(self).evaluate(x)
    }

    /// The parsed AST (for tooling).
    pub fn model(&self) -> &Model {
        &self.model
    }

    pub(crate) fn program(&self) -> &compile::Program {
        &self.program
    }
}

impl ConsistencyModel for CatModel {
    fn name(&self) -> &str {
        self.model.name.as_deref().unwrap_or("cat")
    }

    /// # Panics
    ///
    /// Panics if the model has semantic errors (caught on first use; parse
    /// errors are already impossible here).
    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        CatSession::new(self).try_allows_with(x, facts).expect("unmetered sessions never stop")
    }

    fn session(&self) -> Option<Box<dyn ModelSession + '_>> {
        Some(Box::new(CatSession::new(self)))
    }
}

impl ModelSession for CatSession<'_> {
    /// Fuel exhaustion becomes a clean [`EvalStop`]; genuine semantic
    /// errors panic (contained by the pipeline's per-candidate
    /// `catch_unwind` in governed runs).
    ///
    /// [`EvalStop`]: lkmm_exec::EvalStop
    fn try_allows_with(
        &mut self,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<bool, lkmm_exec::EvalStop> {
        let allowed = match self.evaluate_with(x, facts) {
            Ok(outcome) => outcome.allowed(),
            Err(e) if e.is_fuel_exhausted() => return Err(lkmm_exec::EvalStop),
            Err(e) => panic!("cat evaluation failed: {e}"),
        };
        // `cat.misjudge` deliberately inverts verdicts so the conformance
        // oracles can be demonstrated against a broken checker.
        Ok(allowed != lkmm_core::faultpoint::should_fail("cat.misjudge"))
    }

    fn set_step_fuel(&mut self, fuel: Option<std::sync::Arc<lkmm_core::budget::StepFuel>>) {
        self.set_fuel(fuel);
    }
}

/// The LKMM as a compiled cat model (parses [`LINUX_KERNEL_CAT`]).
///
/// # Panics
///
/// Never: the embedded source is covered by tests.
pub fn linux_kernel_model() -> CatModel {
    CatModel::parse(LINUX_KERNEL_CAT).expect("embedded LKMM cat file parses")
}
