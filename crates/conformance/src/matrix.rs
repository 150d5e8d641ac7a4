//! The verdict matrix: every corpus test × every checker.
//!
//! A [`ModelId`] names one column of the paper's §5 comparison — the two
//! LKMM formulations, the SC/TSO/ARMv8/Power comparison models, and
//! original C11 under the P0124 mapping. A [`ModelSet`] holds the
//! instantiated checkers (tests swap in deliberately broken mutants via
//! [`ModelSet::replace`]); [`build_matrix`] runs the corpus through the
//! single-enumeration [`MultiBatchChecker`]: each cold test is
//! enumerated **once** and every missing column's verdict is read off
//! that one pass via the shared execution-facts layer. Cache keys are
//! unchanged from the per-column [`lkmm_service::BatchChecker`] era, so
//! a matrix over an on-disk store is incremental: re-running a campaign
//! replays every cached verdict and enumerates nothing.
//!
//! Not every checker covers every test: the hardware models and C11 have
//! no RCU read-side semantics, and C11 has no RCU at all ("–" in
//! Table 5). Unsupported cells are `None` and the oracles skip them.

use lkmm_core::budget::Budget;
use lkmm_exec::{CheckOutcome, ConsistencyModel, EnumOptions, EnumStats, Verdict};
use lkmm_litmus::ast::{Stmt, Test};
use lkmm_litmus::library::Expect;
use lkmm_litmus::FenceKind;
use lkmm_models::OriginalC11;
use lkmm_service::{MultiBatchChecker, MultiColumn, VerdictStore};
use std::io;
use std::path::Path;

/// One column of the verdict matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// The native LKMM (Figure 3/8 axioms plus the Figure 12 RCU axiom).
    LkmmNative,
    /// The LKMM interpreted from its embedded cat file.
    LkmmCat,
    /// Sequential consistency.
    Sc,
    /// x86-TSO.
    Tso,
    /// Simplified ARMv8.
    Armv8,
    /// IBM Power.
    Power,
    /// Original C11 under the P0124 mapping.
    C11,
}

impl ModelId {
    /// Every column, in matrix order.
    pub const ALL: [ModelId; 7] = [
        ModelId::LkmmNative,
        ModelId::LkmmCat,
        ModelId::Sc,
        ModelId::Tso,
        ModelId::Armv8,
        ModelId::Power,
        ModelId::C11,
    ];

    /// Position of this column in [`ModelId::ALL`] (and in every row's
    /// cell vector).
    pub fn index(self) -> usize {
        ModelId::ALL.iter().position(|m| *m == self).expect("ALL is total")
    }

    /// Stable column name used in reports and the CLI.
    pub fn column(self) -> &'static str {
        match self {
            ModelId::LkmmNative => "lkmm",
            ModelId::LkmmCat => "lkmm-cat",
            ModelId::Sc => "sc",
            ModelId::Tso => "tso",
            ModelId::Armv8 => "armv8",
            ModelId::Power => "power",
            ModelId::C11 => "c11",
        }
    }

    /// Instantiate the reference checker for this column.
    pub fn instantiate(self) -> Box<dyn ConsistencyModel> {
        match self {
            ModelId::LkmmNative => Box::new(lkmm::Lkmm::new()),
            ModelId::LkmmCat => Box::new(lkmm_cat::linux_kernel_model()),
            ModelId::Sc => Box::new(lkmm_models::Sc),
            ModelId::Tso => Box::new(lkmm_models::X86Tso),
            ModelId::Armv8 => Box::new(lkmm_models::Armv8),
            ModelId::Power => Box::new(lkmm_models::Power),
            ModelId::C11 => Box::new(lkmm_models::OriginalC11),
        }
    }

    /// Whether this checker's semantics cover `test`. Both LKMM
    /// formulations and SC cover everything; the hardware models have no
    /// RCU read-side or SRCU semantics; C11 additionally excludes every
    /// RCU primitive (see [`OriginalC11::supports`]).
    pub fn supports(self, test: &Test) -> bool {
        match self {
            ModelId::LkmmNative | ModelId::LkmmCat | ModelId::Sc => true,
            ModelId::Tso | ModelId::Armv8 | ModelId::Power => {
                !uses_rcu_read_side(test) && !uses_srcu(test)
            }
            ModelId::C11 => OriginalC11::supports(test) && !uses_srcu(test),
        }
    }
}

/// Whether the test opens an RCU read-side critical section.
pub fn uses_rcu_read_side(test: &Test) -> bool {
    fn in_stmts(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Fence(FenceKind::RcuLock | FenceKind::RcuUnlock) => true,
            Stmt::If { then_, else_, .. } => in_stmts(then_) || in_stmts(else_),
            _ => false,
        })
    }
    test.threads.iter().any(|t| in_stmts(&t.body))
}

/// Whether the test uses any SRCU primitive.
pub fn uses_srcu(test: &Test) -> bool {
    fn in_stmts(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::SrcuReadLock { .. }
            | Stmt::SrcuReadUnlock { .. }
            | Stmt::SynchronizeSrcu { .. } => true,
            Stmt::If { then_, else_, .. } => in_stmts(then_) || in_stmts(else_),
            _ => false,
        })
    }
    test.threads.iter().any(|t| in_stmts(&t.body))
}

/// The instantiated checkers of a campaign, one per [`ModelId`].
///
/// The standard set holds every reference model. Tests exercise the
/// oracle layer by swapping one column for a broken mutant — e.g.
/// `set.replace(ModelId::LkmmCat, Box::new(AllowAll))` makes the
/// native≡cat oracle fire on every test the two disagree about.
pub struct ModelSet {
    entries: Vec<(ModelId, Box<dyn ConsistencyModel>)>,
}

impl ModelSet {
    /// Every reference checker.
    pub fn standard() -> ModelSet {
        ModelSet {
            entries: ModelId::ALL.iter().map(|&id| (id, id.instantiate())).collect(),
        }
    }

    /// Swap the checker behind `id` (mutant injection for tests).
    pub fn replace(&mut self, id: ModelId, model: Box<dyn ConsistencyModel>) {
        let slot = self
            .entries
            .iter_mut()
            .find(|(e, _)| *e == id)
            .expect("ModelSet::standard covers every id");
        slot.1 = model;
    }

    /// The checker behind `id`.
    pub fn get(&self, id: ModelId) -> &dyn ConsistencyModel {
        self.entries
            .iter()
            .find(|(e, _)| *e == id)
            .map(|(_, m)| m.as_ref())
            .expect("ModelSet::standard covers every id")
    }
}

impl Default for ModelSet {
    fn default() -> Self {
        ModelSet::standard()
    }
}

/// Where a corpus test came from — the oracles treat library rows
/// specially (the paper states their expected verdicts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A named paper test, with its published expectations.
    Library {
        /// Expected LKMM verdict (Table 5 "Model" column).
        lkmm: Expect,
        /// Expected C11 verdict; `None` for RCU rows ("–").
        c11: Option<Expect>,
    },
    /// A diy-generated critical-cycle test.
    Generated,
    /// An algorithm-family program ([`lkmm_algorithms`]), carrying the
    /// family's declared LKMM expectation for the program's
    /// safety-violation condition.
    Algorithm {
        /// Stable family name ([`lkmm_algorithms::FamilyId::name`]).
        family: &'static str,
        /// The invariant the condition encodes (mutual exclusion, no
        /// use-after-free, …) — report text only.
        invariant: &'static str,
        /// Expected LKMM verdict: `Forbidden` for the correctly-ordered
        /// variant, `Allowed` for deliberately weakened twins.
        expect: Verdict,
    },
}

/// One corpus member: the test plus its origin.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    pub test: Test,
    pub origin: Origin,
}

/// One row of the verdict matrix: a test and one cell per [`ModelId`]
/// (`None` where the checker does not cover the test).
#[derive(Clone, Debug)]
pub struct MatrixRow {
    pub test: Test,
    pub origin: Origin,
    /// Indexed by [`ModelId::index`].
    pub cells: Vec<Option<CheckOutcome>>,
}

impl MatrixRow {
    /// The cell for one column.
    pub fn cell(&self, id: ModelId) -> Option<&CheckOutcome> {
        self.cells[id.index()].as_ref()
    }

    /// The completed verdict for one column, if the cell is present and
    /// the check finished.
    pub fn verdict(&self, id: ModelId) -> Option<Verdict> {
        self.cell(id).and_then(CheckOutcome::result).map(|r| r.verdict)
    }
}

/// The full verdict matrix.
#[derive(Clone, Debug, Default)]
pub struct VerdictMatrix {
    pub rows: Vec<MatrixRow>,
}

/// Per-model aggregate counts from one matrix build.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelPass {
    /// Tests this checker covered.
    pub checked: usize,
    /// Completed `Allow` verdicts.
    pub allowed: usize,
    /// Completed `Forbid` verdicts.
    pub forbidden: usize,
    /// Checks stopped by the budget (cells stay present but inconclusive).
    pub inconclusive: usize,
    /// Tests outside the checker's fragment (cells absent).
    pub skipped: usize,
    /// Store hits (observability only — never part of the report JSON,
    /// which must be byte-identical between cold and warm runs).
    pub hits: usize,
    /// Tests enumerated and checked to completion this pass.
    pub computed: usize,
    /// Tests answered by another test in the same corpus with the same
    /// canonical form (neither a store hit nor a fresh computation).
    pub deduped: usize,
    /// Candidate executions enumerated this pass (0 on a warm store).
    pub candidates_enumerated: usize,
}

/// Knobs for one matrix build (a subset of the campaign config).
#[derive(Default)]
pub struct MatrixOptions<'a> {
    /// Cache version salt (the per-model component is the model name,
    /// already folded into every key by the batch checker).
    pub salt: &'a str,
    /// Worker threads (0 = all hardware threads): [`build_matrix`]
    /// splits each test big enough to pay for it over this many workers,
    /// [`crate::driver::drive_campaign`] checks this many units at once.
    pub jobs: usize,
    /// Per-check budget; exceeding it leaves an inconclusive cell.
    pub budget: Budget,
    /// Persistent verdict store; `None` checks in memory.
    pub store_path: Option<&'a Path>,
    /// Shared enumeration pruning counters (observability only — like
    /// store hits, never part of cache keys or the default report JSON).
    pub enum_stats: Option<std::sync::Arc<EnumStats>>,
    /// Shared data-plane counters (arena acquires and reuses) from the
    /// checks. Observability only, like `enum_stats`.
    pub data_plane: Option<std::sync::Arc<lkmm_exec::DataPlaneStats>>,
}

/// Build the verdict matrix for `corpus` under `set`.
///
/// All columns run through one [`MultiBatchChecker`]: per test, every
/// column is first answered from the store, and the columns still
/// missing share a single governed enumeration pass. Per-column cache
/// keys are byte-identical to the old one-`BatchChecker`-per-column
/// scheme (one salt per column: the checker folds the model's *name*
/// into every key, but the native and cat formulations both answer to
/// "LKMM" — without a per-column salt a warm store would replay one
/// column's verdicts for the other, silently blinding the native≡cat
/// oracle). Inconclusive outcomes occupy their cell but are never
/// written back.
///
/// # Errors
///
/// Store I/O failure only — budget trips and enumeration problems
/// surface as inconclusive cells, not errors.
pub fn build_matrix(
    corpus: &[CorpusEntry],
    set: &ModelSet,
    opts: &MatrixOptions<'_>,
) -> io::Result<(VerdictMatrix, Vec<ModelPass>)> {
    let mut rows: Vec<MatrixRow> = corpus
        .iter()
        .map(|e| MatrixRow {
            test: e.test.clone(),
            origin: e.origin.clone(),
            cells: vec![None; ModelId::ALL.len()],
        })
        .collect();
    let tests: Vec<Test> = corpus.iter().map(|e| e.test.clone()).collect();
    let mask: Vec<Vec<bool>> = ModelId::ALL
        .iter()
        .map(|&id| tests.iter().map(|t| id.supports(t)).collect())
        .collect();

    let store = match opts.store_path {
        Some(path) => VerdictStore::open(path)?,
        None => VerdictStore::in_memory(),
    };
    let columns: Vec<MultiColumn<'_>> = ModelId::ALL
        .iter()
        .map(|&id| MultiColumn {
            model: set.get(id),
            salt: format!("{}|col:{}", opts.salt, id.column()),
        })
        .collect();
    let mut checker = MultiBatchChecker::new(columns, store)
        .with_options(EnumOptions { stats: opts.enum_stats.clone(), ..EnumOptions::default() })
        .with_pipeline_stats(opts.data_plane.clone())
        .with_jobs(opts.jobs)
        .with_budget(opts.budget.clone());
    let report = match checker.check_corpus(&tests, &mask) {
        Ok(r) => r,
        Err(lkmm_service::BatchError::Io(e)) => return Err(e),
        Err(lkmm_service::BatchError::Generate(e)) => {
            unreachable!("check_corpus does not generate: {e}")
        }
    };

    let mut passes = Vec::with_capacity(ModelId::ALL.len());
    for (col, &id) in report.columns.iter().zip(&ModelId::ALL) {
        let mut pass = ModelPass {
            hits: col.hits,
            computed: col.computed,
            deduped: col.deduped,
            candidates_enumerated: col.candidates_enumerated,
            ..ModelPass::default()
        };
        for (row_idx, outcome) in col.outcomes.iter().enumerate() {
            let Some(outcome) = outcome else {
                pass.skipped += 1;
                continue;
            };
            pass.checked += 1;
            match &outcome.outcome {
                CheckOutcome::Complete(result) => match result.verdict {
                    Verdict::Allowed => pass.allowed += 1,
                    Verdict::Forbidden => pass.forbidden += 1,
                },
                CheckOutcome::Inconclusive { .. } => pass.inconclusive += 1,
            }
            rows[row_idx].cells[id.index()] = Some(outcome.outcome.clone());
        }
        passes.push(pass);
    }

    Ok((VerdictMatrix { rows }, passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_column_has_a_distinct_name_and_index() {
        for (i, id) in ModelId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        let names: std::collections::BTreeSet<&str> =
            ModelId::ALL.iter().map(|m| m.column()).collect();
        assert_eq!(names.len(), ModelId::ALL.len());
    }

    #[test]
    fn rcu_support_matches_table_5_dashes() {
        let rcu = lkmm_litmus::library::by_name("RCU-MP").unwrap().test();
        assert!(ModelId::LkmmNative.supports(&rcu));
        assert!(ModelId::LkmmCat.supports(&rcu));
        assert!(ModelId::Sc.supports(&rcu));
        assert!(!ModelId::Tso.supports(&rcu));
        assert!(!ModelId::Armv8.supports(&rcu));
        assert!(!ModelId::Power.supports(&rcu));
        assert!(!ModelId::C11.supports(&rcu));
        let plain = lkmm_litmus::library::by_name("MP").unwrap().test();
        assert!(ModelId::ALL.iter().all(|m| m.supports(&plain)));
    }

    #[test]
    fn replaced_model_answers_for_its_column() {
        let mut set = ModelSet::standard();
        // Both LKMM formulations answer to the same name — the reason
        // build_matrix salts each column separately.
        assert_eq!(set.get(ModelId::LkmmCat).name(), "LKMM");
        set.replace(ModelId::LkmmCat, Box::new(lkmm_exec::model::AllowAll));
        assert_eq!(set.get(ModelId::LkmmCat).name(), "allow-all");
        // The other columns are untouched.
        assert_eq!(set.get(ModelId::LkmmNative).name(), "LKMM");
    }

    #[test]
    fn matrix_rows_cover_supported_cells_only() {
        let corpus = vec![
            CorpusEntry {
                test: lkmm_litmus::library::by_name("MP").unwrap().test(),
                origin: Origin::Generated,
            },
            CorpusEntry {
                test: lkmm_litmus::library::by_name("RCU-MP").unwrap().test(),
                origin: Origin::Generated,
            },
        ];
        let set = ModelSet::standard();
        let (matrix, passes) =
            build_matrix(&corpus, &set, &MatrixOptions::default()).unwrap();
        assert_eq!(matrix.rows.len(), 2);
        assert!(matrix.rows[0].cells.iter().all(Option::is_some));
        assert!(matrix.rows[1].cell(ModelId::C11).is_none());
        assert!(matrix.rows[1].cell(ModelId::LkmmNative).is_some());
        assert_eq!(matrix.rows[0].verdict(ModelId::LkmmNative), Some(Verdict::Allowed));
        assert_eq!(matrix.rows[1].verdict(ModelId::LkmmNative), Some(Verdict::Forbidden));
        let c11_pass = &passes[ModelId::C11.index()];
        assert_eq!(c11_pass.skipped, 1);
        assert_eq!(c11_pass.checked, 1);
    }
}
