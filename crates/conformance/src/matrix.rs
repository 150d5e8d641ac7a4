//! The verdict matrix: every corpus test × every checker.
//!
//! A [`ModelId`] names one column of the paper's §5 comparison — the two
//! LKMM formulations, the SC/TSO/ARMv8/Power comparison models, and
//! original C11 under the P0124 mapping. A [`ModelSet`] holds the
//! instantiated checkers (tests swap in deliberately broken mutants via
//! [`ModelSet::replace`]). [`crate::driver::drive_campaign`] builds the
//! matrix a [`MatrixRow`] at a time through one seven-column
//! [`lkmm_service::MultiBatchChecker`]: each cold test is enumerated
//! **once** and every missing column's verdict is read off that one pass
//! via the shared execution-facts layer. Each column has its own cache
//! salt, so the matrix over an on-disk store is incremental: re-running
//! a campaign replays every cached verdict and enumerates nothing.
//!
//! Not every checker covers every test: the hardware models and C11 have
//! no RCU read-side semantics, and C11 has no RCU at all ("–" in
//! Table 5); the cat LKMM has no SRCU ([`ModelId::supports`]).
//! Unsupported cells are `None` and the oracles skip them.

use lkmm_core::budget::Budget;
use lkmm_exec::{CheckOutcome, ConsistencyModel, Stats, Verdict};
use lkmm_litmus::ast::{Stmt, Test};
use lkmm_litmus::library::Expect;
use lkmm_litmus::FenceKind;
use lkmm_models::OriginalC11;
use std::path::Path;

/// One column of the verdict matrix, and the model choice of every
/// other entry point (`Herd`, `herd-rs --model`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// The native LKMM (Figure 3/8 axioms plus the Figure 12 RCU axiom);
    /// the default.
    #[default]
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

    /// Parse a command-line name: a [`ModelId::column`] name or one of
    /// the aliases `cat`, `x86`, `x86-tso`, `arm`, `aarch64`, `ppc` and
    /// `power8`, in any case.
    pub fn parse_name(name: &str) -> Option<ModelId> {
        let name = name.to_ascii_lowercase();
        let column = match name.as_str() {
            "cat" => "lkmm-cat",
            "x86" | "x86-tso" => "tso",
            "arm" | "aarch64" => "armv8",
            "ppc" | "power8" => "power",
            other => other,
        };
        ModelId::ALL.into_iter().find(|id| id.column() == column)
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

    /// Whether this checker's semantics cover `test`. The native LKMM
    /// and SC cover everything. The cat LKMM covers everything but SRCU:
    /// the embedded cat file has no SRCU primitives, so its evaluator
    /// refuses SRCU events, and its session panics rather than answer
    /// without their semantics. The hardware models have no RCU read-side or
    /// SRCU semantics; C11 additionally excludes every RCU primitive (see
    /// [`OriginalC11::supports`]).
    pub fn supports(self, test: &Test) -> bool {
        match self {
            ModelId::LkmmNative | ModelId::Sc => true,
            ModelId::LkmmCat => !uses_srcu(test),
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
    /// This row, borrowed as the oracles read it.
    pub fn view(&self) -> RowRef<'_> {
        RowRef { test: &self.test, origin: &self.origin, cells: &self.cells }
    }

    /// The cell for one column.
    pub fn cell(&self, id: ModelId) -> Option<&CheckOutcome> {
        self.view().cell(id)
    }

    /// The completed verdict for one column, if the cell is present and
    /// the check finished.
    pub fn verdict(&self, id: ModelId) -> Option<Verdict> {
        self.view().verdict(id)
    }
}

/// One row as the oracles read it, borrowed: a committed [`MatrixRow`]
/// ([`MatrixRow::view`]), or a unit's cells as its worker prepared them
/// beside the corpus entry.
#[derive(Clone, Copy, Debug)]
pub struct RowRef<'a> {
    pub test: &'a Test,
    pub origin: &'a Origin,
    /// Indexed by [`ModelId::index`].
    pub cells: &'a [Option<CheckOutcome>],
}

impl<'a> RowRef<'a> {
    /// The cell for one column.
    pub fn cell(self, id: ModelId) -> Option<&'a CheckOutcome> {
        self.cells[id.index()].as_ref()
    }

    /// The completed verdict for one column, if the cell is present and
    /// the check finished.
    pub fn verdict(self, id: ModelId) -> Option<Verdict> {
        self.cell(id).and_then(CheckOutcome::result).map(|r| r.verdict)
    }
}

/// Per-model aggregate counts from one campaign's matrix pass.
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

/// Knobs for one campaign's matrix pass (a subset of the campaign
/// config).
#[derive(Default)]
pub struct MatrixOptions<'a> {
    /// Cache version salt (each column adds `|col:<name>`, and the
    /// checker folds the model name into every key).
    pub salt: &'a str,
    /// Worker threads (0 = all hardware threads, never more than the
    /// host has): [`crate::driver::drive_campaign`] checks this many
    /// units at once, each on one thread.
    pub jobs: usize,
    /// Per-check budget; exceeding it leaves an inconclusive cell.
    pub budget: Budget,
    /// Persistent verdict store; `None` checks in memory.
    pub store_path: Option<&'a Path>,
    /// Shared enumeration and data-plane counters from the checks
    /// (observability only — like store hits, never part of cache keys
    /// or the default report JSON).
    pub stats: Option<std::sync::Arc<Stats>>,
}

/// A row decided column by column with a fresh `lkmm_exec::check`: no
/// store, no shared enumeration — the reference campaign rows are
/// tested against.
#[cfg(test)]
pub(crate) fn reference_row(entry: CorpusEntry, set: &ModelSet) -> MatrixRow {
    let (opts, pipe) = (lkmm_exec::EnumOptions::default(), lkmm_exec::PipelineOptions::default());
    let cells = ModelId::ALL
        .iter()
        .map(|&id| {
            id.supports(&entry.test)
                .then(|| lkmm_exec::check(&[set.get(id)], &entry.test, &opts, &pipe).into_first())
        })
        .collect();
    MatrixRow { test: entry.test, origin: entry.origin, cells }
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
    fn srcu_is_covered_by_the_native_lkmm_and_sc_only() {
        let srcu = lkmm_litmus::parse(
            "C SRCU\n{ ss=0; x=0; }\nP0(srcu_struct *ss, int *x) { int r0; \
             srcu_read_lock(ss); r0 = READ_ONCE(*x); srcu_read_unlock(ss); }\n\
             P1(srcu_struct *ss, int *x) { synchronize_srcu(ss); WRITE_ONCE(*x, 1); }\n\
             exists (0:r0=1)",
        )
        .unwrap();
        let covering: Vec<ModelId> =
            ModelId::ALL.into_iter().filter(|m| m.supports(&srcu)).collect();
        assert_eq!(covering, [ModelId::LkmmNative, ModelId::Sc]);
    }

    #[test]
    fn replaced_model_answers_for_its_column() {
        let mut set = ModelSet::standard();
        // Both LKMM formulations answer to the same name — the reason
        // each campaign column has its own salt.
        assert_eq!(set.get(ModelId::LkmmCat).name(), "LKMM");
        set.replace(ModelId::LkmmCat, Box::new(lkmm_exec::model::AllowAll));
        assert_eq!(set.get(ModelId::LkmmCat).name(), "allow-all");
        // The other columns are untouched.
        assert_eq!(set.get(ModelId::LkmmNative).name(), "LKMM");
    }
}
