//! Real-algorithm verification tier: parameterised litmus-program
//! families for the concurrency algorithms the paper's neighbours
//! verify — hierarchical RCU grace periods (Tree-RCU, Liang et al.),
//! an `Arc`-style refcount (Jacobs & Fasse), ticket and CLH spinlocks,
//! a seqlock, and the Chase-Lev deque steal/take race.
//!
//! Each [`FamilyId`] expands, at a configurable size
//! ([`FamilyParams`]: threads, critical sections, retry depth), into a
//! small set of [`AlgoProgram`]s:
//!
//! * a **safe** variant carrying the orderings the real algorithm
//!   relies on, whose safety-violation condition the LKMM must judge
//!   [`Verdict::Forbidden`];
//! * a **weakened twin** with a fence or acquire/release annotation
//!   stripped, whose identical condition becomes
//!   [`Verdict::Allowed`] — the regression the tier exists to catch;
//! * where a loop must be modelled, an `__assume`-based form (the
//!   final spin/retry iteration, exactly the
//!   [`lkmm_rcu::impl_verify::expand_rcu`] technique) plus a
//!   straight-line *runnable* form whose acceptance test lives in the
//!   `exists` condition instead, so the operational layers (`sim`,
//!   `klitmus`) can execute it.
//!
//! Programs whose algorithm also has a natural sequentially-consistent
//! step-machine model carry an [`interleave::Machine`]: a loom-style
//! exhaustive interleaving explorer ([`interleave::explore`]) decides
//! whether the bad state is reachable under SC, which the conformance
//! layer cross-checks against the axiomatic SC verdict. Real threaded
//! reference implementations (extending the `rcu::urcu` pattern) live
//! in [`impls`].

pub mod impls;
pub mod interleave;

mod clh;
mod deque;
mod refcount;
mod rcu_tree;
mod seqlock;
mod ticket;

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution, Verdict};
use lkmm_generator::GenError;
use lkmm_litmus::ast::{Stmt, Test};

/// Lamport sequential consistency *with atomic RMWs*: `acyclic(po ∪
/// com)` plus the LKMM's `empty(rmw ∩ (fre ; coe))` atomicity axiom.
///
/// This is exactly the semantics the [`interleave`] step machines
/// implement: a machine `Cas` step reads and writes in one indivisible
/// step, so two CASes can never both claim the same old value. The
/// interleave⇔axiomatic cross-check compares [`interleave::explore`]'s
/// `bad_reachable` against this model's verdict. It coincides with
/// `lkmm_models::Sc` but lives here so the algorithms crate (and the
/// cross-check contract) stays self-contained.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScAtomic;

impl ConsistencyModel for ScAtomic {
    fn name(&self) -> &str {
        "SC+atomic"
    }

    fn allows(&self, x: &Execution) -> bool {
        self.allows_with(x, &ExecFacts::new(x))
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        facts.atomicity_ok() && x.shape.po.union(facts.com()).is_acyclic()
    }
}

/// One algorithm family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FamilyId {
    /// Hierarchical (Tree-RCU-style) grace-period propagation, plus the
    /// Figure-15 implementation expansion via `expand_rcu`.
    RcuTree,
    /// `Arc`-style refcount: clone/drop/upgrade with the final-drop
    /// acquire ordering.
    Refcount,
    /// Ticket spinlock: `fetch_add` ticket draw, acquire spin on
    /// now-serving, release unlock.
    Ticket,
    /// CLH queue lock: `xchg` on the tail pointer, spin on the
    /// predecessor's node.
    Clh,
    /// Seqlock: odd/even sequence counter, reader retry modelled by its
    /// final iteration via `__assume`.
    Seqlock,
    /// Chase-Lev work-stealing deque: item publication and the
    /// steal/take `cmpxchg` arbitration on `top`.
    Deque,
}

impl FamilyId {
    /// Every family, in the deterministic report/CLI order.
    pub const ALL: [FamilyId; 6] = [
        FamilyId::RcuTree,
        FamilyId::Refcount,
        FamilyId::Ticket,
        FamilyId::Clh,
        FamilyId::Seqlock,
        FamilyId::Deque,
    ];

    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            FamilyId::RcuTree => "rcu-tree",
            FamilyId::Refcount => "refcount",
            FamilyId::Ticket => "ticket",
            FamilyId::Clh => "clh",
            FamilyId::Seqlock => "seqlock",
            FamilyId::Deque => "deque",
        }
    }

    /// Parse a CLI family name; `None` for unknown names (callers turn
    /// this into a usage error).
    pub fn parse_name(s: &str) -> Option<FamilyId> {
        FamilyId::ALL.iter().copied().find(|f| f.name() == s)
    }

    /// The per-family safety invariant the conformance oracle enforces.
    pub fn invariant(self) -> &'static str {
        match self {
            FamilyId::RcuTree => "grace-period ordering",
            FamilyId::Refcount => "no use-after-free",
            FamilyId::Ticket => "mutual exclusion",
            FamilyId::Clh => "mutual exclusion",
            FamilyId::Seqlock => "no torn reads",
            FamilyId::Deque => "no lost or duplicated items",
        }
    }

    /// One-line description for `--list-algorithms`.
    pub fn description(self) -> &'static str {
        match self {
            FamilyId::RcuTree => {
                "hierarchical grace-period chains (Tree-RCU) + expand_rcu implementation twin"
            }
            FamilyId::Refcount => "Arc-style refcount: clone/drop/upgrade, final-drop acquire",
            FamilyId::Ticket => "ticket spinlock: fetch_add draw, acquire spin, release unlock",
            FamilyId::Clh => "CLH queue lock: xchg tail, spin on predecessor node",
            FamilyId::Seqlock => "seqlock: odd/even counter, retry loop as final __assume iteration",
            FamilyId::Deque => "Chase-Lev deque: publication and steal/take CAS arbitration",
        }
    }
}

/// Size knobs of a family expansion. All three must be at least 1;
/// [`FamilyParams::validate`] rejects degenerate sizes with a typed
/// [`GenError::Degenerate`] instead of generating empty programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FamilyParams {
    /// Total thread count (contenders, readers + writer, droppers…).
    pub threads: usize,
    /// Critical-section / payload words per thread.
    pub sections: usize,
    /// Retry depth: seqlock reader attempts, RCU grace-period levels.
    pub retries: usize,
}

impl Default for FamilyParams {
    fn default() -> Self {
        FamilyParams { threads: 2, sections: 1, retries: 1 }
    }
}

impl FamilyParams {
    /// Reject degenerate sizes.
    pub fn validate(&self) -> Result<(), GenError> {
        if self.threads == 0 {
            return Err(GenError::Degenerate("threads must be at least 1"));
        }
        if self.sections == 0 {
            return Err(GenError::Degenerate("sections must be at least 1"));
        }
        if self.retries == 0 {
            return Err(GenError::Degenerate("retry depth must be at least 1"));
        }
        Ok(())
    }
}

/// One generated program of a family: a litmus test plus the metadata
/// the conformance oracles need.
#[derive(Clone, Debug)]
pub struct AlgoProgram {
    pub family: FamilyId,
    pub test: Test,
    /// The LKMM verdict the family-safety oracle expects for
    /// `test.condition` (the safety-violation state): `Forbidden` for
    /// the correctly-ordered variant, `Allowed` for weakened twins.
    pub expect: Verdict,
    /// `true` when the program is straight-line (no `__assume`), so the
    /// operational layers (`sim` machines, the `klitmus` host runner)
    /// can execute it.
    pub runnable: bool,
    /// Sequentially-consistent step-machine model for loom-style
    /// exhaustive interleaving, where the algorithm has one.
    pub machine: Option<interleave::Machine>,
}

impl AlgoProgram {
    pub(crate) fn new(family: FamilyId, test: Test, expect: Verdict) -> AlgoProgram {
        let runnable = !uses_assume(&test);
        AlgoProgram { family, test, expect, runnable, machine: None }
    }

    pub(crate) fn with_machine(mut self, machine: interleave::Machine) -> AlgoProgram {
        self.machine = Some(machine);
        self
    }
}

/// Does any statement (including nested `if` arms) use `__assume`?
pub fn uses_assume(test: &Test) -> bool {
    fn stmt_uses(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Assume(_) => true,
            Stmt::If { then_, else_, .. } => {
                then_.iter().any(stmt_uses) || else_.iter().any(stmt_uses)
            }
            _ => false,
        }
    }
    test.threads.iter().any(|t| t.body.iter().any(stmt_uses))
}

/// Expand one family at the given size.
///
/// # Errors
///
/// [`GenError::Degenerate`] when a size knob is zero.
pub fn programs(family: FamilyId, params: &FamilyParams) -> Result<Vec<AlgoProgram>, GenError> {
    params.validate()?;
    Ok(match family {
        FamilyId::RcuTree => rcu_tree::programs(params),
        FamilyId::Refcount => refcount::programs(params),
        FamilyId::Ticket => ticket::programs(params),
        FamilyId::Clh => clh::programs(params),
        FamilyId::Seqlock => seqlock::programs(params),
        FamilyId::Deque => deque::programs(params),
    })
}

/// Expand every family at the given size, in [`FamilyId::ALL`] order.
pub fn all_programs(params: &FamilyParams) -> Result<Vec<AlgoProgram>, GenError> {
    let mut out = Vec::new();
    for f in FamilyId::ALL {
        out.extend(programs(f, params)?);
    }
    Ok(out)
}

/// Parse a generated source string; family sources are produced by this
/// crate, so a parse failure is a bug in the family generator.
pub(crate) fn must_parse(src: &str) -> Test {
    match lkmm_litmus::parse(src) {
        Ok(t) => t,
        Err(e) => panic!("family generator produced unparseable litmus source: {e}\n{src}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn degenerate_parameters_are_rejected_with_typed_errors() {
        let zero_threads = FamilyParams { threads: 0, ..FamilyParams::default() };
        let zero_sections = FamilyParams { sections: 0, ..FamilyParams::default() };
        let zero_retries = FamilyParams { retries: 0, ..FamilyParams::default() };
        for family in FamilyId::ALL {
            let err = programs(family, &zero_threads).unwrap_err();
            assert_eq!(err, GenError::Degenerate("threads must be at least 1"));
            assert_eq!(
                err.to_string(),
                "degenerate family parameters: threads must be at least 1"
            );
            let err = programs(family, &zero_sections).unwrap_err();
            assert!(err.to_string().contains("sections"), "{err}");
            let err = programs(family, &zero_retries).unwrap_err();
            assert_eq!(err, GenError::Degenerate("retry depth must be at least 1"));
            assert!(err.to_string().contains("retry depth"), "{err}");
        }
    }

    #[test]
    fn every_family_expands_and_validates_at_default_size() {
        let params = FamilyParams::default();
        let mut names = BTreeSet::new();
        for family in FamilyId::ALL {
            let progs = programs(family, &params).unwrap();
            assert!(progs.len() >= 2, "{}: needs a safe variant and a twin", family.name());
            assert!(
                progs.iter().any(|p| p.expect == Verdict::Forbidden),
                "{}: no safe variant",
                family.name()
            );
            assert!(
                progs.iter().any(|p| p.expect == Verdict::Allowed),
                "{}: no weakened twin",
                family.name()
            );
            for p in progs {
                assert_eq!(p.family, family);
                assert!(
                    lkmm_litmus::validate(&p.test).is_empty(),
                    "{}: validation errors {:?}",
                    p.test.name,
                    lkmm_litmus::validate(&p.test)
                );
                assert!(names.insert(p.test.name.clone()), "duplicate name {}", p.test.name);
                assert_eq!(p.runnable, !uses_assume(&p.test), "{}", p.test.name);
                // Rendered text re-parses to an identical program: the
                // store keys and the conformance shrinker depend on it.
                let round = lkmm_litmus::parse(&p.test.to_litmus_string()).unwrap();
                assert_eq!(
                    round.to_litmus_string(),
                    p.test.to_litmus_string(),
                    "{}",
                    p.test.name
                );
            }
        }
        assert!(names.len() >= 15, "default expansion has {} programs", names.len());
    }

    #[test]
    fn runnable_programs_exist_for_every_family_but_rcu() {
        // RCU's operational story goes through klitmus' real Urcu
        // mapping of the *abstract* primitives; everything else must
        // provide at least one straight-line program for sim + klitmus.
        let params = FamilyParams::default();
        for family in FamilyId::ALL {
            let progs = programs(family, &params).unwrap();
            let runnable = progs.iter().filter(|p| p.runnable).count();
            assert!(runnable >= 1, "{}: no runnable program", family.name());
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let params = FamilyParams { threads: 3, sections: 2, retries: 2 };
        let a: Vec<String> = all_programs(&params)
            .unwrap()
            .iter()
            .map(|p| p.test.to_litmus_string())
            .collect();
        let b: Vec<String> = all_programs(&params)
            .unwrap()
            .iter()
            .map(|p| p.test.to_litmus_string())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn family_names_roundtrip_and_unknowns_are_rejected() {
        for f in FamilyId::ALL {
            assert_eq!(FamilyId::parse_name(f.name()), Some(f));
        }
        for bad in ["Ticket", "spinlock", "rcu_tree", "", "deque "] {
            assert_eq!(FamilyId::parse_name(bad), None, "{bad:?}");
        }
    }
}
