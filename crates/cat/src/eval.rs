//! Evaluator: compiled cat programs against candidate executions.
//!
//! A [`CatSession`] keeps one reusable [`Relation`] or [`EventSet`] slot
//! per node of its model's compiled program and a stamp saying when the
//! slot was last filled. A node is recomputed only when its stamp is
//! older than the epoch of its tier: the static epoch moves when the
//! pre-execution changes, the dynamic epoch with every candidate, and
//! the loop epoch whenever a `let rec` variable changes mid-fixpoint.
//! Checks pull the nodes they need; `a ; b` and `a & b` look at whichever
//! operand is cheaper to have (the lower tier, else `a`) and skip the
//! other when it is empty, so a model's RCU tail is never built for tests
//! without RCU.

use crate::ast::CheckKind;
use crate::compile::{Base, NodeId, Op, Program, Step, Ty, DYNAMIC, LOOP, STATIC};
use crate::CatModel;
use lkmm_core::budget::StepFuel;
use lkmm_exec::{Event, EventKind, ExecFacts, Execution};
use lkmm_relation::{EventSet, Relation};
use std::fmt;
use std::sync::Arc;

/// Sentinel message distinguishing fuel exhaustion from genuine semantic
/// errors; see [`EvalError::is_fuel_exhausted`].
const FUEL_EXHAUSTED: &str = "evaluation-step budget exhausted";

/// Evaluation failure (unknown identifier, type mismatch, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError {
    pub message: String,
}

impl EvalError {
    /// The error reported when an installed [`StepFuel`] tank runs dry
    /// mid-evaluation.
    pub fn fuel_exhausted() -> EvalError {
        EvalError { message: FUEL_EXHAUSTED.into() }
    }

    /// Whether this error is fuel exhaustion (a budget stop) rather than
    /// a semantic error in the model.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.message == FUEL_EXHAUSTED
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cat evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Result of evaluating a model against one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatOutcome {
    /// First failed (non-flag) check, by name or kind.
    pub failed_check: Option<String>,
    /// Names of triggered `flag` checks (warnings, not verdicts).
    pub flags: Vec<String>,
}

impl CatOutcome {
    /// Whether the execution is allowed (no non-flag check failed).
    pub fn allowed(&self) -> bool {
        self.failed_check.is_none()
    }
}

/// A stateful evaluation handle for checking many candidates with one
/// compiled model.
///
/// Static slots are keyed on the identity of the shared pre-execution
/// (`Arc::ptr_eq` on `x.events`); holding a clone of the `Arc` keeps the
/// allocation alive, so the pointer identity cannot be recycled while
/// the slots are valid.
///
/// Fuel, when installed, is burned exactly as a tree walk of the source
/// would: one unit per instruction and `bindings.len()` per round of
/// each `let rec` fixpoint, which is why every fixpoint runs whether or
/// not a check still needs it.
///
/// One session serves one thread; the parallel pipeline opens a session
/// per worker.
pub struct CatSession<'a> {
    program: &'a Program,
    rels: Vec<Relation>,
    sets: Vec<EventSet>,
    stamps: Vec<u64>,
    /// Source of fresh epochs. Stamps start at 0 and every epoch but the
    /// one of borrowed nodes (always 0, so always current) is at least 1
    /// once used.
    clock: u64,
    /// The current static, dynamic, loop and borrowed epochs.
    epochs: [u64; 4],
    /// The pre-execution the static slots were computed for.
    events: Option<Arc<Vec<Event>>>,
    /// Whether that pre-execution has SRCU events.
    srcu: bool,
    n: usize,
    /// Pending nodes of a demand walk, with how many operands are done.
    stack: Vec<(NodeId, u8)>,
    /// Scratch row for transitive closures.
    row: Vec<u64>,
    /// Scratch for acyclicity checks: in-degrees and a work list.
    indegree: Vec<u32>,
    ready: Vec<usize>,
    fuel: Option<Arc<StepFuel>>,
}

impl<'a> CatSession<'a> {
    /// A session evaluating `model`'s compiled program.
    pub fn new(model: &'a CatModel) -> Self {
        let program = model.program();
        let len = program.nodes.len();
        CatSession {
            program,
            rels: vec![Relation::default(); len],
            sets: vec![EventSet::empty(0); len],
            stamps: vec![0; len],
            clock: 0,
            epochs: [0; 4],
            events: None,
            srcu: false,
            n: 0,
            stack: Vec::new(),
            row: Vec::new(),
            indegree: Vec::new(),
            ready: Vec::new(),
            fuel: None,
        }
    }

    /// Meter every subsequent evaluation against `fuel` (shared with the
    /// other workers of a governed check).
    pub fn set_fuel(&mut self, fuel: Arc<StepFuel>) {
        self.fuel = Some(fuel);
    }

    /// Evaluate all checks against one candidate execution, reusing the
    /// static slots when `x` comes from the same pre-execution as the
    /// previous candidate.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for semantic errors (unknown identifiers,
    /// type mismatches) — a well-formed model never errors — and, with
    /// fuel installed, [`EvalError::fuel_exhausted`].
    pub fn evaluate(&mut self, x: &Execution) -> Result<CatOutcome, EvalError> {
        self.evaluate_with(x, &ExecFacts::new(x))
    }

    /// [`Self::evaluate`] against a pre-computed facts layer, from which
    /// the base relations and event sets are borrowed.
    pub fn evaluate_with(
        &mut self,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<CatOutcome, EvalError> {
        if !self.events.as_ref().is_some_and(|e| Arc::ptr_eq(e, &x.events)) {
            self.events = Some(Arc::clone(&x.events));
            self.srcu = x.events.iter().any(|e| e.srcu().is_some());
            self.n = x.universe();
            self.epochs[STATIC] = self.tick();
        }
        if self.srcu {
            return Err(EvalError {
                message: "SRCU events are not exposed to cat models; use the native LKMM".into(),
            });
        }
        self.epochs[DYNAMIC] = self.tick();
        let program = self.program;
        let mut outcome = CatOutcome { failed_check: None, flags: Vec::new() };
        for step in &program.steps {
            self.burn(1)?;
            match step {
                Step::Let => {}
                Step::Rec(group) => self.fixpoint(*group, x, facts)?,
                Step::Check(c) => {
                    // Only flags can still change an outcome that failed.
                    if !c.flag && outcome.failed_check.is_some() {
                        continue;
                    }
                    self.demand(c.node, x, facts);
                    let holds = match c.kind {
                        CheckKind::Acyclic => self.is_acyclic(c.node, x, facts),
                        CheckKind::Irreflexive => self.rel(c.node, x, facts).is_irreflexive(),
                        CheckKind::Empty => self.is_empty(c.node, x, facts),
                    } != c.negated;
                    if c.flag {
                        // herd semantics: a `flag` labels executions where
                        // the condition *holds* (e.g. `flag ~empty bad as
                        // bad` fires when `bad` is non-empty). It never
                        // forbids.
                        if holds {
                            outcome.flags.push(c.label.clone());
                        }
                    } else if !holds {
                        outcome.failed_check = Some(c.label.clone());
                    }
                }
                Step::Fail { error, round_fuel } => {
                    if *round_fuel > 0 {
                        self.burn(*round_fuel)?;
                    }
                    return Err(error.clone());
                }
            }
        }
        Ok(outcome)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn burn(&self, steps: u64) -> Result<(), EvalError> {
        match &self.fuel {
            Some(f) if !f.consume(steps) => Err(EvalError::fuel_exhausted()),
            _ => Ok(()),
        }
    }

    /// Solve `let rec` group `g` by Gauss–Seidel iteration from empty
    /// relations: each binding sees the values assigned before it in the
    /// same round, and the group has converged after a round that changes
    /// nothing. Cat recursion over ∪/;/closures is monotone, so this
    /// terminates within the cap (the lattice of relations is finite).
    fn fixpoint(
        &mut self,
        g: usize,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<(), EvalError> {
        let program = self.program;
        let group = &program.groups[g];
        let n = self.n;
        for &v in &group.vars {
            self.rels[v].reset(n);
        }
        self.epochs[LOOP] = self.tick();
        let cap = n * n * group.bindings.len() + 2;
        for _ in 0..cap {
            // The fixpoint is where evaluation cost is super-linear, so
            // this is the loop a step budget must bound.
            self.burn(group.bindings.len() as u64)?;
            let mut changed = false;
            for &(body, var) in &group.bindings {
                if body == var {
                    continue; // `x = x` keeps its value
                }
                self.demand(body, x, facts);
                let mut value = std::mem::take(&mut self.rels[var]);
                let new = self.rel(body, x, facts);
                if *new != value {
                    value.copy_from(new);
                    changed = true;
                    // Everything that read the old value is stale.
                    self.epochs[LOOP] = self.tick();
                }
                self.rels[var] = value;
            }
            if !changed {
                return Ok(());
            }
        }
        Err(EvalError { message: "recursive definition did not converge (non-monotone?)".into() })
    }

    fn is_current(&self, i: NodeId) -> bool {
        self.stamps[i] == self.epochs[self.program.nodes[i].epoch]
    }

    /// Bring `root` up to date, computing exactly the stale nodes it
    /// needs. The walk keeps its own stack: the node graph of a long
    /// chain of `let`s is deeper than any one expression.
    fn demand(&mut self, root: NodeId, x: &Execution, facts: &ExecFacts<'_>) {
        if self.is_current(root) {
            return;
        }
        self.stack.push((root, 0));
        let nodes = &self.program.nodes;
        while let Some(&(i, done)) = self.stack.last() {
            let node = &nodes[i];
            if done == 1 && node.short_circuit {
                let first = node.demand[0].expect("binary operation");
                if self.is_empty(first, x, facts) {
                    self.clear(i);
                    self.stack.pop();
                    continue;
                }
            }
            match node.demand.get(usize::from(done)).copied().flatten() {
                Some(operand) => {
                    self.stack.last_mut().expect("non-empty").1 += 1;
                    if !self.is_current(operand) {
                        self.stack.push((operand, 0));
                    }
                }
                None => {
                    self.compute(i, x, facts);
                    self.stack.pop();
                }
            }
        }
    }

    /// Mark node `i` current with an empty value.
    fn clear(&mut self, i: NodeId) {
        let n = self.n;
        match self.program.nodes[i].ty {
            Ty::Rel => self.rels[i].reset(n),
            Ty::Set => self.sets[i] = EventSet::empty(n),
        }
        self.stamp(i);
    }

    fn stamp(&mut self, i: NodeId) {
        self.stamps[i] = self.epochs[self.program.nodes[i].epoch];
    }

    /// Whether relation node `i` is acyclic: Kahn's algorithm over the
    /// session's scratch buffers, so the check allocates nothing (the
    /// checks of a model run for every candidate).
    fn is_acyclic(&mut self, i: NodeId, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        let mut indegree = std::mem::take(&mut self.indegree);
        let mut ready = std::mem::take(&mut self.ready);
        let r = self.rel(i, x, facts);
        let n = r.universe();
        indegree.clear();
        indegree.resize(n, 0);
        for a in 0..n {
            for b in r.successors(a) {
                indegree[b] += 1;
            }
        }
        ready.clear();
        ready.extend((0..n).filter(|&a| indegree[a] == 0));
        let mut removed = 0;
        while let Some(a) = ready.pop() {
            removed += 1;
            for b in r.successors(a) {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(b);
                }
            }
        }
        self.indegree = indegree;
        self.ready = ready;
        removed == n
    }

    fn is_empty(&self, i: NodeId, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        match self.program.nodes[i].ty {
            Ty::Rel => self.rel(i, x, facts).is_empty(),
            Ty::Set => self.set(i, facts).is_empty(),
        }
    }

    /// The current value of relation node `i`.
    fn rel<'s>(&'s self, i: NodeId, x: &'s Execution, facts: &'s ExecFacts<'_>) -> &'s Relation {
        match self.program.nodes[i].op {
            Op::Base(Base::Po) => &x.po,
            Op::Base(Base::Addr) => &x.addr,
            Op::Base(Base::Data) => &x.data,
            Op::Base(Base::Ctrl) => &x.ctrl,
            Op::Base(Base::Rmw) => &x.rmw,
            Op::Base(Base::Rf) => &x.rf,
            Op::Base(Base::Co) => &x.co,
            Op::Base(Base::Loc) => facts.loc_rel(),
            Op::Base(Base::Int) => facts.int_rel(),
            Op::Base(Base::Ext) => facts.ext_rel(),
            Op::Base(Base::Crit) => facts.crit(),
            Op::Fix(var) => &self.rels[var],
            _ => &self.rels[i],
        }
    }

    /// The current value of set node `i`.
    fn set<'s>(&'s self, i: NodeId, facts: &'s ExecFacts<'_>) -> &'s EventSet {
        match self.program.nodes[i].op {
            Op::Base(Base::Reads) => facts.reads(),
            Op::Base(Base::Writes) => facts.writes(),
            Op::Base(Base::Mem) => facts.mem(),
            Op::Base(Base::InitWrites) => facts.init_writes(),
            Op::Base(Base::Acquire) => facts.acquires(),
            Op::Base(Base::Release) => facts.releases(),
            Op::Base(Base::Fence(kind)) => facts.fences(kind),
            _ => &self.sets[i],
        }
    }

    /// Compute node `i` into its slot from its (current) operands.
    fn compute(&mut self, i: NodeId, x: &Execution, facts: &ExecFacts<'_>) {
        let n = self.n;
        let op = self.program.nodes[i].op;
        if self.program.nodes[i].ty == Ty::Set {
            let out = match op {
                Op::Base(Base::Fences) => {
                    x.events_where(|e| matches!(e.kind, EventKind::Fence(_)))
                }
                Op::Base(Base::Universe) => EventSet::full(n),
                Op::Domain(a) => self.rel(a, x, facts).domain(),
                Op::Range(a) => self.rel(a, x, facts).range(),
                Op::Union(a, b) => self.set(a, facts).union(self.set(b, facts)),
                Op::Inter(a, b) => self.set(a, facts).intersection(self.set(b, facts)),
                Op::Diff(a, b) => self.set(a, facts).difference(self.set(b, facts)),
                Op::Complement(a) => self.set(a, facts).complement(),
                _ => unreachable!("{op:?} is not a set operation"),
            };
            self.sets[i] = out;
        } else {
            let mut out = std::mem::take(&mut self.rels[i]);
            match op {
                Op::Base(Base::Id) => {
                    out.reset(n);
                    for e in 0..n {
                        out.insert(e, e);
                    }
                }
                Op::Empty => out.reset(n),
                Op::SetToId(s) => {
                    out.reset(n);
                    for e in self.set(s, facts).iter() {
                        out.insert(e, e);
                    }
                }
                Op::Cartesian(a, b) => {
                    out.reset(n);
                    let (a, b) = (self.set(a, facts), self.set(b, facts));
                    for e in a.iter() {
                        for f in b.iter() {
                            out.insert(e, f);
                        }
                    }
                }
                Op::Union(a, b) => {
                    out.copy_from(self.rel(a, x, facts));
                    out.union_in_place(self.rel(b, x, facts));
                }
                Op::Inter(a, b) => {
                    out.copy_from(self.rel(a, x, facts));
                    out.intersection_in_place(self.rel(b, x, facts));
                }
                Op::Diff(a, b) => {
                    out.copy_from(self.rel(a, x, facts));
                    out.difference_in_place(self.rel(b, x, facts));
                }
                // `seq_into` and `inverse_into` overwrite every row, so
                // the slot only needs the right shape.
                Op::Seq(a, b) => {
                    if out.universe() != n {
                        out.reset(n);
                    }
                    self.rel(a, x, facts).seq_into(self.rel(b, x, facts), &mut out);
                }
                Op::Complement(a) => {
                    out.copy_from(self.rel(a, x, facts));
                    out.complement_in_place();
                }
                Op::Opt(a) => {
                    out.copy_from(self.rel(a, x, facts));
                    out.reflexive_in_place();
                }
                Op::Plus(a) | Op::Star(a) => {
                    let a = self.rel(a, x, facts);
                    if a.is_empty() {
                        out.reset(n);
                    } else {
                        out.copy_from(a);
                        out.transitive_close_with(&mut self.row);
                    }
                    if matches!(op, Op::Star(_)) {
                        out.reflexive_in_place();
                    }
                }
                Op::Inverse(a) => {
                    if out.universe() != n {
                        out.reset(n);
                    }
                    self.rel(a, x, facts).inverse_into(&mut out);
                }
                _ => unreachable!("{op:?} is not a relation operation"),
            }
            self.rels[i] = out;
        }
        self.stamp(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Tier;
    use lkmm_exec::enumerate::{enumerate, EnumOptions};
    use lkmm_litmus::library;

    fn execs(name: &str) -> (Vec<Execution>, lkmm_litmus::Test) {
        let t = library::by_name(name).unwrap().test();
        (enumerate(&t, &EnumOptions::default()).unwrap(), t)
    }

    fn model(src: &str) -> CatModel {
        CatModel::parse(src).unwrap()
    }

    #[test]
    fn sc_forbids_sb_weak_outcome() {
        let (execs, t) = execs("SB");
        let m = model("\"SC\"\nlet fr = rf^-1 ; co\nacyclic po | rf | co | fr as sc");
        for x in &execs {
            let out = m.evaluate(x).unwrap();
            if x.satisfies_prop(&t.condition.prop) {
                assert_eq!(out.failed_check.as_deref(), Some("sc"));
            } else {
                assert!(out.allowed());
            }
        }
    }

    #[test]
    fn rec_fixpoint_converges() {
        // Transitive closure via recursion must equal the + operator.
        let m = model("let rec tc = po | (tc ; tc)\nirreflexive tc \\ po+ as equal1\nirreflexive po+ \\ tc as equal2\nempty tc \\ po+ as equal3");
        let (execs, _) = execs("MP");
        for x in &execs {
            let out = m.evaluate(x).unwrap();
            assert!(out.allowed(), "{out:?}");
        }
    }

    #[test]
    fn flags_do_not_forbid() {
        let m = model("flag ~empty po as has-po");
        let (execs, _) = execs("SB");
        let out = m.evaluate(&execs[0]).unwrap();
        assert!(out.allowed());
        assert_eq!(out.flags, vec!["has-po"]);
    }

    #[test]
    fn functions_apply() {
        let m = model(
            "let rfe = rf & ext\nlet A-cumul(r) = rfe? ; r\nempty A-cumul(0) \\ rfe? as ok",
        );
        let (execs, _) = execs("MP");
        // A-cumul(0) = rfe? ; 0 = 0 ⊆ rfe?.
        let out = m.evaluate(&execs[0]).unwrap();
        assert!(out.allowed(), "{out:?}");
    }

    #[test]
    fn type_errors_are_reported() {
        let (execs, _) = execs("SB");
        for src in ["acyclic R as oops", "let x = R ; W\nempty x as oops", "empty nonsense as oops"]
        {
            assert!(model(src).evaluate(&execs[0]).is_err(), "{src}");
        }
    }

    #[test]
    fn cartesian_and_brackets() {
        let m = model(
            "let rr = po & (R * R)\nlet viaid = [R] ; po ; [R]\n\
             empty rr \\ viaid as same1\nempty viaid \\ rr as same2",
        );
        let (execs, _) = execs("MP");
        for x in &execs {
            assert!(m.evaluate(x).unwrap().allowed());
        }
    }

    #[test]
    fn shared_subexpressions_compile_to_one_node() {
        let m = model("let a = (R * R) & po\nlet b = po & (R * R)\nlet c = (R * R) & po");
        let nodes = &m.program().nodes;
        let cartesians = nodes.iter().filter(|n| matches!(n.op, Op::Cartesian(..))).count();
        let inters = nodes.iter().filter(|n| matches!(n.op, Op::Inter(..))).count();
        assert_eq!((cartesians, inters), (1, 2));
    }

    #[test]
    fn nodes_are_tiered_by_what_they_reach() {
        let m = model("let s = po ; [Mb] ; po\nlet d = s | rf\nlet rec l = d | (l ; s)\nacyclic l");
        let tier_of = |pred: fn(&Op) -> bool| {
            m.program().nodes.iter().filter(|n| pred(&n.op)).map(|n| n.tier).max().unwrap()
        };
        assert_eq!(tier_of(|op| matches!(op, Op::SetToId(_))), Tier::Static);
        assert_eq!(tier_of(|op| matches!(op, Op::Union(..))), Tier::Loop(0));
        assert_eq!(tier_of(|op| matches!(op, Op::Fix(_))), Tier::Dynamic);
        let union_tiers: Vec<_> = m
            .program()
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Union(..)))
            .map(|n| n.tier)
            .collect();
        assert_eq!(union_tiers, vec![Tier::Dynamic, Tier::Loop(0)]);
    }
}
