//! Compiler: a parsed cat model to a program over typed nodes.
//!
//! A model is compiled once, when it is parsed. Identifiers resolve to
//! node indices under cat's lexical scoping, function applications are
//! inlined in the scope the function was defined in, and structurally
//! identical subexpressions (`hb*`, `R * R`, every `A-cumul(…)` call with
//! the same argument) are hash-consed into one node, so each is computed
//! at most once per candidate. Every node carries its type (set or
//! relation) and its [`Tier`], which tells the evaluator how long its
//! value stays valid.
//!
//! Type errors are found here, but they are not parse errors: the
//! compiled program records the first one as a [`Step::Fail`] at the
//! instruction where it occurs, and evaluation reports it there, after
//! the same fuel a tree walk would have burned getting to it.

use crate::ast::{Binding, CheckKind, Expr, Instr, Model};
use crate::eval::EvalError;
use crate::parser::MAX_EXPR_DEPTH;
use lkmm_litmus::FenceKind;
use std::collections::HashMap;

/// Index of a node in [`Program::nodes`].
pub(crate) type NodeId = usize;

/// Recursion budget for compiling one instruction: expression depth
/// plus every level of function inlining. A parsed expression is at most
/// [`MAX_EXPR_DEPTH`] deep, so only a chain of functions each applying
/// the previous one can reach this; it is reported as an evaluation
/// error instead of overflowing the stack.
const MAX_COMPILE_DEPTH: usize = 2 * MAX_EXPR_DEPTH;

/// What a node evaluates to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Ty {
    Set,
    Rel,
}

/// How long a node's value stays valid.
///
/// The order matters: a node's tier is the greatest of its operands'.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Tier {
    /// Reaches only the pre-execution (`po`, dependencies, `rmw`, `loc`,
    /// `int`, `ext`, `id`, `crit` and the event sets): computed once per
    /// pre-execution and reused by all of its candidates.
    Static,
    /// Reaches `rf` or `co` (or a fixpoint result): computed once per
    /// candidate.
    Dynamic,
    /// Reaches a variable of `let rec` group `g`: recomputed whenever one
    /// of the group's variables changes during its fixpoint.
    Loop(usize),
}

/// The predefined identifiers a model may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Base {
    Po,
    Addr,
    Data,
    Ctrl,
    Rmw,
    Loc,
    Int,
    Ext,
    Id,
    Crit,
    Rf,
    Co,
    Reads,
    Writes,
    Mem,
    InitWrites,
    Fences,
    Acquire,
    Release,
    Fence(FenceKind),
    /// The universe of events, spelled `_`.
    Universe,
}

/// The base environment, by name.
const BASE_NAMES: &[(&str, Base)] = &[
    ("po", Base::Po),
    ("addr", Base::Addr),
    ("data", Base::Data),
    ("ctrl", Base::Ctrl),
    ("rmw", Base::Rmw),
    ("loc", Base::Loc),
    ("int", Base::Int),
    ("ext", Base::Ext),
    ("id", Base::Id),
    ("crit", Base::Crit),
    ("rf", Base::Rf),
    ("co", Base::Co),
    ("R", Base::Reads),
    ("W", Base::Writes),
    ("M", Base::Mem),
    ("IW", Base::InitWrites),
    ("F", Base::Fences),
    ("Acquire", Base::Acquire),
    ("Release", Base::Release),
    ("Rmb", Base::Fence(FenceKind::Rmb)),
    ("Wmb", Base::Fence(FenceKind::Wmb)),
    ("Mb", Base::Fence(FenceKind::Mb)),
    ("Rb-dep", Base::Fence(FenceKind::RbDep)),
    ("Rcu-lock", Base::Fence(FenceKind::RcuLock)),
    ("Rcu-unlock", Base::Fence(FenceKind::RcuUnlock)),
    ("Sync", Base::Fence(FenceKind::SyncRcu)),
    // `_` looks this name up, so a model that rebinds it rebinds `_`.
    ("_UNIV", Base::Universe),
];

impl Base {
    fn ty(self) -> Ty {
        match self {
            Base::Po
            | Base::Addr
            | Base::Data
            | Base::Ctrl
            | Base::Rmw
            | Base::Loc
            | Base::Int
            | Base::Ext
            | Base::Id
            | Base::Crit
            | Base::Rf
            | Base::Co => Ty::Rel,
            _ => Ty::Set,
        }
    }

    /// Whether the evaluator materialises this identifier in the node's
    /// own slot; every other base value is borrowed from the execution
    /// or its facts.
    pub(crate) fn has_slot(self) -> bool {
        matches!(self, Base::Id | Base::Fences | Base::Universe)
    }
}

/// One operation of the compiled graph. Operands always have smaller
/// indices than the node itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Base(Base),
    /// `0`.
    Empty,
    /// The current value of variable `var` of `let rec` group `group`.
    Var { group: usize, var: usize },
    /// The value a `let rec` variable converged to; reads the slot of
    /// the `Var` node it names.
    Fix(NodeId),
    SetToId(NodeId),
    Domain(NodeId),
    Range(NodeId),
    Complement(NodeId),
    Opt(NodeId),
    Plus(NodeId),
    Star(NodeId),
    Inverse(NodeId),
    Union(NodeId, NodeId),
    Inter(NodeId, NodeId),
    Diff(NodeId, NodeId),
    Seq(NodeId, NodeId),
    Cartesian(NodeId, NodeId),
}

impl Op {
    /// The operands, in evaluation order.
    pub(crate) fn operands(self) -> (Option<NodeId>, Option<NodeId>) {
        match self {
            Op::Base(_) | Op::Empty | Op::Var { .. } | Op::Fix(_) => (None, None),
            Op::SetToId(a)
            | Op::Domain(a)
            | Op::Range(a)
            | Op::Complement(a)
            | Op::Opt(a)
            | Op::Plus(a)
            | Op::Star(a)
            | Op::Inverse(a) => (Some(a), None),
            Op::Union(a, b)
            | Op::Inter(a, b)
            | Op::Diff(a, b)
            | Op::Seq(a, b)
            | Op::Cartesian(a, b) => (Some(a), Some(b)),
        }
    }
}

/// Which of a session's epochs validates a node's slot: its tier's, or
/// none for a value read from elsewhere (the execution, its facts, a
/// fixpoint variable) rather than computed into a slot.
pub(crate) const STATIC: usize = 0;
pub(crate) const DYNAMIC: usize = 1;
pub(crate) const LOOP: usize = 2;
pub(crate) const BORROWED: usize = 3;

/// A node of the compiled graph.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) ty: Ty,
    pub(crate) tier: Tier,
    /// [`STATIC`], [`DYNAMIC`], [`LOOP`] or [`BORROWED`].
    pub(crate) epoch: usize,
    /// The operands in the order a demand walk visits them. For `;` and
    /// `&` the operand of lower tier goes first: it is the one more
    /// likely to be current already, and when it is empty the other is
    /// never needed.
    pub(crate) demand: [Option<NodeId>; 2],
    /// `;` or `&`: empty as soon as `demand[0]` is.
    pub(crate) short_circuit: bool,
}

/// One `let rec … and …` group.
#[derive(Clone, Debug)]
pub(crate) struct Group {
    /// The `Var` node of each distinct name, in order of first binding.
    pub(crate) vars: Vec<NodeId>,
    /// Each binding's body and the `Var` node it assigns, in source
    /// order (a name bound twice assigns the same variable twice).
    pub(crate) bindings: Vec<(NodeId, NodeId)>,
}

/// A compiled check instruction.
#[derive(Clone, Debug)]
pub(crate) struct Check {
    pub(crate) kind: CheckKind,
    pub(crate) negated: bool,
    pub(crate) flag: bool,
    pub(crate) node: NodeId,
    /// The `as` name, or `"<kind> (instruction <i>)"`.
    pub(crate) label: String,
}

/// One top-level instruction. Each burns one unit of step fuel.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// A non-recursive `let`: nothing runs until a check demands it.
    Let,
    /// A `let rec` group, solved by Gauss–Seidel iteration.
    Rec(usize),
    Check(Check),
    /// The first semantic error, reported at this instruction.
    /// `round_fuel` is the fuel of the fixpoint round a tree walk would
    /// have started before hitting it (non-zero only inside `let rec`).
    Fail { error: EvalError, round_fuel: u64 },
}

/// A compiled cat model: a node graph plus the instructions that demand
/// it. Immutable and shared by every evaluation session.
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) nodes: Vec<Node>,
    pub(crate) groups: Vec<Group>,
    pub(crate) steps: Vec<Step>,
}

/// Compile a parsed model. Never fails: semantic errors become a
/// [`Step::Fail`] that evaluation reports.
pub(crate) fn compile(model: &Model) -> Program {
    let mut c = Compiler {
        nodes: Vec::new(),
        index: HashMap::new(),
        groups: Vec::new(),
        scope: HashMap::new(),
        version: 0,
        depth: 0,
        closures: 0,
        memo: HashMap::new(),
    };
    for &(name, base) in BASE_NAMES {
        let node = c.node(Op::Base(base));
        c.scope.insert(name, vec![(0, Val::Node(node))]);
    }
    let mut steps = Vec::with_capacity(model.instrs.len());
    for (i, instr) in model.instrs.iter().enumerate() {
        match c.instr(i, instr) {
            Ok(step) => steps.push(step),
            Err((error, round_fuel)) => {
                steps.push(Step::Fail { error, round_fuel });
                break;
            }
        }
    }
    Program { nodes: c.nodes, groups: c.groups, steps }
}

/// A compile-time value: a node, or a function still to be inlined.
#[derive(Clone, Copy, Debug)]
enum Val<'m> {
    Node(NodeId),
    Fun(Closure<'m>),
}

/// A function with the scope it was defined in.
#[derive(Clone, Copy, Debug)]
struct Closure<'m> {
    /// Distinguishes closures in the inlining memo.
    id: usize,
    params: &'m [String],
    body: &'m Expr,
    /// Top-level bindings visible to the body: those of version ≤ this.
    version: usize,
}

/// The scope an expression is compiled in: a function's parameters (or
/// none at top level) over the top-level bindings up to `version`.
struct Frame<'f, 'm> {
    params: &'f [(&'m str, Val<'m>)],
    version: usize,
}

/// A function argument as an inlining-memo key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ArgKey {
    Node(NodeId),
    Fun(usize),
}

type Fail = (EvalError, u64);

struct Compiler<'m> {
    nodes: Vec<Node>,
    /// Hash-consing table.
    index: HashMap<Op, NodeId>,
    groups: Vec<Group>,
    /// Every top-level binding of each name, with the version that
    /// introduced it (base names are version 0).
    scope: HashMap<&'m str, Vec<(usize, Val<'m>)>>,
    /// Bumped by every `let`, so a closure sees exactly the bindings
    /// made before its definition.
    version: usize,
    depth: usize,
    closures: usize,
    /// Inlined applications: (closure, arguments) → result.
    memo: HashMap<(usize, Vec<ArgKey>), Val<'m>>,
}

fn err(message: impl Into<String>) -> EvalError {
    EvalError { message: message.into() }
}

impl<'m> Compiler<'m> {
    fn instr(&mut self, i: usize, instr: &'m Instr) -> Result<Step, Fail> {
        let top = self.version;
        let frame = Frame { params: &[], version: top };
        match instr {
            Instr::Let { recursive: false, bindings } => {
                // Simultaneous: every body sees the scope before the `let`.
                let mut vals = Vec::with_capacity(bindings.len());
                for b in bindings {
                    let val = if b.params.is_empty() {
                        self.expr(&b.body, &frame).map_err(|e| (e, 0))?
                    } else {
                        self.closures += 1;
                        Val::Fun(Closure {
                            id: self.closures,
                            params: &b.params,
                            body: &b.body,
                            version: top,
                        })
                    };
                    vals.push((b.name.as_str(), val));
                }
                self.bind(vals);
                Ok(Step::Let)
            }
            Instr::Let { recursive: true, bindings } => self.rec(bindings),
            Instr::Check { kind, negated, expr, name, flag } => {
                let val = self.expr(expr, &frame).map_err(|e| (e, 0))?;
                let node = match (kind, val) {
                    (CheckKind::Empty, Val::Node(n)) => n,
                    (CheckKind::Empty, Val::Fun(_)) => {
                        return Err((err("`empty` applied to a function"), 0))
                    }
                    (_, val) => self.expect_rel(val).map_err(|e| (e, 0))?,
                };
                let label = name
                    .clone()
                    .unwrap_or_else(|| format!("{kind:?} (instruction {i})").to_lowercase());
                Ok(Step::Check(Check { kind: *kind, negated: *negated, flag: *flag, node, label }))
            }
        }
    }

    /// Compile a `let rec` group: its names are `Var` nodes while the
    /// bodies compile, and `Fix` nodes for every later instruction.
    fn rec(&mut self, bindings: &'m [Binding]) -> Result<Step, Fail> {
        if bindings.iter().any(|b| !b.params.is_empty()) {
            return Err((err("recursive functions are not supported"), 0));
        }
        let group = self.groups.len();
        // One variable per distinct name, in order of first binding.
        let mut var_of: HashMap<&'m str, NodeId> = HashMap::new();
        let mut vars: Vec<(&'m str, NodeId)> = Vec::new();
        for b in bindings {
            if !var_of.contains_key(b.name.as_str()) {
                let var = self.node(Op::Var { group, var: vars.len() });
                var_of.insert(&b.name, var);
                vars.push((&b.name, var));
            }
        }
        self.bind(vars.iter().map(|&(name, var)| (name, Val::Node(var))).collect());
        // A tree walk would fail these in the first round, after burning
        // that round's fuel.
        let round_fuel = bindings.len() as u64;
        let frame = Frame { params: &[], version: self.version };
        let mut solved = Vec::with_capacity(bindings.len());
        for b in bindings {
            let val = self.expr(&b.body, &frame).map_err(|e| (e, round_fuel))?;
            let body = self.expect_rel(val).map_err(|e| (e, round_fuel))?;
            solved.push((body, var_of[b.name.as_str()]));
        }
        let fixed = vars.iter().map(|&(name, var)| (name, Val::Node(self.node(Op::Fix(var)))));
        let fixed: Vec<_> = fixed.collect();
        self.bind(fixed);
        let vars = vars.into_iter().map(|(_, var)| var).collect();
        self.groups.push(Group { vars, bindings: solved });
        Ok(Step::Rec(group))
    }

    /// Add one instruction's bindings to the top-level scope.
    fn bind(&mut self, vals: Vec<(&'m str, Val<'m>)>) {
        self.version += 1;
        for (name, val) in vals {
            self.scope.entry(name).or_default().push((self.version, val));
        }
    }

    fn lookup(&self, name: &str, frame: &Frame<'_, 'm>) -> Option<Val<'m>> {
        if let Some(&(_, v)) = frame.params.iter().rev().find(|(p, _)| *p == name) {
            return Some(v);
        }
        // Entries are in version order; the last one visible wins.
        let entries = self.scope.get(name)?;
        let visible = entries.partition_point(|(v, _)| *v <= frame.version);
        entries[..visible].last().map(|&(_, val)| val)
    }

    fn ty(&self, val: &Val<'m>) -> Option<Ty> {
        match val {
            Val::Node(n) => Some(self.nodes[*n].ty),
            Val::Fun(_) => None,
        }
    }

    fn expect_rel(&self, val: Val<'m>) -> Result<NodeId, EvalError> {
        match (self.ty(&val), val) {
            (Some(Ty::Rel), Val::Node(n)) => Ok(n),
            (Some(_), _) => Err(err("expected a relation, found a set")),
            (None, _) => Err(err("expected a relation, found a function")),
        }
    }

    /// The hash-consed node for `op`.
    fn node(&mut self, op: Op) -> NodeId {
        if let Some(&n) = self.index.get(&op) {
            return n;
        }
        let (a, b) = op.operands();
        let (ty, tier, borrowed) = match op {
            Op::Base(base) => {
                let dynamic = matches!(base, Base::Rf | Base::Co);
                let tier = if dynamic { Tier::Dynamic } else { Tier::Static };
                (base.ty(), tier, !base.has_slot())
            }
            Op::Empty => (Ty::Rel, Tier::Static, false),
            Op::Var { group, .. } => (Ty::Rel, Tier::Loop(group), true),
            Op::Fix(_) => (Ty::Rel, Tier::Dynamic, true),
            _ => {
                let ty = match op {
                    Op::Domain(_) | Op::Range(_) => Ty::Set,
                    Op::Cartesian(..) | Op::SetToId(_) => Ty::Rel,
                    _ => self.nodes[a.expect("operand")].ty,
                };
                let tier = [a, b].into_iter().flatten().map(|n| self.nodes[n].tier).max();
                (ty, tier.expect("operand"), false)
            }
        };
        let epoch = match tier {
            _ if borrowed => BORROWED,
            Tier::Static => STATIC,
            Tier::Dynamic => DYNAMIC,
            Tier::Loop(_) => LOOP,
        };
        let short_circuit = matches!(op, Op::Seq(..) | Op::Inter(..));
        let demand = match (a, b) {
            (Some(a), Some(b)) if short_circuit && self.nodes[b].tier < self.nodes[a].tier => {
                [Some(b), Some(a)]
            }
            _ => [a, b],
        };
        let n = self.nodes.len();
        self.nodes.push(Node { op, ty, tier, epoch, demand, short_circuit });
        self.index.insert(op, n);
        n
    }

    fn expr(&mut self, e: &'m Expr, frame: &Frame<'_, 'm>) -> Result<Val<'m>, EvalError> {
        self.depth += 1;
        let out = if self.depth > MAX_COMPILE_DEPTH {
            Err(err("function applications nested too deeply"))
        } else {
            self.expr_inner(e, frame)
        };
        self.depth -= 1;
        out
    }

    fn expr_inner(&mut self, e: &'m Expr, frame: &Frame<'_, 'm>) -> Result<Val<'m>, EvalError> {
        let node = |c: &mut Self, op| Ok(Val::Node(c.node(op)));
        match e {
            Expr::Id(name) => {
                self.lookup(name, frame).ok_or_else(|| err(format!("unknown identifier `{name}`")))
            }
            // `0` is sized by looking up `id`: a model that rebinds `id`
            // to anything but a relation cannot use `0`.
            Expr::Empty => match self.lookup("id", frame) {
                Some(v) if self.ty(&v) == Some(Ty::Rel) => node(self, Op::Empty),
                _ => Err(err("internal: `id` missing from base env")),
            },
            Expr::Universe => {
                self.lookup("_UNIV", frame).ok_or_else(|| err("internal: universe missing"))
            }
            Expr::App(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, frame)?);
                }
                match (name.as_str(), vals.as_slice()) {
                    ("domain", [v]) if self.ty(v) == Some(Ty::Rel) => {
                        let Val::Node(r) = *v else { unreachable!("typed as a relation") };
                        node(self, Op::Domain(r))
                    }
                    ("range", [v]) if self.ty(v) == Some(Ty::Rel) => {
                        let Val::Node(r) = *v else { unreachable!("typed as a relation") };
                        node(self, Op::Range(r))
                    }
                    _ => match self.lookup(name, frame) {
                        Some(Val::Fun(f)) => {
                            if f.params.len() != args.len() {
                                return Err(err(format!(
                                    "`{name}` expects {} argument(s), got {}",
                                    f.params.len(),
                                    args.len()
                                )));
                            }
                            self.apply(f, vals)
                        }
                        Some(_) => Err(err(format!("`{name}` is not a function"))),
                        None => Err(err(format!("unknown function `{name}`"))),
                    },
                }
            }
            Expr::SetToId(inner) => match self.expr(inner, frame)? {
                Val::Node(s) if self.nodes[s].ty == Ty::Set => node(self, Op::SetToId(s)),
                _ => Err(err("`[…]` expects a set")),
            },
            Expr::Union(a, b) => self.binary(a, b, frame, "union", Op::Union, true),
            Expr::Inter(a, b) => self.binary(a, b, frame, "intersection", Op::Inter, true),
            Expr::Diff(a, b) => self.binary(a, b, frame, "difference", Op::Diff, true),
            Expr::Seq(a, b) => self.binary(a, b, frame, "sequence", Op::Seq, false),
            Expr::Cartesian(a, b) => {
                let (va, vb) = (self.expr(a, frame)?, self.expr(b, frame)?);
                match (va, vb) {
                    (Val::Node(x), Val::Node(y))
                        if self.nodes[x].ty == Ty::Set && self.nodes[y].ty == Ty::Set =>
                    {
                        node(self, Op::Cartesian(x, y))
                    }
                    _ => Err(err("type error in cartesian product")),
                }
            }
            Expr::Complement(inner) => match self.expr(inner, frame)? {
                Val::Node(x) => node(self, Op::Complement(x)),
                Val::Fun(_) => Err(err("`~` applied to a function")),
            },
            Expr::Opt(inner) => self.closure_op(inner, frame, Op::Opt, "`?` expects a relation"),
            Expr::Plus(inner) => self.closure_op(inner, frame, Op::Plus, "`+` expects a relation"),
            Expr::Star(inner) => self.closure_op(inner, frame, Op::Star, "`*` expects a relation"),
            Expr::Inverse(inner) => {
                self.closure_op(inner, frame, Op::Inverse, "`^-1` expects a relation")
            }
        }
    }

    /// Inline `f` applied to `args`, in the scope `f` was defined in.
    fn apply(&mut self, f: Closure<'m>, args: Vec<Val<'m>>) -> Result<Val<'m>, EvalError> {
        let key: Vec<ArgKey> = args
            .iter()
            .map(|a| match a {
                Val::Node(n) => ArgKey::Node(*n),
                Val::Fun(g) => ArgKey::Fun(g.id),
            })
            .collect();
        if let Some(&v) = self.memo.get(&(f.id, key.clone())) {
            return Ok(v);
        }
        let params: Vec<(&'m str, Val<'m>)> =
            f.params.iter().map(String::as_str).zip(args).collect();
        let out = self.expr(f.body, &Frame { params: &params, version: f.version })?;
        self.memo.insert((f.id, key), out);
        Ok(out)
    }

    /// `|`, `&`, `\` (sets or relations) and `;` (relations only).
    fn binary(
        &mut self,
        a: &'m Expr,
        b: &'m Expr,
        frame: &Frame<'_, 'm>,
        what: &str,
        op: fn(NodeId, NodeId) -> Op,
        sets_too: bool,
    ) -> Result<Val<'m>, EvalError> {
        let (va, vb) = (self.expr(a, frame)?, self.expr(b, frame)?);
        match (va, vb) {
            (Val::Node(x), Val::Node(y)) => {
                let (tx, ty) = (self.nodes[x].ty, self.nodes[y].ty);
                if tx == ty && (tx == Ty::Rel || sets_too) {
                    Ok(Val::Node(self.node(op(x, y))))
                } else {
                    Err(err(format!("type error in {what}")))
                }
            }
            _ => Err(err(format!("type error in {what}"))),
        }
    }

    /// `?`, `+`, `*` and `^-1`: relation to relation.
    fn closure_op(
        &mut self,
        inner: &'m Expr,
        frame: &Frame<'_, 'm>,
        op: fn(NodeId) -> Op,
        message: &str,
    ) -> Result<Val<'m>, EvalError> {
        match self.expr(inner, frame)? {
            Val::Node(x) if self.nodes[x].ty == Ty::Rel => Ok(Val::Node(self.node(op(x)))),
            _ => Err(err(message)),
        }
    }
}
