//! A litmus test lowered once for the simulators.
//!
//! [`Program::lower`] resolves every name a [`Test`] uses into a dense
//! index: shared locations into their position in
//! [`Test::shared_locations`], each thread's registers (and the
//! synthetic `__void<loc>` / `__lock<loc>` destinations of void atomics
//! and spin locks) into per-thread register ids, expressions into one
//! arena of nodes whose register leaves are numbered in order, and the
//! condition's terms into lookups the machine answers without a name.
//! Nested blocks become ranges of one flat statement list per thread.
//!
//! The machine runs on this form only, so a run allocates nothing per
//! name and clones no expression: issuing a statement copies the SSA ids
//! of its expression's register leaves into the thread's leaf arena, and
//! evaluating walks the shared nodes against them.

use lkmm_exec::{LocId, Val};
use lkmm_litmus::ast::{
    AddrExpr, AtomicDst, BinOp, Expr, FenceKind, InitVal, RmwOrder, Stmt, Test,
};
use lkmm_litmus::cond::{CondVal, Prop, StateTerm};
use std::collections::HashMap;

/// A per-thread register id.
pub(crate) type RegId = u32;
/// An index into [`Program::exprs`].
pub(crate) type ExprId = u32;
/// An index into [`ThreadCode::blocks`]. Every empty block is block 0,
/// so states that differ only in which empty block a thread is about to
/// leave share one memoisation key.
pub(crate) type BlockId = u32;

/// Expression nodes. A `Reg` leaf carries its register and its position
/// among the register leaves of the expression it belongs to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Node {
    Const(i64),
    Loc(u32),
    Reg { reg: RegId, leaf: u32 },
    Bin(BinOp, ExprId, ExprId),
    Not(ExprId),
}

/// A lowered expression: its root node and the registers of its leaves,
/// in leaf order, as a range of [`Program::leaf_regs`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct LExpr {
    pub root: ExprId,
    pub leaf_start: u32,
    pub leaves: u32,
}

/// Where an access goes: a fixed location, or the pointer in a register.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Addr {
    Loc(u32),
    Reg(RegId),
}

/// One lowered statement.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LStmt {
    /// `READ_ONCE`, `smp_load_acquire` (`acquire`) or `rcu_dereference`
    /// (`deref`).
    Load {
        dst: RegId,
        addr: Addr,
        acquire: bool,
        deref: bool,
    },
    /// `WRITE_ONCE`, or a release store (`smp_store_release`,
    /// `rcu_assign_pointer`).
    Store {
        addr: Addr,
        value: LExpr,
        release: bool,
    },
    Fence(FenceKind),
    /// `xchg`, `cmpxchg` (`expected`) and the arithmetic atomics
    /// (`compute`; `dst_new` for the `*_return` forms). A void atomic
    /// (`dst` of `None`) fills the synthetic `__void<loc>` register of
    /// the location it acts on, looked up once its address resolves.
    Rmw {
        order: RmwOrder,
        dst: Option<RegId>,
        addr: Addr,
        value: LExpr,
        expected: Option<LExpr>,
        compute: Option<BinOp>,
        dst_new: bool,
    },
    Assign {
        dst: RegId,
        value: LExpr,
    },
    If {
        cond: LExpr,
        then_: BlockId,
        else_: BlockId,
    },
    Assume,
    SrcuLock(Addr),
    SrcuUnlock(Addr),
    SyncSrcu(Addr),
    SpinLock(Addr),
    SpinUnlock(Addr),
}

/// One thread's code: every block's statements in one list.
#[derive(Debug)]
pub(crate) struct ThreadCode {
    pub stmts: Vec<LStmt>,
    /// `(start, len)` in `stmts`; block 0 is the empty block.
    pub blocks: Vec<(u32, u32)>,
    /// The thread body.
    pub body: BlockId,
    /// Registers, named or synthetic.
    pub regs: usize,
    /// `__void<loc>` and `__lock<loc>` per location.
    pub void_regs: Vec<RegId>,
    pub lock_regs: Vec<RegId>,
}

/// A condition term, resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Term {
    /// A register of a thread; `None` when the thread never names it.
    Reg { thread: usize, reg: Option<RegId> },
    /// A shared location; `None` when the test has no such location.
    Loc(Option<u32>),
}

/// A test lowered for the simulators.
#[derive(Debug)]
pub(crate) struct Program {
    /// Shared location names, in `Test::shared_locations` order.
    pub locs: Vec<String>,
    /// Initial value of each location.
    pub init: Vec<Val>,
    pub threads: Vec<ThreadCode>,
    pub exprs: Vec<Node>,
    pub leaf_regs: Vec<RegId>,
    /// The condition's terms, in `Prop::terms` order (repeats kept).
    pub terms: Vec<Term>,
    /// Each term as the condition spells it.
    term_names: Vec<String>,
}

/// `0` and `1`, as the spin-lock statements use them.
pub(crate) const ZERO: LExpr = LExpr { root: 0, leaf_start: 0, leaves: 0 };
pub(crate) const ONE: LExpr = LExpr { root: 1, leaf_start: 0, leaves: 0 };

impl Program {
    /// Lower `test`.
    pub(crate) fn lower(test: &Test) -> Program {
        let locs = test.shared_locations();
        let init = locs
            .iter()
            .map(|name| match test.init.get(name) {
                Some(InitVal::Int(i)) => Val::Int(*i),
                Some(InitVal::Ptr(t)) => {
                    Val::Loc(LocId(loc_of(&locs, t).expect("ptr target") as usize))
                }
                None => Val::Int(0),
            })
            .collect();
        let mut exprs = vec![Node::Const(0), Node::Const(1)];
        let mut leaf_regs = Vec::new();
        let mut reg_names = Vec::new();
        let threads = test
            .threads
            .iter()
            .map(|t| {
                let mut lower = Lowering {
                    locs: &locs,
                    exprs: &mut exprs,
                    leaf_regs: &mut leaf_regs,
                    names: HashMap::new(),
                    stmts: Vec::new(),
                    blocks: vec![(0, 0)],
                };
                let body = lower.block(&t.body);
                let mut synthetic = |prefix: &str| -> Vec<RegId> {
                    (0..locs.len()).map(|l| lower.reg(&format!("{prefix}{l}"))).collect()
                };
                let (void_regs, lock_regs) = (synthetic("__void"), synthetic("__lock"));
                let code = ThreadCode {
                    stmts: lower.stmts,
                    blocks: lower.blocks,
                    body,
                    regs: lower.names.len(),
                    void_regs,
                    lock_regs,
                };
                reg_names.push(lower.names);
                code
            })
            .collect();
        let props = test.condition.prop.terms();
        let terms = props
            .iter()
            .map(|term| match term {
                StateTerm::Reg { thread, reg } => Term::Reg {
                    thread: *thread,
                    reg: reg_names.get(*thread).and_then(|names| names.get(reg)).copied(),
                },
                StateTerm::Loc(name) => Term::Loc(loc_of(&locs, name)),
            })
            .collect();
        let term_names = props.iter().map(ToString::to_string).collect();
        Program { locs, init, threads, exprs, leaf_regs, terms, term_names }
    }

    /// Whether `prop`, the condition this program was lowered from,
    /// holds in the final state whose term values are `vals` (in
    /// [`Program::terms`] order).
    pub(crate) fn holds(&self, prop: &Prop, vals: &[Option<Val>]) -> bool {
        let terms = prop.terms();
        prop.eval(&|term| {
            Some(match vals[terms.iter().position(|t| *t == term)?]? {
                Val::Int(i) => CondVal::Int(i),
                Val::Loc(l) => CondVal::LocRef(self.locs[l.0].clone()),
            })
        })
    }

    /// A final state as `term=value` pairs joined by `sep`, `?` for a
    /// term without a value.
    pub(crate) fn render(&self, vals: &[Option<Val>], sep: &str) -> String {
        self.term_names
            .iter()
            .zip(vals)
            .map(|(name, v)| match v {
                None => format!("{name}=?"),
                Some(Val::Int(i)) => format!("{name}={i}"),
                Some(Val::Loc(l)) => format!("{name}=&{}", self.locs[l.0]),
            })
            .collect::<Vec<_>>()
            .join(sep)
    }
}

/// Lowering state for one thread.
struct Lowering<'a> {
    locs: &'a [String],
    exprs: &'a mut Vec<Node>,
    leaf_regs: &'a mut Vec<RegId>,
    names: HashMap<String, RegId>,
    stmts: Vec<LStmt>,
    blocks: Vec<(u32, u32)>,
}

impl Lowering<'_> {
    fn reg(&mut self, name: &str) -> RegId {
        let next = self.names.len() as RegId;
        *self.names.entry(name.to_string()).or_insert(next)
    }

    fn loc(&self, name: &str) -> u32 {
        loc_of(self.locs, name).expect("every named location is shared")
    }

    fn addr(&mut self, a: &AddrExpr) -> Addr {
        match a {
            AddrExpr::Var(name) => Addr::Loc(self.loc(name)),
            AddrExpr::Reg(r) => Addr::Reg(self.reg(r)),
        }
    }

    /// Lower a block: its statements take consecutive slots, nested
    /// blocks follow.
    fn block(&mut self, stmts: &[Stmt]) -> BlockId {
        if stmts.is_empty() {
            return 0;
        }
        let start = self.stmts.len();
        self.stmts.resize(start + stmts.len(), LStmt::Assume);
        for (k, s) in stmts.iter().enumerate() {
            self.stmts[start + k] = self.stmt(s);
        }
        self.blocks.push((start as u32, stmts.len() as u32));
        (self.blocks.len() - 1) as BlockId
    }

    fn expr(&mut self, e: &Expr) -> LExpr {
        let leaf_start = self.leaf_regs.len() as u32;
        let root = self.node(e, leaf_start);
        LExpr { root, leaf_start, leaves: self.leaf_regs.len() as u32 - leaf_start }
    }

    fn node(&mut self, e: &Expr, leaf_start: u32) -> ExprId {
        let node = match e {
            Expr::Const(c) => Node::Const(*c),
            Expr::LocRef(name) => Node::Loc(self.loc(name)),
            Expr::Reg(r) => {
                let reg = self.reg(r);
                let leaf = self.leaf_regs.len() as u32 - leaf_start;
                self.leaf_regs.push(reg);
                Node::Reg { reg, leaf }
            }
            Expr::Bin(op, a, b) => {
                let a = self.node(a, leaf_start);
                let b = self.node(b, leaf_start);
                Node::Bin(*op, a, b)
            }
            Expr::Not(a) => Node::Not(self.node(a, leaf_start)),
        };
        self.exprs.push(node);
        (self.exprs.len() - 1) as ExprId
    }

    fn stmt(&mut self, s: &Stmt) -> LStmt {
        match s {
            Stmt::ReadOnce { dst, addr }
            | Stmt::LoadAcquire { dst, addr }
            | Stmt::RcuDereference { dst, addr } => LStmt::Load {
                addr: self.addr(addr),
                dst: self.reg(dst),
                acquire: matches!(s, Stmt::LoadAcquire { .. }),
                deref: matches!(s, Stmt::RcuDereference { .. }),
            },
            Stmt::WriteOnce { addr, value }
            | Stmt::StoreRelease { addr, value }
            | Stmt::RcuAssignPointer { addr, value } => LStmt::Store {
                addr: self.addr(addr),
                value: self.expr(value),
                release: !matches!(s, Stmt::WriteOnce { .. }),
            },
            Stmt::Fence(kind) => LStmt::Fence(*kind),
            Stmt::Xchg { order, dst, addr, value } => LStmt::Rmw {
                order: *order,
                addr: self.addr(addr),
                value: self.expr(value),
                dst: Some(self.reg(dst)),
                expected: None,
                compute: None,
                dst_new: false,
            },
            Stmt::CmpXchg { order, dst, addr, expected, new } => LStmt::Rmw {
                order: *order,
                addr: self.addr(addr),
                expected: Some(self.expr(expected)),
                value: self.expr(new),
                dst: Some(self.reg(dst)),
                compute: None,
                dst_new: false,
            },
            Stmt::AtomicOp { order, dst, addr, op, operand } => LStmt::Rmw {
                order: *order,
                addr: self.addr(addr),
                value: self.expr(operand),
                dst: dst.as_ref().map(|(d, _)| self.reg(d)),
                expected: None,
                compute: Some(*op),
                dst_new: matches!(dst, Some((_, AtomicDst::New))),
            },
            Stmt::Assign { dst, value } => {
                LStmt::Assign { value: self.expr(value), dst: self.reg(dst) }
            }
            Stmt::If { cond, then_, else_ } => LStmt::If {
                cond: self.expr(cond),
                then_: self.block(then_),
                else_: self.block(else_),
            },
            Stmt::Assume(_) => LStmt::Assume,
            Stmt::SrcuReadLock { domain } => LStmt::SrcuLock(self.addr(domain)),
            Stmt::SrcuReadUnlock { domain } => LStmt::SrcuUnlock(self.addr(domain)),
            Stmt::SynchronizeSrcu { domain } => LStmt::SyncSrcu(self.addr(domain)),
            Stmt::SpinLock { addr } => LStmt::SpinLock(self.addr(addr)),
            Stmt::SpinUnlock { addr } => LStmt::SpinUnlock(self.addr(addr)),
        }
    }
}

/// The index of location `name` in the sorted `locs`.
fn loc_of(locs: &[String], name: &str) -> Option<u32> {
    locs.binary_search_by(|l| l.as_str().cmp(name)).ok().map(|l| l as u32)
}

impl ThreadCode {
    /// Statement `idx` of `block`, if the block has one there.
    pub(crate) fn stmt(&self, block: BlockId, idx: u32) -> Option<&LStmt> {
        let (start, len) = self.blocks[block as usize];
        (idx < len).then(|| &self.stmts[(start + idx) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::library;

    #[test]
    fn names_become_dense_indices() {
        let mp = library::by_name("MP").unwrap().test();
        let p = Program::lower(&mp);
        assert_eq!(p.locs, ["x", "y"]);
        assert_eq!(p.threads.len(), 2);
        assert!(p.terms.iter().all(|t| matches!(t, Term::Reg { reg: Some(_), .. })));
        let vals = [Some(Val::Int(1)), Some(Val::Int(0))];
        assert!(p.holds(&mp.condition.prop, &vals));
        assert!(!p.holds(&mp.condition.prop, &[Some(Val::Int(1)), None]));
        assert_eq!(p.render(&vals, " "), "1:r0=1 1:r1=0");
    }

    #[test]
    fn empty_blocks_share_block_zero() {
        let t = lkmm_litmus::parse(
            "C if-empty\n{ x=0; }\nP0(int *x) { int r0; r0 = READ_ONCE(*x); if (r0) { } else { WRITE_ONCE(*x, 2); } }\nexists (0:r0=0)\n",
        )
        .unwrap();
        let p = Program::lower(&t);
        let code = &p.threads[0];
        let Some(LStmt::If { then_, else_, .. }) = code.stmt(code.body, 1) else {
            panic!("second statement is the if")
        };
        assert_eq!((*then_, code.blocks[*else_ as usize].1), (0, 1));
    }
}
