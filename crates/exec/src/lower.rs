//! A litmus test lowered once, for every interpreter.
//!
//! Three interpreters run litmus programs: the enumerator's per-thread
//! interpreter ([`crate::thread`]), the klitmus host runner and the
//! hardware simulators. All three run on this form, so how a name in a
//! [`Test`] resolves is decided here alone. [`Program::lower`] turns
//! shared locations into their position in [`Test::shared_locations`],
//! each thread's registers (and the synthetic `__void<loc>` /
//! `__lock<loc>` destinations the simulators give void atomics and spin
//! locks) into per-thread register ids, expressions into one arena of
//! nodes whose register leaves are numbered in order, and the
//! condition's terms into lookups by id. Nested blocks become ranges of
//! one flat statement list per thread. Lowering allocates nothing per
//! register occurrence: names are borrowed from the test while they are
//! numbered, and only each thread's distinct register names are kept.
//!
//! Final states are checked and rendered here too: an interpreter hands
//! [`Program::holds`] and [`Program::render`] the values of the
//! condition's terms, in [`Program::terms`] order.

use crate::event::{LocId, Val};
use lkmm_litmus::ast::{
    AddrExpr, AtomicDst, BinOp, Expr, FenceKind, InitVal, RmwOrder, Stmt, Test,
};
use lkmm_litmus::cond::{CondVal, Prop, StateTerm};

/// A per-thread register id.
pub type RegId = u32;
/// An index into [`Program::exprs`].
pub type ExprId = u32;
/// An index into [`ThreadCode::blocks`]. Every empty block is block 0,
/// so states that differ only in which empty block a thread is about to
/// leave share one memoisation key.
pub type BlockId = u32;

/// Expression nodes. A `Reg` leaf carries its register and its position
/// among the register leaves of the expression it belongs to.
#[derive(Clone, Copy, Debug)]
pub enum Node {
    Const(i64),
    Loc(u32),
    Reg { reg: RegId, leaf: u32 },
    Bin(BinOp, ExprId, ExprId),
    Not(ExprId),
}

/// A lowered expression: its root node and the registers of its leaves,
/// in leaf order, as a range of [`Program::leaf_regs`].
#[derive(Clone, Copy, Debug)]
pub struct LExpr {
    pub root: ExprId,
    pub leaf_start: u32,
    pub leaves: u32,
}

/// Where an access goes: a fixed location, or the pointer in a register.
#[derive(Clone, Copy, Debug)]
pub enum Addr {
    Loc(u32),
    Reg(RegId),
}

/// One lowered statement.
#[derive(Clone, Copy, Debug)]
pub enum LStmt {
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
    /// has no `dst`.
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
    Assume(LExpr),
    SrcuLock(Addr),
    SrcuUnlock(Addr),
    SyncSrcu(Addr),
    SpinLock(Addr),
    SpinUnlock(Addr),
}

/// One thread's code: every block's statements in one list.
#[derive(Debug)]
pub struct ThreadCode {
    pub stmts: Vec<LStmt>,
    /// `(start, len)` in `stmts`; block 0 is the empty block.
    pub blocks: Vec<(u32, u32)>,
    /// The thread body.
    pub body: BlockId,
    /// The names of the thread's registers, by id.
    pub names: Vec<String>,
    /// Registers, named then synthetic: `__void<loc>` and `__lock<loc>`
    /// for each location follow the named ones.
    pub regs: usize,
}

/// A condition term, resolved.
#[derive(Clone, Copy, Debug)]
pub enum Term {
    /// A register of a thread; `None` when the thread never names it.
    Reg { thread: usize, reg: Option<RegId> },
    /// A shared location; `None` when the test has no such location.
    Loc(Option<u32>),
}

/// A lowered litmus test.
#[derive(Debug)]
pub struct Program {
    /// Shared location names, in `Test::shared_locations` order:
    /// `LocId(i)` names `locs[i]`.
    pub locs: Vec<String>,
    /// Initial value of each location.
    pub init: Vec<Val>,
    pub threads: Vec<ThreadCode>,
    pub exprs: Vec<Node>,
    pub leaf_regs: Vec<RegId>,
    /// The condition's terms, in `Prop::terms` order (repeats kept).
    pub terms: Vec<Term>,
    /// Each term as the condition spells it.
    spelled: Vec<StateTerm>,
}

/// `0` and `1`, as the spin-lock statements use them.
pub const ZERO: LExpr = LExpr { root: 0, leaf_start: 0, leaves: 0 };
pub const ONE: LExpr = LExpr { root: 1, leaf_start: 0, leaves: 0 };

impl Program {
    /// Lower `test`.
    ///
    /// # Panics
    ///
    /// If a pointer initialiser names no shared location.
    pub fn lower(test: &Test) -> Program {
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
        let mut reg_names = Vec::with_capacity(test.threads.len());
        let mut threads: Vec<ThreadCode> = test
            .threads
            .iter()
            .map(|t| {
                let mut lower = Lowering {
                    locs: &locs,
                    exprs: &mut exprs,
                    leaf_regs: &mut leaf_regs,
                    names: Vec::new(),
                    stmts: Vec::new(),
                    blocks: vec![(0, 0)],
                };
                let body = lower.block(&t.body);
                let regs = lower.names.len() + 2 * locs.len();
                reg_names.push(lower.names);
                let (stmts, blocks) = (lower.stmts, lower.blocks);
                ThreadCode { stmts, blocks, body, names: Vec::new(), regs }
            })
            .collect();
        let spelled: Vec<StateTerm> =
            test.condition.prop.terms().into_iter().cloned().collect();
        let terms = spelled
            .iter()
            .map(|term| match term {
                StateTerm::Reg { thread, reg } => Term::Reg {
                    thread: *thread,
                    reg: reg_names
                        .get(*thread)
                        .and_then(|names| names.iter().position(|n| n == reg))
                        .map(|r| r as RegId),
                },
                StateTerm::Loc(name) => Term::Loc(loc_of(&locs, name)),
            })
            .collect();
        for (code, names) in threads.iter_mut().zip(reg_names) {
            code.names = names.into_iter().map(str::to_string).collect();
        }
        Program { locs, init, threads, exprs, leaf_regs, terms, spelled }
    }

    /// The location called `name`.
    pub fn loc(&self, name: &str) -> Option<LocId> {
        loc_of(&self.locs, name).map(|l| LocId(l as usize))
    }

    /// The register of thread `thread` called `name`.
    pub fn reg(&self, thread: usize, name: &str) -> Option<RegId> {
        let names = &self.threads.get(thread)?.names;
        names.iter().position(|n| n == name).map(|r| r as RegId)
    }

    /// The synthetic register a void atomic on `loc` fills in thread
    /// `tid`.
    #[inline]
    pub fn void_reg(&self, tid: usize, loc: u32) -> RegId {
        (self.threads[tid].names.len() as u32) + loc
    }

    /// The synthetic register a spin lock on `loc` fills in thread `tid`.
    #[inline]
    pub fn lock_reg(&self, tid: usize, loc: u32) -> RegId {
        self.void_reg(tid, loc) + self.locs.len() as u32
    }

    /// Whether `prop`, the condition this program was lowered from,
    /// holds in the final state whose term values are `vals` (in
    /// [`Program::terms`] order). Only the condition's own terms have
    /// values: a comparison on any other term is false.
    pub fn holds(&self, prop: &Prop, vals: &[Option<Val>]) -> bool {
        prop.eval(&|term| {
            Some(match vals[self.spelled.iter().position(|t| t == term)?]? {
                Val::Int(i) => CondVal::Int(i),
                Val::Loc(l) => CondVal::LocRef(self.locs[l.0].clone()),
            })
        })
    }

    /// A final state as `term=value` pairs joined by `sep`, `?` for a
    /// term without a value.
    pub fn render(&self, vals: &[Option<Val>], sep: &str) -> String {
        self.spelled
            .iter()
            .zip(vals)
            .map(|(term, v)| match v {
                None => format!("{term}=?"),
                Some(Val::Int(i)) => format!("{term}={i}"),
                Some(Val::Loc(l)) => format!("{term}=&{}", self.locs[l.0]),
            })
            .collect::<Vec<_>>()
            .join(sep)
    }
}

impl ThreadCode {
    /// Statement `idx` of `block`, if the block has one there.
    #[inline]
    pub fn stmt(&self, block: BlockId, idx: u32) -> Option<&LStmt> {
        let (start, len) = self.blocks[block as usize];
        (idx < len).then(|| &self.stmts[(start + idx) as usize])
    }

    /// The statements of `block`.
    #[inline]
    pub fn block(&self, block: BlockId) -> &[LStmt] {
        let (start, len) = self.blocks[block as usize];
        &self.stmts[start as usize..(start + len) as usize]
    }
}

/// `a op b` as every interpreter but the host runner computes it:
/// `None` for arithmetic on a pointer, except that adding 0 keeps it
/// (diy-style false address dependencies, `&x + (r ^ r)`).
#[inline]
pub fn binop(op: BinOp, a: Val, b: Val) -> Option<Val> {
    Some(match op {
        BinOp::Eq => Val::Int(i64::from(a == b)),
        BinOp::Ne => Val::Int(i64::from(a != b)),
        BinOp::Add if matches!((a, b), (Val::Loc(_), Val::Int(0))) => a,
        BinOp::Add if matches!((a, b), (Val::Int(0), Val::Loc(_))) => b,
        _ => {
            let (x, y) = (a.as_int()?, b.as_int()?);
            Val::Int(match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Xor => x ^ y,
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Lt => i64::from(x < y),
                BinOp::Le => i64::from(x <= y),
                BinOp::Gt => i64::from(x > y),
                BinOp::Ge => i64::from(x >= y),
                BinOp::Eq | BinOp::Ne => unreachable!(),
            })
        }
    })
}

/// The value an arithmetic atomic writes over `old`; `None` for an
/// operator the atomics do not have.
#[inline]
pub fn atomic_result(op: BinOp, old: i64, operand: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => old.wrapping_add(operand),
        BinOp::Sub => old.wrapping_sub(operand),
        BinOp::And => old & operand,
        BinOp::Or => old | operand,
        BinOp::Xor => old ^ operand,
        _ => return None,
    })
}

/// Lowering state for one thread; `'t` borrows the test's names.
struct Lowering<'t, 'p> {
    locs: &'p [String],
    exprs: &'p mut Vec<Node>,
    leaf_regs: &'p mut Vec<RegId>,
    names: Vec<&'t str>,
    stmts: Vec<LStmt>,
    blocks: Vec<(u32, u32)>,
}

impl<'t> Lowering<'t, '_> {
    fn reg(&mut self, name: &'t str) -> RegId {
        let id = self.names.iter().position(|&n| n == name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        id as RegId
    }

    fn loc(&self, name: &str) -> u32 {
        loc_of(self.locs, name).expect("every named location is shared")
    }

    fn addr(&mut self, a: &'t AddrExpr) -> Addr {
        match a {
            AddrExpr::Var(name) => Addr::Loc(self.loc(name)),
            AddrExpr::Reg(r) => Addr::Reg(self.reg(r)),
        }
    }

    /// Lower a block: its statements take consecutive slots, nested
    /// blocks follow.
    fn block(&mut self, stmts: &'t [Stmt]) -> BlockId {
        if stmts.is_empty() {
            return 0;
        }
        let start = self.stmts.len();
        self.stmts.resize(start + stmts.len(), LStmt::Assume(ONE));
        for (k, s) in stmts.iter().enumerate() {
            self.stmts[start + k] = self.stmt(s);
        }
        self.blocks.push((start as u32, stmts.len() as u32));
        (self.blocks.len() - 1) as BlockId
    }

    fn expr(&mut self, e: &'t Expr) -> LExpr {
        let leaf_start = self.leaf_regs.len() as u32;
        let root = self.node(e, leaf_start);
        LExpr { root, leaf_start, leaves: self.leaf_regs.len() as u32 - leaf_start }
    }

    fn node(&mut self, e: &'t Expr, leaf_start: u32) -> ExprId {
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

    fn stmt(&mut self, s: &'t Stmt) -> LStmt {
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
            Stmt::Assume(cond) => LStmt::Assume(self.expr(cond)),
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
