//! The printer and the parser are inverses: a litmus test prints to
//! source that re-parses to the same AST. The tests come from a seeded
//! generator that draws every form the parser builds, so every failure
//! replays.

use lkmm_core::rng::SplitMix64;
use lkmm_litmus::ast::{AddrExpr, AtomicDst, BinOp, Expr, FenceKind, InitVal, RmwOrder, Stmt};
use lkmm_litmus::cond::{CondVal, Condition, Prop, Quantifier, StateTerm};
use lkmm_litmus::{Test, Thread};

const NAMES: [&str; 5] = ["fuzz", "MP+wmb+rmb", "2+2W", "LB+ctrl-mb", "SB.1"];
const LOCS: [&str; 3] = ["x", "y", "z"];
const REGS: [&str; 4] = ["r0", "r1", "r2", "r3"];
const ORDERS: [RmwOrder; 4] =
    [RmwOrder::Relaxed, RmwOrder::Acquire, RmwOrder::Release, RmwOrder::Full];
const BIN_OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Xor,
    BinOp::And,
    BinOp::Or,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];
/// The operators an atomic read-modify-write spells.
const ATOMIC_OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Xor];
const FENCES: [FenceKind; 7] = [
    FenceKind::Rmb,
    FenceKind::Wmb,
    FenceKind::Mb,
    FenceKind::RbDep,
    FenceKind::RcuLock,
    FenceKind::RcuUnlock,
    FenceKind::SyncRcu,
];
const QUANTIFIERS: [Quantifier; 3] =
    [Quantifier::Exists, Quantifier::NotExists, Quantifier::Forall];

/// Spellings the printed tests must show between them, so that a
/// generator that stops drawing a form fails here.
const FORMS: &[&str] = &[
    "READ_ONCE(*x)",
    "READ_ONCE(*r",
    "WRITE_ONCE(",
    "smp_load_acquire(",
    "smp_store_release(",
    "rcu_dereference(",
    "rcu_assign_pointer(",
    "smp_rmb();",
    "smp_wmb();",
    "smp_mb();",
    "smp_read_barrier_depends();",
    "rcu_read_lock();",
    "rcu_read_unlock();",
    "synchronize_rcu();",
    "= xchg(",
    "xchg_relaxed(",
    "xchg_acquire(",
    "xchg_release(",
    "= cmpxchg(",
    "cmpxchg_relaxed(",
    "cmpxchg_acquire(",
    "cmpxchg_release(",
    "\tatomic_sub(",
    "atomic_fetch_and(",
    "atomic_fetch_or_acquire(",
    "atomic_xor_return(",
    "atomic_add_return_release(",
    "__assume(",
    "srcu_read_lock(",
    "srcu_read_unlock(",
    "synchronize_srcu(",
    "spin_lock(*",
    "spin_unlock(*",
    "if (",
    "} else {",
    "=&",
    "=-",
    " + ",
    " - ",
    " * ",
    " ^ ",
    " & ",
    " | ",
    " == ",
    " != ",
    " < ",
    " <= ",
    " > ",
    " >= ",
    "!(",
    "\nexists (",
    "\n~exists (",
    "\nforall (",
    "true",
    "not (",
    " /\\ ",
    " \\/ ",
];

struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_index(n)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn loc(&mut self) -> String {
        self.pick(&LOCS).to_string()
    }

    fn reg(&mut self) -> String {
        self.pick(&REGS).to_string()
    }

    /// A small integer, negative ones included.
    fn int(&mut self) -> i64 {
        self.below(7) as i64 - 2
    }

    /// `*x` three times in four, `*r` otherwise.
    fn addr(&mut self) -> AddrExpr {
        if self.below(4) == 0 {
            AddrExpr::Reg(self.reg())
        } else {
            AddrExpr::Var(self.loc())
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.below(2) == 0 {
            return match self.below(3) {
                0 => Expr::Const(self.int()),
                1 => Expr::Reg(self.reg()),
                _ => Expr::LocRef(self.loc()),
            };
        }
        if self.below(6) == 0 {
            return Expr::Not(Box::new(self.expr(depth - 1)));
        }
        let op = self.pick(&BIN_OPS);
        Expr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
    }

    fn stmts(&mut self, max: usize, depth: u32) -> Vec<Stmt> {
        (0..self.below(max + 1)).map(|_| self.stmt(depth)).collect()
    }

    /// Any statement; an `if` only while `depth` allows one more level.
    fn stmt(&mut self, depth: u32) -> Stmt {
        match self.below(if depth > 0 { 18 } else { 17 }) {
            0 => Stmt::ReadOnce { dst: self.reg(), addr: self.addr() },
            1 => Stmt::WriteOnce { addr: self.addr(), value: self.expr(2) },
            2 => Stmt::LoadAcquire { dst: self.reg(), addr: self.addr() },
            3 => Stmt::StoreRelease { addr: self.addr(), value: self.expr(2) },
            4 => Stmt::RcuDereference { dst: self.reg(), addr: self.addr() },
            5 => Stmt::RcuAssignPointer { addr: self.addr(), value: self.expr(2) },
            6 => Stmt::Fence(self.pick(&FENCES)),
            7 => Stmt::Xchg {
                order: self.pick(&ORDERS),
                dst: self.reg(),
                addr: self.addr(),
                value: self.expr(2),
            },
            8 => Stmt::CmpXchg {
                order: self.pick(&ORDERS),
                dst: self.reg(),
                addr: self.addr(),
                expected: self.expr(2),
                new: self.expr(2),
            },
            9 => {
                // The void forms (`atomic_add(i, v)`) are always relaxed.
                let dst = match self.below(3) {
                    0 => None,
                    1 => Some((self.reg(), AtomicDst::Old)),
                    _ => Some((self.reg(), AtomicDst::New)),
                };
                let order = if dst.is_some() { self.pick(&ORDERS) } else { RmwOrder::Relaxed };
                let (addr, op, operand) = (self.addr(), self.pick(&ATOMIC_OPS), self.expr(2));
                Stmt::AtomicOp { order, dst, addr, op, operand }
            }
            10 => Stmt::Assign { dst: self.reg(), value: self.expr(3) },
            11 => Stmt::Assume(self.expr(2)),
            12 => Stmt::SrcuReadLock { domain: self.addr() },
            13 => Stmt::SrcuReadUnlock { domain: self.addr() },
            14 => Stmt::SynchronizeSrcu { domain: self.addr() },
            15 => Stmt::SpinLock { addr: self.addr() },
            16 => Stmt::SpinUnlock { addr: self.addr() },
            _ => Stmt::If {
                cond: self.expr(2),
                then_: self.stmts(2, depth - 1),
                else_: self.stmts(2, depth - 1),
            },
        }
    }

    fn term(&mut self, threads: usize) -> StateTerm {
        if self.below(2) == 0 {
            StateTerm::Reg { thread: self.below(threads), reg: self.reg() }
        } else {
            StateTerm::Loc(self.loc())
        }
    }

    /// A proposition whose `/\` chains are left-deep, as the parser
    /// builds them: the printer leaves them unbracketed.
    fn prop(&mut self, threads: usize, depth: u32, and_allowed: bool) -> Prop {
        let choice = if depth == 0 { self.below(2) } else { self.below(5) };
        match choice {
            0 => Prop::True,
            1 => {
                let term = self.term(threads);
                let val = if self.below(4) == 0 {
                    CondVal::LocRef(self.loc())
                } else {
                    CondVal::Int(self.int())
                };
                Prop::Eq(term, val)
            }
            2 if and_allowed => Prop::And(
                Box::new(self.prop(threads, depth - 1, true)),
                Box::new(self.prop(threads, depth - 1, false)),
            ),
            2 | 3 => Prop::Or(
                Box::new(self.prop(threads, depth - 1, true)),
                Box::new(self.prop(threads, depth - 1, true)),
            ),
            _ => Prop::Not(Box::new(self.prop(threads, depth - 1, true))),
        }
    }

    fn test(&mut self) -> Test {
        let mut test = Test::new(self.pick(&NAMES));
        for _ in 0..self.below(4) {
            let init = if self.below(4) == 0 {
                InitVal::Ptr(self.loc())
            } else {
                InitVal::Int(self.int())
            };
            test.init.insert(self.loc(), init);
        }
        let threads = 1 + self.below(3);
        test.threads = (0..threads).map(|_| Thread::new(self.stmts(4, 2))).collect();
        test.condition =
            Condition { quantifier: self.pick(&QUANTIFIERS), prop: self.prop(threads, 3, true) };
        test
    }
}

#[test]
fn print_parse_round_trip_on_seeded_tests() {
    let mut gen = Gen(SplitMix64::seed_from_u64(0x11_7705));
    let mut seen = [false; FORMS.len()];
    for case in 0..4096 {
        let test = gen.test();
        let printed = test.to_litmus_string();
        let reparsed =
            lkmm_litmus::parse(&printed).unwrap_or_else(|e| panic!("case {case}:\n{printed}\n{e}"));
        assert_eq!(test, reparsed, "case {case}:\n{printed}");
        for (form, seen) in FORMS.iter().zip(&mut seen) {
            *seen |= printed.contains(form);
        }
    }
    let missing: Vec<&str> = FORMS.iter().zip(seen).filter(|(_, s)| !s).map(|(f, _)| *f).collect();
    assert!(missing.is_empty(), "never drawn: {missing:?}");
}
