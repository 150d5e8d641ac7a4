//! Abstract syntax of LK-dialect litmus programs.

use crate::cond::Condition;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A complete litmus test: shared-location initialisation, one body per
/// thread, and a final-state condition.
///
/// # Examples
///
/// ```
/// use lkmm_litmus::{Test, Thread, Stmt, AddrExpr, Expr, Condition};
///
/// let mut test = Test::new("store-only");
/// test.init_int("x", 0);
/// test.threads.push(Thread::new(vec![Stmt::WriteOnce {
///     addr: AddrExpr::Var("x".into()),
///     value: Expr::Const(1),
/// }]));
/// test.condition = Condition::exists_true();
/// assert_eq!(test.shared_locations(), vec!["x".to_string()]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Test {
    /// Test name, e.g. `"MP+wmb+rmb"`.
    pub name: String,
    /// Initial values of shared locations. Locations mentioned in the code
    /// but absent here default to `0`.
    pub init: BTreeMap<String, InitVal>,
    /// One entry per hardware thread, in `P0, P1, …` order.
    pub threads: Vec<Thread>,
    /// The final-state question.
    pub condition: Condition,
}

impl Test {
    /// An empty test with a trivially-true `exists` condition.
    pub fn new(name: impl Into<String>) -> Self {
        Test {
            name: name.into(),
            init: BTreeMap::new(),
            threads: Vec::new(),
            condition: Condition::exists_true(),
        }
    }

    /// Set the initial integer value of a shared location.
    pub fn init_int(&mut self, loc: impl Into<String>, v: i64) -> &mut Self {
        self.init.insert(loc.into(), InitVal::Int(v));
        self
    }

    /// Initialise a shared location to point at another shared location.
    pub fn init_ptr(&mut self, loc: impl Into<String>, target: impl Into<String>) -> &mut Self {
        self.init.insert(loc.into(), InitVal::Ptr(target.into()));
        self
    }

    /// All shared locations referenced by the test (init keys plus every
    /// location appearing in any thread body or pointer initialiser),
    /// sorted and deduplicated.
    pub fn shared_locations(&self) -> Vec<String> {
        let mut locs: Vec<&str> = self.init.keys().map(String::as_str).collect();
        for v in self.init.values() {
            if let InitVal::Ptr(t) = v {
                locs.push(t);
            }
        }
        for t in &self.threads {
            collect_locs_stmts(&t.body, &mut locs);
        }
        locs.sort_unstable();
        locs.dedup();
        locs.into_iter().map(str::to_string).collect()
    }

    /// Render the test in the standard `C`-litmus file format, re-parseable
    /// by [`crate::parse`].
    pub fn to_litmus_string(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "C {}\n\n{{\n", self.name);
        for (k, v) in &self.init {
            match v {
                InitVal::Int(i) => {
                    let _ = writeln!(out, "{k}={i};");
                }
                InitVal::Ptr(t) => {
                    let _ = writeln!(out, "{k}=&{t};");
                }
            }
        }
        out.push_str("}\n\n");
        let locs = self.shared_locations();
        for (i, t) in self.threads.iter().enumerate() {
            let _ = write!(out, "P{i}(");
            for (j, l) in locs.iter().enumerate() {
                out.push_str(if j == 0 { "int *" } else { ", int *" });
                out.push_str(l);
            }
            out.push_str(")\n{\n");
            let mut regs: Vec<&str> = Vec::new();
            collect_regs_stmts(&t.body, &mut regs);
            regs.sort_unstable();
            regs.dedup();
            for r in regs {
                let _ = writeln!(out, "\tint {r};");
            }
            for s in &t.body {
                fmt_stmt(s, 1, &AsWritten, &mut out);
            }
            out.push_str("}\n\n");
        }
        let _ = writeln!(out, "{}", self.condition);
        out
    }
}

/// Initial value of a shared location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitVal {
    /// A plain integer.
    Int(i64),
    /// The address of another shared location (`p = &x;`).
    Ptr(String),
}

/// One thread of a litmus test.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Thread {
    /// Statements executed in program order.
    pub body: Vec<Stmt>,
}

impl Thread {
    /// A thread with the given body.
    pub fn new(body: Vec<Stmt>) -> Self {
        Thread { body }
    }
}

/// Memory-ordering variant of a read-modify-write primitive (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RmwOrder {
    /// `xchg_relaxed()`: `R[once], W[once]`.
    Relaxed,
    /// `xchg_acquire()`: `R[acquire], W[once]`.
    Acquire,
    /// `xchg_release()`: `R[once], W[release]`.
    Release,
    /// `xchg()`: `F[mb], R[once], W[once], F[mb]`.
    Full,
}

/// Fence statements (Tables 3 and 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// `smp_rmb()` — orders reads.
    Rmb,
    /// `smp_wmb()` — orders writes.
    Wmb,
    /// `smp_mb()` — full fence, "restores SC".
    Mb,
    /// `smp_read_barrier_depends()` — orders dependent reads (Alpha).
    RbDep,
    /// `rcu_read_lock()` — opens a read-side critical section.
    RcuLock,
    /// `rcu_read_unlock()` — closes a read-side critical section.
    RcuUnlock,
    /// `synchronize_rcu()` — a grace period.
    SyncRcu,
}

impl FenceKind {
    /// The litmus-source spelling of the primitive.
    pub fn as_primitive(self) -> &'static str {
        match self {
            FenceKind::Rmb => "smp_rmb",
            FenceKind::Wmb => "smp_wmb",
            FenceKind::Mb => "smp_mb",
            FenceKind::RbDep => "smp_read_barrier_depends",
            FenceKind::RcuLock => "rcu_read_lock",
            FenceKind::RcuUnlock => "rcu_read_unlock",
            FenceKind::SyncRcu => "synchronize_rcu",
        }
    }
}

/// Which value an arithmetic RMW returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicDst {
    /// `atomic_fetch_add()` returns the value before the update.
    Old,
    /// `atomic_add_return()` returns the value after the update.
    New,
}

/// Where a memory access goes: a named shared location or a pointer held in
/// a register (the source of *address dependencies*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddrExpr {
    /// A fixed shared location, e.g. `*x`.
    Var(String),
    /// Deref of a register holding a pointer, e.g. `*r1`.
    Reg(String),
}

/// Pure expressions over registers and constants (the source of *data
/// dependencies*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Register read.
    Reg(String),
    /// Address-of a shared location: `&x`.
    LocRef(String),
    /// Binary arithmetic / comparison.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation `!e`.
    Not(Box<Expr>),
}

impl Expr {
    /// `a ⊕ b` convenience constructor.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Registers read by this expression (dependency sources).
    pub fn regs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_regs(&mut out);
        out
    }

    fn collect_regs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Const(_) | Expr::LocRef(_) => {}
            Expr::Reg(r) => out.push(r),
            Expr::Bin(_, a, b) => {
                a.collect_regs(out);
                b.collect_regs(out);
            }
            Expr::Not(e) => e.collect_regs(out),
        }
    }
}

/// Binary operators usable in litmus expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Xor,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Statements of the LK litmus dialect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `dst = READ_ONCE(*addr);` → `R[once]`.
    ReadOnce { dst: String, addr: AddrExpr },
    /// `WRITE_ONCE(*addr, value);` → `W[once]`.
    WriteOnce { addr: AddrExpr, value: Expr },
    /// `dst = smp_load_acquire(addr);` → `R[acquire]`.
    LoadAcquire { dst: String, addr: AddrExpr },
    /// `smp_store_release(addr, value);` → `W[release]`.
    StoreRelease { addr: AddrExpr, value: Expr },
    /// `dst = rcu_dereference(*addr);` → `R[once], F[rb-dep]` (Table 4).
    RcuDereference { dst: String, addr: AddrExpr },
    /// `rcu_assign_pointer(*addr, value);` → `W[release]` (Table 4).
    RcuAssignPointer { addr: AddrExpr, value: Expr },
    /// A fence primitive.
    Fence(FenceKind),
    /// `dst = xchg*(addr, value);` — read-modify-write storing `value`.
    Xchg { order: RmwOrder, dst: String, addr: AddrExpr, value: Expr },
    /// `dst = cmpxchg*(addr, expected, new);` — conditional RMW; `dst`
    /// receives the old value; the write happens only when it equals
    /// `expected`.
    CmpXchg { order: RmwOrder, dst: String, addr: AddrExpr, expected: Expr, new: Expr },
    /// Arithmetic read-modify-write (the kernel's `atomic_add_return`
    /// family, \[69\]): reads the old value, writes `old ⊕ operand`, and
    /// optionally returns the old (`fetch`) or new (`return`) value.
    /// Like `xchg`, the `*_return`/`*_fetch` forms without a suffix are
    /// fully ordered; void `atomic_add`-style ops are always relaxed.
    AtomicOp {
        order: RmwOrder,
        /// Receiving register and whether it takes the old or new value;
        /// `None` for the void forms (`atomic_add(i, v)`).
        dst: Option<(String, AtomicDst)>,
        addr: AddrExpr,
        op: BinOp,
        operand: Expr,
    },
    /// Register-only computation `dst = value;`.
    Assign { dst: String, value: Expr },
    /// `if (cond) { then_ } else { else_ }` — reads feeding `cond` acquire
    /// control dependencies to the events inside both branches.
    If { cond: Expr, then_: Vec<Stmt>, else_: Vec<Stmt> },
    /// `__assume(cond);` — constrains enumeration to executions where
    /// `cond` holds at this point; oracle branches violating it are
    /// discarded as unrealisable. Used to model loops that run until a
    /// condition flips (e.g. the Figure 15 grace-period wait loops): the
    /// modelled iteration is the final one, whose exit condition holds.
    Assume(Expr),
    /// `srcu_read_lock(ss);` — opens a read-side critical section of the
    /// SRCU domain named by `domain` (sleepable RCU; grace periods of
    /// different domains are independent).
    SrcuReadLock { domain: AddrExpr },
    /// `srcu_read_unlock(ss);` — closes the innermost section of the
    /// domain.
    SrcuReadUnlock { domain: AddrExpr },
    /// `synchronize_srcu(ss);` — a grace period of the domain.
    SynchronizeSrcu { domain: AddrExpr },
    /// `spin_lock(addr);` — emulated as an acquire-RMW on the lock word
    /// (paper §7).
    SpinLock { addr: AddrExpr },
    /// `spin_unlock(addr);` — emulated as a store-release of 0 (paper §7).
    SpinUnlock { addr: AddrExpr },
}

/// Every shared location a statement list names (`*x` or `&x`), in
/// statement-traversal order, repeats included.
pub(crate) fn collect_locs_stmts<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a str>) {
    for s in stmts {
        let mut addr = |a: &'a AddrExpr| {
            if let AddrExpr::Var(v) = a {
                out.push(v);
            }
        };
        match s {
            Stmt::ReadOnce { addr: a, .. }
            | Stmt::LoadAcquire { addr: a, .. }
            | Stmt::RcuDereference { addr: a, .. }
            | Stmt::SrcuReadLock { domain: a }
            | Stmt::SrcuReadUnlock { domain: a }
            | Stmt::SynchronizeSrcu { domain: a }
            | Stmt::SpinLock { addr: a }
            | Stmt::SpinUnlock { addr: a } => addr(a),
            Stmt::WriteOnce { addr: a, value }
            | Stmt::StoreRelease { addr: a, value }
            | Stmt::RcuAssignPointer { addr: a, value }
            | Stmt::Xchg { addr: a, value, .. } => {
                addr(a);
                collect_locs_expr(value, out);
            }
            Stmt::CmpXchg { addr: a, expected, new, .. } => {
                addr(a);
                collect_locs_expr(expected, out);
                collect_locs_expr(new, out);
            }
            Stmt::AtomicOp { addr: a, operand, .. } => {
                addr(a);
                collect_locs_expr(operand, out);
            }
            Stmt::Assign { value, .. } | Stmt::Assume(value) => collect_locs_expr(value, out),
            Stmt::Fence(_) => {}
            Stmt::If { cond, then_, else_ } => {
                collect_locs_expr(cond, out);
                collect_locs_stmts(then_, out);
                collect_locs_stmts(else_, out);
            }
        }
    }
}

fn collect_locs_expr<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match e {
        Expr::LocRef(l) => out.push(l),
        Expr::Bin(_, a, b) => {
            collect_locs_expr(a, out);
            collect_locs_expr(b, out);
        }
        Expr::Not(e) => collect_locs_expr(e, out),
        Expr::Const(_) | Expr::Reg(_) => {}
    }
}

/// Every register a statement list reads or fills, in statement-traversal
/// order, repeats included. A register used only as a lock or SRCU
/// domain address is not collected.
pub(crate) fn collect_regs_stmts<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a str>) {
    for s in stmts {
        match s {
            Stmt::ReadOnce { dst, addr }
            | Stmt::LoadAcquire { dst, addr }
            | Stmt::RcuDereference { dst, addr } => {
                out.push(dst);
                if let AddrExpr::Reg(r) = addr {
                    out.push(r);
                }
            }
            Stmt::WriteOnce { addr, value }
            | Stmt::StoreRelease { addr, value }
            | Stmt::RcuAssignPointer { addr, value } => {
                if let AddrExpr::Reg(r) = addr {
                    out.push(r);
                }
                out.extend(value.regs());
            }
            Stmt::Xchg { dst, addr, value, .. } => {
                out.push(dst);
                if let AddrExpr::Reg(r) = addr {
                    out.push(r);
                }
                out.extend(value.regs());
            }
            Stmt::CmpXchg { dst, addr, expected, new, .. } => {
                out.push(dst);
                if let AddrExpr::Reg(r) = addr {
                    out.push(r);
                }
                out.extend(expected.regs());
                out.extend(new.regs());
            }
            Stmt::AtomicOp { dst, addr, operand, .. } => {
                if let Some((d, _)) = dst {
                    out.push(d);
                }
                if let AddrExpr::Reg(r) = addr {
                    out.push(r);
                }
                out.extend(operand.regs());
            }
            Stmt::Assign { dst, value } => {
                out.push(dst);
                out.extend(value.regs());
            }
            Stmt::Assume(value) => out.extend(value.regs()),
            Stmt::Fence(_)
            | Stmt::SpinLock { .. }
            | Stmt::SpinUnlock { .. }
            | Stmt::SrcuReadLock { .. }
            | Stmt::SrcuReadUnlock { .. }
            | Stmt::SynchronizeSrcu { .. } => {}
            Stmt::If { cond, then_, else_ } => {
                out.extend(cond.regs());
                collect_regs_stmts(then_, out);
                collect_regs_stmts(else_, out);
            }
        }
    }
}

/// How the printer spells the names a test mentions.
///
/// [`Test::to_litmus_string`] prints every name as written
/// ([`AsWritten`]). A canonicaliser prints the same statements under
/// other names (`x0`, `r0`, …) through its own spelling, into its own
/// buffer, without building a renamed copy of the test.
pub trait Spelling {
    /// Append the spelling of shared location `name`.
    fn loc(&self, name: &str, out: &mut String);
    /// Append the spelling of register `name`.
    fn reg(&self, name: &str, out: &mut String);
}

/// The identity [`Spelling`]: every name as written.
pub struct AsWritten;

impl Spelling for AsWritten {
    fn loc(&self, name: &str, out: &mut String) {
        out.push_str(name);
    }

    fn reg(&self, name: &str, out: &mut String) {
        out.push_str(name);
    }
}

fn fmt_addr(a: &AddrExpr, names: &impl Spelling, out: &mut String) {
    out.push('*');
    match a {
        AddrExpr::Var(v) => names.loc(v, out),
        AddrExpr::Reg(r) => names.reg(r, out),
    }
}

fn fmt_expr(e: &Expr, names: &impl Spelling, out: &mut String) {
    match e {
        Expr::Const(c) => {
            let _ = write!(out, "{c}");
        }
        Expr::Reg(r) => names.reg(r, out),
        Expr::LocRef(l) => {
            out.push('&');
            names.loc(l, out);
        }
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Xor => " ^ ",
                BinOp::And => " & ",
                BinOp::Or => " | ",
                BinOp::Eq => " == ",
                BinOp::Ne => " != ",
                BinOp::Lt => " < ",
                BinOp::Le => " <= ",
                BinOp::Gt => " > ",
                BinOp::Ge => " >= ",
            };
            out.push('(');
            fmt_expr(a, names, out);
            out.push_str(sym);
            fmt_expr(b, names, out);
            out.push(')');
        }
        Expr::Not(e) => {
            out.push_str("!(");
            fmt_expr(e, names, out);
            out.push(')');
        }
    }
}

/// `{tab}{dst} = ` — the head of every statement that fills a register.
fn fmt_dst(depth: usize, dst: &str, names: &impl Spelling, out: &mut String) {
    fmt_tab(depth, out);
    names.reg(dst, out);
    out.push_str(" = ");
}

fn fmt_tab(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push('\t');
    }
}

/// `{call}({addr});` or `{call}({addr}, {value});`, closing the line.
fn fmt_call(
    call: &str,
    addr: &AddrExpr,
    value: Option<&Expr>,
    names: &impl Spelling,
    out: &mut String,
) {
    out.push_str(call);
    out.push('(');
    fmt_addr(addr, names, out);
    if let Some(v) = value {
        out.push_str(", ");
        fmt_expr(v, names, out);
    }
    out.push_str(");\n");
}

/// Print one statement in the litmus source syntax, indented by `depth`
/// tabs and ending in a newline, spelling every name through `names`.
/// The only statement printer: [`Test::to_litmus_string`] and the
/// canonical form both print through it.
pub fn fmt_stmt(s: &Stmt, depth: usize, names: &impl Spelling, out: &mut String) {
    match s {
        Stmt::ReadOnce { dst, addr } => {
            fmt_dst(depth, dst, names, out);
            fmt_call("READ_ONCE", addr, None, names, out);
        }
        Stmt::WriteOnce { addr, value } => {
            fmt_tab(depth, out);
            fmt_call("WRITE_ONCE", addr, Some(value), names, out);
        }
        Stmt::LoadAcquire { dst, addr } => {
            fmt_dst(depth, dst, names, out);
            fmt_call("smp_load_acquire", addr, None, names, out);
        }
        Stmt::StoreRelease { addr, value } => {
            fmt_tab(depth, out);
            fmt_call("smp_store_release", addr, Some(value), names, out);
        }
        Stmt::RcuDereference { dst, addr } => {
            fmt_dst(depth, dst, names, out);
            fmt_call("rcu_dereference", addr, None, names, out);
        }
        Stmt::RcuAssignPointer { addr, value } => {
            fmt_tab(depth, out);
            fmt_call("rcu_assign_pointer", addr, Some(value), names, out);
        }
        Stmt::Fence(k) => {
            fmt_tab(depth, out);
            out.push_str(k.as_primitive());
            out.push_str("();\n");
        }
        Stmt::Xchg { order, dst, addr, value } => {
            let f = match order {
                RmwOrder::Relaxed => "xchg_relaxed",
                RmwOrder::Acquire => "xchg_acquire",
                RmwOrder::Release => "xchg_release",
                RmwOrder::Full => "xchg",
            };
            fmt_dst(depth, dst, names, out);
            fmt_call(f, addr, Some(value), names, out);
        }
        Stmt::CmpXchg { order, dst, addr, expected, new } => {
            let f = match order {
                RmwOrder::Relaxed => "cmpxchg_relaxed",
                RmwOrder::Acquire => "cmpxchg_acquire",
                RmwOrder::Release => "cmpxchg_release",
                RmwOrder::Full => "cmpxchg",
            };
            fmt_dst(depth, dst, names, out);
            out.push_str(f);
            out.push('(');
            fmt_addr(addr, names, out);
            out.push_str(", ");
            fmt_expr(expected, names, out);
            out.push_str(", ");
            fmt_expr(new, names, out);
            out.push_str(");\n");
        }
        Stmt::AtomicOp { order, dst, addr, op, operand } => {
            let opname = match op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::And => "and",
                BinOp::Or => "or",
                BinOp::Xor => "xor",
                _ => "add",
            };
            let suffix = match order {
                RmwOrder::Relaxed => "_relaxed",
                RmwOrder::Acquire => "_acquire",
                RmwOrder::Release => "_release",
                RmwOrder::Full => "",
            };
            match dst {
                None => {
                    fmt_tab(depth, out);
                    out.push_str("atomic_");
                    out.push_str(opname);
                }
                Some((d, which)) => {
                    fmt_dst(depth, d, names, out);
                    match which {
                        AtomicDst::New => {
                            out.push_str("atomic_");
                            out.push_str(opname);
                            out.push_str("_return");
                        }
                        AtomicDst::Old => {
                            out.push_str("atomic_fetch_");
                            out.push_str(opname);
                        }
                    }
                    out.push_str(suffix);
                }
            }
            out.push('(');
            fmt_expr(operand, names, out);
            out.push_str(", ");
            fmt_addr(addr, names, out);
            out.push_str(");\n");
        }
        Stmt::Assign { dst, value } => {
            fmt_dst(depth, dst, names, out);
            fmt_expr(value, names, out);
            out.push_str(";\n");
        }
        Stmt::Assume(cond) => {
            fmt_tab(depth, out);
            out.push_str("__assume(");
            fmt_expr(cond, names, out);
            out.push_str(");\n");
        }
        Stmt::If { cond, then_, else_ } => {
            fmt_tab(depth, out);
            out.push_str("if (");
            fmt_expr(cond, names, out);
            out.push_str(") {\n");
            for s in then_ {
                fmt_stmt(s, depth + 1, names, out);
            }
            fmt_tab(depth, out);
            if else_.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_ {
                    fmt_stmt(s, depth + 1, names, out);
                }
                fmt_tab(depth, out);
                out.push_str("}\n");
            }
        }
        Stmt::SrcuReadLock { domain } => {
            fmt_tab(depth, out);
            fmt_call("srcu_read_lock", domain, None, names, out);
        }
        Stmt::SrcuReadUnlock { domain } => {
            fmt_tab(depth, out);
            fmt_call("srcu_read_unlock", domain, None, names, out);
        }
        Stmt::SynchronizeSrcu { domain } => {
            fmt_tab(depth, out);
            fmt_call("synchronize_srcu", domain, None, names, out);
        }
        Stmt::SpinLock { addr } => {
            fmt_tab(depth, out);
            fmt_call("spin_lock", addr, None, names, out);
        }
        Stmt::SpinUnlock { addr } => {
            fmt_tab(depth, out);
            fmt_call("spin_unlock", addr, None, names, out);
        }
    }
}

impl fmt::Display for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_litmus_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locations_gathers_init_body_and_ptr_targets() {
        let mut t = Test::new("t");
        t.init_ptr("p", "x");
        t.threads.push(Thread::new(vec![Stmt::WriteOnce {
            addr: AddrExpr::Var("y".into()),
            value: Expr::Const(1),
        }]));
        assert_eq!(t.shared_locations(), vec!["p", "x", "y"]);
    }

    #[test]
    fn expr_regs_collects_nested() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Reg("r1".into()),
            Expr::Not(Box::new(Expr::Reg("r2".into()))),
        );
        assert_eq!(e.regs(), vec!["r1", "r2"]);
    }

    #[test]
    fn fence_primitive_names() {
        assert_eq!(FenceKind::Mb.as_primitive(), "smp_mb");
        assert_eq!(FenceKind::SyncRcu.as_primitive(), "synchronize_rcu");
    }
}
