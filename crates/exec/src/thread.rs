//! Concrete per-thread execution under a read oracle.
//!
//! A thread of a lowered [`Program`] is run with an *oracle*: a list of
//! values that successive reads return. Registers are slots by id and
//! locations are indices, as [`crate::lower`] resolved them. Dependencies
//! are tracked by tainting register values with the set of read events
//! they derive from — exactly the address, data and control dependency
//! relations of the paper (§2).

use crate::event::{EventKind, LocId, ReadAnnot, SrcuKind, Val, WriteAnnot};
use crate::lower::{
    atomic_result, binop, Addr, BlockId, LExpr, LStmt, Node, Program, ThreadCode,
};
use lkmm_litmus::ast::{FenceKind, RmwOrder};
use std::collections::BTreeSet;

/// An event emitted by a thread, with *local* (per-thread) indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalEvent {
    pub kind: EventKind,
}

/// Dependency edges between local event indices.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct LocalDeps {
    pub addr: Vec<(usize, usize)>,
    pub data: Vec<(usize, usize)>,
    pub ctrl: Vec<(usize, usize)>,
    pub rmw: Vec<(usize, usize)>,
}

/// The result of running one thread to completion under an oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadOutcome {
    /// Events in program order.
    pub events: Vec<LocalEvent>,
    /// Dependency edges (local indices into `events`).
    pub deps: LocalDeps,
    /// Final register values, by register id; `None` for a register the
    /// run never wrote.
    pub final_regs: Vec<Option<Val>>,
    /// The oracle prefix actually consumed (one entry per read executed).
    pub oracle_used: Vec<Val>,
}

/// Why a thread run did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThreadStop {
    /// The oracle ran out: the next read is of this location. The caller
    /// should extend the oracle with each value in the location's domain —
    /// or, if no other thread writes the location, with exactly
    /// `last_local_write` (the value is deterministic under per-location
    /// coherence: a read may not see a po-later own write, nor skip back
    /// over a po-earlier one).
    NeedValue {
        loc: LocId,
        /// Value of this thread's latest program-order-earlier write to
        /// `loc`, if any.
        last_local_write: Option<Val>,
    },
    /// The branch is semantically stuck (e.g. an integer was dereferenced);
    /// the oracle assignment is unrealisable and should be dropped.
    Stuck(String),
}

/// Run thread `tid` of `prog` under `oracle`.
///
/// Returns the completed outcome, or [`ThreadStop::NeedValue`] when the
/// oracle is too short, or [`ThreadStop::Stuck`] for unrealisable branches.
///
/// # Examples
///
/// ```
/// use lkmm_exec::lower::Program;
/// use lkmm_exec::thread::{run_thread, ThreadStop};
/// use lkmm_exec::event::Val;
/// use lkmm_litmus::parse;
///
/// let t = parse("C t\n{ x=0; }\nP0(int *x) { int r; r = READ_ONCE(*x); }\nexists (0:r=0)")
///     .unwrap();
/// let prog = Program::lower(&t);
/// // Empty oracle: the read needs a value.
/// assert!(matches!(run_thread(&prog, 0, &[]), Err(ThreadStop::NeedValue { .. })));
/// // With a value the thread completes.
/// let out = run_thread(&prog, 0, &[Val::Int(7)]).unwrap();
/// assert_eq!(out.final_regs[prog.reg(0, "r").unwrap() as usize], Some(Val::Int(7)));
/// ```
pub fn run_thread(
    prog: &Program,
    tid: usize,
    oracle: &[Val],
) -> Result<ThreadOutcome, ThreadStop> {
    let code = &prog.threads[tid];
    let mut st = ThreadState {
        prog,
        code,
        oracle,
        next_oracle: 0,
        regs: vec![None; code.names.len()],
        events: Vec::new(),
        deps: LocalDeps::default(),
        ctrl_taint: Vec::new(),
        local_writes: vec![None; prog.locs.len()],
    };
    st.run_block(code.body)?;
    Ok(ThreadOutcome {
        events: st.events,
        deps: st.deps,
        final_regs: st.regs.into_iter().map(|r| r.map(|tv| tv.val)).collect(),
        oracle_used: oracle[..st.next_oracle].to_vec(),
    })
}

/// A value plus the set of (local indices of) read events it derives from.
#[derive(Clone, Debug)]
struct Tainted {
    val: Val,
    taint: BTreeSet<usize>,
}

struct ThreadState<'a> {
    prog: &'a Program,
    code: &'a ThreadCode,
    oracle: &'a [Val],
    next_oracle: usize,
    /// Register slots, by id.
    regs: Vec<Option<Tainted>>,
    events: Vec<LocalEvent>,
    deps: LocalDeps,
    /// Stack of control-dependency sources: reads feeding enclosing `if`s.
    ctrl_taint: Vec<BTreeSet<usize>>,
    /// Latest value written to each location by this thread.
    local_writes: Vec<Option<Val>>,
}

/// Table 3: a fully ordered RMW is `F[mb], R, W, F[mb]`; the lighter
/// variants annotate the read (acquire) or the write (release).
fn rmw_annots(order: RmwOrder) -> (ReadAnnot, WriteAnnot, bool) {
    match order {
        RmwOrder::Relaxed => (ReadAnnot::Once, WriteAnnot::Once, false),
        RmwOrder::Acquire => (ReadAnnot::Acquire, WriteAnnot::Once, false),
        RmwOrder::Release => (ReadAnnot::Once, WriteAnnot::Release, false),
        RmwOrder::Full => (ReadAnnot::Once, WriteAnnot::Once, true),
    }
}

impl ThreadState<'_> {
    fn run_block(&mut self, block: BlockId) -> Result<(), ThreadStop> {
        let code = self.code;
        for stmt in code.block(block) {
            self.run_stmt(stmt)?;
        }
        Ok(())
    }

    fn emit(&mut self, kind: EventKind) -> usize {
        let idx = self.events.len();
        self.events.push(LocalEvent { kind });
        // Control dependencies from every enclosing branch condition.
        let sources: BTreeSet<usize> =
            self.ctrl_taint.iter().flat_map(|s| s.iter().copied()).collect();
        for src in sources {
            self.deps.ctrl.push((src, idx));
        }
        idx
    }

    fn reg(&self, reg: u32) -> Result<&Tainted, ThreadStop> {
        self.regs[reg as usize].as_ref().ok_or_else(|| {
            ThreadStop::Stuck(format!("uninitialised register {}", self.code.names[reg as usize]))
        })
    }

    fn resolve_addr(&self, addr: Addr) -> Result<(LocId, BTreeSet<usize>), ThreadStop> {
        match addr {
            Addr::Loc(l) => Ok((LocId(l as usize), BTreeSet::new())),
            Addr::Reg(r) => {
                let tv = self.reg(r)?;
                match tv.val {
                    Val::Loc(l) => Ok((l, tv.taint.clone())),
                    Val::Int(i) => Err(ThreadStop::Stuck(format!("dereferencing integer {i}"))),
                }
            }
        }
    }

    fn eval(&self, e: LExpr) -> Result<Tainted, ThreadStop> {
        self.eval_node(e.root)
    }

    fn eval_node(&self, node: u32) -> Result<Tainted, ThreadStop> {
        match self.prog.exprs[node as usize] {
            Node::Const(c) => Ok(Tainted { val: Val::Int(c), taint: BTreeSet::new() }),
            Node::Loc(l) => {
                Ok(Tainted { val: Val::Loc(LocId(l as usize)), taint: BTreeSet::new() })
            }
            Node::Reg { reg, .. } => self.reg(reg).cloned(),
            Node::Not(inner) => {
                let t = self.eval_node(inner)?;
                Ok(Tainted { val: Val::Int(i64::from(!t.val.truthy())), taint: t.taint })
            }
            Node::Bin(op, a, b) => {
                let ta = self.eval_node(a)?;
                let tb = self.eval_node(b)?;
                let val = binop(op, ta.val, tb.val).ok_or_else(|| {
                    ThreadStop::Stuck("pointer arithmetic is not modelled".into())
                })?;
                Ok(Tainted { val, taint: ta.taint.union(&tb.taint).copied().collect() })
            }
        }
    }

    fn next_read_value(&mut self, loc: LocId) -> Result<Val, ThreadStop> {
        match self.oracle.get(self.next_oracle) {
            Some(&v) => {
                self.next_oracle += 1;
                Ok(v)
            }
            None => Err(ThreadStop::NeedValue {
                loc,
                last_local_write: self.local_writes[loc.0],
            }),
        }
    }

    /// Emit a read of `loc` with its address dependencies.
    fn read(
        &mut self,
        loc: LocId,
        addr_taint: &BTreeSet<usize>,
        annot: ReadAnnot,
    ) -> Result<(usize, Val), ThreadStop> {
        let val = self.next_read_value(loc)?;
        let idx = self.emit(EventKind::Read { loc, val, annot });
        for src in addr_taint {
            self.deps.addr.push((*src, idx));
        }
        Ok((idx, val))
    }

    /// Emit a write of `val` to `loc` with its address dependencies.
    fn write(
        &mut self,
        loc: LocId,
        addr_taint: &BTreeSet<usize>,
        val: Val,
        annot: WriteAnnot,
    ) -> usize {
        let idx = self.emit(EventKind::Write { loc, val, annot, is_init: false });
        self.local_writes[loc.0] = Some(val);
        for src in addr_taint {
            self.deps.addr.push((*src, idx));
        }
        idx
    }

    fn run_stmt(&mut self, stmt: &LStmt) -> Result<(), ThreadStop> {
        match *stmt {
            LStmt::Load { dst, addr, acquire, deref } => {
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let annot = if acquire { ReadAnnot::Acquire } else { ReadAnnot::Once };
                let (r, val) = self.read(loc, &addr_taint, annot)?;
                self.regs[dst as usize] = Some(Tainted { val, taint: BTreeSet::from([r]) });
                if deref {
                    // Table 4: rcu_dereference is R[once] followed by
                    // F[rb-dep].
                    self.emit(EventKind::Fence(FenceKind::RbDep));
                }
            }
            LStmt::Store { addr, value, release } => {
                // Table 4: rcu_assign_pointer is W[release].
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let tv = self.eval(value)?;
                let annot = if release { WriteAnnot::Release } else { WriteAnnot::Once };
                let w = self.write(loc, &addr_taint, tv.val, annot);
                for src in &tv.taint {
                    self.deps.data.push((*src, w));
                }
            }
            LStmt::Fence(kind) => {
                self.emit(EventKind::Fence(kind));
            }
            LStmt::Rmw { order, dst, addr, value, expected, compute, dst_new } => {
                let (rannot, wannot, fenced) = rmw_annots(order);
                let expected = expected.map(|e| self.eval(e)).transpose()?;
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let (r, old) = self.read(loc, &addr_taint, rannot)?;
                let mut new = old;
                // A failing cmpxchg writes nothing.
                if expected.is_none_or(|e| e.val == old) {
                    let operand = self.eval(value)?;
                    new = match compute {
                        None => operand.val,
                        Some(op) => {
                            let (Some(x), Some(y)) = (old.as_int(), operand.val.as_int())
                            else {
                                return Err(ThreadStop::Stuck(
                                    "atomic arithmetic on pointer".into(),
                                ));
                            };
                            Val::Int(atomic_result(op, x, y).ok_or_else(|| {
                                ThreadStop::Stuck("unsupported atomic op".into())
                            })?)
                        }
                    };
                    let w = self.write(loc, &addr_taint, new, wannot);
                    self.deps.rmw.push((r, w));
                    // An arithmetic atomic's written value depends on
                    // its read as well as on its operand.
                    if compute.is_some() {
                        self.deps.data.push((r, w));
                    }
                    for src in &operand.taint {
                        self.deps.data.push((*src, w));
                    }
                }
                if let Some(d) = dst {
                    let val = if dst_new { new } else { old };
                    self.regs[d as usize] = Some(Tainted { val, taint: BTreeSet::from([r]) });
                }
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
            }
            LStmt::Assign { dst, value } => {
                self.regs[dst as usize] = Some(self.eval(value)?);
            }
            LStmt::Assume(cond) => {
                if !self.eval(cond)?.val.truthy() {
                    return Err(ThreadStop::Stuck("assumption failed".into()));
                }
            }
            LStmt::If { cond, then_, else_ } => {
                let c = self.eval(cond)?;
                let block = if c.val.truthy() { then_ } else { else_ };
                self.ctrl_taint.push(c.taint);
                let result = self.run_block(block);
                self.ctrl_taint.pop();
                result?;
            }
            LStmt::SrcuLock(domain) | LStmt::SrcuUnlock(domain) | LStmt::SyncSrcu(domain) => {
                let (loc, _taint) = self.resolve_addr(domain)?;
                let kind = match stmt {
                    LStmt::SrcuLock(_) => SrcuKind::Lock,
                    LStmt::SrcuUnlock(_) => SrcuKind::Unlock,
                    _ => SrcuKind::Sync,
                };
                self.emit(EventKind::Srcu { kind, domain: loc });
            }
            LStmt::SpinLock(addr) => {
                // §7: behaves like xchg_acquire that must observe the lock
                // free — the read value is pinned to 0 (the final,
                // successful loop iteration is the one modelled).
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let r = self.emit(EventKind::Read {
                    loc,
                    val: Val::Int(0),
                    annot: ReadAnnot::Acquire,
                });
                for src in &addr_taint {
                    self.deps.addr.push((*src, r));
                }
                let w = self.write(loc, &addr_taint, Val::Int(1), WriteAnnot::Once);
                self.deps.rmw.push((r, w));
            }
            LStmt::SpinUnlock(addr) => {
                // §7: behaves like smp_store_release of 0.
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                self.write(loc, &addr_taint, Val::Int(0), WriteAnnot::Release);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::parse;

    fn body_of(src: &str) -> Program {
        Program::lower(&parse(src).unwrap())
    }

    #[test]
    fn data_dependency_via_register_move() {
        let prog = body_of(
            "C t\n{ x=0; y=0; }\nP0(int *x, int *y) { int r; int s; \
             r = READ_ONCE(*x); s = r + 1; WRITE_ONCE(*y, s); }\nexists (y=1)",
        );
        let out = run_thread(&prog, 0, &[Val::Int(4)]).unwrap();
        assert_eq!(out.events.len(), 2);
        assert_eq!(out.deps.data, vec![(0, 1)]);
        assert_eq!(out.final_regs[prog.reg(0, "s").unwrap() as usize], Some(Val::Int(5)));
        match out.events[1].kind {
            EventKind::Write { val, .. } => assert_eq!(val, Val::Int(5)),
            _ => panic!("expected write"),
        }
    }

    #[test]
    fn address_dependency_via_pointer() {
        let prog = body_of(
            "C t\n{ p=&x; x=0; }\nP0(int **p, int *x) { int *r; int s; \
             r = READ_ONCE(*p); s = READ_ONCE(*r); }\nexists (0:s=0)",
        );
        let x = prog.loc("x").unwrap();
        let out = run_thread(&prog, 0, &[Val::Loc(x), Val::Int(0)]).unwrap();
        assert_eq!(out.deps.addr, vec![(0, 1)]);
    }

    #[test]
    fn control_dependency_covers_branch_body_only() {
        let prog = body_of(
            "C t\n{ x=0; y=0; z=0; }\nP0(int *x, int *y, int *z) { int r; \
             r = READ_ONCE(*x); if (r == 1) { WRITE_ONCE(*y, 1); } WRITE_ONCE(*z, 1); }\n\
             exists (y=1)",
        );
        let out = run_thread(&prog, 0, &[Val::Int(1)]).unwrap();
        // Events: read x, write y (in branch), write z (after join).
        assert_eq!(out.events.len(), 3);
        assert_eq!(out.deps.ctrl, vec![(0, 1)]);
    }

    #[test]
    fn untaken_branch_emits_no_events() {
        let prog = body_of(
            "C t\n{ x=0; y=0; }\nP0(int *x, int *y) { int r; \
             r = READ_ONCE(*x); if (r == 1) { WRITE_ONCE(*y, 1); } }\nexists (y=1)",
        );
        let out = run_thread(&prog, 0, &[Val::Int(0)]).unwrap();
        assert_eq!(out.events.len(), 1);
        assert!(out.deps.ctrl.is_empty());
    }

    #[test]
    fn xchg_full_emits_fences_and_rmw() {
        let prog = body_of(
            "C t\n{ x=0; }\nP0(int *x) { int r; r = xchg(x, 5); }\nexists (0:r=0)",
        );
        let out = run_thread(&prog, 0, &[Val::Int(0)]).unwrap();
        // F[mb], R, W, F[mb]
        assert_eq!(out.events.len(), 4);
        assert!(matches!(out.events[0].kind, EventKind::Fence(FenceKind::Mb)));
        assert!(matches!(out.events[3].kind, EventKind::Fence(FenceKind::Mb)));
        assert_eq!(out.deps.rmw, vec![(1, 2)]);
    }

    #[test]
    fn cmpxchg_failure_has_no_write() {
        let prog = body_of(
            "C t\n{ x=0; }\nP0(int *x) { int r; r = cmpxchg_relaxed(x, 1, 9); }\nexists (0:r=0)",
        );
        let out = run_thread(&prog, 0, &[Val::Int(0)]).unwrap();
        assert_eq!(out.events.len(), 1);
        assert!(out.deps.rmw.is_empty());
        let out2 = run_thread(&prog, 0, &[Val::Int(1)]).unwrap();
        assert_eq!(out2.events.len(), 2);
        assert_eq!(out2.deps.rmw, vec![(0, 1)]);
    }

    #[test]
    fn rcu_dereference_emits_rb_dep_fence() {
        let prog = body_of(
            "C t\n{ p=&x; x=0; }\nP0(int **p) { int *r; r = rcu_dereference(*p); }\nexists (x=0)",
        );
        let x = prog.loc("x").unwrap();
        let out = run_thread(&prog, 0, &[Val::Loc(x)]).unwrap();
        assert_eq!(out.events.len(), 2);
        assert!(matches!(out.events[1].kind, EventKind::Fence(FenceKind::RbDep)));
    }

    #[test]
    fn spin_lock_unlock_shapes() {
        let prog = body_of(
            "C t\n{ s=0; x=0; }\nP0(spinlock_t *s, int *x) { spin_lock(&s); \
             WRITE_ONCE(*x, 1); spin_unlock(&s); }\nexists (x=1)",
        );
        let out = run_thread(&prog, 0, &[]).unwrap();
        assert_eq!(out.events.len(), 4);
        assert!(out.events[0].kind
            == EventKind::Read { loc: LocId(0), val: Val::Int(0), annot: ReadAnnot::Acquire });
        assert!(matches!(out.events[3].kind,
            EventKind::Write { annot: WriteAnnot::Release, .. }));
        assert_eq!(out.deps.rmw, vec![(0, 1)]);
    }

    #[test]
    fn stuck_on_integer_deref() {
        let prog = body_of(
            "C t\n{ p=&x; x=0; }\nP0(int **p) { int *r; int s; r = READ_ONCE(*p); \
             s = READ_ONCE(*r); }\nexists (x=0)",
        );
        let res = run_thread(&prog, 0, &[Val::Int(3), Val::Int(0)]);
        assert!(matches!(res, Err(ThreadStop::Stuck(_))));
    }

    #[test]
    fn oracle_exhaustion_reports_location() {
        let prog = body_of(
            "C t\n{ x=0; y=0; }\nP0(int *x, int *y) { int r; int s; \
             r = READ_ONCE(*x); s = READ_ONCE(*y); }\nexists (x=0)",
        );
        let y = prog.loc("y").unwrap();
        match run_thread(&prog, 0, &[Val::Int(0)]) {
            Err(ThreadStop::NeedValue { loc, last_local_write }) => {
                assert_eq!(loc, y);
                assert_eq!(last_local_write, None);
            }
            other => panic!("expected NeedValue, got {other:?}"),
        }
    }
}
