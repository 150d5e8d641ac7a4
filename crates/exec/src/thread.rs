//! Concrete per-thread execution under a read oracle.
//!
//! Thread bodies are run with an *oracle*: a list of values that successive
//! reads return. Dependencies are tracked by tainting register values with
//! the set of read events they derive from — exactly the address, data and
//! control dependency relations of the paper (§2).

use crate::event::{EventKind, LocId, ReadAnnot, SrcuKind, Val, WriteAnnot};
use lkmm_litmus::ast::{AddrExpr, BinOp, Expr, FenceKind, RmwOrder, Stmt};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Final register values.
    pub final_regs: BTreeMap<String, Val>,
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

/// Run `body` under `oracle`, mapping location names through `locs`.
///
/// Returns the completed outcome, or [`ThreadStop::NeedValue`] when the
/// oracle is too short, or [`ThreadStop::Stuck`] for unrealisable branches.
///
/// # Examples
///
/// ```
/// use lkmm_exec::thread::{run_thread, ThreadStop};
/// use lkmm_exec::event::Val;
/// use lkmm_litmus::parse;
///
/// let t = parse("C t\n{ x=0; }\nP0(int *x) { int r; r = READ_ONCE(*x); }\nexists (0:r=0)")
///     .unwrap();
/// let locs = vec!["x".to_string()];
/// // Empty oracle: the read needs a value.
/// assert!(matches!(run_thread(&t.threads[0].body, &[], &locs),
///                  Err(ThreadStop::NeedValue { .. })));
/// // With a value the thread completes.
/// let out = run_thread(&t.threads[0].body, &[Val::Int(7)], &locs).unwrap();
/// assert_eq!(out.final_regs["r"], Val::Int(7));
/// ```
pub fn run_thread(
    body: &[Stmt],
    oracle: &[Val],
    locs: &[String],
) -> Result<ThreadOutcome, ThreadStop> {
    let loc_ids: HashMap<&str, LocId> =
        locs.iter().enumerate().map(|(i, n)| (n.as_str(), LocId(i))).collect();
    let mut st = ThreadState {
        oracle,
        next_oracle: 0,
        loc_ids,
        regs: HashMap::new(),
        events: Vec::new(),
        deps: LocalDeps::default(),
        ctrl_taint: Vec::new(),
        local_writes: HashMap::new(),
    };
    st.run_block(body)?;
    let final_regs = st
        .regs
        .iter()
        .map(|(name, tv)| (name.clone(), tv.val))
        .collect();
    Ok(ThreadOutcome {
        events: st.events,
        deps: st.deps,
        final_regs,
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
    oracle: &'a [Val],
    next_oracle: usize,
    loc_ids: HashMap<&'a str, LocId>,
    regs: HashMap<String, Tainted>,
    events: Vec<LocalEvent>,
    deps: LocalDeps,
    /// Stack of control-dependency sources: reads feeding enclosing `if`s.
    ctrl_taint: Vec<BTreeSet<usize>>,
    /// Latest value written to each location by this thread.
    local_writes: HashMap<LocId, Val>,
}

impl<'a> ThreadState<'a> {
    fn run_block(&mut self, body: &[Stmt]) -> Result<(), ThreadStop> {
        for stmt in body {
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

    fn resolve_addr(&mut self, addr: &AddrExpr) -> Result<(LocId, BTreeSet<usize>), ThreadStop> {
        match addr {
            AddrExpr::Var(name) => {
                let loc = *self
                    .loc_ids
                    .get(name.as_str())
                    .ok_or_else(|| ThreadStop::Stuck(format!("unknown location {name}")))?;
                Ok((loc, BTreeSet::new()))
            }
            AddrExpr::Reg(reg) => {
                let tv = self
                    .regs
                    .get(reg)
                    .ok_or_else(|| ThreadStop::Stuck(format!("uninitialised register {reg}")))?;
                match tv.val {
                    Val::Loc(l) => Ok((l, tv.taint.clone())),
                    Val::Int(i) => Err(ThreadStop::Stuck(format!("dereferencing integer {i}"))),
                }
            }
        }
    }

    fn eval(&self, e: &Expr) -> Result<Tainted, ThreadStop> {
        match e {
            Expr::Const(c) => Ok(Tainted { val: Val::Int(*c), taint: BTreeSet::new() }),
            Expr::Reg(r) => self
                .regs
                .get(r)
                .cloned()
                .ok_or_else(|| ThreadStop::Stuck(format!("uninitialised register {r}"))),
            Expr::LocRef(name) => {
                let loc = *self
                    .loc_ids
                    .get(name.as_str())
                    .ok_or_else(|| ThreadStop::Stuck(format!("unknown location {name}")))?;
                Ok(Tainted { val: Val::Loc(loc), taint: BTreeSet::new() })
            }
            Expr::Not(inner) => {
                let t = self.eval(inner)?;
                Ok(Tainted { val: Val::Int(i64::from(!t.val.truthy())), taint: t.taint })
            }
            Expr::Bin(op, a, b) => {
                let ta = self.eval(a)?;
                let tb = self.eval(b)?;
                let taint: BTreeSet<usize> = ta.taint.union(&tb.taint).copied().collect();
                let val = match op {
                    BinOp::Eq => Val::Int(i64::from(ta.val == tb.val)),
                    BinOp::Ne => Val::Int(i64::from(ta.val != tb.val)),
                    // `&x + 0` keeps the pointer: the only pointer
                    // arithmetic needed (diy-style false address
                    // dependencies, `&x + (r ^ r)`).
                    BinOp::Add if matches!((ta.val, tb.val), (Val::Loc(_), Val::Int(0))) => {
                        ta.val
                    }
                    BinOp::Add if matches!((ta.val, tb.val), (Val::Int(0), Val::Loc(_))) => {
                        tb.val
                    }
                    _ => {
                        let (x, y) = match (ta.val.as_int(), tb.val.as_int()) {
                            (Some(x), Some(y)) => (x, y),
                            _ => {
                                return Err(ThreadStop::Stuck(
                                    "pointer arithmetic is not modelled".into(),
                                ))
                            }
                        };
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
                };
                Ok(Tainted { val, taint })
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
                last_local_write: self.local_writes.get(&loc).copied(),
            }),
        }
    }

    fn do_read(
        &mut self,
        dst: &str,
        addr: &AddrExpr,
        annot: ReadAnnot,
    ) -> Result<usize, ThreadStop> {
        let (loc, addr_taint) = self.resolve_addr(addr)?;
        let val = self.next_read_value(loc)?;
        let idx = self.emit(EventKind::Read { loc, val, annot });
        for src in &addr_taint {
            self.deps.addr.push((*src, idx));
        }
        self.regs.insert(dst.to_string(), Tainted { val, taint: BTreeSet::from([idx]) });
        Ok(idx)
    }

    fn do_write(
        &mut self,
        addr: &AddrExpr,
        value: &Expr,
        annot: WriteAnnot,
    ) -> Result<usize, ThreadStop> {
        let (loc, addr_taint) = self.resolve_addr(addr)?;
        let tv = self.eval(value)?;
        let idx =
            self.emit(EventKind::Write { loc, val: tv.val, annot, is_init: false });
        self.local_writes.insert(loc, tv.val);
        for src in &addr_taint {
            self.deps.addr.push((*src, idx));
        }
        for src in &tv.taint {
            self.deps.data.push((*src, idx));
        }
        Ok(idx)
    }

    fn run_stmt(&mut self, stmt: &Stmt) -> Result<(), ThreadStop> {
        match stmt {
            Stmt::ReadOnce { dst, addr } => {
                self.do_read(dst, addr, ReadAnnot::Once)?;
            }
            Stmt::LoadAcquire { dst, addr } => {
                self.do_read(dst, addr, ReadAnnot::Acquire)?;
            }
            Stmt::RcuDereference { dst, addr } => {
                // Table 4: R[once] followed by F[rb-dep].
                self.do_read(dst, addr, ReadAnnot::Once)?;
                self.emit(EventKind::Fence(FenceKind::RbDep));
            }
            Stmt::WriteOnce { addr, value } => {
                self.do_write(addr, value, WriteAnnot::Once)?;
            }
            Stmt::StoreRelease { addr, value } | Stmt::RcuAssignPointer { addr, value } => {
                // Table 4: rcu_assign_pointer is W[release].
                self.do_write(addr, value, WriteAnnot::Release)?;
            }
            Stmt::Fence(kind) => {
                self.emit(EventKind::Fence(*kind));
            }
            Stmt::Xchg { order, dst, addr, value } => {
                // Table 3: xchg() is F[mb], R, W, F[mb]; the lighter
                // variants annotate the read (acquire) or write (release).
                let (rannot, wannot, fenced) = match order {
                    RmwOrder::Relaxed => (ReadAnnot::Once, WriteAnnot::Once, false),
                    RmwOrder::Acquire => (ReadAnnot::Acquire, WriteAnnot::Once, false),
                    RmwOrder::Release => (ReadAnnot::Once, WriteAnnot::Release, false),
                    RmwOrder::Full => (ReadAnnot::Once, WriteAnnot::Once, true),
                };
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
                let r = self.do_read(dst, addr, rannot)?;
                let w = self.do_write(addr, value, wannot)?;
                self.deps.rmw.push((r, w));
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
            }
            Stmt::CmpXchg { order, dst, addr, expected, new } => {
                let (rannot, wannot, fenced) = match order {
                    RmwOrder::Relaxed => (ReadAnnot::Once, WriteAnnot::Once, false),
                    RmwOrder::Acquire => (ReadAnnot::Acquire, WriteAnnot::Once, false),
                    RmwOrder::Release => (ReadAnnot::Once, WriteAnnot::Release, false),
                    RmwOrder::Full => (ReadAnnot::Once, WriteAnnot::Once, true),
                };
                let exp = self.eval(expected)?;
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
                let r = self.do_read(dst, addr, rannot)?;
                let old = self.regs[dst].val;
                if old == exp.val {
                    let w = self.do_write(addr, new, wannot)?;
                    self.deps.rmw.push((r, w));
                }
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
            }
            Stmt::AtomicOp { order, dst, addr, op, operand } => {
                let (rannot, wannot, fenced) = match order {
                    RmwOrder::Relaxed => (ReadAnnot::Once, WriteAnnot::Once, false),
                    RmwOrder::Acquire => (ReadAnnot::Acquire, WriteAnnot::Once, false),
                    RmwOrder::Release => (ReadAnnot::Once, WriteAnnot::Release, false),
                    RmwOrder::Full => (ReadAnnot::Once, WriteAnnot::Once, true),
                };
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let old = self.next_read_value(loc)?;
                let r = self.emit(EventKind::Read { loc, val: old, annot: rannot });
                let operand_tv = self.eval(operand)?;
                let (Some(x), Some(y)) = (old.as_int(), operand_tv.val.as_int()) else {
                    return Err(ThreadStop::Stuck("atomic arithmetic on pointer".into()));
                };
                let new = Val::Int(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    _ => return Err(ThreadStop::Stuck("unsupported atomic op".into())),
                });
                let w = self.emit(EventKind::Write { loc, val: new, annot: wannot, is_init: false });
                self.local_writes.insert(loc, new);
                self.deps.rmw.push((r, w));
                // The written value depends on the read and the operand.
                self.deps.data.push((r, w));
                for src in &operand_tv.taint {
                    self.deps.data.push((*src, w));
                }
                for src in &addr_taint {
                    self.deps.addr.push((*src, r));
                    self.deps.addr.push((*src, w));
                }
                if let Some((d, kind)) = dst {
                    let (val, taint) = match kind {
                        lkmm_litmus::ast::AtomicDst::Old => (old, BTreeSet::from([r])),
                        lkmm_litmus::ast::AtomicDst::New => (new, BTreeSet::from([r])),
                    };
                    self.regs.insert(d.clone(), Tainted { val, taint });
                }
                if fenced {
                    self.emit(EventKind::Fence(FenceKind::Mb));
                }
            }
            Stmt::Assign { dst, value } => {
                let tv = self.eval(value)?;
                self.regs.insert(dst.clone(), Tainted { val: tv.val, taint: tv.taint });
            }
            Stmt::Assume(cond) => {
                let c = self.eval(cond)?;
                if !c.val.truthy() {
                    return Err(ThreadStop::Stuck("assumption failed".into()));
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.eval(cond)?;
                self.ctrl_taint.push(c.taint.clone());
                let result = if c.val.truthy() {
                    self.run_block(then_)
                } else {
                    self.run_block(else_)
                };
                self.ctrl_taint.pop();
                result?;
            }
            Stmt::SrcuReadLock { domain }
            | Stmt::SrcuReadUnlock { domain }
            | Stmt::SynchronizeSrcu { domain } => {
                let (loc, _taint) = self.resolve_addr(domain)?;
                let kind = match stmt {
                    Stmt::SrcuReadLock { .. } => SrcuKind::Lock,
                    Stmt::SrcuReadUnlock { .. } => SrcuKind::Unlock,
                    _ => SrcuKind::Sync,
                };
                self.emit(EventKind::Srcu { kind, domain: loc });
            }
            Stmt::SpinLock { addr } => {
                // §7: behaves like xchg_acquire that must observe the lock
                // free — the read value is pinned to 0 (the final,
                // successful loop iteration is the one modelled).
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let r = self.emit(EventKind::Read {
                    loc,
                    val: Val::Int(0),
                    annot: ReadAnnot::Acquire,
                });
                let w = self.emit(EventKind::Write {
                    loc,
                    val: Val::Int(1),
                    annot: WriteAnnot::Once,
                    is_init: false,
                });
                self.local_writes.insert(loc, Val::Int(1));
                for src in &addr_taint {
                    self.deps.addr.push((*src, r));
                    self.deps.addr.push((*src, w));
                }
                self.deps.rmw.push((r, w));
            }
            Stmt::SpinUnlock { addr } => {
                // §7: behaves like smp_store_release of 0.
                let (loc, addr_taint) = self.resolve_addr(addr)?;
                let w = self.emit(EventKind::Write {
                    loc,
                    val: Val::Int(0),
                    annot: WriteAnnot::Release,
                    is_init: false,
                });
                self.local_writes.insert(loc, Val::Int(0));
                for src in &addr_taint {
                    self.deps.addr.push((*src, w));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::parse;

    fn body_of(src: &str, thread: usize) -> (Vec<Stmt>, Vec<String>) {
        let t = parse(src).unwrap();
        let locs = t.shared_locations();
        (t.threads[thread].body.clone(), locs)
    }

    #[test]
    fn data_dependency_via_register_move() {
        let (body, locs) = body_of(
            "C t\n{ x=0; y=0; }\nP0(int *x, int *y) { int r; int s; \
             r = READ_ONCE(*x); s = r + 1; WRITE_ONCE(*y, s); }\nexists (y=1)",
            0,
        );
        let out = run_thread(&body, &[Val::Int(4)], &locs).unwrap();
        assert_eq!(out.events.len(), 2);
        assert_eq!(out.deps.data, vec![(0, 1)]);
        assert_eq!(out.final_regs["s"], Val::Int(5));
        match out.events[1].kind {
            EventKind::Write { val, .. } => assert_eq!(val, Val::Int(5)),
            _ => panic!("expected write"),
        }
    }

    #[test]
    fn address_dependency_via_pointer() {
        let (body, locs) = body_of(
            "C t\n{ p=&x; x=0; }\nP0(int **p, int *x) { int *r; int s; \
             r = READ_ONCE(*p); s = READ_ONCE(*r); }\nexists (0:s=0)",
            0,
        );
        let x = LocId(locs.iter().position(|l| l == "x").unwrap());
        let out = run_thread(&body, &[Val::Loc(x), Val::Int(0)], &locs).unwrap();
        assert_eq!(out.deps.addr, vec![(0, 1)]);
    }

    #[test]
    fn control_dependency_covers_branch_body_only() {
        let (body, locs) = body_of(
            "C t\n{ x=0; y=0; z=0; }\nP0(int *x, int *y, int *z) { int r; \
             r = READ_ONCE(*x); if (r == 1) { WRITE_ONCE(*y, 1); } WRITE_ONCE(*z, 1); }\n\
             exists (y=1)",
            0,
        );
        let out = run_thread(&body, &[Val::Int(1)], &locs).unwrap();
        // Events: read x, write y (in branch), write z (after join).
        assert_eq!(out.events.len(), 3);
        assert_eq!(out.deps.ctrl, vec![(0, 1)]);
    }

    #[test]
    fn untaken_branch_emits_no_events() {
        let (body, locs) = body_of(
            "C t\n{ x=0; y=0; }\nP0(int *x, int *y) { int r; \
             r = READ_ONCE(*x); if (r == 1) { WRITE_ONCE(*y, 1); } }\nexists (y=1)",
            0,
        );
        let out = run_thread(&body, &[Val::Int(0)], &locs).unwrap();
        assert_eq!(out.events.len(), 1);
        assert!(out.deps.ctrl.is_empty());
    }

    #[test]
    fn xchg_full_emits_fences_and_rmw() {
        let (body, locs) = body_of(
            "C t\n{ x=0; }\nP0(int *x) { int r; r = xchg(x, 5); }\nexists (0:r=0)",
            0,
        );
        let out = run_thread(&body, &[Val::Int(0)], &locs).unwrap();
        // F[mb], R, W, F[mb]
        assert_eq!(out.events.len(), 4);
        assert!(matches!(out.events[0].kind, EventKind::Fence(FenceKind::Mb)));
        assert!(matches!(out.events[3].kind, EventKind::Fence(FenceKind::Mb)));
        assert_eq!(out.deps.rmw, vec![(1, 2)]);
    }

    #[test]
    fn cmpxchg_failure_has_no_write() {
        let (body, locs) = body_of(
            "C t\n{ x=0; }\nP0(int *x) { int r; r = cmpxchg_relaxed(x, 1, 9); }\nexists (0:r=0)",
            0,
        );
        let out = run_thread(&body, &[Val::Int(0)], &locs).unwrap();
        assert_eq!(out.events.len(), 1);
        assert!(out.deps.rmw.is_empty());
        let out2 = run_thread(&body, &[Val::Int(1)], &locs).unwrap();
        assert_eq!(out2.events.len(), 2);
        assert_eq!(out2.deps.rmw, vec![(0, 1)]);
    }

    #[test]
    fn rcu_dereference_emits_rb_dep_fence() {
        let (body, locs) = body_of(
            "C t\n{ p=&x; x=0; }\nP0(int **p) { int *r; r = rcu_dereference(*p); }\nexists (x=0)",
            0,
        );
        let x = LocId(locs.iter().position(|l| l == "x").unwrap());
        let out = run_thread(&body, &[Val::Loc(x)], &locs).unwrap();
        assert_eq!(out.events.len(), 2);
        assert!(matches!(out.events[1].kind, EventKind::Fence(FenceKind::RbDep)));
    }

    #[test]
    fn spin_lock_unlock_shapes() {
        let (body, locs) = body_of(
            "C t\n{ s=0; x=0; }\nP0(spinlock_t *s, int *x) { spin_lock(&s); \
             WRITE_ONCE(*x, 1); spin_unlock(&s); }\nexists (x=1)",
            0,
        );
        let out = run_thread(&body, &[], &locs).unwrap();
        assert_eq!(out.events.len(), 4);
        assert!(out.events[0].kind
            == EventKind::Read { loc: LocId(0), val: Val::Int(0), annot: ReadAnnot::Acquire });
        assert!(matches!(out.events[3].kind,
            EventKind::Write { annot: WriteAnnot::Release, .. }));
        assert_eq!(out.deps.rmw, vec![(0, 1)]);
    }

    #[test]
    fn stuck_on_integer_deref() {
        let (body, locs) = body_of(
            "C t\n{ p=&x; x=0; }\nP0(int **p) { int *r; int s; r = READ_ONCE(*p); \
             s = READ_ONCE(*r); }\nexists (x=0)",
            0,
        );
        let res = run_thread(&body, &[Val::Int(3), Val::Int(0)], &locs);
        assert!(matches!(res, Err(ThreadStop::Stuck(_))));
    }

    #[test]
    fn oracle_exhaustion_reports_location() {
        let (body, locs) = body_of(
            "C t\n{ x=0; y=0; }\nP0(int *x, int *y) { int r; int s; \
             r = READ_ONCE(*x); s = READ_ONCE(*y); }\nexists (x=0)",
            0,
        );
        let y = LocId(locs.iter().position(|l| l == "y").unwrap());
        match run_thread(&body, &[Val::Int(0)], &locs) {
            Err(ThreadStop::NeedValue { loc, last_local_write }) => {
                assert_eq!(loc, y);
                assert_eq!(last_local_write, None);
            }
            other => panic!("expected NeedValue, got {other:?}"),
        }
    }
}
