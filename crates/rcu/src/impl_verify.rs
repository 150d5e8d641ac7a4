//! Theorem 2: substituting the Figure 15 RCU implementation.
//!
//! [`expand_rcu`] rewrites a litmus test `P` into `P'` by replacing each
//! RCU primitive with the code of Figure 15 (the userspace RCU of
//! Desnoyers et al. used by the Linux trace tool):
//!
//! * `rcu_read_lock()` → read `rc[i]`, and (outermost case) copy the
//!   grace-period phase from `gc` into `rc[i]`, then `smp_mb()`;
//! * `rcu_read_unlock()` → `smp_mb()`, then decrement `rc[i]`;
//! * `synchronize_rcu()` → `smp_mb()`, take `gp_lock` (when more than one
//!   thread starts grace periods), run `update_counter_and_wait()` twice
//!   (flip the `GP_PHASE` bit of `gc`, then wait for every thread's
//!   `rc[i]` to be outside a critical section or in the new phase),
//!   release the lock, `smp_mb()`.
//!
//! The unbounded `while (gp_ongoing(i)) msleep(10);` loops are modelled by
//! their **final iteration**: one read of `rc[i]` and `gc` followed by
//! `__assume(!gp_ongoing)` — exactly the distinguished reads `r1`/`r2`
//! that the paper's proof sketch (§6.3) builds its precedes function from.
//!
//! Theorem 2 says every `P'` execution allowed by the LKMM corresponds to
//! an allowed execution of `P`. The tests verify the observable
//! consequence: the expanded tests forbid exactly the outcomes the
//! abstract RCU primitives forbid (Figure 10 ↔ Figure 16).

use lkmm_litmus::ast::{AddrExpr, BinOp, Expr, FenceKind, Stmt, Test, Thread};
use std::fmt;

/// `GP_PHASE` from Figure 15, line 1.
pub const GP_PHASE: i64 = 0x10000;
/// `CS_MASK` from Figure 15, line 2.
pub const CS_MASK: i64 = 0x0ffff;

/// Why a test cannot be expanded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExpandError {
    /// Nested read-side critical sections are supported by Figure 15 but
    /// not by this transformer (the nesting depth would need loop-free
    /// tracking).
    NestedRscs { thread: usize },
    /// RCU primitives inside `if` branches are not supported.
    RcuInsideBranch { thread: usize },
    /// A fresh location name collides with an existing one.
    NameCollision(String),
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::NestedRscs { thread } => {
                write!(f, "nested RCU critical sections in thread {thread}")
            }
            ExpandError::RcuInsideBranch { thread } => {
                write!(f, "RCU primitive inside a branch in thread {thread}")
            }
            ExpandError::NameCollision(n) => write!(f, "location name `{n}` collides"),
        }
    }
}

impl std::error::Error for ExpandError {}

/// Expand every RCU primitive in `test` into the Figure 15
/// implementation, each `synchronize_rcu` calling
/// `update_counter_and_wait` twice (lines 46–47).
///
/// # Errors
///
/// See [`ExpandError`].
///
/// # Examples
///
/// ```
/// use lkmm_rcu::expand_rcu;
///
/// let p = lkmm_litmus::library::by_name("RCU-MP").unwrap().test();
/// let p2 = expand_rcu(&p).unwrap();
/// // The expansion introduces rc[] and gc but no RCU events remain.
/// assert!(p2.to_litmus_string().contains("__assume"));
/// assert!(!p2.to_litmus_string().contains("rcu_read_lock"));
/// ```
pub fn expand_rcu(test: &Test) -> Result<Test, ExpandError> {
    expand_with_phases(test, 2)
}

/// [`expand_rcu`] with `phases` `update_counter_and_wait` calls per
/// `synchronize_rcu`.
fn expand_with_phases(test: &Test, phases: usize) -> Result<Test, ExpandError> {
    let n_threads = test.threads.len();
    let rc_name = |i: usize| format!("rc{i}");
    let gc_name = "gc".to_string();
    let lock_name = "gp_lock".to_string();
    let existing = test.shared_locations();
    for i in 0..n_threads {
        if existing.contains(&rc_name(i)) {
            return Err(ExpandError::NameCollision(rc_name(i)));
        }
    }
    if existing.contains(&gc_name) {
        return Err(ExpandError::NameCollision(gc_name));
    }

    let updaters: usize = test
        .threads
        .iter()
        .map(|t| usize::from(t.body.contains(&Stmt::Fence(FenceKind::SyncRcu))))
        .sum();
    let need_lock = updaters > 1;
    if need_lock && existing.contains(&lock_name) {
        return Err(ExpandError::NameCollision(lock_name));
    }

    let mut out = Test::new(format!("{}+impl", test.name));
    out.init = test.init.clone();
    out.condition = test.condition.clone();
    // Figure 15 line 5: gc starts at 1.
    out.init_int(&gc_name, 1);
    for i in 0..n_threads {
        out.init_int(rc_name(i), 0);
    }
    if need_lock {
        out.init_int(&lock_name, 0);
    }

    for (tid, thread) in test.threads.iter().enumerate() {
        let mut fresh = 0usize;
        let mut depth = 0i32;
        let mut body = Vec::new();
        for stmt in &thread.body {
            match stmt {
                Stmt::Fence(FenceKind::RcuLock) => {
                    if depth > 0 {
                        return Err(ExpandError::NestedRscs { thread: tid });
                    }
                    depth += 1;
                    emit_read_lock(&mut body, &rc_name(tid), &gc_name, tid, &mut fresh);
                }
                Stmt::Fence(FenceKind::RcuUnlock) => {
                    depth -= 1;
                    emit_read_unlock(&mut body, &rc_name(tid), tid, &mut fresh);
                }
                Stmt::Fence(FenceKind::SyncRcu) => {
                    emit_synchronize(
                        &mut body,
                        n_threads,
                        &rc_name,
                        &gc_name,
                        need_lock.then_some(lock_name.as_str()),
                        phases,
                        tid,
                        &mut fresh,
                    );
                }
                Stmt::If { then_, else_, .. } => {
                    if contains_rcu(then_) || contains_rcu(else_) {
                        return Err(ExpandError::RcuInsideBranch { thread: tid });
                    }
                    body.push(stmt.clone());
                }
                other => body.push(other.clone()),
            }
        }
        out.threads.push(Thread::new(body));
    }
    Ok(out)
}

fn contains_rcu(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Fence(FenceKind::RcuLock | FenceKind::RcuUnlock | FenceKind::SyncRcu) => true,
        Stmt::If { then_, else_, .. } => contains_rcu(then_) || contains_rcu(else_),
        _ => false,
    })
}

fn reg(tid: usize, fresh: &mut usize) -> String {
    let r = format!("rcu{tid}t{fresh}");
    *fresh += 1;
    r
}

/// Figure 15 lines 8–18 (outermost case; nesting rejected upstream).
fn emit_read_lock(body: &mut Vec<Stmt>, rc: &str, gc: &str, tid: usize, fresh: &mut usize) {
    let tmp = reg(tid, fresh);
    let g = reg(tid, fresh);
    body.push(Stmt::ReadOnce { dst: tmp.clone(), addr: AddrExpr::Var(rc.into()) }); // line 10
    body.push(Stmt::If {
        // line 12: !(tmp & CS_MASK)
        cond: Expr::Not(Box::new(Expr::bin(
            BinOp::And,
            Expr::Reg(tmp.clone()),
            Expr::Const(CS_MASK),
        ))),
        then_: vec![
            Stmt::ReadOnce { dst: g.clone(), addr: AddrExpr::Var(gc.into()) }, // line 13
            Stmt::WriteOnce { addr: AddrExpr::Var(rc.into()), value: Expr::Reg(g) },
            Stmt::Fence(FenceKind::Mb), // line 14
        ],
        else_: vec![Stmt::WriteOnce {
            // line 16
            addr: AddrExpr::Var(rc.into()),
            value: Expr::bin(BinOp::Add, Expr::Reg(tmp), Expr::Const(1)),
        }],
    });
}

/// Figure 15 lines 20–25.
fn emit_read_unlock(body: &mut Vec<Stmt>, rc: &str, tid: usize, fresh: &mut usize) {
    let u = reg(tid, fresh);
    body.push(Stmt::Fence(FenceKind::Mb)); // line 23
    body.push(Stmt::ReadOnce { dst: u.clone(), addr: AddrExpr::Var(rc.into()) }); // line 24
    body.push(Stmt::WriteOnce {
        addr: AddrExpr::Var(rc.into()),
        value: Expr::bin(BinOp::Sub, Expr::Reg(u), Expr::Const(1)),
    });
}

/// Figure 15 lines 43–50, with `update_counter_and_wait` (lines 33–41)
/// inlined and each wait loop modelled by its final iteration.
#[allow(clippy::too_many_arguments)]
fn emit_synchronize(
    body: &mut Vec<Stmt>,
    n_threads: usize,
    rc_name: &dyn Fn(usize) -> String,
    gc: &str,
    lock: Option<&str>,
    phases: usize,
    tid: usize,
    fresh: &mut usize,
) {
    body.push(Stmt::Fence(FenceKind::Mb)); // line 44
    if let Some(l) = lock {
        body.push(Stmt::SpinLock { addr: AddrExpr::Var(l.into()) }); // line 45
    }
    for _phase in 0..phases {
        // line 36: WRITE_ONCE(gc, READ_ONCE(gc) ^ GP_PHASE);
        let g = reg(tid, fresh);
        body.push(Stmt::ReadOnce { dst: g.clone(), addr: AddrExpr::Var(gc.into()) });
        body.push(Stmt::WriteOnce {
            addr: AddrExpr::Var(gc.into()),
            value: Expr::bin(BinOp::Xor, Expr::Reg(g), Expr::Const(GP_PHASE)),
        });
        // lines 37-40: wait for each thread; the modelled (final)
        // iteration of gp_ongoing(i) reads rc[i] and gc (lines 27-30) and
        // its exit condition holds.
        for i in 0..n_threads {
            let v = reg(tid, fresh);
            let g2 = reg(tid, fresh);
            body.push(Stmt::ReadOnce { dst: v.clone(), addr: AddrExpr::Var(rc_name(i)) });
            body.push(Stmt::ReadOnce { dst: g2.clone(), addr: AddrExpr::Var(gc.into()) });
            // !((v & CS_MASK) && ((v ^ g2) & GP_PHASE)) — as bit-level
            // booleans: (v & CS_MASK) == 0 || ((v ^ g2) & GP_PHASE) == 0.
            let in_cs = Expr::bin(BinOp::And, Expr::Reg(v.clone()), Expr::Const(CS_MASK));
            let old_phase = Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Xor, Expr::Reg(v), Expr::Reg(g2)),
                Expr::Const(GP_PHASE),
            );
            body.push(Stmt::Assume(Expr::bin(
                BinOp::Or,
                Expr::bin(BinOp::Eq, in_cs, Expr::Const(0)),
                Expr::bin(BinOp::Eq, old_phase, Expr::Const(0)),
            )));
        }
    }
    if let Some(l) = lock {
        body.push(Stmt::SpinUnlock { addr: AddrExpr::Var(l.into()) }); // line 48
    }
    body.push(Stmt::Fence(FenceKind::Mb)); // line 49
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm::Lkmm;
    use lkmm_exec::enumerate::EnumOptions;
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library;

    fn verdicts(name: &str) -> (Verdict, Verdict, usize) {
        let p = library::by_name(name).unwrap().test();
        let p2 = expand_rcu(&p).unwrap();
        let model = Lkmm::new();
        let enum_opts = EnumOptions::default();
        let r1 = check_test(&model, &p, &enum_opts).unwrap();
        let r2 = check_test(&model, &p2, &enum_opts).unwrap();
        (r1.verdict, r2.verdict, r2.candidates)
    }

    #[test]
    fn theorem2_rcu_mp_expansion_stays_forbidden() {
        let (abstract_v, impl_v, candidates) = verdicts("RCU-MP");
        assert_eq!(abstract_v, Verdict::Forbidden);
        assert_eq!(impl_v, Verdict::Forbidden, "Figure 16 must be forbidden");
        assert!(candidates > 0, "expansion must have allowed executions at all");
    }

    #[test]
    fn theorem2_rcu_deferred_free_expansion_stays_forbidden() {
        let (abstract_v, impl_v, _) = verdicts("RCU-deferred-free");
        assert_eq!(abstract_v, Verdict::Forbidden);
        assert_eq!(impl_v, Verdict::Forbidden);
    }

    #[test]
    fn expansion_preserves_allowed_outcomes() {
        // An RCU reader with no grace period anywhere: outcome allowed
        // before and after expansion.
        let p = lkmm_litmus::parse(
            "C rcu-reader-only\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r0; int r1; rcu_read_lock(); \
             r0 = READ_ONCE(*y); r1 = READ_ONCE(*x); rcu_read_unlock(); }\n\
             P1(int *x, int *y) { WRITE_ONCE(*x, 1); WRITE_ONCE(*y, 1); }\n\
             exists (0:r0=1 /\\ 0:r1=0)",
        )
        .unwrap();
        let p2 = expand_rcu(&p).unwrap();
        let model = Lkmm::new();
        let opts = EnumOptions::default();
        let v1 = check_test(&model, &p, &opts).unwrap().verdict;
        let v2 = check_test(&model, &p2, &opts).unwrap().verdict;
        assert_eq!(v1, Verdict::Allowed);
        assert_eq!(v2, Verdict::Allowed);
    }

    #[test]
    fn expansion_grace_period_still_acts_as_strong_fence() {
        // SB with synchronize_rcu on one side and smp_mb on the other is
        // forbidden; the implementation's smp_mb fences preserve that.
        let p = lkmm_litmus::parse(
            "C SB+sync+mb\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r0; WRITE_ONCE(*x, 1); synchronize_rcu(); \
             r0 = READ_ONCE(*y); }\n\
             P1(int *x, int *y) { int r0; WRITE_ONCE(*y, 1); smp_mb(); \
             r0 = READ_ONCE(*x); }\n\
             exists (0:r0=0 /\\ 1:r0=0)",
        )
        .unwrap();
        let p2 = expand_rcu(&p).unwrap();
        let model = Lkmm::new();
        let opts = EnumOptions::default();
        assert_eq!(check_test(&model, &p, &opts).unwrap().verdict, Verdict::Forbidden);
        assert_eq!(check_test(&model, &p2, &opts).unwrap().verdict, Verdict::Forbidden);
    }

    #[test]
    fn rejects_nested_sections_and_branches() {
        let nested = lkmm_litmus::parse(
            "C n\n{ x=0; }\nP0(int *x) { rcu_read_lock(); rcu_read_lock(); \
             WRITE_ONCE(*x, 1); rcu_read_unlock(); rcu_read_unlock(); }\nexists (x=1)",
        )
        .unwrap();
        assert_eq!(expand_rcu(&nested).unwrap_err(), ExpandError::NestedRscs { thread: 0 });
        let branched = lkmm_litmus::parse(
            "C b\n{ x=0; }\nP0(int *x) { int r; r = READ_ONCE(*x); \
             if (r == 1) { synchronize_rcu(); } }\nexists (x=0)",
        )
        .unwrap();
        assert_eq!(expand_rcu(&branched).unwrap_err(), ExpandError::RcuInsideBranch { thread: 0 });
    }

    #[test]
    fn collision_detection() {
        let t = lkmm_litmus::parse(
            "C c\n{ gc=0; }\nP0(int *gc) { synchronize_rcu(); WRITE_ONCE(*gc, 1); }\n\
             exists (gc=1)",
        )
        .unwrap();
        assert_eq!(expand_rcu(&t).unwrap_err(), ExpandError::NameCollision("gc".into()));
    }
}

#[cfg(test)]
mod multi_updater_tests {
    use super::*;
    use lkmm::Lkmm;
    use lkmm_exec::enumerate::EnumOptions;
    use lkmm_exec::{check_test, Verdict};

    /// Two concurrent updaters: the expansion includes the gp_lock mutex
    /// (Figure 15 line 6) as a §7 spinlock, and grace periods still act
    /// as strong fences — SB through two expanded synchronize_rcu calls
    /// stays forbidden.
    #[test]
    fn theorem2_with_two_updaters_and_gp_lock() {
        let p = lkmm_litmus::parse(
            "C SB+syncs\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r0; WRITE_ONCE(*x, 1); synchronize_rcu(); \
             r0 = READ_ONCE(*y); }\n\
             P1(int *x, int *y) { int r0; WRITE_ONCE(*y, 1); synchronize_rcu(); \
             r0 = READ_ONCE(*x); }\n\
             exists (0:r0=0 /\\ 1:r0=0)",
        )
        .unwrap();
        // One update_counter_and_wait phase keeps the candidate space
        // tractable with two updaters; the gp_lock path and the
        // strong-fence property are what this test exercises.
        let p2 = expand_with_phases(&p, 1).unwrap();
        // The mutex is present exactly because two threads start GPs.
        assert!(p2.to_litmus_string().contains("spin_lock(*gp_lock)")
            || p2.to_litmus_string().contains("spin_lock(&gp_lock)"));
        let model = Lkmm::new();
        let opts = EnumOptions::default();
        assert_eq!(check_test(&model, &p, &opts).unwrap().verdict, Verdict::Forbidden);
        let r2 = check_test(&model, &p2, &opts).unwrap();
        assert_eq!(r2.verdict, Verdict::Forbidden, "Theorem 2 with gp_lock");
        assert!(r2.candidates > 0);
    }
}
