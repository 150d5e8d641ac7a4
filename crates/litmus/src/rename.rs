//! Structure-preserving transformations used by canonicalization.
//!
//! The service layer (`lkmm-service`) computes a canonical form for a
//! [`Test`] — threads reordered, locations and registers alpha-renamed —
//! so isomorphic tests map to one cache key. The traversals that such a
//! rewrite needs live here, next to the AST they walk:
//!
//! * [`thread_locations`] / [`thread_registers`] — first-occurrence name
//!   order within one thread body (the seed of alpha-renaming);
//! * [`rename_stmts`] / [`rename_test`] — total, capture-free renaming of
//!   locations and (per-thread) registers;
//! * [`permute_threads`] — reorder threads, remapping the thread indices
//!   that final-state conditions mention.
//!
//! All functions are pure: they clone rather than mutate. Printing a
//! test under other names needs no renamed copy: see
//! [`crate::ast::Spelling`].

use crate::ast::{
    collect_locs_stmts, collect_regs_stmts, AddrExpr, Expr, InitVal, Stmt, Test, Thread,
};
use crate::cond::{CondVal, Condition, Prop, StateTerm};
use std::collections::BTreeMap;

/// Shared locations referenced by a thread body, in order of first
/// occurrence (statement-traversal order), deduplicated.
pub fn thread_locations(thread: &Thread) -> Vec<&str> {
    let mut locs = Vec::new();
    collect_locs_stmts(&thread.body, &mut locs);
    dedup_keep_first(locs)
}

/// Registers referenced by a thread body, in order of first occurrence
/// (statement-traversal order), deduplicated.
pub fn thread_registers(thread: &Thread) -> Vec<&str> {
    let mut regs = Vec::new();
    collect_regs_stmts(&thread.body, &mut regs);
    dedup_keep_first(regs)
}

fn dedup_keep_first(names: Vec<&str>) -> Vec<&str> {
    let mut seen = Vec::new();
    for n in names {
        if !seen.contains(&n) {
            seen.push(n);
        }
    }
    seen
}

fn map_name(map: &BTreeMap<String, String>, name: &str) -> String {
    map.get(name).cloned().unwrap_or_else(|| name.to_string())
}

fn rename_addr(a: &AddrExpr, locs: &BTreeMap<String, String>, regs: &BTreeMap<String, String>) -> AddrExpr {
    match a {
        AddrExpr::Var(v) => AddrExpr::Var(map_name(locs, v)),
        AddrExpr::Reg(r) => AddrExpr::Reg(map_name(regs, r)),
    }
}

fn rename_expr(e: &Expr, locs: &BTreeMap<String, String>, regs: &BTreeMap<String, String>) -> Expr {
    match e {
        Expr::Const(c) => Expr::Const(*c),
        Expr::Reg(r) => Expr::Reg(map_name(regs, r)),
        Expr::LocRef(l) => Expr::LocRef(map_name(locs, l)),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(rename_expr(a, locs, regs)),
            Box::new(rename_expr(b, locs, regs)),
        ),
        Expr::Not(inner) => Expr::Not(Box::new(rename_expr(inner, locs, regs))),
    }
}

/// Rename locations and registers throughout a statement list. Names
/// absent from a map are kept. The caller is responsible for the combined
/// mapping being injective (no capture).
pub fn rename_stmts(
    stmts: &[Stmt],
    locs: &BTreeMap<String, String>,
    regs: &BTreeMap<String, String>,
) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::ReadOnce { dst, addr } => Stmt::ReadOnce {
                dst: map_name(regs, dst),
                addr: rename_addr(addr, locs, regs),
            },
            Stmt::WriteOnce { addr, value } => Stmt::WriteOnce {
                addr: rename_addr(addr, locs, regs),
                value: rename_expr(value, locs, regs),
            },
            Stmt::LoadAcquire { dst, addr } => Stmt::LoadAcquire {
                dst: map_name(regs, dst),
                addr: rename_addr(addr, locs, regs),
            },
            Stmt::StoreRelease { addr, value } => Stmt::StoreRelease {
                addr: rename_addr(addr, locs, regs),
                value: rename_expr(value, locs, regs),
            },
            Stmt::RcuDereference { dst, addr } => Stmt::RcuDereference {
                dst: map_name(regs, dst),
                addr: rename_addr(addr, locs, regs),
            },
            Stmt::RcuAssignPointer { addr, value } => Stmt::RcuAssignPointer {
                addr: rename_addr(addr, locs, regs),
                value: rename_expr(value, locs, regs),
            },
            Stmt::Fence(k) => Stmt::Fence(*k),
            Stmt::Xchg { order, dst, addr, value } => Stmt::Xchg {
                order: *order,
                dst: map_name(regs, dst),
                addr: rename_addr(addr, locs, regs),
                value: rename_expr(value, locs, regs),
            },
            Stmt::CmpXchg { order, dst, addr, expected, new } => Stmt::CmpXchg {
                order: *order,
                dst: map_name(regs, dst),
                addr: rename_addr(addr, locs, regs),
                expected: rename_expr(expected, locs, regs),
                new: rename_expr(new, locs, regs),
            },
            Stmt::AtomicOp { order, dst, addr, op, operand } => Stmt::AtomicOp {
                order: *order,
                dst: dst.as_ref().map(|(d, which)| (map_name(regs, d), *which)),
                addr: rename_addr(addr, locs, regs),
                op: *op,
                operand: rename_expr(operand, locs, regs),
            },
            Stmt::Assign { dst, value } => Stmt::Assign {
                dst: map_name(regs, dst),
                value: rename_expr(value, locs, regs),
            },
            Stmt::Assume(cond) => Stmt::Assume(rename_expr(cond, locs, regs)),
            Stmt::If { cond, then_, else_ } => Stmt::If {
                cond: rename_expr(cond, locs, regs),
                then_: rename_stmts(then_, locs, regs),
                else_: rename_stmts(else_, locs, regs),
            },
            Stmt::SrcuReadLock { domain } => {
                Stmt::SrcuReadLock { domain: rename_addr(domain, locs, regs) }
            }
            Stmt::SrcuReadUnlock { domain } => {
                Stmt::SrcuReadUnlock { domain: rename_addr(domain, locs, regs) }
            }
            Stmt::SynchronizeSrcu { domain } => {
                Stmt::SynchronizeSrcu { domain: rename_addr(domain, locs, regs) }
            }
            Stmt::SpinLock { addr } => Stmt::SpinLock { addr: rename_addr(addr, locs, regs) },
            Stmt::SpinUnlock { addr } => Stmt::SpinUnlock { addr: rename_addr(addr, locs, regs) },
        })
        .collect()
}

fn rename_prop(
    p: &Prop,
    locs: &BTreeMap<String, String>,
    regs: &[BTreeMap<String, String>],
) -> Prop {
    match p {
        Prop::True => Prop::True,
        Prop::Eq(term, val) => {
            let term = match term {
                StateTerm::Reg { thread, reg } => match regs.get(*thread) {
                    Some(m) => StateTerm::Reg { thread: *thread, reg: map_name(m, reg) },
                    None => StateTerm::Reg { thread: *thread, reg: reg.clone() },
                },
                StateTerm::Loc(l) => StateTerm::Loc(map_name(locs, l)),
            };
            let val = match val {
                CondVal::Int(i) => CondVal::Int(*i),
                CondVal::LocRef(l) => CondVal::LocRef(map_name(locs, l)),
            };
            Prop::Eq(term, val)
        }
        Prop::And(a, b) => Prop::And(
            Box::new(rename_prop(a, locs, regs)),
            Box::new(rename_prop(b, locs, regs)),
        ),
        Prop::Or(a, b) => Prop::Or(
            Box::new(rename_prop(a, locs, regs)),
            Box::new(rename_prop(b, locs, regs)),
        ),
        Prop::Not(inner) => Prop::Not(Box::new(rename_prop(inner, locs, regs))),
    }
}

/// Rename shared locations (globally) and registers (per thread, indexed
/// like `test.threads`) throughout a test: init keys, pointer-init
/// targets, every thread body, and the final-state condition. Names
/// absent from a map are kept.
pub fn rename_test(
    test: &Test,
    locs: &BTreeMap<String, String>,
    regs: &[BTreeMap<String, String>],
) -> Test {
    let empty = BTreeMap::new();
    let init = test
        .init
        .iter()
        .map(|(k, v)| {
            let v = match v {
                InitVal::Int(i) => InitVal::Int(*i),
                InitVal::Ptr(t) => InitVal::Ptr(map_name(locs, t)),
            };
            (map_name(locs, k), v)
        })
        .collect();
    let threads = test
        .threads
        .iter()
        .enumerate()
        .map(|(i, t)| Thread::new(rename_stmts(&t.body, locs, regs.get(i).unwrap_or(&empty))))
        .collect();
    let condition = Condition {
        quantifier: test.condition.quantifier,
        prop: rename_prop(&test.condition.prop, locs, regs),
    };
    Test { name: test.name.clone(), init, threads, condition }
}

/// Reorder threads so that new thread `i` is old thread `order[i]`,
/// remapping the `t:reg` thread indices in the condition accordingly.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..test.threads.len()`.
pub fn permute_threads(test: &Test, order: &[usize]) -> Test {
    assert_eq!(order.len(), test.threads.len(), "order must cover every thread");
    let mut inverse = vec![usize::MAX; order.len()];
    for (new, &old) in order.iter().enumerate() {
        assert!(inverse[old] == usize::MAX, "order must be a permutation");
        inverse[old] = new;
    }
    let threads = order.iter().map(|&old| test.threads[old].clone()).collect();
    let condition = Condition {
        quantifier: test.condition.quantifier,
        prop: remap_prop_threads(&test.condition.prop, &inverse),
    };
    Test { name: test.name.clone(), init: test.init.clone(), threads, condition }
}

fn remap_prop_threads(p: &Prop, inverse: &[usize]) -> Prop {
    match p {
        Prop::True => Prop::True,
        // Out-of-range thread indices (a malformed condition) are kept
        // as-is rather than panicking; validation reports them elsewhere.
        Prop::Eq(StateTerm::Reg { thread, reg }, val) => Prop::Eq(
            StateTerm::Reg {
                thread: inverse.get(*thread).copied().unwrap_or(*thread),
                reg: reg.clone(),
            },
            val.clone(),
        ),
        Prop::Eq(term, val) => Prop::Eq(term.clone(), val.clone()),
        Prop::And(a, b) => Prop::And(
            Box::new(remap_prop_threads(a, inverse)),
            Box::new(remap_prop_threads(b, inverse)),
        ),
        Prop::Or(a, b) => Prop::Or(
            Box::new(remap_prop_threads(a, inverse)),
            Box::new(remap_prop_threads(b, inverse)),
        ),
        Prop::Not(inner) => Prop::Not(Box::new(remap_prop_threads(inner, inverse))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const MP: &str = r#"
C MP
{ x=0; y=0; }
P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }
P1(int *x, int *y) {
    int r0; int r1;
    r0 = READ_ONCE(*y); smp_rmb(); r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\ 1:r1=0)
"#;

    #[test]
    fn first_occurrence_orders() {
        let t = parse(MP).unwrap();
        assert_eq!(thread_locations(&t.threads[0]), vec!["x", "y"]);
        assert_eq!(thread_locations(&t.threads[1]), vec!["y", "x"]);
        assert_eq!(thread_registers(&t.threads[1]), vec!["r0", "r1"]);
    }

    #[test]
    fn rename_is_total_and_reparseable() {
        let t = parse(MP).unwrap();
        let locs: BTreeMap<String, String> =
            [("x".into(), "a".into()), ("y".into(), "b".into())].into();
        let regs = vec![
            BTreeMap::new(),
            [("r0".to_string(), "s0".to_string()), ("r1".to_string(), "s1".to_string())].into(),
        ];
        let renamed = rename_test(&t, &locs, &regs);
        assert_eq!(renamed.shared_locations(), vec!["a", "b"]);
        assert_eq!(renamed.condition.to_string(), "exists (1:s0=1 /\\ 1:s1=0)");
        let reparsed = parse(&renamed.to_litmus_string()).unwrap();
        assert_eq!(reparsed, renamed);
    }

    #[test]
    fn permute_threads_remaps_condition_indices() {
        let t = parse(MP).unwrap();
        let swapped = permute_threads(&t, &[1, 0]);
        assert_eq!(swapped.threads[1], t.threads[0]);
        assert_eq!(swapped.condition.to_string(), "exists (0:r0=1 /\\ 0:r1=0)");
        // A double swap is the identity.
        assert_eq!(permute_threads(&swapped, &[1, 0]), t);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_non_permutation() {
        let t = parse(MP).unwrap();
        let _ = permute_threads(&t, &[0, 0]);
    }
}
