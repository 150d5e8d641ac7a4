//! Delta-debugging minimizer for discrepancies.
//!
//! Given a failing test and a keep-predicate (the discrepancy's
//! [`Recheck`], re-evaluated from scratch), the shrinker repeatedly
//! tries structural *removals* —
//!
//! 1. drop a whole thread (remapping condition thread indices),
//! 2. drop one statement, or flatten an `if` into its branches
//!    (removing the control dependency),
//! 3. drop one conjunct of the final-state condition,
//!
//! — keeping a candidate only when it still validates
//! ([`lkmm_litmus::validate`]) *and* the predicate still fails, and
//! looping to a fixpoint. Because every accepted step removes
//! something, the result is never larger than the input; because the
//! predicate is the exact failing oracle pair, the result still
//! discriminates the same two checkers.
//!
//! Predicate evaluations that come back inconclusive (budget trips)
//! count as "fixed", so the shrinker conservatively keeps the larger,
//! known-failing test instead of walking into unverifiable territory.

use crate::matrix::ModelSet;
use crate::oracle::{recheck_violated, Discrepancy, Recheck};
use lkmm_core::budget::Budget;
use lkmm_exec::{EnumOptions, PipelineOptions};
use lkmm_litmus::ast::{Stmt, Test};
use lkmm_litmus::cond::{Condition, Prop, StateTerm};
use lkmm_litmus::validate;
use lkmm_service::canonical_text;
use std::collections::BTreeSet;

/// A minimized witness.
#[derive(Clone, Debug)]
pub struct Shrunk {
    /// The minimal discriminating test, in canonical litmus form.
    pub litmus: String,
    /// Structural size of the witness (see [`test_size`]).
    pub size: usize,
    /// Candidate reductions tried.
    pub attempts: usize,
    /// Reductions accepted (each one removed something).
    pub accepted: usize,
}

/// Shrink every discrepancy in place, as both campaigns do after their
/// oracles ran: each re-check recomputes from scratch through the exact
/// failing pair (never through a store) under `budget`, on `jobs`
/// workers. Checks that describe only the original test are left alone:
/// a library C11 expectation (a reduced test has no published column),
/// a host observation (scheduling-dependent) and an interleaving
/// divergence (its step machine cannot follow a mutated test).
pub(crate) fn shrink_discrepancies(
    discrepancies: &mut [Discrepancy],
    set: &ModelSet,
    budget: &Budget,
    jobs: usize,
) {
    let opts = EnumOptions { budget: budget.clone(), ..EnumOptions::default() };
    let pipe = PipelineOptions { jobs, ..PipelineOptions::default() };
    for d in discrepancies {
        if matches!(
            d.check,
            Recheck::C11Expectation { .. }
                | Recheck::HostObservation { .. }
                | Recheck::InterleaveDivergence { .. }
        ) {
            continue;
        }
        if !recheck_violated(&d.check, &d.test, set, &opts, &pipe) {
            // The matrix said violated, the scratch re-check disagrees
            // (a budget trip, say): leave it unshrunk rather than
            // minimize against an unreproducible predicate.
            continue;
        }
        let mut pred = |cand: &Test| recheck_violated(&d.check, cand, set, &opts, &pipe);
        let (minimal, attempts, accepted) = shrink(&d.test, &mut pred);
        d.shrunk = Some(Shrunk {
            litmus: canonical_text(&minimal),
            size: test_size(&minimal),
            attempts,
            accepted,
        });
    }
}

/// Structural size of a test: statements (nested ones included) plus
/// condition conjuncts. Every shrink step strictly decreases this, which
/// both bounds the loop and underwrites the "no larger than the
/// original" guarantee.
pub fn test_size(test: &Test) -> usize {
    fn stmts(body: &[Stmt]) -> usize {
        body.iter()
            .map(|s| match s {
                Stmt::If { then_, else_, .. } => 1 + stmts(then_) + stmts(else_),
                _ => 1,
            })
            .sum()
    }
    test.threads.iter().map(|t| stmts(&t.body)).sum::<usize>() + conjuncts(&test.condition.prop).len()
}

/// Flatten a top-level `And` chain into its conjuncts (a non-`And` prop
/// is a single conjunct; `True` is none).
fn conjuncts(prop: &Prop) -> Vec<Prop> {
    match prop {
        Prop::True => Vec::new(),
        Prop::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

fn prop_mentions_thread(prop: &Prop, thread: usize) -> bool {
    prop.terms().iter().any(|t| matches!(t, StateTerm::Reg { thread: tid, .. } if *tid == thread))
}

fn remap_term_threads(prop: &Prop, dropped: usize) -> Prop {
    match prop {
        Prop::True => Prop::True,
        Prop::Eq(StateTerm::Reg { thread, reg }, v) => Prop::Eq(
            StateTerm::Reg {
                thread: if *thread > dropped { thread - 1 } else { *thread },
                reg: reg.clone(),
            },
            v.clone(),
        ),
        Prop::Eq(t, v) => Prop::Eq(t.clone(), v.clone()),
        Prop::And(a, b) => Prop::And(
            Box::new(remap_term_threads(a, dropped)),
            Box::new(remap_term_threads(b, dropped)),
        ),
        Prop::Or(a, b) => Prop::Or(
            Box::new(remap_term_threads(a, dropped)),
            Box::new(remap_term_threads(b, dropped)),
        ),
        Prop::Not(p) => Prop::Not(Box::new(remap_term_threads(p, dropped))),
    }
}

/// `test` without thread `i`: condition conjuncts mentioning the thread
/// are dropped, surviving thread indices shifted down.
fn drop_thread(test: &Test, i: usize) -> Test {
    let mut out = test.clone();
    out.threads.remove(i);
    let kept: Vec<Prop> = conjuncts(&test.condition.prop)
        .into_iter()
        .filter(|c| !prop_mentions_thread(c, i))
        .map(|c| remap_term_threads(&c, i))
        .collect();
    out.condition = Condition { quantifier: test.condition.quantifier, prop: Prop::all(kept) };
    out
}

/// Registers assigned anywhere in a statement list.
fn assigned_regs(body: &[Stmt], out: &mut BTreeSet<String>) {
    for s in body {
        match s {
            Stmt::ReadOnce { dst, .. }
            | Stmt::LoadAcquire { dst, .. }
            | Stmt::RcuDereference { dst, .. }
            | Stmt::Xchg { dst, .. }
            | Stmt::CmpXchg { dst, .. }
            | Stmt::Assign { dst, .. } => {
                out.insert(dst.clone());
            }
            Stmt::AtomicOp { dst: Some((d, _)), .. } => {
                out.insert(d.clone());
            }
            Stmt::If { then_, else_, .. } => {
                assigned_regs(then_, out);
                assigned_regs(else_, out);
            }
            _ => {}
        }
    }
}

/// Drop condition conjuncts whose register terms are no longer assigned
/// (after a statement removal), so the reduced test can validate.
fn prune_dangling_conjuncts(test: &mut Test) {
    let per_thread: Vec<BTreeSet<String>> = test
        .threads
        .iter()
        .map(|t| {
            let mut regs = BTreeSet::new();
            assigned_regs(&t.body, &mut regs);
            regs
        })
        .collect();
    let kept: Vec<Prop> = conjuncts(&test.condition.prop)
        .into_iter()
        .filter(|c| {
            c.terms().iter().all(|term| match term {
                StateTerm::Reg { thread, reg } => {
                    per_thread.get(*thread).is_some_and(|regs| regs.contains(reg))
                }
                StateTerm::Loc(_) => true,
            })
        })
        .collect();
    test.condition =
        Condition { quantifier: test.condition.quantifier, prop: Prop::all(kept) };
}

/// Every single-statement removal of `test`: dropping one top-level or
/// nested statement, plus flattening one `if` into its branch bodies
/// (which deletes the control dependency but keeps the branch effects).
fn stmt_reductions(test: &Test) -> Vec<Test> {
    // Paths are (thread, index-path into nested If blocks).
    fn collect_paths(body: &[Stmt], prefix: &[usize], out: &mut Vec<Vec<usize>>) {
        for (i, s) in body.iter().enumerate() {
            let mut path = prefix.to_vec();
            path.push(i);
            out.push(path.clone());
            if let Stmt::If { then_, else_, .. } = s {
                let mut then_path = path.clone();
                then_path.push(0);
                collect_paths(then_, &then_path, out);
                let mut else_path = path;
                else_path.push(1);
                collect_paths(else_, &else_path, out);
            }
        }
    }
    // Apply one edit at `path`: remove the statement, or (If only)
    // splice its branches in place of the If.
    fn edit(body: &mut Vec<Stmt>, path: &[usize], flatten: bool) {
        let i = path[0];
        if path.len() == 1 {
            if flatten {
                if let Stmt::If { then_, else_, .. } = body[i].clone() {
                    let mut spliced = then_;
                    spliced.extend(else_);
                    body.splice(i..=i, spliced);
                }
            } else {
                body.remove(i);
            }
            return;
        }
        if let Stmt::If { then_, else_, .. } = &mut body[i] {
            let branch = if path[1] == 0 { then_ } else { else_ };
            edit(branch, &path[2..], flatten);
        }
    }

    let mut out = Vec::new();
    for (tid, thread) in test.threads.iter().enumerate() {
        let mut paths = Vec::new();
        collect_paths(&thread.body, &[], &mut paths);
        for path in paths {
            // Statement path encoding alternates index / branch-selector,
            // so the statement itself sits at odd path lengths.
            let is_if = {
                fn at<'a>(body: &'a [Stmt], path: &[usize]) -> Option<&'a Stmt> {
                    let s = body.get(path[0])?;
                    if path.len() == 1 {
                        return Some(s);
                    }
                    match s {
                        Stmt::If { then_, else_, .. } => {
                            at(if path[1] == 0 { then_ } else { else_ }, &path[2..])
                        }
                        _ => None,
                    }
                }
                matches!(at(&thread.body, &path), Some(Stmt::If { .. }))
            };
            for flatten in if is_if { vec![false, true] } else { vec![false] } {
                let mut cand = test.clone();
                edit(&mut cand.threads[tid].body, &path, flatten);
                prune_dangling_conjuncts(&mut cand);
                out.push(cand);
            }
        }
    }
    out
}

/// Every single-conjunct removal of the final condition.
fn conjunct_reductions(test: &Test) -> Vec<Test> {
    let cs = conjuncts(&test.condition.prop);
    (0..cs.len())
        .map(|drop| {
            let kept: Vec<Prop> = cs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, c)| c.clone())
                .collect();
            let mut cand = test.clone();
            cand.condition =
                Condition { quantifier: test.condition.quantifier, prop: Prop::all(kept) };
            cand
        })
        .collect()
}

/// Minimize `test` against `still_fails` by greedy removal to fixpoint.
///
/// `still_fails` must return `true` iff the candidate still exhibits
/// the discrepancy; it is only ever called on structurally valid tests
/// with at least one thread. The returned test is `test` itself if no
/// reduction survives.
pub fn shrink(test: &Test, still_fails: &mut dyn FnMut(&Test) -> bool) -> (Test, usize, usize) {
    let mut current = test.clone();
    let mut attempts = 0usize;
    let mut accepted = 0usize;
    loop {
        let mut reduced = false;
        // Threads first: the biggest cuts, and thread removal often
        // unlocks further statement removals.
        let mut candidates: Vec<Test> = Vec::new();
        if current.threads.len() > 1 {
            candidates.extend((0..current.threads.len()).map(|i| drop_thread(&current, i)));
        }
        candidates.extend(stmt_reductions(&current));
        candidates.extend(conjunct_reductions(&current));
        for cand in candidates {
            if cand.threads.is_empty() || test_size(&cand) >= test_size(&current) {
                continue;
            }
            if !validate(&cand).is_empty() {
                continue;
            }
            attempts += 1;
            if still_fails(&cand) {
                current = cand;
                accepted += 1;
                reduced = true;
                break; // restart reduction enumeration from the smaller test
            }
        }
        if !reduced {
            return (current, attempts, accepted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::parse;

    #[test]
    fn size_counts_nested_statements_and_conjuncts() {
        let t = lkmm_litmus::library::by_name("LB+ctrl+mb").unwrap().test();
        // P0: read + if(write) = 3; P1: read + fence + write = 3; 2 conjuncts.
        assert_eq!(test_size(&t), 8);
    }

    #[test]
    fn drop_thread_remaps_condition_indices() {
        let t = lkmm_litmus::library::by_name("MP").unwrap().test();
        let dropped = drop_thread(&t, 0);
        assert_eq!(dropped.threads.len(), 1);
        assert!(validate(&dropped).is_empty(), "{:?}", validate(&dropped));
        // MP's condition only mentions P1, which is now P0.
        assert!(dropped.condition.prop.terms().iter().all(
            |term| matches!(term, StateTerm::Reg { thread: 0, .. })
        ));
    }

    #[test]
    fn statement_removal_prunes_dangling_condition_terms() {
        let t = parse(
            "C t\n{ x=0; }\nP0(int *x) { int r0; r0 = READ_ONCE(*x); WRITE_ONCE(*x, 1); }\nexists (0:r0=1)",
        )
        .unwrap();
        let reductions = stmt_reductions(&t);
        // Dropping the read must also drop the 0:r0=1 conjunct.
        assert!(reductions.iter().all(|cand| validate(cand).is_empty()));
        assert!(reductions.iter().any(|cand| cand.condition.prop == Prop::True));
    }

    #[test]
    fn shrink_reaches_a_small_fixpoint() {
        // Predicate: the test still writes x somewhere. Minimal witness:
        // one thread, one write, true condition.
        let t = lkmm_litmus::library::by_name("MP+wmb+rmb").unwrap().test();
        let writes_x = |cand: &Test| {
            fn has_write(body: &[Stmt]) -> bool {
                body.iter().any(|s| match s {
                    Stmt::WriteOnce { addr: lkmm_litmus::ast::AddrExpr::Var(v), .. } => v == "x",
                    Stmt::If { then_, else_, .. } => has_write(then_) || has_write(else_),
                    _ => false,
                })
            }
            cand.threads.iter().any(|th| has_write(&th.body))
        };
        let mut pred = |cand: &Test| writes_x(cand);
        let (minimal, attempts, accepted) = shrink(&t, &mut pred);
        assert!(writes_x(&minimal));
        assert_eq!(test_size(&minimal), 1);
        assert_eq!(minimal.threads.len(), 1);
        assert!(attempts >= accepted);
        assert!(accepted > 0);
    }

    #[test]
    fn shrink_never_grows_and_flattens_control_dependencies() {
        let t = lkmm_litmus::library::by_name("LB+ctrl+mb").unwrap().test();
        let original = test_size(&t);
        // Keep anything that still has a write to y (the If body's write
        // survives flattening).
        let mut pred = |cand: &Test| {
            fn writes_y(body: &[Stmt]) -> bool {
                body.iter().any(|s| match s {
                    Stmt::WriteOnce { addr: lkmm_litmus::ast::AddrExpr::Var(v), .. } => v == "y",
                    Stmt::If { then_, else_, .. } => writes_y(then_) || writes_y(else_),
                    _ => false,
                })
            }
            cand.threads.iter().any(|th| writes_y(&th.body))
        };
        let (minimal, ..) = shrink(&t, &mut pred);
        assert!(test_size(&minimal) <= original);
        assert_eq!(test_size(&minimal), 1);
        // The surviving write is no longer under an If.
        assert!(minimal
            .threads
            .iter()
            .flat_map(|th| &th.body)
            .all(|s| !matches!(s, Stmt::If { .. })));
    }
}
