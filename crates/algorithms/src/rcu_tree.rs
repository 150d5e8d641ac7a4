//! Hierarchical (Tree-RCU-style) grace-period family.
//!
//! `retries` is the *level* count: a chain of updaters, each running
//! its own grace period, propagates a write up the hierarchy — updater
//! 0 retires `x0` and publishes `x1` after a full `synchronize_rcu`;
//! updater `m` observes `xm`, waits out another grace period, and
//! publishes `x(m+1)`, exactly the leaf-to-root funnel Tree-RCU
//! performs (Liang et al. verify this propagation structure). Readers
//! hold one read-side critical section and read the root and the leaf:
//! seeing the root published while missing the leaf write means some
//! reader critical section spanned a whole grace-period chain —
//! Forbidden by the RCU guarantee, at every level count.
//!
//! The weakened twin (`rcu-tree-mb`) demotes the first
//! `synchronize_rcu` to `smp_mb()`: a full fence orders the updater's
//! writes but no longer excludes a concurrent read-side critical
//! section, and the outcome is Allowed — the grace period itself is
//! load-bearing, not its barrier strength.
//!
//! The `impl` twin pushes the safe program through
//! [`lkmm_rcu::impl_verify::expand_rcu`] (the paper's Figure 15
//! userspace implementation, wait loops as final `__assume` iterations)
//! and must keep the same verdict — the Theorem 2 conformance check,
//! here as a standing family member.

use crate::{AlgoProgram, FamilyId, FamilyParams};
use lkmm_exec::Verdict;
use lkmm_rcu::impl_verify::expand_rcu;
use std::fmt::Write;

/// `demote_gps`: replace every updater's `synchronize_rcu` with
/// `smp_mb()` (the weakened twin). A full fence keeps the updater-side
/// writes ordered — and cumulativity even carries them down the chain —
/// but the reads inside a critical section are unordered among
/// themselves, so only the CS-vs-GP exclusion forbids the outcome;
/// demoting any single grace period at level ≥ 2 would still be saved
/// by the next level's strong fence.
fn source(name: &str, p: &FamilyParams, demote_gps: bool) -> String {
    let levels = p.retries;
    let mut locs = Vec::new();
    let mut args = Vec::new();
    for l in 0..=levels {
        locs.push(format!("x{l}=0"));
        args.push(format!("int *x{l}"));
    }
    let mut s = format!("C {name}\n{{ {}; }}\n", locs.join("; "));
    // Updater chain: thread m publishes level m+1.
    for m in 0..levels {
        let _ = writeln!(s, "P{m}({})\n{{", args.join(", "));
        if m == 0 {
            let _ = writeln!(s, "    WRITE_ONCE(*x0, 1);");
        } else {
            let _ = writeln!(s, "    int v;");
            let _ = writeln!(s, "    v = READ_ONCE(*x{m});");
        }
        if demote_gps {
            let _ = writeln!(s, "    smp_mb();");
        } else {
            let _ = writeln!(s, "    synchronize_rcu();");
        }
        let _ = writeln!(s, "    WRITE_ONCE(*x{}, 1);", m + 1);
        s.push_str("}\n");
    }
    // Readers.
    for j in 0..p.threads {
        let _ = writeln!(s, "P{}({})\n{{", levels + j, args.join(", "));
        let _ = writeln!(s, "    int a;");
        let _ = writeln!(s, "    int b;");
        let _ = writeln!(s, "    rcu_read_lock();");
        let _ = writeln!(s, "    a = READ_ONCE(*x{levels});");
        let _ = writeln!(s, "    b = READ_ONCE(*x0);");
        let _ = writeln!(s, "    rcu_read_unlock();");
        s.push_str("}\n");
    }
    // The chain actually propagated (each middle updater saw its
    // level), and some reader saw the root but not the leaf.
    let mut pins = Vec::new();
    for m in 1..levels {
        pins.push(format!("{m}:v=1"));
    }
    let mut bad = Vec::new();
    for j in 0..p.threads {
        let r = levels + j;
        bad.push(format!("({r}:a=1 /\\ {r}:b=0)"));
    }
    let bad = bad.join(" \\/ ");
    if pins.is_empty() {
        let _ = write!(s, "exists ({bad})");
    } else {
        let _ = write!(s, "exists ({} /\\ ({bad}))", pins.join(" /\\ "));
    }
    s
}

pub(crate) fn programs(p: &FamilyParams) -> Vec<AlgoProgram> {
    let t = p.threads;
    let l = p.retries;
    let safe = crate::must_parse(&source(&format!("rcu-tree-t{t}-l{l}"), p, false));
    let mut out = vec![
        AlgoProgram::new(FamilyId::RcuTree, safe.clone(), Verdict::Forbidden),
        AlgoProgram::new(
            FamilyId::RcuTree,
            crate::must_parse(&source(&format!("rcu-tree-mb-t{t}-l{l}"), p, true)),
            Verdict::Allowed,
        ),
    ];
    // Figure-15 implementation twin: same verdict as the abstract test
    // (Theorem 2). Only at one grace-period level — each expanded GP
    // adds a two-phase wait loop per reader, and two levels already
    // push the candidate space past the enumerator's branch bound; the
    // hierarchical-depth story belongs to the abstract chain above.
    if l == 1 {
        if let Ok(mut expanded) = expand_rcu(&safe) {
            expanded.name = format!("rcu-tree-impl-t{t}-l{l}");
            out.push(AlgoProgram::new(FamilyId::RcuTree, expanded, Verdict::Forbidden));
        }
    }
    out
}
