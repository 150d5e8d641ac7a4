//! Model fuzzing over generated cycles: on every candidate execution of
//! every generated test, the model hierarchy SC ⊆ TSO ⊆ LKMM must hold,
//! the cat-interpreted LKMM must agree with the native one, Theorem 1's
//! equivalence must hold, the LKMM's orders must stay within program
//! order, and the witness itself must be well formed. Adding `smp_mb()`
//! never weakens a forbidden cycle, and Scpv pruning never adds a
//! candidate.

use lkmm::{Lkmm, LkmmRelations};
use lkmm_cat::linux_kernel_model;
use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
use lkmm_exec::{check_test, ConsistencyModel, EventKind, Execution, Verdict};
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use lkmm_litmus::ast::Stmt;
use lkmm_litmus::{library, FenceKind};
use lkmm_models::{Sc, X86Tso};

#[test]
fn generated_cycles_respect_model_hierarchy_and_cat_agreement() {
    let cycles = cycles_up_to(4, &default_alphabet());
    assert!(cycles.len() > 100);
    let cat = linux_kernel_model();
    let native = Lkmm::new();
    let mut candidates = 0usize;
    for cycle in &cycles {
        let test = generate(cycle).unwrap();
        let before = candidates;
        for_each_execution(&test, &EnumOptions::default(), &mut |x| {
            candidates += 1;
            let l = native.allows(x);
            assert_eq!(cat.allows(x), l, "cat/native disagree on {}\n{x}", test.name);
            if Sc.allows(x) {
                assert!(X86Tso.allows(x), "SC ⊄ TSO on {}", test.name);
            }
            if X86Tso.allows(x) {
                assert!(l, "TSO ⊄ LKMM on {}", test.name);
            }
            // SC executions, acyclic po ∪ com, are LKMM executions.
            if x.shape.po.union(&x.com()).is_acyclic() {
                assert!(l, "SC-consistent but LKMM-forbidden on {}\n{x}", test.name);
            }
            let eq = lkmm_rcu_equiv(x);
            assert!(eq, "Theorem 1 violated on {}\n{x}", test.name);
            assert_lkmm_orders_within_po(&test.name, x);
            assert_witness_well_formed(&test.name, x);
        })
        .unwrap_or_else(|e| panic!("{}: {e}", test.name));
        assert!(candidates > before, "{} has no candidates", test.name);
    }
    assert!(candidates > 500, "only {candidates} candidates fuzzed");
}

/// §3.2.2: "ppo relates events in program order", and so do the fence
/// relations, with strong-fence ⊆ fence ⊆ ppo; hb is irreflexive.
fn assert_lkmm_orders_within_po(name: &str, x: &Execution) {
    let r = LkmmRelations::compute(x);
    let po = &x.shape.po;
    assert!(r.ppo.difference(po).is_empty(), "{name}: ppo ⊄ po\n{x}");
    assert!(r.hb.is_irreflexive(), "{name}: hb reflexive\n{x}");
    assert!(r.fence.difference(po).is_empty(), "{name}: fence ⊄ po\n{x}");
    assert!(r.strong_fence.difference(&r.fence).is_empty(), "{name}: strong-fence ⊄ fence\n{x}");
    assert!(r.fence.difference(&r.ppo).is_empty(), "{name}: fence ⊄ ppo\n{x}");
}

/// The enumerator's witness is well formed: every read has one `rf`
/// source, a write to its location with its value; `co` is a strict
/// total order per location with the initial write first; the pruned
/// candidate satisfies Scpv; dependencies leave reads forward in `po`;
/// `rmw` pairs a read with a later write to its location; and the final
/// value of each location is its `co`-maximal write's.
fn assert_witness_well_formed(name: &str, x: &Execution) {
    let n = x.universe();
    for e in x.events.iter() {
        if let EventKind::Read { loc, val, .. } = e.kind {
            let sources: Vec<usize> = (0..n).filter(|&w| x.rf.contains(w, e.id)).collect();
            assert_eq!(sources.len(), 1, "{name}: read {e} has {} sources", sources.len());
            let w = &x.events[sources[0]];
            assert!(w.is_write(), "{name}: {e} reads from {w}");
            assert_eq!(w.loc(), Some(loc), "{name}: {e} reads from {w}");
            assert_eq!(w.val(), Some(val), "{name}: {e} reads from {w}");
        }
    }
    for e in x.events.iter().filter(|e| e.is_write()) {
        assert!(!x.co.contains(e.id, e.id), "{name}: co reflexive at {e}");
        for f in x.events.iter().filter(|f| f.is_write() && f.id != e.id && f.loc() == e.loc()) {
            assert!(
                x.co.contains(e.id, f.id) ^ x.co.contains(f.id, e.id),
                "{name}: co not total between {e} and {f}"
            );
        }
        if e.is_init() {
            assert!((0..n).all(|w| !x.co.contains(w, e.id)), "{name}: {e} is not co-first");
        }
    }
    assert!(x.po_loc().union(&x.com()).is_acyclic(), "{name}: Scpv fails\n{x}");
    let s = &x.shape;
    for (a, b) in s.addr.iter().chain(s.ctrl.iter()).chain(s.data.iter()) {
        assert!(x.events[a].is_read(), "{name}: dependency from a non-read");
        assert!(s.po.contains(a, b), "{name}: dependency against po");
    }
    for (r, w) in s.rmw.iter() {
        let (r, w) = (&x.events[r], &x.events[w]);
        assert!(r.is_read() && w.is_write(), "{name}: rmw pair {r} {w}");
        assert_eq!(r.loc(), w.loc(), "{name}: rmw pair {r} {w}");
        assert!(s.po.contains(r.id, w.id), "{name}: rmw pair {r} {w} against po");
    }
    let finals = x.final_values();
    for e in x.events.iter() {
        if let EventKind::Write { loc, val, .. } = e.kind {
            if x.co.successors(e.id).next().is_none() {
                assert_eq!(finals[&loc], val, "{name}: the final value of {e}'s location");
            }
        }
    }
}

/// Strengthening is monotone: a cycle whose weak outcome the LKMM
/// forbids stays forbidden when any one of its threads gets an
/// `smp_mb()` after each statement.
#[test]
fn adding_mb_fences_never_weakens_a_forbidden_cycle() {
    let model = Lkmm::new();
    let opts = EnumOptions::default();
    let mut forbidden = 0;
    for cycle in &cycles_up_to(4, &default_alphabet()) {
        let test = generate(cycle).unwrap();
        if check_test(&model, &test, &opts).unwrap().verdict != Verdict::Forbidden {
            continue;
        }
        forbidden += 1;
        for t in 0..test.threads.len() {
            let mut strengthened = test.clone();
            let body = &mut strengthened.threads[t].body;
            *body = std::mem::take(body)
                .into_iter()
                .flat_map(|stmt| [stmt, Stmt::Fence(FenceKind::Mb)])
                .collect();
            let after = check_test(&model, &strengthened, &opts).unwrap().verdict;
            assert_eq!(after, Verdict::Forbidden, "{} weakened by fences in P{t}", test.name);
        }
    }
    assert!(forbidden > 0, "no forbidden cycle to strengthen");
}

/// Scpv pruning only drops candidates: on every cycle up to length 4
/// the two counts are equal, so the paper library, where pruning bites,
/// runs too.
#[test]
fn pruning_never_adds_candidates() {
    let count = |test: &lkmm_litmus::Test, prune_scpv| {
        let opts = EnumOptions { prune_scpv, ..Default::default() };
        let mut n = 0usize;
        for_each_execution(test, &opts, &mut |_| n += 1)
            .unwrap_or_else(|e| panic!("{}: {e}", test.name));
        n
    };
    let cycles = cycles_up_to(4, &default_alphabet());
    let tests = cycles.iter().map(|c| generate(c).unwrap());
    let mut pruned_away = 0;
    for test in tests.chain(library::all().iter().map(|pt| pt.test())) {
        let (pruned, raw) = (count(&test, true), count(&test, false));
        assert!(pruned <= raw, "{}: pruned {pruned} > raw {raw}", test.name);
        pruned_away += raw - pruned;
    }
    assert!(pruned_away > 0, "pruning never dropped a candidate");
}

fn lkmm_rcu_equiv(x: &lkmm_exec::Execution) -> bool {
    lkmm_rcu::check_equivalence(x).agree()
}

#[test]
fn every_length5_cycle_generates_and_enumerates() {
    // Broader structural sweep: length-5 cycles must all generate and
    // enumerate without error (verdicts exercised above and in benches).
    let cycles = cycles_up_to(5, &default_alphabet());
    let longer: Vec<_> = cycles.iter().filter(|c| c.len() == 5).collect();
    assert!(longer.len() > 300);
    for (i, cycle) in longer.iter().enumerate() {
        // Sample every 7th to keep the test fast; the bench sweeps all.
        if i % 7 != 0 {
            continue;
        }
        let test = generate(cycle).unwrap();
        let mut n = 0usize;
        for_each_execution(&test, &EnumOptions::default(), &mut |_| n += 1)
            .unwrap_or_else(|e| panic!("{}: {e}", test.name));
        assert!(n > 0, "{} has no candidates", test.name);
    }
}
