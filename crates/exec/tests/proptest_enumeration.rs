//! NOTE: this suite is gated behind the off-by-default `heavy-tests`
//! feature: its `proptest` dev-dependency cannot be fetched in offline
//! builds. Enable with `--features heavy-tests` after restoring the
//! `proptest` dev-dependency in this crate's Cargo.toml.
#![cfg(feature = "heavy-tests")]

//! Property-based tests on candidate-execution enumeration: structural
//! invariants of the witnesses, for randomly chosen generated cycles.

use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
use lkmm_exec::EventKind;
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use proptest::prelude::*;

fn cycles() -> Vec<Vec<lkmm_generator::Edge>> {
    cycles_up_to(4, &default_alphabet())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn witness_invariants(idx in 0usize..161) {
        let all = cycles();
        let cycle = &all[idx % all.len()];
        let test = generate(cycle).unwrap();
        let mut count = 0usize;
        for_each_execution(&test, &EnumOptions::default(), &mut |x| {
            count += 1;
            let n = x.universe();
            // Every read has exactly one rf source, to the same location
            // and with the same value.
            for e in &x.events {
                if let EventKind::Read { loc, val, .. } = e.kind {
                    let sources: Vec<usize> =
                        (0..n).filter(|&w| x.rf.contains(w, e.id)).collect();
                    assert_eq!(sources.len(), 1, "read {e} has {} sources", sources.len());
                    let w = &x.events[sources[0]];
                    assert_eq!(w.loc(), Some(loc));
                    assert_eq!(w.val(), Some(val));
                    assert!(w.is_write());
                }
            }
            // co is a strict total order per location, rooted at the
            // initialising write.
            for e in &x.events {
                if !e.is_write() { continue; }
                assert!(!x.co.contains(e.id, e.id), "co reflexive at {e}");
                for f in &x.events {
                    if f.id == e.id || !f.is_write() || e.loc() != f.loc() { continue; }
                    assert!(
                        x.co.contains(e.id, f.id) ^ x.co.contains(f.id, e.id),
                        "co not total between {e} and {f}"
                    );
                }
                if e.is_init() {
                    // Init writes are co-minimal.
                    assert!((0..n).all(|w| !x.co.contains(w, e.id)));
                }
            }
            // With pruning on, Scpv holds by construction.
            assert!(x.po_loc().union(&x.com()).is_acyclic());
            // Dependencies originate at reads and stay in-thread po.
            for (a, b) in x.shape.addr.iter().chain(x.shape.ctrl.iter()).chain(x.shape.data.iter()) {
                assert!(x.events[a].is_read());
                assert!(x.shape.po.contains(a, b));
            }
            // rmw pairs are same-location adjacent read/write.
            for (r, w) in x.shape.rmw.iter() {
                assert!(x.events[r].is_read() && x.events[w].is_write());
                assert_eq!(x.events[r].loc(), x.events[w].loc());
                assert!(x.shape.po.contains(r, w));
            }
        }).unwrap();
        prop_assert!(count > 0, "{}: no candidates", test.name);
    }

    #[test]
    fn pruned_is_subset_of_raw(idx in 0usize..161) {
        let all = cycles();
        let cycle = &all[idx % all.len()];
        let test = generate(cycle).unwrap();
        let mut pruned = 0usize;
        let mut raw = 0usize;
        for_each_execution(&test, &EnumOptions::default(), &mut |_| pruned += 1).unwrap();
        for_each_execution(
            &test,
            &EnumOptions { prune_scpv: false, ..Default::default() },
            &mut |_| raw += 1,
        )
        .unwrap();
        prop_assert!(pruned <= raw, "{}: pruned {pruned} > raw {raw}", test.name);
    }

    #[test]
    fn final_values_are_co_maximal(idx in 0usize..161) {
        let all = cycles();
        let cycle = &all[idx % all.len()];
        let test = generate(cycle).unwrap();
        for_each_execution(&test, &EnumOptions::default(), &mut |x| {
            let finals = x.final_values();
            for e in &x.events {
                if let EventKind::Write { loc, val, .. } = e.kind {
                    if x.co.successors(e.id).next().is_none() {
                        assert_eq!(finals[&loc], val);
                    }
                }
            }
        })
        .unwrap();
    }
}
