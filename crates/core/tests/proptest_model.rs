//! NOTE: this suite is gated behind the off-by-default `heavy-tests`
//! feature: its `proptest` dev-dependency cannot be fetched in offline
//! builds. Enable with `--features heavy-tests` after restoring the
//! `proptest` dev-dependency in this crate's Cargo.toml.
#![cfg(feature = "heavy-tests")]

//! Property-based tests on the LKMM's structural invariants, checked
//! across generated critical cycles.

use lkmm::{Lkmm, LkmmRelations};
use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// §3.2.2: "ppo relates events in program order" — on coherent
    /// candidates, ppo ⊆ po, and hb is irreflexive by construction.
    #[test]
    fn ppo_within_po_and_hb_irreflexive(idx in 0usize..161) {
        let all = cycles_up_to(4, &default_alphabet());
        let cycle = &all[idx % all.len()];
        let test = generate(cycle).unwrap();
        for_each_execution(&test, &EnumOptions::default(), &mut |x| {
            let r = LkmmRelations::compute(x);
            assert!(
                r.ppo.difference(&x.shape.po).is_empty(),
                "{}: ppo ⊄ po\n{x}",
                test.name
            );
            assert!(r.hb.is_irreflexive(), "{}: hb reflexive", test.name);
            // fence relations are program-order too.
            assert!(r.fence.difference(&x.shape.po).is_empty());
            // strong-fence ⊆ fence ⊆ ppo.
            assert!(r.strong_fence.difference(&r.fence).is_empty());
            assert!(r.fence.difference(&r.ppo).is_empty());
        })
        .unwrap();
    }

    /// Strengthening monotonicity: forbidding is stable under adding
    /// smp_mb fences — a test whose weak outcome the LKMM forbids stays
    /// forbidden when any thread gets extra fences.
    #[test]
    fn adding_mb_fences_never_weakens(idx in 0usize..161, thread_sel in 0usize..4) {
        use lkmm_exec::{check_test, Verdict};
        use lkmm_litmus::ast::Stmt;
        use lkmm_litmus::FenceKind;
        let all = cycles_up_to(4, &default_alphabet());
        let cycle = &all[idx % all.len()];
        let test = generate(cycle).unwrap();
        let model = Lkmm::new();
        let opts = EnumOptions::default();
        let before = check_test(&model, &test, &opts).unwrap().verdict;

        // Insert smp_mb() between every pair of statements in one thread.
        let mut strengthened = test.clone();
        let t = thread_sel % strengthened.threads.len();
        let body = std::mem::take(&mut strengthened.threads[t].body);
        let mut new_body = Vec::new();
        for stmt in body {
            new_body.push(stmt);
            new_body.push(Stmt::Fence(FenceKind::Mb));
        }
        strengthened.threads[t].body = new_body;
        let after = check_test(&model, &strengthened, &opts).unwrap().verdict;
        if before == Verdict::Forbidden {
            prop_assert_eq!(after, Verdict::Forbidden, "{} weakened by fences!", test.name);
        }
    }

    /// The model is monotone across the documented hierarchy on every
    /// candidate: SC-allowed ⇒ LKMM-allowed.
    #[test]
    fn sc_executions_are_lkmm_executions(idx in 0usize..161) {
        use lkmm_exec::ConsistencyModel;
        let all = cycles_up_to(4, &default_alphabet());
        let cycle = &all[idx % all.len()];
        let test = generate(cycle).unwrap();
        let model = Lkmm::new();
        for_each_execution(&test, &EnumOptions::default(), &mut |x| {
            let sc = x.shape.po.union(&x.com()).is_acyclic();
            if sc {
                assert!(model.allows(x), "{}: SC-consistent but LKMM-forbidden", test.name);
            }
        })
        .unwrap();
    }
}
