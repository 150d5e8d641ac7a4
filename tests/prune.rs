//! Differential equivalence of the consistency-driven enumerator
//! (ISSUE 6): the pruned strategy must emit exactly the witnesses the
//! naive generate-then-judge path emits — same `(rf, co)` pairs, same
//! order — across the paper library and generated diy cycles, and its
//! checker results must stay bit-identical at every job count,
//! including under budget exhaustion.

use linux_kernel_memory_model::exec::enumerate::{
    enumerate, EnumOptions, EnumStrategy, PreExecutions, Stats,
};
use linux_kernel_memory_model::exec::{check, check_test, PipelineOptions};
use linux_kernel_memory_model::generator::{
    cycles_up_to, default_alphabet, generate, generate_contended,
};
use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::litmus::Test;
use linux_kernel_memory_model::{
    Budget, BudgetKind, CheckOutcome, Herd, InconclusiveReason, ModelId,
};
use std::ops::ControlFlow;
use std::sync::Arc;

fn with_strategy(strategy: EnumStrategy) -> EnumOptions {
    EnumOptions { strategy, ..Default::default() }
}

/// The `(rf, co)` witness sequence of a test under one strategy.
fn witnesses(t: &Test, strategy: EnumStrategy) -> Vec<(Vec<(usize, usize)>, Vec<(usize, usize)>)> {
    enumerate(t, &with_strategy(strategy))
        .unwrap()
        .iter()
        .map(|x| (x.rf.iter().collect(), x.co.iter().collect()))
        .collect()
}

fn assert_same_witnesses(t: &Test, name: &str) {
    let pruned = witnesses(t, EnumStrategy::Pruned);
    let naive = witnesses(t, EnumStrategy::Naive);
    assert_eq!(
        pruned.len(),
        naive.len(),
        "{name}: pruned emitted {} candidates, naive {}",
        pruned.len(),
        naive.len()
    );
    for (i, (p, n)) in pruned.iter().zip(&naive).enumerate() {
        assert_eq!(p, n, "{name}: witness {i} differs between strategies");
    }
}

#[test]
fn library_witnesses_match_naive_exactly() {
    for pt in library::all() {
        assert_same_witnesses(&pt.test(), pt.name);
    }
}

#[test]
fn generated_cycles_up_to_len_5_match_naive_exactly() {
    let cycles = cycles_up_to(5, &default_alphabet());
    assert!(!cycles.is_empty());
    for cycle in &cycles {
        let t = generate(cycle).unwrap();
        assert_same_witnesses(&t, &t.name);
    }
}

#[test]
fn contended_twins_match_naive_exactly() {
    // Contended twins (one location, colliding write values, cycle
    // repeated to the contention budget) are where the two strategies'
    // internal search trees diverge most — the naive path visits an
    // order of magnitude more leaves — so the emitted sequences
    // agreeing here is the strongest equivalence evidence. The naive
    // twin is expensive under the debug profile, so sample the cycle
    // set deterministically; the release-profile prune bench asserts
    // emitted-count equality over the full corpus.
    let cycles = cycles_up_to(5, &default_alphabet());
    let sampled: Vec<_> = cycles.iter().step_by(25).collect();
    assert!(sampled.len() > 100);
    for cycle in sampled {
        let t = generate_contended(cycle).unwrap();
        assert_same_witnesses(&t, &t.name);
    }
}

#[test]
fn algorithm_family_programs_match_naive_exactly() {
    // The refcount and seqlock families exercise shapes the cycle
    // corpus never generates — atomic RMW chains ending in a
    // final-drop acquire, and `__assume`-bounded retry loops — so they
    // probe the pruned enumerator's forced-coherence saturation on
    // multi-write RMW locations.
    use linux_kernel_memory_model::algorithms::{programs, FamilyId, FamilyParams};
    // Default size plus a deeper retry loop; three-thread expansions are
    // left to the release-profile algorithms bench — the naive twin's
    // permutation product makes them minutes-slow under the debug
    // profile.
    let sizes = [
        FamilyParams::default(),
        FamilyParams { retries: 2, ..FamilyParams::default() },
    ];
    for family in [FamilyId::Refcount, FamilyId::Seqlock] {
        for params in &sizes {
            for p in programs(family, params).unwrap() {
                assert_same_witnesses(&p.test, &p.test.name);
            }
        }
    }
}

#[test]
fn raw_mode_ignores_the_strategy_knob() {
    // `prune_scpv: false` must keep the full unfiltered candidate set
    // regardless of strategy: the pruned enumerator only exists behind
    // the Scpv filter.
    for name in ["SB", "MP", "LB+ctrl+mb", "CoRR"] {
        let Some(pt) = library::by_name(name) else { continue };
        let t = pt.test();
        let raw_pruned = enumerate(
            &t,
            &EnumOptions { prune_scpv: false, strategy: EnumStrategy::Pruned, ..Default::default() },
        )
        .unwrap();
        let raw_naive = enumerate(
            &t,
            &EnumOptions { prune_scpv: false, strategy: EnumStrategy::Naive, ..Default::default() },
        )
        .unwrap();
        assert_eq!(raw_pruned.len(), raw_naive.len(), "{name}: raw candidate sets differ");
    }
}

#[test]
fn pipelined_results_are_identical_between_strategies_at_all_job_counts() {
    let model = ModelId::LkmmNative.instantiate();
    for pt in library::all() {
        let t = pt.test();
        let seq = check_test(model.as_ref(), &t, &with_strategy(EnumStrategy::Naive)).unwrap();
        for strategy in [EnumStrategy::Pruned, EnumStrategy::Naive] {
            for jobs in [1, 2, 8] {
                let got = check(
                    &[model.as_ref()],
                    &t,
                    &with_strategy(strategy),
                    &PipelineOptions { jobs, ..Default::default() },
                )
                .into_result()
                .unwrap();
                assert_eq!(
                    got, std::slice::from_ref(&seq),
                    "{} diverged under {strategy:?} with jobs={jobs}",
                    pt.name
                );
            }
        }
    }
}

#[test]
fn budget_trips_yield_job_count_deterministic_partial_tallies() {
    // Candidate fuel is spent per *emitted* candidate, and both
    // strategies emit the identical sequence — so a fuel trip must
    // surface the same partial tally at every job count and under
    // either strategy.
    let budget = Budget::default().with_max_candidates(2);
    let mut tests: Vec<Test> = ["SB", "MP", "LB", "IRIW"]
        .iter()
        .filter_map(|name| library::by_name(name).map(|pt| pt.test()))
        .collect();
    // A contended twin trips the budget mid-way through a search tree
    // the two strategies traverse very differently.
    let mp = linux_kernel_memory_model::generator::parse_cycle("PodWW Rfe PodRR Fre").unwrap();
    tests.push(generate_contended(&mp).unwrap());
    for test in &tests {
        let name = &test.name;
        let total = Herd::new(ModelId::LkmmNative).check(test).unwrap().result.candidates;
        if total <= 2 {
            continue;
        }
        let mut outcomes = Vec::new();
        for strategy in [EnumStrategy::Pruned, EnumStrategy::Naive] {
            for jobs in [1, 2, 8] {
                let herd = Herd::new(ModelId::LkmmNative)
                    .with_options(with_strategy(strategy))
                    .with_jobs(jobs)
                    .with_budget(budget.clone());
                let got = herd.check_governed(&test);
                match &got.outcome {
                    CheckOutcome::Inconclusive { reason, partial } => {
                        assert_eq!(
                            *reason,
                            InconclusiveReason::BudgetExceeded(BudgetKind::Candidates),
                            "{name} under {strategy:?} at jobs={jobs}"
                        );
                        assert_eq!(
                            partial.candidates, 2,
                            "{name} under {strategy:?} at jobs={jobs}"
                        );
                    }
                    CheckOutcome::Complete(r) => panic!(
                        "{name} under {strategy:?} at jobs={jobs}: completed ({r:?}) \
                         despite 2-candidate fuel"
                    ),
                }
                outcomes.push(got.outcome);
            }
        }
        for o in &outcomes[1..] {
            assert_eq!(outcomes[0], *o, "{name}: partial tallies diverged");
        }
    }
}

#[test]
fn pruning_counters_report_real_work() {
    let stats = Arc::new(Stats::default());
    let opts = EnumOptions { stats: Some(Arc::clone(&stats)), ..Default::default() };
    let mut emitted = 0usize;
    for pt in library::all() {
        emitted += enumerate(&pt.test(), &opts).unwrap().len();
    }
    let snap = stats.snapshot().enumeration;
    assert_eq!(snap.candidates_emitted, emitted as u64);
    // The pruned path tests exactly the leaves it emits: saturation
    // means no leaf is built only to be filtered.
    assert_eq!(snap.co_leaves_tested, snap.candidates_emitted);
    assert!(snap.rf_prefixes_pruned > 0, "library has doomed rf prefixes");
    assert!(snap.co_pairs_saturated > 0, "library has forced co pairs");

    // The naive twin visits strictly more leaves on the same corpus.
    let naive_stats = Arc::new(Stats::default());
    let naive_opts = EnumOptions {
        strategy: EnumStrategy::Naive,
        stats: Some(Arc::clone(&naive_stats)),
        ..Default::default()
    };
    for pt in library::all() {
        let _ = enumerate(&pt.test(), &naive_opts).unwrap();
    }
    let naive_snap = naive_stats.snapshot().enumeration;
    assert_eq!(naive_snap.candidates_emitted, snap.candidates_emitted);
    assert!(
        naive_snap.co_leaves_tested > snap.co_leaves_tested,
        "naive tested {} leaves, pruned {} — pruning should cut leaves",
        naive_snap.co_leaves_tested,
        snap.co_leaves_tested
    );
}

#[test]
fn sliced_units_concatenate_to_the_sequential_stream_and_counters() {
    // Every strategy, several slice counts: visiting the units one by
    // one emits the sequential candidates in order, and the pruning
    // counters add up to the sequential ones (a pruned `rf` choice
    // shared by several slices is counted by one of them).
    let same_value = linux_kernel_memory_model::litmus::parse(
        "C same\n{ x=0; }\n\
         P0(int *x) { int r0; int r1; WRITE_ONCE(*x, 1); r0 = READ_ONCE(*x); \
         r1 = READ_ONCE(*x); }\n\
         P1(int *x) { int r0; WRITE_ONCE(*x, 1); r0 = READ_ONCE(*x); }\n\
         P2(int *x) { int r0; r0 = READ_ONCE(*x); WRITE_ONCE(*x, 1); }\n\
         exists (0:r0=0)",
    )
    .unwrap();
    let tests = [library::by_name("ISA2").unwrap().test(), same_value];
    let configs = [
        EnumOptions::default(),
        EnumOptions { strategy: EnumStrategy::Naive, ..EnumOptions::default() },
        EnumOptions { prune_scpv: false, ..EnumOptions::default() },
    ];
    for t in &tests {
        for base in &configs {
            let run = |slices: usize, unit_by_unit: bool| {
                let stats = Arc::new(Stats::default());
                let opts = EnumOptions { stats: Some(stats.clone()), ..base.clone() };
                let mut meter = opts.budget.meter();
                let space = PreExecutions::new(t, &opts, &mut meter).unwrap();
                let mut cursor = space.cursor();
                let units = space.len() * slices;
                let step = if unit_by_unit { 1 } else { units.max(1) };
                let (mut out, mut emitted) = (Vec::new(), 0);
                for start in (0..units).step_by(step) {
                    let range = start..(start + step).min(units);
                    let _ = cursor
                        .try_for_each_in(range, slices, &opts, &mut meter, &mut emitted, &mut |x| {
                            out.push((x.rf.clone(), x.co.clone(), x.events.clone()));
                            ControlFlow::Continue(())
                        })
                        .unwrap();
                }
                assert_eq!(emitted, out.len());
                (out, stats.snapshot().enumeration)
            };
            let (whole, whole_stats) = run(1, false);
            assert!(!whole.is_empty(), "{}", t.name);
            for slices in [1, 2, 3, 16] {
                let (sliced, sliced_stats) = run(slices, true);
                assert!(sliced == whole, "{} at {slices} slices: stream differs", t.name);
                assert_eq!(sliced_stats, whole_stats, "{} at {slices} slices", t.name);
            }
        }
    }
}
