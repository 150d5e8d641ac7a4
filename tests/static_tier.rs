//! Release differential over every candidate: the check engine's static
//! caches — the facts cache's static tier and the LKMM and cat session
//! caches, all keyed on each candidate's value-free shape — against an
//! uncached evaluation of every candidate (`ExecFacts::new` plus
//! `ConsistencyModel::allows_with`, no session), in every column that
//! supports the test, with fresh sessions per test and with one set of
//! sessions kept across the whole corpus. Two corpora: the paper library plus every diy
//! cycle up to length 6, and every cycle up to length 5 with its
//! contended twin (one location, colliding write values, so many
//! candidates per pre-execution). Both run for minutes unoptimised, so
//! `ci.sh` runs them with `--release -- --ignored`.

use linux_kernel_memory_model::conformance::matrix::ModelId;
use linux_kernel_memory_model::exec::{
    check, for_each_execution, ConsistencyModel, EnumOptions, ExecFacts, MultiCheckOutcome,
    PipelineOptions, Sessions, Stats, TestResult, Verdict,
};
use linux_kernel_memory_model::generator::{
    cycles_up_to, default_alphabet, generate, generate_contended,
};
use linux_kernel_memory_model::litmus::{library, Test};
use std::sync::Arc;

/// Each supported column's result for `test`, evaluating every candidate
/// afresh.
fn uncached(models: &[&dyn ConsistencyModel], test: &Test) -> Vec<TestResult> {
    let mut results = vec![
        TestResult {
            verdict: Verdict::Forbidden,
            condition_holds: false,
            candidates: 0,
            allowed: 0,
            witnesses: 0,
        };
        models.len()
    ];
    for_each_execution(test, &EnumOptions::default(), &mut |x| {
        let satisfies = x.satisfies_prop(&test.condition.prop);
        for (r, model) in results.iter_mut().zip(models) {
            r.candidates += 1;
            if model.allows_with(x, &ExecFacts::new(x)) {
                r.allowed += 1;
                r.witnesses += usize::from(satisfies);
            }
        }
    })
    .unwrap_or_else(|e| panic!("{}: {e}", test.name));
    for r in &mut results {
        r.verdict = if r.witnesses > 0 { Verdict::Allowed } else { Verdict::Forbidden };
    }
    results
}

/// Check every test of `corpus` at jobs 1, column by column against the
/// uncached evaluation, twice: with fresh sessions per test (`check`),
/// and on one `Sessions` handle kept across the whole corpus, as a
/// campaign worker keeps it. Both must count the same, data plane
/// included; returns the static tiers the facts caches built.
fn differential(corpus: &[Test]) -> u64 {
    let columns: Vec<(ModelId, Box<dyn ConsistencyModel>)> =
        ModelId::ALL.iter().map(|&id| (id, id.instantiate())).collect();
    let stats = Arc::new(Stats::default());
    let opts = EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() };
    let kept_stats = Arc::new(Stats::default());
    let kept_opts = EnumOptions { stats: Some(kept_stats.clone()), ..EnumOptions::default() };
    let mut kept = Sessions::new(columns.iter().map(|(_, model)| model.as_ref()));
    let pipe = PipelineOptions { jobs: 1, ..Default::default() };
    for test in corpus {
        let supported: Vec<usize> =
            (0..columns.len()).filter(|&c| columns[c].0.supports(test)).collect();
        let models: Vec<&dyn ConsistencyModel> =
            supported.iter().map(|&c| columns[c].1.as_ref()).collect();
        let strict = |outcome: MultiCheckOutcome| {
            outcome.into_result().unwrap_or_else(|e| panic!("{}: {e}", test.name))
        };
        let cached = strict(check(&models, test, &opts, &pipe));
        let reused = strict(kept.check(&supported, test, &kept_opts, &pipe));
        let fresh = uncached(&models, test);
        for (k, &c) in supported.iter().enumerate() {
            let tally = |r: &TestResult| (r.verdict, r.candidates, r.allowed, r.witnesses);
            let column = columns[c].0.column();
            assert_eq!(tally(&cached[k]), tally(&fresh[k]), "{} in column {column}", test.name);
            assert_eq!(tally(&reused[k]), tally(&fresh[k]), "{} in kept {column}", test.name);
        }
    }
    assert_eq!(kept_stats.snapshot(), stats.snapshot(), "kept sessions count the same");
    stats.snapshot().data_plane.static_builds
}

#[test]
#[ignore = "63 473 tests in every column, twice; run in release"]
fn cached_columns_match_uncached_evaluation_on_the_library_and_cycles_up_to_length_6() {
    let mut corpus: Vec<Test> = library::all().iter().map(|pt| pt.test()).collect();
    corpus.extend(cycles_up_to(6, &default_alphabet()).iter().map(|c| generate(c).unwrap()));
    assert_eq!(corpus.len(), 63_473);
    // One static tier per pre-execution would be 192 428 builds; per run
    // of one shape, each test but a few builds one.
    let builds = differential(&corpus);
    assert!(builds <= 70_000, "{builds} static-tier builds");
}

#[test]
#[ignore = "contended twins of every cycle up to length 5; run in release"]
fn cached_columns_match_uncached_evaluation_on_contended_cycles_up_to_length_5() {
    let cycles = cycles_up_to(5, &default_alphabet());
    let plain = cycles.iter().map(|c| generate(c).unwrap());
    let corpus: Vec<Test> =
        plain.chain(cycles.iter().map(|c| generate_contended(c).unwrap())).collect();
    differential(&corpus);
}
