//! Release differential over every candidate: the check engine's static
//! caches — the facts cache's static tier and the LKMM and cat session
//! caches, all keyed on each candidate's value-free shape — against an
//! uncached evaluation of every candidate (`ExecFacts::new` plus
//! `ConsistencyModel::allows_with`, no session), in every column that
//! supports the test. Two corpora: the paper library plus every diy
//! cycle up to length 6, and every cycle up to length 5 with its
//! contended twin (one location, colliding write values, so many
//! candidates per pre-execution). Both run for minutes unoptimised, so
//! `ci.sh` runs them with `--release -- --ignored`.

use linux_kernel_memory_model::conformance::matrix::ModelId;
use linux_kernel_memory_model::exec::{
    check, for_each_execution, ConsistencyModel, DataPlaneStats, EnumOptions, ExecFacts,
    PipelineOptions, TestResult, Verdict,
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
/// uncached evaluation; returns the static tiers the facts caches built.
fn differential(corpus: &[Test]) -> u64 {
    let columns: Vec<(ModelId, Box<dyn ConsistencyModel>)> =
        ModelId::ALL.iter().map(|&id| (id, id.instantiate())).collect();
    let stats = Arc::new(DataPlaneStats::default());
    let pipe = PipelineOptions { jobs: 1, stats: Some(stats.clone()), ..Default::default() };
    for test in corpus {
        let (ids, models): (Vec<ModelId>, Vec<&dyn ConsistencyModel>) = columns
            .iter()
            .filter(|(id, _)| id.supports(test))
            .map(|(id, model)| (*id, model.as_ref()))
            .unzip();
        let cached = check(&models, test, &EnumOptions::default(), &pipe)
            .into_result()
            .unwrap_or_else(|e| panic!("{}: {e}", test.name));
        let fresh = uncached(&models, test);
        for ((id, c), f) in ids.iter().zip(&cached).zip(&fresh) {
            let tally = |r: &TestResult| (r.verdict, r.candidates, r.allowed, r.witnesses);
            assert_eq!(tally(c), tally(f), "{} in column {}", test.name, id.column());
        }
    }
    stats.snapshot().static_builds
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
