//! Cross-check: the parallel pipeline is observably identical to the
//! sequential checker on the full built-in library, for every model that
//! exercises a distinct session path (native LKMM with its statics cache,
//! the compiled cat LKMM with its static node slots, and a stateless
//! comparison model) — and, over a jobs × batch-size grid, on the
//! corpora whose candidate streams stress the batched data plane from
//! different directions: the contended-twin corpus (coherence-dominated
//! streams full of doomed candidates) and an algorithms family
//! (generated programs far bigger than any library litmus test).

use linux_kernel_memory_model::{Herd, ModelChoice};
use lkmm_exec::enumerate::EnumOptions;
use lkmm_exec::{
    check_test, check_test_governed, check_test_pipelined, Budget, BudgetKind, CheckOutcome,
    InconclusiveReason, PipelineOptions,
};
use lkmm_litmus::ast::Test;
use lkmm_litmus::library;

fn pipeline_matches_sequential(choice: ModelChoice) {
    let model = choice.model();
    let opts = EnumOptions::default();
    for pt in library::all() {
        let t = pt.test();
        let seq = check_test(model.as_ref(), &t, &opts).unwrap();
        for jobs in [1, 2, 8] {
            let par = check_test_pipelined(
                model.as_ref(),
                &t,
                &opts,
                &PipelineOptions { jobs, ..Default::default() },
            )
            .unwrap();
            assert_eq!(
                par, seq,
                "{} diverged from sequential under {:?} with jobs={jobs}",
                pt.name, choice
            );
        }
    }
}

#[test]
fn lkmm_pipeline_matches_sequential_on_library() {
    pipeline_matches_sequential(ModelChoice::Lkmm);
}

#[test]
fn cat_pipeline_matches_sequential_on_library() {
    pipeline_matches_sequential(ModelChoice::LkmmCat);
}

#[test]
fn stateless_model_pipeline_matches_sequential_on_library() {
    // SC has no session, so this covers the stateless fallback path.
    pipeline_matches_sequential(ModelChoice::Sc);
}

/// Bit-identity of every [`lkmm_exec::TestResult`] field over the full
/// jobs × batch-size grid: explicit batch sizes straddling the
/// automatic one (1 = maximal queue traffic, 4 = mid-size batches, 0 =
/// cost-derived) must not shift a single count at any worker count.
fn grid_matches_sequential(model: &dyn lkmm_exec::ConsistencyModel, tests: &[Test]) {
    let opts = EnumOptions::default();
    for t in tests {
        let seq = check_test(model, t, &opts).unwrap();
        for jobs in [1, 2, 8] {
            for batch_size in [1, 4, 0] {
                let par = check_test_pipelined(
                    model,
                    t,
                    &opts,
                    &PipelineOptions { jobs, batch_size, ..Default::default() },
                )
                .unwrap();
                assert_eq!(
                    par, seq,
                    "{} diverged at jobs={jobs} batch={batch_size}",
                    t.name
                );
            }
        }
    }
}

#[test]
fn jobs_batch_grid_matches_sequential_on_library() {
    let tests: Vec<Test> = library::all().iter().map(|pt| pt.test()).collect();
    grid_matches_sequential(ModelChoice::Lkmm.model().as_ref(), &tests);
}

/// The contended-twin corpus: every event of a cycle's test collapsed
/// onto one location, so coherence prunes most of the candidate space
/// and the stream is dominated by doomed candidates — the shape where
/// batches fill unevenly across pre-executions.
fn contended_twins() -> Vec<Test> {
    use lkmm_generator::{generate_contended, Edge, Extremity::*, InternalKind::*};
    let cycles: [&[Edge]; 3] = [
        // MP: W->W po, rfe, R->R po, fre
        &[Edge::internal(Po, W, W), Edge::Rfe, Edge::internal(Po, R, R), Edge::Fre],
        // SB: W->R po, fre, W->R po, fre
        &[Edge::internal(Po, W, R), Edge::Fre, Edge::internal(Po, W, R), Edge::Fre],
        // 2+2W-style: W->W po, coe, W->W po, coe
        &[Edge::internal(Po, W, W), Edge::Coe, Edge::internal(Po, W, W), Edge::Coe],
    ];
    let twins: Vec<Test> =
        cycles.iter().filter_map(|c| generate_contended(c).ok()).collect();
    assert!(twins.len() >= 2, "contended corpus generates");
    twins
}

#[test]
fn jobs_batch_grid_matches_sequential_on_contended_twins() {
    grid_matches_sequential(ModelChoice::Lkmm.model().as_ref(), &contended_twins());
}

#[test]
fn jobs_batch_grid_matches_sequential_on_algorithms_family() {
    // Ticket-lock programs are straight-line (no `__assume`) and much
    // larger than library litmus tests, so the auto batch size lands
    // low and budget/queue interplay differs from the litmus corpora.
    let params = lkmm_algorithms::FamilyParams::default();
    let tests: Vec<Test> = lkmm_algorithms::programs(lkmm_algorithms::FamilyId::Ticket, &params)
        .unwrap()
        .into_iter()
        .map(|p| p.test)
        .collect();
    assert!(!tests.is_empty(), "ticket family generates");
    grid_matches_sequential(ModelChoice::Lkmm.model().as_ref(), &tests);
}

#[test]
fn budget_trip_mid_batch_is_deterministic_across_jobs_and_batches() {
    // A candidate budget that trips mid-batch: the partial tally must
    // be exactly the budget at every job count and batch size, because
    // candidate fuel is spent only by the single-threaded enumerator
    // and flushed partial batches are still evaluated.
    let model = ModelChoice::Lkmm.model();
    let t = library::by_name("RWC").expect("RWC is in the library").test();
    let opts = EnumOptions {
        budget: Budget::default().with_max_candidates(7),
        ..EnumOptions::default()
    };
    for jobs in [1, 2, 8] {
        for batch_size in [1, 4, 0] {
            let outcome = check_test_governed(
                model.as_ref(),
                &t,
                &opts,
                &PipelineOptions { jobs, batch_size, ..Default::default() },
            );
            match outcome {
                CheckOutcome::Inconclusive { reason, partial } => {
                    assert_eq!(
                        reason,
                        InconclusiveReason::BudgetExceeded(BudgetKind::Candidates),
                        "jobs={jobs} batch={batch_size}"
                    );
                    assert_eq!(partial.candidates, 7, "jobs={jobs} batch={batch_size}");
                }
                CheckOutcome::Complete(_) => {
                    panic!("RWC has more than 7 candidates (jobs={jobs} batch={batch_size})")
                }
            }
        }
    }
}

#[test]
fn early_exit_agrees_on_verdict_and_condition() {
    let model = ModelChoice::Lkmm.model();
    let opts = EnumOptions::default();
    for pt in library::all() {
        let t = pt.test();
        let full = check_test(model.as_ref(), &t, &opts).unwrap();
        for jobs in [1, 4] {
            let fast = check_test_pipelined(
                model.as_ref(),
                &t,
                &opts,
                &PipelineOptions { jobs, early_exit: true, ..Default::default() },
            )
            .unwrap();
            assert_eq!(fast.verdict, full.verdict, "{} jobs={jobs}", pt.name);
            assert_eq!(
                fast.condition_holds, full.condition_holds,
                "{} jobs={jobs}",
                pt.name
            );
            // Early exit can only do less work, and its counts are
            // consistent lower bounds.
            assert!(fast.candidates <= full.candidates, "{}", pt.name);
            assert!(fast.witnesses <= full.witnesses, "{}", pt.name);
            assert!(fast.allowed <= full.allowed, "{}", pt.name);
        }
    }
}

#[test]
fn herd_reports_are_job_count_invariant() {
    // What `herd-rs --library` prints is a pure function of the Report
    // fields, so equal reports mean byte-identical CLI output.
    let base = Herd::new(ModelChoice::Lkmm).with_jobs(1);
    for jobs in [0, 2, 8] {
        let herd = Herd::new(ModelChoice::Lkmm).with_jobs(jobs);
        for pt in library::all() {
            let t = pt.test();
            let a = base.check(&t).unwrap();
            let b = herd.check(&t).unwrap();
            assert_eq!(a.result, b.result, "{} jobs={jobs}", pt.name);
            assert_eq!(a.to_string(), b.to_string(), "{} jobs={jobs}", pt.name);
        }
    }
}
