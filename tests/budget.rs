//! Budget determinism and governance guarantees (ISSUE satellite 4).
//!
//! The contract under test: a generous budget changes *nothing* (bit-
//! identical results at any job count), an exhausted budget yields a
//! structured `Inconclusive` whose partial tallies are themselves
//! deterministic across job counts (only the single-threaded enumerator
//! spends candidate fuel), and no governance path ever panics or hangs.

use linux_kernel_memory_model::exec::{ConsistencyModel, Execution};
use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::service::{BatchChecker, Provenance, VerdictStore};
use linux_kernel_memory_model::{
    Budget, BudgetKind, CancelToken, CheckOutcome, Herd, InconclusiveReason, ModelChoice,
};
use std::time::Duration;

/// A budget far above anything the paper library needs, on every axis.
fn generous() -> Budget {
    Budget::default()
        .with_max_candidates(100_000_000)
        .with_max_eval_steps(10_000_000_000)
        .with_time_limit(Duration::from_secs(3600))
}

#[test]
fn generous_budget_is_bit_identical_to_sequential_at_every_job_count() {
    let baseline = Herd::new(ModelChoice::Lkmm);
    for jobs in [1, 2, 8] {
        let governed = Herd::new(ModelChoice::Lkmm).with_jobs(jobs).with_budget(generous());
        for paper in library::all() {
            let test = paper.test();
            let expected = baseline.check(&test).unwrap();
            let got = governed.check_governed(&test);
            let report = got.report().unwrap_or_else(|| {
                panic!("{} at jobs={jobs}: generous budget went inconclusive", paper.name)
            });
            assert_eq!(report.result, expected.result, "{} at jobs={jobs}", paper.name);
        }
    }
}

#[test]
fn candidate_fuel_partial_tallies_are_identical_across_job_counts() {
    let budget = Budget::default().with_max_candidates(1);
    for paper in library::all() {
        let test = paper.test();
        // Tests with a single candidate complete within the fuel; the
        // interesting cases are the ones that trip it.
        let total = Herd::new(ModelChoice::Lkmm).check(&test).unwrap().result.candidates;
        if total <= 1 {
            continue;
        }
        let mut outcomes = Vec::new();
        for jobs in [1, 2, 8] {
            let herd = Herd::new(ModelChoice::Lkmm).with_jobs(jobs).with_budget(budget.clone());
            let got = herd.check_governed(&test);
            match &got.outcome {
                CheckOutcome::Inconclusive { reason, partial } => {
                    assert_eq!(
                        *reason,
                        InconclusiveReason::BudgetExceeded(BudgetKind::Candidates),
                        "{} at jobs={jobs}",
                        paper.name
                    );
                    assert_eq!(partial.candidates, 1, "{} at jobs={jobs}", paper.name);
                }
                CheckOutcome::Complete(r) => {
                    panic!("{} at jobs={jobs}: completed ({r:?}) despite 1-candidate fuel", paper.name)
                }
            }
            outcomes.push(got.outcome);
        }
        assert_eq!(outcomes[0], outcomes[1], "{}: jobs 1 vs 2", paper.name);
        assert_eq!(outcomes[0], outcomes[2], "{}: jobs 1 vs 8", paper.name);
    }
}

#[test]
fn eval_step_fuel_exhaustion_is_inconclusive() {
    // The cat evaluator burns fixpoint instructions as eval steps; one
    // step of fuel cannot possibly evaluate a candidate under LKMM-cat.
    let herd =
        Herd::new(ModelChoice::LkmmCat).with_budget(Budget::default().with_max_eval_steps(1));
    let test = library::by_name("SB").unwrap().test();
    match herd.check_governed(&test).outcome {
        CheckOutcome::Inconclusive {
            reason: InconclusiveReason::BudgetExceeded(BudgetKind::EvalSteps),
            ..
        } => {}
        other => panic!("expected eval-step exhaustion, got {other:?}"),
    }
}

/// The cat LKMM burns 41 steps per candidate (40 instructions and one
/// round of the `rcu-path` fixpoint), and SB has four candidates: 164
/// steps complete it and 163 run dry, at every job count. Both figures
/// were measured on the tree-walking interpreter the compiled evaluator
/// replaced, so this pins its fuel accounting.
#[test]
fn eval_step_fuel_use_is_pinned_under_lkmm_cat() {
    let test = library::by_name("SB").unwrap().test();
    for jobs in [1, 2, 8] {
        let herd = |steps| {
            Herd::new(ModelChoice::LkmmCat)
                .with_jobs(jobs)
                .with_budget(Budget::default().with_max_eval_steps(steps))
                .check_governed(&test)
                .outcome
        };
        match herd(164) {
            CheckOutcome::Complete(r) => assert_eq!(r.candidates, 4, "jobs={jobs}"),
            other => panic!("164 steps at jobs={jobs}: expected completion, got {other:?}"),
        }
        match herd(163) {
            CheckOutcome::Inconclusive {
                reason: InconclusiveReason::BudgetExceeded(BudgetKind::EvalSteps),
                ..
            } => {}
            other => panic!("163 steps at jobs={jobs}: expected exhaustion, got {other:?}"),
        }
    }
}

#[test]
fn zero_time_limit_is_inconclusive_wall_clock() {
    let herd = Herd::new(ModelChoice::Lkmm)
        .with_budget(Budget::default().with_time_limit(Duration::ZERO));
    let test = library::by_name("SB").unwrap().test();
    match herd.check_governed(&test).outcome {
        CheckOutcome::Inconclusive {
            reason: InconclusiveReason::BudgetExceeded(BudgetKind::WallClock),
            ..
        } => {}
        other => panic!("expected wall-clock trip, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_is_inconclusive_cancelled() {
    let token = CancelToken::new();
    token.cancel();
    let herd =
        Herd::new(ModelChoice::Lkmm).with_budget(Budget::default().with_cancel(token.clone()));
    let test = library::by_name("MP").unwrap().test();
    match herd.check_governed(&test).outcome {
        CheckOutcome::Inconclusive {
            reason: InconclusiveReason::BudgetExceeded(BudgetKind::Cancelled),
            ..
        } => {}
        other => panic!("expected cancellation, got {other:?}"),
    }
    assert!(token.is_cancelled());
}

/// A model whose evaluation panics on every candidate.
struct PanickingModel;

impl ConsistencyModel for PanickingModel {
    fn name(&self) -> &str {
        "panicking"
    }

    fn allows(&self, _: &Execution) -> bool {
        panic!("deliberate test panic inside model evaluation")
    }
}

#[test]
fn worker_panic_is_contained_and_the_process_continues() {
    use linux_kernel_memory_model::exec::{
        check_test_governed, EnumOptions, PipelineOptions,
    };
    let test = library::by_name("SB").unwrap().test();
    let opts = EnumOptions::default();
    for jobs in [1, 4] {
        let pipe = PipelineOptions { jobs, ..PipelineOptions::default() };
        match check_test_governed(&PanickingModel, &test, &opts, &pipe) {
            CheckOutcome::Inconclusive { reason: InconclusiveReason::WorkerPanicked, .. } => {}
            other => panic!("jobs={jobs}: expected WorkerPanicked, got {other:?}"),
        }
    }
    // The process is intact: an ordinary check still completes. (SB
    // without fences is Allowed under LKMM — Figure 4.)
    let report = Herd::new(ModelChoice::Lkmm).check(&test).unwrap();
    assert!(report.allowed());
}

#[test]
fn inconclusive_is_never_cached_and_a_bigger_budget_recomputes() {
    let model = linux_kernel_memory_model::model::Lkmm::new();
    let test = library::by_name("SB").unwrap().test();

    let mut checker = BatchChecker::new(&model, VerdictStore::in_memory(), "budget-test")
        .with_budget(Budget::default().with_max_candidates(1));
    let starved = checker.check_one(&test).unwrap();
    assert!(starved.result().is_none(), "starved check must be inconclusive");
    assert_eq!(checker.store().len(), 0, "inconclusive verdicts must not be stored");
    assert_eq!(checker.session_inconclusive(), 1);

    // Retry with an unlimited budget: must recompute (miss), then hit.
    checker.set_budget(Budget::unlimited());
    let computed = checker.check_one(&test).unwrap();
    assert_eq!(computed.provenance, Provenance::Computed);
    assert!(computed.result().is_some());
    assert_eq!(checker.store().len(), 1);

    let hit = checker.check_one(&test).unwrap();
    assert_eq!(hit.provenance, Provenance::Hit);
    assert_eq!(hit.result(), computed.result());
}

#[test]
fn generous_budget_library_batch_matches_unbudgeted_batch() {
    let model = linux_kernel_memory_model::model::Lkmm::new();

    let mut plain = BatchChecker::new(&model, VerdictStore::in_memory(), "s");
    let plain_report = plain.check_library().unwrap();

    let mut governed = BatchChecker::new(&model, VerdictStore::in_memory(), "s")
        .with_budget(generous())
        .with_jobs(2);
    let governed_report = governed.check_library().unwrap();

    assert_eq!(governed_report.inconclusive, 0);
    assert_eq!(governed_report.computed, plain_report.computed);
    assert_eq!(governed_report.deduped, plain_report.deduped);
    assert_eq!(
        governed_report.candidates_enumerated,
        plain_report.candidates_enumerated
    );
    for (a, b) in plain_report.outcomes.iter().zip(governed_report.outcomes.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.key, b.key, "{}: budget must not perturb cache keys", a.name);
        assert_eq!(a.result(), b.result(), "{}", a.name);
    }
}
