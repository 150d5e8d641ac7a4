//! Budget determinism and governance guarantees (ISSUE satellite 4).
//!
//! The contract under test: a generous budget changes *nothing* (bit-
//! identical results at any job count), an exhausted budget yields a
//! structured `Inconclusive` whose partial tallies are themselves
//! deterministic across job counts (only the single-threaded enumerator
//! spends candidate fuel), and no governance path ever panics or hangs.

use linux_kernel_memory_model::exec::{ConsistencyModel, ExecFacts, Execution};
use linux_kernel_memory_model::litmus::{library, Test};
use linux_kernel_memory_model::service::{
    ColumnReport, MultiBatchChecker, MultiColumn, Provenance, VerdictStore,
};
use linux_kernel_memory_model::{
    Budget, BudgetKind, CheckOutcome, Herd, InconclusiveReason, ModelId,
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
    let baseline = Herd::new(ModelId::LkmmNative);
    for jobs in [1, 2, 8] {
        let governed = Herd::new(ModelId::LkmmNative).with_jobs(jobs).with_budget(generous());
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
        let total = Herd::new(ModelId::LkmmNative).check(&test).unwrap().result.candidates;
        if total <= 1 {
            continue;
        }
        let mut outcomes = Vec::new();
        for jobs in [1, 2, 8] {
            let herd = Herd::new(ModelId::LkmmNative).with_jobs(jobs).with_budget(budget.clone());
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
        Herd::new(ModelId::LkmmCat).with_budget(Budget::default().with_max_eval_steps(1));
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
            Herd::new(ModelId::LkmmCat)
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

/// Fuel is burned per instruction, never per cache miss: RCU-MP's four
/// pre-executions differ only in values, so they share one shape and
/// every candidate after the first reuses its static slots, yet each
/// candidate still pays for its static instructions. Each candidate
/// burns 42 steps (its `rcu-path` fixpoint takes a second round), so 168
/// steps complete it and 167 run dry, at every job count. Both figures
/// were measured on the evaluator that keyed its static slots on each
/// pre-execution.
#[test]
fn eval_step_fuel_use_does_not_depend_on_static_cache_hits() {
    let test = library::by_name("RCU-MP").unwrap().test();
    for jobs in [1, 2, 8] {
        let herd = |steps| {
            Herd::new(ModelId::LkmmCat)
                .with_jobs(jobs)
                .with_budget(Budget::default().with_max_eval_steps(steps))
                .check_governed(&test)
                .outcome
        };
        match herd(168) {
            CheckOutcome::Complete(r) => assert_eq!(r.candidates, 4, "jobs={jobs}"),
            other => panic!("168 steps at jobs={jobs}: expected completion, got {other:?}"),
        }
        match herd(167) {
            CheckOutcome::Inconclusive {
                reason: InconclusiveReason::BudgetExceeded(BudgetKind::EvalSteps),
                ..
            } => {}
            other => panic!("167 steps at jobs={jobs}: expected exhaustion, got {other:?}"),
        }
    }
}

/// A step budget keeps a check on the calling thread, however many jobs
/// it is given: the tank is shared, so a split check would spend steps
/// on ranges a sequential run never reaches. On a test big enough to
/// split, the trip — and the partial tally — match at every job count.
#[test]
fn eval_step_trips_on_a_test_big_enough_to_split_match_at_every_job_count() {
    let thread = "(int *x) { int r0; int r1; WRITE_ONCE(*x, 1); r0 = READ_ONCE(*x); \
                  r1 = READ_ONCE(*x); }";
    let src = format!("C same\n{{ x=0; }}\nP0{thread}\nP1{thread}\nP2{thread}\nexists (0:r0=0)");
    let test = linux_kernel_memory_model::litmus::parse(&src).unwrap();
    let outcome = |jobs| {
        Herd::new(ModelId::LkmmCat)
            .with_jobs(jobs)
            .with_budget(Budget::default().with_max_eval_steps(2_000))
            .check_governed(&test)
            .outcome
    };
    let sequential = outcome(1);
    match &sequential {
        CheckOutcome::Inconclusive {
            reason: InconclusiveReason::BudgetExceeded(BudgetKind::EvalSteps),
            partial,
        } => assert!(partial.candidates > 0, "the trip falls partway through"),
        other => panic!("expected an eval-step trip, got {other:?}"),
    }
    for jobs in [2, 8] {
        assert_eq!(outcome(jobs), sequential, "jobs={jobs}");
    }
}

#[test]
fn zero_time_limit_is_inconclusive_wall_clock() {
    let herd = Herd::new(ModelId::LkmmNative)
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

/// A model whose evaluation panics on every candidate.
struct PanickingModel;

impl ConsistencyModel for PanickingModel {
    fn name(&self) -> &str {
        "panicking"
    }

    fn allows_with(&self, _: &Execution, _: &ExecFacts<'_>) -> bool {
        panic!("deliberate test panic inside model evaluation")
    }
}

#[test]
fn worker_panic_is_contained_and_the_process_continues() {
    use linux_kernel_memory_model::exec::{check, EnumOptions, PipelineOptions};
    let test = library::by_name("SB").unwrap().test();
    let opts = EnumOptions::default();
    for jobs in [1, 4] {
        let pipe = PipelineOptions { jobs, ..PipelineOptions::default() };
        match check(&[&PanickingModel], &test, &opts, &pipe).into_first() {
            CheckOutcome::Inconclusive { reason: InconclusiveReason::WorkerPanicked, .. } => {}
            other => panic!("jobs={jobs}: expected WorkerPanicked, got {other:?}"),
        }
    }
    // The process is intact: an ordinary check still completes. (SB
    // without fences is Allowed under LKMM — Figure 4.)
    let report = Herd::new(ModelId::LkmmNative).check(&test).unwrap();
    assert!(report.allowed());
}

#[test]
fn a_panicking_model_panics_through_check_and_is_contained_by_check_governed() {
    // The strict path keeps its contract: a model panic propagates out
    // of `Herd::check`, while `Herd::check_governed` reports it.
    let test = library::by_name("SB").unwrap().test();
    for jobs in [1, 4] {
        let herd = Herd::from_models(vec![Box::new(PanickingModel)]).with_jobs(jobs);
        let strict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| herd.check(&test)));
        assert!(strict.is_err(), "jobs={jobs}: Herd::check must panic");
        match herd.check_governed(&test).outcome {
            CheckOutcome::Inconclusive { reason: InconclusiveReason::WorkerPanicked, partial } => {
                assert_eq!(partial.candidates, 0, "jobs={jobs}: no candidate completed");
            }
            other => panic!("jobs={jobs}: expected WorkerPanicked, got {other:?}"),
        }
    }
}

/// A one-column checker under `salt`, as `herd-rs --store` builds it.
fn single<'m>(model: &'m dyn ConsistencyModel, salt: &str) -> MultiBatchChecker<'m> {
    let column = MultiColumn { model, salt: salt.into() };
    MultiBatchChecker::new(vec![column], VerdictStore::in_memory())
}

/// One pass of a one-column checker over `tests`.
fn pass(checker: &mut MultiBatchChecker<'_>, tests: &[Test]) -> ColumnReport {
    checker.check_corpus(tests, &[vec![true; tests.len()]]).unwrap().columns.remove(0)
}

#[test]
fn inconclusive_is_never_cached_and_a_bigger_budget_recomputes() {
    let model = linux_kernel_memory_model::model::Lkmm::new();
    let test = [library::by_name("SB").unwrap().test()];

    let mut checker =
        single(&model, "budget-test").with_budget(Budget::default().with_max_candidates(1));
    let starved = pass(&mut checker, &test);
    let cell = starved.outcomes[0].as_ref().unwrap();
    assert!(cell.outcome.result().is_none(), "starved check must be inconclusive");
    assert_eq!(checker.store().len(), 0, "inconclusive verdicts must not be stored");
    assert_eq!(starved.inconclusive, 1);

    // Retry with an unlimited budget: must recompute (miss), then hit.
    let mut checker = checker.with_budget(Budget::unlimited());
    let computed = pass(&mut checker, &test).outcomes.remove(0).unwrap();
    assert_eq!(computed.provenance, Provenance::Computed);
    assert!(computed.outcome.result().is_some());
    assert_eq!(checker.store().len(), 1);

    let hit = pass(&mut checker, &test).outcomes.remove(0).unwrap();
    assert_eq!(hit.provenance, Provenance::Hit);
    assert_eq!(hit.outcome.result(), computed.outcome.result());
}

#[test]
fn generous_budget_library_batch_matches_unbudgeted_batch() {
    let model = linux_kernel_memory_model::model::Lkmm::new();
    let library: Vec<Test> = library::all().iter().map(|pt| pt.test()).collect();

    let plain_report = pass(&mut single(&model, "s"), &library);

    let mut governed = single(&model, "s").with_budget(generous()).with_jobs(2);
    let governed_report = pass(&mut governed, &library);

    assert_eq!(governed_report.inconclusive, 0);
    assert_eq!(governed_report.computed, plain_report.computed);
    assert_eq!(governed_report.deduped, plain_report.deduped);
    assert_eq!(
        governed_report.candidates_enumerated,
        plain_report.candidates_enumerated
    );
    let cells = plain_report.outcomes.iter().zip(&governed_report.outcomes);
    for (test, (a, b)) in library.iter().zip(cells) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.key, b.key, "{}: budget must not perturb cache keys", test.name);
        assert_eq!(a.outcome.result(), b.outcome.result(), "{}", test.name);
    }
}
