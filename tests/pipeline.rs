//! Cross-check: the check engine is observably identical to the
//! sequential checker on the full built-in library, for every model that
//! exercises a distinct session path (native LKMM with its statics cache,
//! the compiled cat LKMM with its static node slots, and a stateless
//! comparison model) — and, over jobs {1, 2, 8}, on corpora that stress
//! it from different directions: the contended-twin corpus
//! (coherence-dominated streams full of doomed candidates), an
//! algorithms family (generated programs far bigger than any library
//! litmus test), and tests big enough to split over workers.

use linux_kernel_memory_model::service::{MultiBatchChecker, MultiColumn, VerdictStore};
use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::enumerate::EnumOptions;
use lkmm_exec::pipeline::INLINE_WORK;
use lkmm_exec::{
    check, check_test, Budget, BudgetKind, CheckOutcome, InconclusiveReason, PipelineOptions,
    Stats, StatsSnapshot,
};
use lkmm_litmus::ast::Test;
use lkmm_litmus::library;
use std::sync::Arc;

fn pipeline_matches_sequential(choice: ModelId) {
    let model = choice.instantiate();
    let opts = EnumOptions::default();
    for pt in library::all() {
        let t = pt.test();
        let seq = check_test(model.as_ref(), &t, &opts).unwrap();
        for jobs in [1, 2, 8] {
            let par = check(
                &[model.as_ref()],
                &t,
                &opts,
                &PipelineOptions { jobs, ..Default::default() },
            )
            .into_result()
            .unwrap();
            assert_eq!(
                par, std::slice::from_ref(&seq),
                "{} diverged from sequential under {:?} with jobs={jobs}",
                pt.name, choice
            );
        }
    }
}

#[test]
fn lkmm_pipeline_matches_sequential_on_library() {
    pipeline_matches_sequential(ModelId::LkmmNative);
}

#[test]
fn cat_pipeline_matches_sequential_on_library() {
    pipeline_matches_sequential(ModelId::LkmmCat);
}

#[test]
fn stateless_model_pipeline_matches_sequential_on_library() {
    // SC has no session, so this covers the stateless fallback path.
    pipeline_matches_sequential(ModelId::Sc);
}

/// Bit-identity of every [`lkmm_exec::TestResult`] field over jobs
/// {1, 2, 8}: no worker count may shift a single count.
fn grid_matches_sequential(model: &dyn lkmm_exec::ConsistencyModel, tests: &[Test]) {
    let opts = EnumOptions::default();
    for t in tests {
        let seq = check_test(model, t, &opts).unwrap();
        for jobs in [1, 2, 8] {
            let par = check(&[model], t, &opts, &PipelineOptions { jobs, ..Default::default() })
                .into_result()
                .unwrap();
            assert_eq!(par, std::slice::from_ref(&seq), "{} diverged at jobs={jobs}", t.name);
        }
    }
}

#[test]
fn jobs_batch_grid_matches_sequential_on_library() {
    let tests: Vec<Test> = library::all().iter().map(|pt| pt.test()).collect();
    grid_matches_sequential(ModelId::LkmmNative.instantiate().as_ref(), &tests);
}

/// The contended-twin corpus: every event of a cycle's test collapsed
/// onto one location, so coherence prunes most of the candidate space
/// and the stream is dominated by doomed candidates — the shape where
/// pre-executions differ most in cost.
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
    grid_matches_sequential(ModelId::LkmmNative.instantiate().as_ref(), &contended_twins());
}

#[test]
fn jobs_batch_grid_matches_sequential_on_algorithms_family() {
    // Ticket-lock programs are straight-line (no `__assume`) and much
    // larger than library litmus tests.
    let params = lkmm_algorithms::FamilyParams::default();
    let tests: Vec<Test> = lkmm_algorithms::programs(lkmm_algorithms::FamilyId::Ticket, &params)
        .unwrap()
        .into_iter()
        .map(|p| p.test)
        .collect();
    assert!(!tests.is_empty(), "ticket family generates");
    grid_matches_sequential(ModelId::LkmmNative.instantiate().as_ref(), &tests);
}

/// One location, `threads` writers each storing `value(thread)`, then
/// `reads` reads each — the sweep's stress test when every thread
/// writes its own value, a same-value-writer test when all write 1.
fn writers_test(name: &str, threads: usize, reads: usize, value: fn(usize) -> usize) -> Test {
    let mut src = format!("C {name}\n{{ x=0; }}\n");
    for i in 0..threads {
        let regs: String = (0..reads).map(|r| format!("int r{r}; ")).collect();
        let loads: String = (0..reads).map(|r| format!("r{r} = READ_ONCE(*x); ")).collect();
        src.push_str(&format!("P{i}(int *x) {{ {regs}WRITE_ONCE(*x, {}); {loads}}}\n", value(i)));
    }
    src.push_str("exists (0:r0=1)\n");
    lkmm_litmus::parse(&src).expect("writers test parses")
}

/// Tests big enough to split: the sweep's `stress_test(3, 2)` (4 096
/// pre-executions, 108 candidates) and three threads writing the same
/// value (64 pre-executions, 108 candidates), both well past the inline
/// prefix.
fn split_sized() -> Vec<Test> {
    let tests =
        vec![writers_test("stress-3w2r", 3, 2, |i| i + 1), writers_test("same-3w2r", 3, 2, |_| 1)];
    for t in &tests {
        let r = check_test(&lkmm_exec::model::AllowAll, t, &EnumOptions::default()).unwrap();
        assert!(r.candidates > INLINE_WORK, "{} must split", t.name);
    }
    tests
}

#[test]
fn jobs_grid_matches_sequential_on_tests_big_enough_to_split() {
    grid_matches_sequential(ModelId::LkmmNative.instantiate().as_ref(), &split_sized());
    grid_matches_sequential(ModelId::LkmmCat.instantiate().as_ref(), &split_sized());
}

#[test]
fn budget_trip_mid_batch_is_deterministic_across_jobs_and_batches() {
    // A candidate budget that trips partway through a small test: the
    // partial tally must be exactly the budget at every job count.
    let model = ModelId::LkmmNative.instantiate();
    let t = library::by_name("RWC").expect("RWC is in the library").test();
    let opts =
        EnumOptions { budget: Budget::default().with_max_candidates(7), ..EnumOptions::default() };
    for jobs in [1, 2, 8] {
        let pipe = PipelineOptions { jobs, ..Default::default() };
        match check(&[model.as_ref()], &t, &opts, &pipe).into_first() {
            CheckOutcome::Inconclusive { reason, partial } => {
                assert_eq!(
                    reason,
                    InconclusiveReason::BudgetExceeded(BudgetKind::Candidates),
                    "jobs={jobs}"
                );
                assert_eq!(partial.candidates, 7, "jobs={jobs}");
            }
            CheckOutcome::Complete(_) => panic!("RWC has more than 7 candidates (jobs={jobs})"),
        }
    }
}

#[test]
fn budget_trip_inside_a_worker_range_is_exact_at_every_job_count() {
    // The limit falls past the inline prefix, inside a range a worker
    // enumerated ahead of the commit against the whole allowance: the
    // commit re-runs that range inline, so the partial tally, the stop
    // reason and the enumeration counters match the sequential run.
    let model = ModelId::LkmmNative.instantiate();
    for t in split_sized() {
        let total = check_test(model.as_ref(), &t, &EnumOptions::default()).unwrap().candidates;
        let limit = total - 5;
        let mut seen = Vec::new();
        for jobs in [1, 2, 8] {
            let stats = Arc::new(Stats::default());
            let opts = EnumOptions {
                budget: Budget::default().with_max_candidates(limit as u64),
                stats: Some(stats.clone()),
                ..EnumOptions::default()
            };
            let pipe = PipelineOptions { jobs, ..Default::default() };
            let outcome = check(&[model.as_ref()], &t, &opts, &pipe).into_first();
            match &outcome {
                CheckOutcome::Inconclusive { reason, partial } => {
                    assert_eq!(
                        *reason,
                        InconclusiveReason::BudgetExceeded(BudgetKind::Candidates),
                        "{} at jobs={jobs}",
                        t.name
                    );
                    assert_eq!(partial.candidates, limit, "{} at jobs={jobs}", t.name);
                }
                CheckOutcome::Complete(_) => panic!("{} completed at jobs={jobs}", t.name),
            }
            seen.push((outcome, stats.snapshot().enumeration));
        }
        for (jobs, s) in [2, 8].iter().zip(&seen[1..]) {
            assert_eq!(*s, seen[0], "{} at jobs={jobs} differs from jobs=1", t.name);
        }
    }
}

#[test]
fn early_exit_agrees_on_verdict_and_condition() {
    let model = ModelId::LkmmNative.instantiate();
    let opts = EnumOptions::default();
    for t in library::all().iter().map(|pt| pt.test()).chain(split_sized()) {
        let full = check_test(model.as_ref(), &t, &opts).unwrap();
        for jobs in [1, 4] {
            let fast = check(
                &[model.as_ref()],
                &t,
                &opts,
                &PipelineOptions { jobs, early_exit: true },
            )
            .into_result()
            .unwrap()
            .remove(0);
            assert_eq!(fast.verdict, full.verdict, "{} jobs={jobs}", t.name);
            assert_eq!(
                fast.condition_holds, full.condition_holds,
                "{} jobs={jobs}",
                t.name
            );
            // Early exit can only do less work, and its counts are
            // consistent lower bounds.
            assert!(fast.candidates <= full.candidates, "{}", t.name);
            assert!(fast.witnesses <= full.witnesses, "{}", t.name);
            assert!(fast.allowed <= full.allowed, "{}", t.name);
        }
    }
}

#[test]
fn herd_reports_are_job_count_invariant() {
    // What `herd-rs --library` prints is a pure function of the Report
    // fields, so equal reports mean byte-identical CLI output.
    let base = Herd::new(ModelId::LkmmNative).with_jobs(1);
    for jobs in [0, 2, 8] {
        let herd = Herd::new(ModelId::LkmmNative).with_jobs(jobs);
        for pt in library::all() {
            let t = pt.test();
            let a = base.check(&t).unwrap();
            let b = herd.check(&t).unwrap();
            assert_eq!(a.result, b.result, "{} jobs={jobs}", pt.name);
            assert_eq!(a.to_string(), b.to_string(), "{} jobs={jobs}", pt.name);
        }
    }
}

/// The eight opt-in counters: the enumeration's five, then the data
/// plane's three.
fn counters(stats: &Stats) -> [u64; 8] {
    let StatsSnapshot { enumeration: e, data_plane: d } = stats.snapshot();
    [
        e.rf_prefixes_pruned,
        e.co_pairs_saturated,
        e.co_pairs_branched,
        e.co_leaves_tested,
        e.candidates_emitted,
        d.arena_acquires,
        d.arena_reuses,
        d.static_builds,
    ]
}

/// `herd-rs ARGS`'s exit status and its `enumeration:` and
/// `data-plane:` stderr lines.
fn herd_rs_counter_lines(args: &[&str]) -> (bool, Vec<String>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_herd-rs"))
        .args(args)
        .env_remove("LKMM_FAULTPOINTS")
        .output()
        .expect("spawn herd-rs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let lines = stderr
        .lines()
        .filter(|l| l.contains("enumeration:") || l.contains("data-plane:"))
        .map(str::to_string)
        .collect();
    (out.status.success(), lines)
}

/// Pins by value the counters that the campaign pins in
/// `tests/conformance.rs` leave out: a multi-model check of the library,
/// split checks, a cached check cold and warm, and the CLI's stderr
/// lines.
#[test]
fn counters_outside_the_campaigns_are_pinned() {
    let models = [ModelId::LkmmNative, ModelId::LkmmCat, ModelId::Sc];

    // One enumeration for three models over the library, inline.
    let stats = Arc::new(Stats::default());
    let herd = Herd::new_multi(&models)
        .with_options(EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() });
    for pt in library::all() {
        let _ = herd.check_multi_governed(&pt.test());
    }
    assert_eq!(counters(&stats), [1, 1, 18, 170, 170, 1700, 1436, 37], "library at jobs 1");

    // Split checks: which worker ran which range decides the arena
    // counts, so only the enumeration's are pinned.
    let stats = Arc::new(Stats::default());
    let herd = Herd::new_multi(&models)
        .with_options(EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() })
        .with_jobs(2);
    for t in split_sized() {
        herd.check_multi(&t).unwrap();
    }
    assert_eq!(counters(&stats)[..5], [4632, 324, 78, 216, 216], "split tests at jobs 2");

    // A cached check: the cold pass counts, the warm one adds nothing.
    let model = ModelId::LkmmNative.instantiate();
    let column = MultiColumn { model: model.as_ref(), salt: "pins".into() };
    let stats = Arc::new(Stats::default());
    let mut checker = MultiBatchChecker::new(vec![column], VerdictStore::in_memory())
        .with_options(EnumOptions { stats: Some(stats.clone()), ..EnumOptions::default() });
    let tests: Vec<Test> = library::all().iter().map(|pt| pt.test()).collect();
    let mask = [vec![true; tests.len()]];
    checker.check_corpus(&tests, &mask).unwrap();
    assert_eq!(counters(&stats), [1, 1, 18, 166, 166, 1494, 1270, 36], "cold library");
    let cold = counters(&stats);
    checker.check_corpus(&tests, &mask).unwrap();
    assert_eq!(counters(&stats), cold, "a warm pass adds nothing");

    // The CLI's `--enum-stats` lines.
    let dir = std::env::temp_dir().join(format!("lkmm-counter-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sb = dir.join("sb.litmus");
    std::fs::write(
        &sb,
        "C ci-sb\n{ x=0; y=0; }\n\
         P0(int *x, int *y) { WRITE_ONCE(*x, 1); int r0; r0 = READ_ONCE(*y); }\n\
         P1(int *x, int *y) { WRITE_ONCE(*y, 1); int r0; r0 = READ_ONCE(*x); }\n\
         exists (0:r0=0 /\\ 1:r0=0)\n",
    )
    .unwrap();
    let store = dir.join("library.bin");
    let (sb, store) = (sb.to_str().unwrap(), store.to_str().unwrap());
    let library = ["--library", "--store", store, "--enum-stats"];
    for (args, expect) in [
        (
            &["--models", "lkmm,sc", "--enum-stats", sb][..],
            [
                "herd-rs: enumeration: 0 rf prefixes pruned, 0 co pairs saturated, 0 branched, \
                 4 leaves tested, 4 candidates emitted",
                "herd-rs: data-plane: 40 arena acquires (32 reused)",
            ],
        ),
        (
            &library[..],
            [
                "herd-rs: enumeration: 1 rf prefixes pruned, 1 co pairs saturated, 18 branched, \
                 166 leaves tested, 166 candidates emitted",
                "herd-rs: data-plane: 1494 arena acquires (1270 reused)",
            ],
        ),
        (
            &library[..],
            [
                "herd-rs: enumeration: 0 rf prefixes pruned, 0 co pairs saturated, 0 branched, \
                 0 leaves tested, 0 candidates emitted",
                "herd-rs: data-plane: 0 arena acquires (0 reused)",
            ],
        ),
    ] {
        let (ok, lines) = herd_rs_counter_lines(args);
        assert!(ok, "herd-rs {args:?} failed");
        assert_eq!(lines, expect, "herd-rs {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
