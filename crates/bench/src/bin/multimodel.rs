//! Single-enumeration multi-model checking vs N sequential passes.
//!
//! Dependency-free (no criterion): runs the seven-column conformance
//! corpus (library + generated cycles) through
//!
//! * `sequential` — seven one-column `MultiBatchChecker`s, one cold
//!   pass per column: every column enumerates every supported test
//!   itself;
//! * `multi` — one `MultiBatchChecker` over the same columns and masks:
//!   each test is enumerated **once** and every column's verdict is
//!   decided from that shared pass;
//!
//! asserts the two paths produce identical verdicts cell by cell,
//! asserts the enumeration reduction is at least 3x (the PR's
//! acceptance bar for a seven-column campaign), then writes
//! `BENCH_MULTIMODEL.json` in the working directory and prints a
//! summary table.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin multimodel [-- --iters N] [--max-cycle-len L]
//! ```

use lkmm_bench::{Flag, Report, Row, Val};
use lkmm_conformance::{corpus_stream, CampaignConfig, ModelId};
use lkmm_litmus::ast::Test;
use lkmm_service::{MultiBatchChecker, MultiColumn, VerdictStore};
use std::time::Instant;

fn main() {
    let (mut iters, mut max_cycle_len) = (3, 4);
    lkmm_bench::flags(&mut [
        Flag::count("--iters", &mut iters, "timed repetitions per config"),
        Flag::int("--max-cycle-len", &mut max_cycle_len, 0, "cycle length"),
    ]);

    let cfg = CampaignConfig { max_cycle_len, ..CampaignConfig::default() };
    let tests: Vec<Test> =
        corpus_stream(&cfg).map(|e| e.expect("corpus generation").test).collect();
    let models: Vec<_> = ModelId::ALL.iter().map(|id| id.instantiate()).collect();
    let mask: Vec<Vec<bool>> = ModelId::ALL
        .iter()
        .map(|id| tests.iter().map(|t| id.supports(t)).collect())
        .collect();
    let salts: Vec<String> =
        ModelId::ALL.iter().map(|id| format!("bench|col:{}", id.column())).collect();

    // Sequential: one cold dedicated pass per column over the tests that
    // column supports.
    let per_column: Vec<Vec<Test>> = mask
        .iter()
        .map(|row| {
            tests
                .iter()
                .zip(row)
                .filter(|(_, &on)| on)
                .map(|(t, _)| t.clone())
                .collect()
        })
        .collect();
    let mut seq_seconds = 0.0;
    let mut seq_candidates = 0usize;
    let mut seq_passes = 0usize;
    let mut seq_verdicts: Vec<Vec<_>> = Vec::new();
    for i in 0..iters {
        let start = Instant::now();
        let mut candidates = 0usize;
        let mut passes = 0usize;
        let mut verdicts = Vec::new();
        for (c, model) in models.iter().enumerate() {
            let column = MultiColumn { model: model.as_ref(), salt: salts[c].clone() };
            let mut checker =
                MultiBatchChecker::new(vec![column], VerdictStore::in_memory()).with_jobs(1);
            let tests = &per_column[c];
            let mut report =
                checker.check_corpus(tests, &[vec![true; tests.len()]]).expect("sequential pass");
            let report = report.columns.remove(0);
            assert_eq!(report.inconclusive, 0, "unbudgeted pass stopped early");
            candidates += report.candidates_enumerated;
            passes += report.computed;
            let cells = report.outcomes.iter().flatten();
            verdicts.push(cells.map(|o| o.outcome.result().cloned()).collect::<Vec<_>>());
        }
        seq_seconds += start.elapsed().as_secs_f64();
        if i == 0 {
            seq_candidates = candidates;
            seq_passes = passes;
            seq_verdicts = verdicts;
        }
    }

    // Multi: one cold shared-enumeration pass over all seven columns.
    let mut multi_seconds = 0.0;
    let mut multi_candidates = 0usize;
    let mut multi_passes = 0usize;
    for i in 0..iters {
        let columns: Vec<MultiColumn<'_>> = models
            .iter()
            .zip(&salts)
            .map(|(m, salt)| MultiColumn { model: m.as_ref(), salt: salt.clone() })
            .collect();
        let mut checker =
            MultiBatchChecker::new(columns, VerdictStore::in_memory()).with_jobs(1);
        let start = Instant::now();
        let report = checker.check_corpus(&tests, &mask).expect("multi pass");
        multi_seconds += start.elapsed().as_secs_f64();
        if i == 0 {
            multi_candidates = report.candidates_actual;
            multi_passes = report.enumeration_passes;
            // Cell-by-cell identity with the sequential path.
            for (c, col) in report.columns.iter().enumerate() {
                let got: Vec<_> = col
                    .outcomes
                    .iter()
                    .flatten()
                    .map(|o| o.outcome.result().cloned())
                    .collect();
                assert_eq!(
                    got, seq_verdicts[c],
                    "column {} diverges from its dedicated pass",
                    salts[c]
                );
            }
        }
    }

    let reduction = seq_candidates as f64 / multi_candidates.max(1) as f64;
    assert!(
        reduction >= 3.0,
        "single-enumeration saving below the 3x bar: {seq_candidates} -> {multi_candidates} \
         ({reduction:.2}x)"
    );

    let row = |config: &str, seconds: f64, passes: usize, candidates: usize| -> Row {
        vec![
            ("config", config.into()),
            ("seconds", Val::Fixed(seconds / iters as f64, 6)),
            ("enumeration_passes", passes.into()),
            ("candidates_enumerated", candidates.into()),
        ]
    };
    Report {
        bench: "multimodel-single-enumeration",
        params: vec![
            ("max_cycle_len", max_cycle_len.into()),
            ("iters", iters.into()),
            ("columns", ModelId::ALL.len().into()),
            ("corpus_tests", tests.len().into()),
            ("candidates_reduction", Val::Fixed(reduction, 3)),
        ],
        rows: vec![
            row("sequential", seq_seconds, seq_passes, seq_candidates),
            row("multi", multi_seconds, multi_passes, multi_candidates),
        ],
    }
    .finish("BENCH_MULTIMODEL.json");
}
