//! The conformance engine end to end (ISSUE satellite: oracle invariant
//! coverage on the full named library).
//!
//! The contract under test: a campaign over the paper's whole library
//! holds every oracle — native ≡ cat everywhere, the SC ⊆ TSO ⊆ LKMM
//! envelope on non-RCU tests, seeded simulator soundness, and the §5.2
//! C11 divergence whitelist — while an artificially broken checker is
//! caught, and its discrepancy shrinks to a minimal litmus test that
//! still discriminates the two disagreeing checkers.

use linux_kernel_memory_model::algorithms::FamilyId;
use linux_kernel_memory_model::conformance::{
    algo_human_table, algo_json_report, corpus_stream, human_table, json_report,
    observability_lines, recheck_violated, run_algo_campaign_with, run_campaign,
    run_campaign_with, test_size, AlgoConfig, CampaignConfig, CampaignError, FailureKind, ModelId,
    ModelSet, OracleKind, Recheck, ResilienceConfig, SimConfig,
};
use linux_kernel_memory_model::exec::model::AllowAll;
use linux_kernel_memory_model::exec::{
    Budget, ConsistencyModel, EnumOptions, ExecFacts, Execution, ModelSession, PipelineOptions,
    Stats,
};
use linux_kernel_memory_model::litmus::library;
use linux_kernel_memory_model::service::hash::fnv64;
use linux_kernel_memory_model::service::json::Json;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Library-only campaign with a small seeded simulator pass and the
/// shrinker armed — cheap enough for CI, exercises every layer.
fn library_campaign() -> CampaignConfig {
    CampaignConfig {
        max_cycle_len: 0,
        sim: SimConfig { iterations: 50, seed: 7, stride: 1 },
        ..CampaignConfig::default()
    }
}

#[test]
fn full_library_holds_every_oracle() {
    let report = run_campaign(&library_campaign()).unwrap();
    assert_eq!(report.corpus_library, library::all().len());
    assert!(
        report.clean(),
        "reference models disagree: {:#?}",
        report.discrepancies.iter().map(|d| &d.detail).collect::<Vec<_>>()
    );
    // Native ≡ cat was checked on every row, violated nowhere.
    let agreement = &report.oracles[0];
    assert_eq!(agreement.kind, OracleKind::NativeCatAgreement);
    assert_eq!(agreement.summary.checked, library::all().len());
    assert_eq!(agreement.summary.violations, 0);
    // The soundness pass actually ran: every LKMM-forbidden non-SRCU
    // test × four architectures.
    let sim = &report.oracles[2];
    assert_eq!(sim.kind, OracleKind::SimSoundness);
    assert!(sim.summary.checked > 0, "no simulator runs happened");
    assert_eq!(sim.summary.violations, 0);
    // The C11 column: checked on every C11-supported row, no
    // expectation misses, no unlicensed divergences.
    let c11 = &report.oracles[3];
    assert_eq!(c11.kind, OracleKind::C11Divergence);
    assert_eq!(c11.summary.violations, 0);
    assert!(c11.summary.checked > 0);
}

/// A checker that forbids everything: maximally wrong in the direction
/// the agreement oracle (and only the witnesses count of the native
/// model) can see.
struct ForbidAll;

impl ConsistencyModel for ForbidAll {
    fn name(&self) -> &str {
        "forbid-all"
    }

    fn allows_with(&self, _x: &Execution, _facts: &ExecFacts<'_>) -> bool {
        false
    }
}

#[test]
fn broken_cat_column_is_caught_and_shrunk() {
    let mut set = ModelSet::standard();
    set.replace(ModelId::LkmmCat, Box::new(ForbidAll));
    let config = |jobs| CampaignConfig {
        jobs,
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        ..library_campaign()
    };
    let cfg = config(1);
    let report = run_campaign_with(&cfg, &set).unwrap();
    assert!(!report.clean(), "a forbid-everything cat column must disagree somewhere");
    // Discrepancies, their shrunk witnesses and all: the same report at
    // every job count.
    let cfg8 = config(8);
    assert_eq!(
        json_report(&run_campaign_with(&cfg8, &set).unwrap(), &cfg8).to_string(),
        json_report(&report, &cfg).to_string(),
        "jobs=8 differs from jobs=1"
    );

    let d = report
        .discrepancies
        .iter()
        .find(|d| d.oracle == OracleKind::NativeCatAgreement)
        .expect("agreement oracle fires");
    assert!(matches!(
        d.check,
        Recheck::ResultAgreement { left: ModelId::LkmmNative, right: ModelId::LkmmCat }
    ));

    // The shrunk witness: no larger than the original, still a valid
    // litmus test, and still discriminating the two checkers.
    let shrunk = d.shrunk.as_ref().expect("campaign shrinks by default");
    assert!(shrunk.size <= test_size(&d.test), "shrinking grew the test");
    let witness = linux_kernel_memory_model::litmus::parse(&shrunk.litmus)
        .expect("shrunk witness re-parses");
    assert_eq!(test_size(&witness), shrunk.size);
    assert!(
        recheck_violated(
            &d.check,
            &witness,
            &set,
            &EnumOptions::default(),
            &PipelineOptions::default(),
        ),
        "minimal witness no longer discriminates native from the mutant cat"
    );
    // And against the *healthy* set the same witness is clean — the
    // discrepancy really is the mutant's fault.
    assert!(!recheck_violated(
        &d.check,
        &witness,
        &ModelSet::standard(),
        &EnumOptions::default(),
        &PipelineOptions::default(),
    ));
}

#[test]
fn envelope_oracle_sees_through_a_weakened_hardware_model() {
    // An allow-everything TSO violates SC ⊆ TSO nowhere (supersets are
    // fine) but breaks TSO ⊆ LKMM wherever the LKMM forbids: the
    // envelope oracle must attribute it to the (tso, lkmm) pair.
    struct AllowAll;
    impl ConsistencyModel for AllowAll {
        fn name(&self) -> &str {
            "allow-all"
        }
        fn allows_with(&self, _x: &Execution, _facts: &ExecFacts<'_>) -> bool {
            true
        }
    }
    let mut set = ModelSet::standard();
    set.replace(ModelId::Tso, Box::new(AllowAll));
    let cfg = CampaignConfig {
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        shrink: false,
        ..library_campaign()
    };
    let report = run_campaign_with(&cfg, &set).unwrap();
    let envelope: Vec<_> = report
        .discrepancies
        .iter()
        .filter(|d| d.oracle == OracleKind::EnvelopeOrdering)
        .collect();
    assert!(!envelope.is_empty());
    assert!(envelope.iter().all(|d| matches!(
        d.check,
        Recheck::Envelope { sub: ModelId::Tso, envelope: ModelId::LkmmNative }
    )));
    // SB+mbs is the classic case: TSO genuinely forbids it, so the
    // mutant's Allowed verdict violates the envelope there.
    assert!(envelope.iter().any(|d| d.test_name == "SB+mbs"));
}

#[test]
fn reports_render_and_stay_deterministic_across_runs() {
    let cfg = library_campaign();
    let a = run_campaign(&cfg).unwrap();
    let b = run_campaign(&cfg).unwrap();
    let ja = json_report(&a, &cfg).to_string();
    let jb = json_report(&b, &cfg).to_string();
    assert_eq!(ja, jb, "same config must render byte-identical JSON");
    let v = Json::parse(&ja).unwrap();
    assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("corpus").and_then(|c| c.get("library")).and_then(Json::as_u64),
        Some(library::all().len() as u64)
    );
    assert!(human_table(&a).contains("no discrepancies"));

    // The same contract at every job count, on a corpus with in-corpus
    // duplicates: cold, warm, and suspended halfway then resumed.
    let dir = std::env::temp_dir().join(format!("lkmm-conf-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reference = counted_runs(&dir, 1);
    for jobs in [2, 8] {
        assert_eq!(counted_runs(&dir, jobs), reference, "jobs={jobs} differs from jobs=1");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One counted campaign's JSON report and per-column hits, computed,
/// deduped and candidates enumerated.
type Observed = (String, Vec<[usize; 4]>);

/// Library + cycles ≤ 4, with enumeration and data-plane counters
/// opted in, on on-disk stores, at `jobs`: a cold run, a warm run over
/// its store, and a run suspended halfway on a fresh store then
/// resumed. The corpus holds 12 isomorphic duplicates per column, so at
/// jobs > 1 some commits throw away a check prepared while the first
/// copy was still in flight; neither the report nor any counter may
/// show it. (Contended twins are left to `ci.sh`, which compares them
/// across job counts in a release build: here, unoptimised, they would
/// take minutes. Simulators are off: they only cost time here, and
/// `worker_judged_reports_match_one_job` runs them at every job count.)
fn counted_runs(dir: &Path, jobs: usize) -> Vec<Observed> {
    let config = |store: &str| CampaignConfig {
        max_cycle_len: 4,
        jobs,
        store_path: Some(dir.join(format!("{store}-j{jobs}.vstore"))),
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        stats: Some(Arc::new(Stats::default())),
        ..library_campaign()
    };
    let observe = |cfg: &CampaignConfig| -> Observed {
        let report = run_campaign(cfg).unwrap();
        assert!(report.clean() && report.failed_units.is_empty(), "jobs={jobs}");
        let counters = report
            .models
            .iter()
            .map(|m| [m.pass.hits, m.pass.computed, m.pass.deduped, m.pass.candidates_enumerated])
            .collect();
        (json_report(&report, cfg).to_string(), counters)
    };
    let cold = observe(&config("warmed"));
    let warm = observe(&config("warmed"));

    let resumable = |stop_after, resume| CampaignConfig {
        resilience: ResilienceConfig {
            checkpoint: Some(dir.join(format!("resumed-j{jobs}.ck"))),
            stop_after,
            resume,
            retry_base_ms: 0,
            ..ResilienceConfig::default()
        },
        ..config("resumed")
    };
    let half = corpus_stream(&config("resumed")).total() / 2;
    match run_campaign(&resumable(Some(half), false)) {
        Err(CampaignError::Suspended { cursor, .. }) => assert_eq!(cursor, half, "jobs={jobs}"),
        other => panic!("jobs={jobs}: expected a suspension, got {other:?}"),
    }
    let resumed = observe(&resumable(None, true));
    vec![cold, warm, resumed]
}

#[test]
fn worker_judged_reports_match_one_job() {
    // Each row's oracles, the simulators among them, are judged on the
    // worker that prepared the row, and the committing thread keeps or
    // re-judges them in corpus order: the rendered report must not
    // depend on the job count. The forbid-all native column sends every
    // row to the simulators and fires most oracles; the allow-all one
    // simulates nothing. The standard set runs again cold then warm on
    // an on-disk store, where every row replays from the store.
    let sim = SimConfig { iterations: 20, seed: 7, stride: 1 };
    let cycles = |jobs, store_path| CampaignConfig {
        max_cycle_len: 4,
        jobs,
        store_path,
        sim: sim.clone(),
        shrink: false,
        ..library_campaign()
    };
    let dir = std::env::temp_dir().join(format!("lkmm-conf-judged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let runs = |jobs: usize| -> Vec<String> {
        let mutants: [fn() -> Option<Box<dyn ConsistencyModel>>; 3] =
            [|| None, || Some(Box::new(ForbidAll)), || Some(Box::new(AllowAll))];
        let mut reports: Vec<String> = mutants
            .iter()
            .map(|mutant| {
                let mut set = ModelSet::standard();
                if let Some(model) = mutant() {
                    set.replace(ModelId::LkmmNative, model);
                }
                let cfg = cycles(jobs, None);
                json_report(&run_campaign_with(&cfg, &set).unwrap(), &cfg).to_string()
            })
            .collect();
        let stored = cycles(jobs, Some(dir.join(format!("store-j{jobs}.vstore"))));
        for _pass in ["cold", "warm"] {
            reports.push(json_report(&run_campaign(&stored).unwrap(), &stored).to_string());
        }
        let ticket = AlgoConfig {
            families: vec![FamilyId::Ticket],
            jobs,
            sim: sim.clone(),
            host_iterations: 50,
            shrink: false,
            ..AlgoConfig::default()
        };
        let report = run_algo_campaign_with(&ticket, &ModelSet::standard()).unwrap();
        reports.push(algo_json_report(&report, &ticket).to_string());
        reports
    };
    let reference = runs(1);
    assert!(reference[1].contains("\"oracle\":\"sim-soundness\""), "forbid-all is simulated");
    for jobs in [2, 8] {
        for (k, (got, want)) in runs(jobs).iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "report {k} at jobs={jobs} differs from jobs=1");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A column whose evaluation session always panics: every unit that
/// checks it fails each attempt and is quarantined, so the report is
/// degraded. Standing in for C11, it spares the rows C11 does not cover
/// (the RCU tests), which still complete.
struct SessionPanics;

impl ConsistencyModel for SessionPanics {
    fn name(&self) -> &str {
        "session-panics"
    }

    fn session(&self) -> Option<Box<dyn ModelSession + '_>> {
        panic!("injected panic opening a model session");
    }

    fn allows_with(&self, _x: &Execution, _facts: &ExecFacts<'_>) -> bool {
        true
    }
}

/// The standard set with `AllowAll` in `mutant`'s column and, when
/// `degraded`, [`SessionPanics`] in C11's.
fn mutant_set(mutant: ModelId, degraded: bool) -> ModelSet {
    let mut set = ModelSet::standard();
    set.replace(mutant, Box::new(AllowAll));
    if degraded {
        set.replace(ModelId::C11, Box::new(SessionPanics));
    }
    set
}

#[test]
fn rendered_reports_are_pinned() {
    // Each run's JSON report, human table and stderr lines, hashed
    // together: a cycle campaign and an algorithm campaign, each with
    // an allow-all LKMM column, then again with C11 quarantining every
    // unit it covers. Runs are sequential with both counter handles
    // set, so the opt-in sections and the per-column cache counters are
    // pinned too: a change to either campaign's rendering that alters
    // one byte of a section fails here.
    let cycles = |degraded| {
        let cfg = CampaignConfig {
            jobs: 1,
            sim: SimConfig { iterations: 20, seed: 7, stride: 1 },
            stats: Some(Arc::new(Stats::default())),
            resilience: ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() },
            ..library_campaign()
        };
        let report = run_campaign_with(&cfg, &mutant_set(ModelId::LkmmCat, degraded)).unwrap();
        [json_report(&report, &cfg).to_string(), human_table(&report), observability_lines(&report)]
            .concat()
    };
    let algorithms = |degraded| {
        let cfg = AlgoConfig {
            families: vec![FamilyId::Ticket],
            jobs: 1,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            host_iterations: 0,
            stats: Some(Arc::new(Stats::default())),
            ..AlgoConfig::default()
        };
        let set = mutant_set(ModelId::LkmmNative, degraded);
        let report = run_algo_campaign_with(&cfg, &set).unwrap();
        [
            algo_json_report(&report, &cfg).to_string(),
            algo_human_table(&report),
            observability_lines(&report.campaign),
        ]
        .concat()
    };
    let texts = [cycles(false), cycles(true), algorithms(false), algorithms(true)];
    let digests = texts.map(|text| fnv64(text.as_bytes()));
    assert_eq!(
        digests,
        [0x1aee_6b02_e533_41df, 0xf853_554b_2a6d_e4a9, 0x3a37_3a8b_4713_b208, 0x58d9_810c_c814_8d1b],
        "{digests:#018x?}"
    );
}

/// The four campaigns `rendered_reports_are_pinned` renders, at `jobs`:
/// each one's JSON report, human table and stderr lines.
fn rendered_reports(jobs: usize) -> Vec<String> {
    let mut texts = Vec::new();
    for degraded in [false, true] {
        let cfg = CampaignConfig {
            jobs,
            sim: SimConfig { iterations: 20, seed: 7, stride: 1 },
            stats: Some(Arc::new(Stats::default())),
            resilience: ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() },
            ..library_campaign()
        };
        let report = run_campaign_with(&cfg, &mutant_set(ModelId::LkmmCat, degraded)).unwrap();
        let json = json_report(&report, &cfg).to_string();
        texts.push([json, human_table(&report), observability_lines(&report)].concat());
    }
    for degraded in [false, true] {
        let cfg = AlgoConfig {
            families: vec![FamilyId::Ticket],
            jobs,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            host_iterations: 0,
            stats: Some(Arc::new(Stats::default())),
            ..AlgoConfig::default()
        };
        let set = mutant_set(ModelId::LkmmNative, degraded);
        let report = run_algo_campaign_with(&cfg, &set).unwrap();
        texts.push(
            [
                algo_json_report(&report, &cfg).to_string(),
                algo_human_table(&report),
                observability_lines(&report.campaign),
            ]
            .concat(),
        );
    }
    texts
}

#[test]
fn degraded_reports_are_the_same_at_every_job_count() {
    // The pinned campaigns again, at more than one job. In the degraded
    // ones C11 quarantines every unit it covers: those units fail their
    // prepare on whichever thread ran it, are retried and re-judged by
    // the committing thread, and name their test in the quarantine list.
    // None of that may change a byte of any rendering.
    let reference = rendered_reports(1);
    for jobs in [2, 8] {
        for (k, (got, want)) in rendered_reports(jobs).iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "campaign {k} at jobs={jobs} differs from jobs=1");
        }
    }
}

/// A column whose every evaluation panics. Unlike [`SessionPanics`],
/// the panic happens inside the check engine, which contains it and
/// leaves the row's cells inconclusive.
struct EvalPanics;

impl ConsistencyModel for EvalPanics {
    fn name(&self) -> &str {
        "eval-panics"
    }

    fn allows_with(&self, _x: &Execution, _facts: &ExecFacts<'_>) -> bool {
        panic!("injected panic evaluating a candidate");
    }
}

#[test]
fn retry_worthy_cells_are_retried_and_quarantined_by_kind() {
    // A contained evaluation panic and a relative wall-clock trip are
    // worth a retry: each unit is tried three times, then quarantined
    // with the failure's kind. An absolute deadline trips every unit
    // alike, so its cells stay inconclusive and nothing is quarantined.
    let units = library::all().len();
    let campaign = |jobs, budget, set: &ModelSet| {
        let cfg = CampaignConfig {
            jobs,
            budget,
            sim: SimConfig { iterations: 0, ..SimConfig::default() },
            shrink: false,
            resilience: ResilienceConfig { retry_base_ms: 0, ..ResilienceConfig::default() },
            ..library_campaign()
        };
        run_campaign_with(&cfg, set).unwrap()
    };
    for jobs in [1, 2] {
        let mut panics = ModelSet::standard();
        panics.replace(ModelId::Sc, Box::new(EvalPanics));
        let report = campaign(jobs, Budget::default(), &panics);
        assert_eq!(report.failed_units.len(), units, "jobs={jobs}");
        for unit in &report.failed_units {
            assert_eq!(unit.kind, FailureKind::Panic, "jobs={jobs}: {unit:?}");
            assert_eq!(unit.attempts, 3, "jobs={jobs}: {unit:?}");
            assert_eq!(unit.detail, "model evaluation panicked (contained by the pipeline)");
        }

        let timed_out = Budget::default().with_time_limit(Duration::ZERO);
        let report = campaign(jobs, timed_out, &ModelSet::standard());
        assert_eq!(report.failed_units.len(), units, "jobs={jobs}");
        for unit in &report.failed_units {
            assert_eq!((unit.kind, unit.attempts), (FailureKind::Deadline, 3), "jobs={jobs}");
        }

        let late = Budget::default().with_deadline(Instant::now());
        let report = campaign(jobs, late, &ModelSet::standard());
        assert!(report.failed_units.is_empty(), "jobs={jobs}: {:?}", report.failed_units);
        for model in &report.models {
            let pass = &model.pass;
            assert!(pass.checked > 0, "jobs={jobs}: {:?}", model.id);
            assert_eq!(pass.inconclusive, pass.checked, "jobs={jobs}: {:?}", model.id);
        }
    }
}

#[test]
fn every_oracles_discrepancies_recheck() {
    // Whatever a campaign row judged violated, the shrinker's from-scratch
    // re-check judges violated again against the same models, and holds
    // against the reference set. Both campaigns run twice, with a
    // forbid-all and an allow-all native LKMM column, and the first five
    // discrepancies of each oracle in each report are re-checked. Host
    // soundness is left out (`host_iterations: 0`): whether real threads
    // observe an outcome depends on scheduling, so its re-check need not
    // reproduce. Interleave agreement has its own test below.
    let sim = SimConfig { iterations: 20, seed: 7, stride: 1 };
    let cycles =
        CampaignConfig { max_cycle_len: 4, sim: sim.clone(), shrink: false, ..library_campaign() };
    let ticket = AlgoConfig {
        families: vec![FamilyId::Ticket],
        sim,
        host_iterations: 0,
        shrink: false,
        ..AlgoConfig::default()
    };
    let (opts, pipe) = (EnumOptions::default(), PipelineOptions::default());
    let healthy = ModelSet::standard();
    let mut covered = [0usize; OracleKind::ALL.len()];
    let mutants: [fn() -> Box<dyn ConsistencyModel>; 2] =
        [|| Box::new(ForbidAll), || Box::new(AllowAll)];
    for mutant in mutants {
        let mut set = ModelSet::standard();
        set.replace(ModelId::LkmmNative, mutant());
        let reports = [
            run_campaign_with(&cycles, &set).unwrap(),
            run_algo_campaign_with(&ticket, &set).unwrap().campaign,
        ];
        for report in reports {
            for kind in OracleKind::ALL {
                for d in report.discrepancies.iter().filter(|d| d.oracle == kind).take(5) {
                    let what = format!("[{kind}] {}: {}", d.test_name, d.detail);
                    assert!(recheck_violated(&d.check, &d.test, &set, &opts, &pipe), "{what}");
                    assert!(!recheck_violated(&d.check, &d.test, &healthy, &opts, &pipe), "{what}");
                    covered[kind.index()] += 1;
                }
            }
        }
    }
    for kind in [
        OracleKind::NativeCatAgreement,
        OracleKind::EnvelopeOrdering,
        OracleKind::SimSoundness,
        OracleKind::C11Divergence,
        OracleKind::FamilySafety,
    ] {
        assert!(covered[kind.index()] > 0, "no {kind} discrepancy to re-check: {covered:?}");
    }
}

#[test]
fn quarantined_algorithm_rows_are_not_interleaved() {
    // C11 panics on every unit, so every ticket program is quarantined
    // and its row stays all-`None`: interleave agreement, like every
    // matrix oracle, must skip those rows rather than explore them.
    let cfg = AlgoConfig {
        families: vec![FamilyId::Ticket],
        jobs: 1,
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        host_iterations: 0,
        ..AlgoConfig::default()
    };
    let report = run_algo_campaign_with(&cfg, &mutant_set(ModelId::LkmmNative, true)).unwrap();
    let programs = report.families[0].programs;
    assert!(programs > 0);
    assert_eq!(report.campaign.failed_units.len(), programs);
    let agreement = &report.campaign.oracles[OracleKind::InterleaveAgreement.index()];
    assert_eq!(agreement.kind, OracleKind::InterleaveAgreement);
    assert_eq!((agreement.summary.checked, agreement.summary.skipped), (0, programs));
    let family = &report.families[0].interleave;
    assert_eq!((family.checked, family.skipped), (0, programs));
}

#[test]
fn interleave_agreement_checks_the_sc_column() {
    // Each step machine is held to the row's SC cell, the column the
    // campaign reports: with an allow-all SC column, every program whose
    // bad state no interleaving reaches is a violation, and its recheck
    // fails against the mutant set only.
    let cfg = AlgoConfig {
        families: vec![FamilyId::Ticket],
        jobs: 1,
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        host_iterations: 0,
        shrink: false,
        ..AlgoConfig::default()
    };
    let set = mutant_set(ModelId::Sc, false);
    let report = run_algo_campaign_with(&cfg, &set).unwrap();
    let agreement = &report.campaign.oracles[OracleKind::InterleaveAgreement.index()];
    assert!(agreement.summary.violations > 0, "{:?}", agreement.summary);
    let divergences: Vec<_> = report
        .campaign
        .discrepancies
        .iter()
        .filter(|d| d.oracle == OracleKind::InterleaveAgreement)
        .collect();
    assert_eq!(divergences.len(), agreement.summary.violations);
    let (opts, pipe) = (EnumOptions::default(), PipelineOptions::default());
    for d in divergences {
        assert!(matches!(d.check, Recheck::InterleaveDivergence { .. }));
        assert!(recheck_violated(&d.check, &d.test, &set, &opts, &pipe), "{}", d.test_name);
        let healthy = ModelSet::standard();
        assert!(!recheck_violated(&d.check, &d.test, &healthy, &opts, &pipe), "{}", d.test_name);
    }
}
