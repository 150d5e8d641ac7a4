//! The campaign workloads: `run_campaign` cold on a fresh on-disk store,
//! then warm passes that reopen it.
//!
//! The traced run replays the same corpus through each layer's public
//! calls: corpus generation, canonicalisation and keys, store lookups
//! and appends, enumeration, shared facts, each model's session, the
//! row oracles, the simulators and the JSON report. Its reports must be
//! byte-identical to the real campaign's, which shows the decomposition
//! did the same work.

use crate::gauge::{Gauge, Mark};
use crate::trace::{self, Layers, Tracer};
use crate::{end_to_end, Outcome, RunSpec, Scale, Workload, JOBS};
use lkmm_conformance::matrix::uses_srcu;
use lkmm_conformance::{
    check_row, corpus_stream, json_report, run_campaign, CampaignConfig, CampaignReport,
    Discrepancy, MatrixRow, ModelId, ModelPass, ModelSet, ModelStats, OracleKind, OracleStats,
    OracleSummary, Origin, SimConfig,
};
use lkmm_exec::{
    enumerate, open_session, CheckOutcome, ConsistencyModel, EnumOptions, ExecFacts, FactsCache,
    Tally, TestResult, Verdict,
};
use lkmm_generator::{cycles_up_to, default_alphabet, generate, generate_contended};
use lkmm_litmus::ast::Test;
use lkmm_litmus::Quantifier;
use lkmm_service::hash::fnv64;
use lkmm_service::{cache_key_of_text, canonical_text, VerdictStore};
use lkmm_sim::{run_test, Arch, RunConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Set-up samples every run takes at least, one before each pass and
/// the rest after the last.
const MIN_SETUPS: usize = 5;

/// One campaign workload's fixed shape.
pub struct CampaignSpec {
    pub max_cycle_len: usize,
    pub contended: bool,
    /// Run the simulator soundness pass at the CLI defaults.
    pub simulate: bool,
    /// Cold and warm passes every run makes, however long they take;
    /// more follow until the passes have taken `--seconds`.
    pub min_cold_passes: usize,
    pub min_warm_passes: usize,
    /// fnv64 of the cold report's JSON, simulator seed set to 0.
    pub digest: u64,
}

impl CampaignSpec {
    /// The shape of `workload` at `scale`; `None` for the server.
    pub fn of(workload: Workload, scale: Scale) -> Option<CampaignSpec> {
        let full = scale == Scale::Full;
        // One cold pass for the two long campaigns, and two warm for the
        // longest: with times scaled by the gauge, these repeat across
        // runs (README, Calibration), and every further pass adds 4–40 s
        // to each run.
        let (max_cycle_len, contended, simulate, min_cold_passes, min_warm_passes, digest) =
            match workload {
                Workload::CampaignL6 if full => (6, false, false, 1, 2, 0x2ff7_9392_4c2b_da7a),
                Workload::CampaignL6 => (4, false, false, 1, 1, 0x93ce_e788_aef9_c006),
                Workload::CampaignContended if full => {
                    (5, true, false, 1, 10, 0x82b0_ab0d_7db4_c7fc)
                }
                Workload::CampaignContended => (4, true, false, 1, 1, 0x07b4_a1cd_16d2_838e),
                Workload::CampaignSim if full => (4, false, true, 3, 3, 0x8a55_313d_5837_9baa),
                Workload::CampaignSim => (4, false, true, 1, 1, 0x8a55_313d_5837_9baa),
                Workload::ServeMixed => return None,
            };
        Some(CampaignSpec {
            max_cycle_len,
            contended,
            simulate,
            min_cold_passes,
            min_warm_passes,
            digest,
        })
    }

    /// The campaign configuration. Only the simulator pass depends on
    /// the seed; the other workloads' inputs are the program's own
    /// exhaustive corpus.
    pub fn config(&self, seed: u64, store: &Path) -> CampaignConfig {
        let sim = if self.simulate {
            SimConfig {
                seed,
                ..SimConfig::default()
            }
        } else {
            SimConfig {
                iterations: 0,
                ..SimConfig::default()
            }
        };
        CampaignConfig {
            max_cycle_len: self.max_cycle_len,
            contended: self.contended,
            jobs: JOBS,
            store_path: Some(store.to_path_buf()),
            sim,
            ..CampaignConfig::default()
        }
    }
}

/// Run one campaign workload.
///
/// # Errors
///
/// Campaign errors (store I/O, a locked store, generator failures).
pub fn run(spec: &RunSpec, c: &CampaignSpec) -> Result<Outcome, String> {
    let store = |i: usize| spec.work_dir.join(format!("cold-{i}.store"));
    let cfg = c.config(spec.seed, &store(0));
    let mut out = Outcome::default();
    if spec.trace {
        let layers = traced(spec, c, &cfg, &mut out)?;
        out.metrics = layers.metrics();
        return Ok(out);
    }
    // The first cold pass fills the store the warm passes reopen, and
    // its report is the reference every later one must equal.
    let gauge = Gauge::start()?;
    let mut setups = vec![setup(&cfg)];
    let first = Pass::run(&cfg)?;
    first.check(&mut out, &cfg, c, false, None);
    // Memory a cold campaign needs; later passes in the same process
    // only add allocator fragmentation.
    let peak_rss_mb = trace::peak_rss_mb()?;
    let mut cold = vec![first.interval()];
    let mut warm: Vec<(Mark, Mark)> = Vec::new();
    // Cold passes (each on a fresh store) and warm passes alternate, so
    // each kind's samples span the run. A set-up sample precedes every
    // pass for the same reason.
    loop {
        let cold_due = cold.len() < c.min_cold_passes;
        let warm_due = warm.len() < c.min_warm_passes;
        let measured: f64 = cold.iter().chain(&warm).map(|(f, t)| t.since(f)).sum();
        if !cold_due && !warm_due && measured >= spec.seconds {
            break;
        }
        let next_cold = if cold_due == warm_due {
            warm.len() >= cold.len()
        } else {
            cold_due
        };
        setups.push(setup(&cfg));
        if next_cold {
            let cfg = c.config(spec.seed, &store(cold.len()));
            let p = Pass::run(&cfg)?;
            p.check(&mut out, &cfg, c, false, Some(&first.json));
            cold.push(p.interval());
        } else {
            let p = Pass::run(&cfg)?;
            p.check(&mut out, &cfg, c, true, Some(&first.json));
            warm.push(p.interval());
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup(&cfg));
    }
    let tests = first.report.corpus_total() as f64;
    out.notes.push(format!("{tests} tests"));
    end_to_end(
        &mut out,
        &gauge,
        tests,
        [&setups, &cold, &warm],
        peak_rss_mb,
    )?;
    Ok(out)
}

/// Building the campaign's corpus stream — the work a campaign does
/// before its first check.
fn setup(cfg: &CampaignConfig) -> (Mark, Mark) {
    let from = Mark::now();
    let stream = corpus_stream(cfg);
    let to = Mark::now();
    black_box(stream.total());
    (from, to)
}

/// One untraced `run_campaign` call and its rendered report.
struct Pass {
    from: Mark,
    to: Mark,
    report: CampaignReport,
    json: String,
}

impl Pass {
    fn run(cfg: &CampaignConfig) -> Result<Pass, String> {
        let from = Mark::now();
        let report = run_campaign(cfg).map_err(|e| format!("campaign: {e}"))?;
        let to = Mark::now();
        let json = json_report(&report, cfg).to_string();
        Ok(Pass {
            from,
            to,
            report,
            json,
        })
    }

    fn seconds(&self) -> f64 {
        self.to.since(&self.from)
    }

    fn interval(&self) -> (Mark, Mark) {
        (self.from, self.to)
    }

    /// Count the pass's cells and check its outputs: a clean report; a
    /// cold pass starts from an empty store and a warm one replays it
    /// all; the first cold report matches the pinned digest and every
    /// later report equals it byte for byte.
    fn check(
        &self,
        out: &mut Outcome,
        cfg: &CampaignConfig,
        c: &CampaignSpec,
        warm: bool,
        first_json: Option<&str>,
    ) {
        let r = &self.report;
        let sum = |f: fn(&ModelPass) -> usize| r.models.iter().map(|m| f(&m.pass)).sum::<usize>();
        let inconclusive = sum(|p| p.inconclusive);
        out.attempted += sum(|p| p.checked) as u64;
        out.failed += (inconclusive + r.failed_units.len()) as u64;
        let label = if warm { "warm pass" } else { "cold pass" };
        out.check(r.clean(), || {
            let first = r
                .discrepancies
                .first()
                .map(|d| d.detail.as_str())
                .unwrap_or_default();
            format!(
                "{label}: {} oracle discrepancies (first: {first})",
                r.discrepancies.len()
            )
        });
        out.check(!r.degraded(), || {
            format!("{label}: {} units quarantined", r.failed_units.len())
        });
        out.check(inconclusive == 0, || {
            format!("{label}: {inconclusive} inconclusive cells")
        });
        let enumerated = sum(|p| p.candidates_enumerated);
        if warm {
            out.check(enumerated == 0, || {
                format!("{label}: enumerated {enumerated} candidates")
            });
            out.check(
                sum(|p| p.hits) + sum(|p| p.deduped) == sum(|p| p.checked),
                || format!("{label}: some cells were neither store hits nor duplicates"),
            );
        } else {
            out.check(sum(|p| p.hits) == 0, || {
                format!("{label}: store hits on a fresh store")
            });
            out.check(enumerated > 0, || format!("{label}: enumerated nothing"));
        }
        match first_json {
            Some(first) => out.check(self.json == first, || {
                format!("{label}: report differs from the first cold report")
            }),
            None => {
                let digest = report_digest(r, cfg);
                out.check(digest == c.digest, || {
                    format!(
                        "{label}: report digest {digest:016x}, pinned {:016x}",
                        c.digest
                    )
                });
            }
        }
    }
}

/// The pinned digest covers everything but the simulator seed, which
/// the report echoes and `--seed` sets.
fn report_digest(report: &CampaignReport, cfg: &CampaignConfig) -> u64 {
    let mut unseeded = cfg.clone();
    unseeded.sim.seed = 0;
    fnv64(json_report(report, &unseeded).to_string().as_bytes())
}

/// The traced run: one untraced cold and one untraced warm pass (their
/// outputs checked as usual), then the decomposed replay of both.
fn traced(
    spec: &RunSpec,
    c: &CampaignSpec,
    cfg: &CampaignConfig,
    out: &mut Outcome,
) -> Result<Layers, String> {
    let cpu = trace::cpu_seconds()?;
    let start = Instant::now();
    let cold = Pass::run(cfg)?;
    cold.check(out, cfg, c, false, None);
    let warm = Pass::run(cfg)?;
    warm.check(out, cfg, c, true, Some(&cold.json));
    let cpu_busy = (trace::cpu_seconds()? - cpu) / start.elapsed().as_secs_f64();

    let set = ModelSet::standard();
    let store = spec.work_dir.join("decomposed.store");
    let mut tr = Tracer::default();
    let start = Instant::now();
    let cold_json = decomposed_pass(cfg, &store, &set, &mut tr)?;
    let cold_s = start.elapsed().as_secs_f64();
    let warm_json = decomposed_pass(cfg, &store, &set, &mut tr)?;
    let mut layers = tr.finish(start.elapsed().as_secs_f64());
    layers.cpu_busy = cpu_busy;
    layers.driver_overhead_s = cold.seconds() + warm.seconds() - layers.wall_s;
    out.check(cold_json == cold.json, || {
        "decomposed cold pass: report differs from run_campaign's".into()
    });
    out.check(warm_json == cold.json, || {
        "decomposed warm pass: report differs from run_campaign's".into()
    });
    out.check(layers.coverage() >= 0.9, || {
        format!("trace coverage {:.3} < 0.9", layers.coverage())
    });
    out.notes.push(format!(
        "untraced cold {:.3} s + warm {:.3} s; decomposed cold {cold_s:.3} s + warm {:.3} s, coverage {:.3}",
        cold.seconds(),
        warm.seconds(),
        layers.wall_s - cold_s,
        layers.coverage()
    ));
    Ok(layers)
}

/// Replay one campaign pass through the layers' public calls and return
/// its JSON report.
fn decomposed_pass(
    cfg: &CampaignConfig,
    store_path: &Path,
    set: &ModelSet,
    tr: &mut Tracer,
) -> Result<String, String> {
    let mut t = tr.now();
    let mut store = VerdictStore::open(store_path)
        .map_err(|e| format!("open {}: {e}", store_path.display()))?;
    tr.layers.store_open_s += tr.lap(&mut t);
    // The corpus in `corpus_stream` order: the library, every cycle,
    // then (when contended) every cycle's contended twin.
    let library = lkmm_litmus::library::all();
    let cycles = cycles_up_to(cfg.max_cycle_len, &default_alphabet());
    tr.layers.generate_s += tr.lap(&mut t);

    let total = library.len() + cycles.len() * if cfg.contended { 2 } else { 1 };
    let mut units = UnitChecker::new(set, &cfg.salt);
    let mut core = Core::default();
    for i in 0..total {
        let mut t = tr.now();
        let (test, origin) = if let Some(pt) = library.get(i) {
            let test = pt.test();
            tr.layers.litmus_parse_s += tr.lap(&mut t);
            (
                test,
                Origin::Library {
                    lkmm: pt.lkmm,
                    c11: pt.c11,
                },
            )
        } else {
            let j = i - library.len();
            let test = match cycles.get(j) {
                Some(cycle) => generate(cycle),
                None => generate_contended(&cycles[j - cycles.len()]),
            }
            .map_err(|e| format!("generator: {e}"))?;
            tr.layers.generate_s += tr.lap(&mut t);
            tr.layers.generated += 1;
            (test, Origin::Generated)
        };
        let cells = units.check(&test, &mut store, tr)?;
        let row = MatrixRow {
            test,
            origin,
            cells,
        };
        let mut t = tr.now();
        check_row(&row, &mut core.discrepancies, &mut core.summaries);
        tr.layers.oracle_s += tr.lap(&mut t);
        simulate(
            &cfg.sim,
            i,
            &row,
            &mut core.summaries[OracleKind::SimSoundness.index()],
            tr,
        );
        core.account(&row);
    }
    let mut t = tr.now();
    store
        .flush()
        .map_err(|e| format!("flush {}: {e}", store_path.display()))?;
    tr.layers.store_flush_s += tr.lap(&mut t);
    drop(store);
    tr.layers.store_open_s += tr.lap(&mut t);
    let report = core.into_report();
    let mut t = tr.now();
    let json = json_report(&report, cfg).to_string();
    tr.layers.report_s += tr.lap(&mut t);
    Ok(json)
}

/// The campaign's simulator soundness pass for one row: every
/// `stride`-th row the native LKMM forbids runs on each architecture.
fn simulate(
    sim: &SimConfig,
    i: usize,
    row: &MatrixRow,
    summary: &mut OracleSummary,
    tr: &mut Tracer,
) {
    if sim.iterations == 0
        || !i.is_multiple_of(sim.stride.max(1))
        || row.verdict(ModelId::LkmmNative) != Some(Verdict::Forbidden)
    {
        return;
    }
    if uses_srcu(&row.test) {
        summary.skipped += 1;
        return;
    }
    let seed = sim.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (a, arch) in Arch::ALL.into_iter().enumerate() {
        let mut t = tr.now();
        let stats = run_test(
            &row.test,
            arch,
            &RunConfig {
                iterations: sim.iterations,
                seed,
            },
        );
        tr.layers.sim_run_test_s[a] += tr.lap(&mut t);
        tr.layers.sim_runs[a] += 1;
        match stats {
            Err(_) => summary.skipped += 1,
            Ok(stats) => {
                summary.checked += 1;
                // A violation leaves the replayed report unequal to the
                // (equally unclean) real one; both are reported.
                summary.violations += usize::from(stats.observed > 0);
            }
        }
    }
}

/// Per-test checking as the campaign's multi-model checker does it:
/// one canonical text and seven keys, per-column dedupe and store
/// lookups, one enumeration shared by every column that missed, and
/// the new verdicts appended.
struct UnitChecker<'m> {
    models: Vec<&'m dyn ConsistencyModel>,
    salts: Vec<String>,
    seen: Vec<HashMap<u128, TestResult>>,
    opts: EnumOptions,
}

impl<'m> UnitChecker<'m> {
    fn new(set: &'m ModelSet, salt: &str) -> UnitChecker<'m> {
        let opts = EnumOptions::default();
        UnitChecker {
            models: ModelId::ALL.iter().map(|&id| set.get(id)).collect(),
            // The campaign's per-column salt, with the enumeration
            // options folded in exactly as the multi-model checker does.
            salts: ModelId::ALL
                .iter()
                .map(|id| format!("{salt}|col:{}|{opts:?}", id.column()))
                .collect(),
            seen: vec![HashMap::new(); ModelId::ALL.len()],
            opts,
        }
    }

    fn check(
        &mut self,
        test: &Test,
        store: &mut VerdictStore,
        tr: &mut Tracer,
    ) -> Result<Vec<Option<CheckOutcome>>, String> {
        let mut t = tr.now();
        let canon = canonical_text(test);
        let keys: Vec<u128> = self
            .models
            .iter()
            .zip(&self.salts)
            .map(|(m, s)| cache_key_of_text(&canon, m.name(), s))
            .collect();
        tr.layers.canon_s += tr.lap(&mut t);
        tr.layers.keys += keys.len() as u64;

        let mut cells = vec![None; ModelId::ALL.len()];
        let mut missing = Vec::new();
        for (c, id) in ModelId::ALL.iter().enumerate() {
            if !id.supports(test) {
                continue;
            }
            if let Some(r) = self.seen[c].get(&keys[c]) {
                cells[c] = Some(CheckOutcome::Complete(r.clone()));
                continue;
            }
            let mut t = tr.now();
            let hit = store.get(keys[c]).cloned();
            tr.layers.store_get_s += tr.lap(&mut t);
            tr.layers.store_lookups += 1;
            match hit {
                Some(r) => {
                    tr.layers.store_hits += 1;
                    self.seen[c].insert(keys[c], r.clone());
                    cells[c] = Some(CheckOutcome::Complete(r));
                }
                None => missing.push(c),
            }
        }
        if missing.is_empty() {
            return Ok(cells);
        }
        let results = self.evaluate(test, &missing, tr)?;
        for (&c, result) in missing.iter().zip(results) {
            let mut t = tr.now();
            let wrote = store
                .put(keys[c], result.clone())
                .map_err(|e| format!("store append: {e}"))?;
            tr.layers.store_put_s += tr.lap(&mut t);
            tr.layers.store_appends += u64::from(wrote);
            self.seen[c].insert(keys[c], result.clone());
            cells[c] = Some(CheckOutcome::Complete(result));
        }
        Ok(cells)
    }

    /// Enumerate once and evaluate every candidate against each missing
    /// column, sharing one facts layer per candidate.
    fn evaluate(
        &self,
        test: &Test,
        missing: &[usize],
        tr: &mut Tracer,
    ) -> Result<Vec<TestResult>, String> {
        let mut t = tr.now();
        let xs = enumerate(test, &self.opts).map_err(|e| format!("{}: {e:?}", test.name))?;
        tr.layers.enumerate_s += tr.lap(&mut t);
        tr.layers.candidates += xs.len() as u64;
        let mut sessions = Vec::with_capacity(missing.len());
        for &c in missing {
            sessions.push(open_session(self.models[c]));
            tr.layers.model_eval_s[c] += tr.lap(&mut t);
        }
        let mut cache = FactsCache::with_arena(lkmm_relation::shared_arena());
        let mut tallies = vec![Tally::default(); missing.len()];
        let mut allows = vec![false; missing.len()];
        tr.layers.facts_s += tr.lap(&mut t);
        for x in &xs {
            let facts = cache.facts(x);
            force_shared_facts(&facts);
            tr.layers.facts_s += tr.lap(&mut t);
            for (k, &c) in missing.iter().enumerate() {
                allows[k] = sessions[k]
                    .try_allows_with(x, &facts)
                    .map_err(|_| format!("{}: evaluation stopped without a budget", test.name))?;
                tr.layers.model_eval_s[c] += tr.lap(&mut t);
                tr.layers.model_evals[c] += 1;
            }
            let satisfies = allows.contains(&true) && x.satisfies_prop(&test.condition.prop);
            for (tally, &allowed) in tallies.iter_mut().zip(&allows) {
                tally.candidates += 1;
                if allowed {
                    tally.allowed += 1;
                    if satisfies {
                        tally.witnesses += 1;
                    } else {
                        tally.saw_non_satisfying = true;
                    }
                }
            }
            drop(facts);
            tr.layers.facts_s += tr.lap(&mut t);
        }
        drop((cache, xs));
        tr.layers.enumerate_s += tr.lap(&mut t);
        Ok(tallies
            .into_iter()
            .map(|tally| into_result(tally, test.condition.quantifier))
            .collect())
    }
}

/// Force the derived relations most models share, so their cost lands
/// in `exec.facts_s` rather than in whichever model asks first.
fn force_shared_facts(f: &ExecFacts<'_>) {
    black_box((f.sc_per_loc_ok(), f.atomicity_ok()));
    black_box((
        f.rfe(),
        f.rfi(),
        f.reads(),
        f.writes(),
        f.mem(),
        f.acquires(),
        f.releases(),
    ));
}

/// A finished tally as a verdict, as the checking pipeline derives it.
fn into_result(t: Tally, quantifier: Quantifier) -> TestResult {
    TestResult {
        verdict: if t.witnesses > 0 {
            Verdict::Allowed
        } else {
            Verdict::Forbidden
        },
        condition_holds: match quantifier {
            Quantifier::Exists => t.witnesses > 0,
            Quantifier::NotExists => t.witnesses == 0,
            Quantifier::Forall => !t.saw_non_satisfying,
        },
        candidates: t.candidates,
        allowed: t.allowed,
        witnesses: t.witnesses,
    }
}

/// The report's deterministic aggregates, folded row by row.
struct Core {
    library: usize,
    generated: usize,
    passes: Vec<ModelPass>,
    summaries: Vec<OracleSummary>,
    discrepancies: Vec<Discrepancy>,
}

impl Default for Core {
    fn default() -> Core {
        Core {
            library: 0,
            generated: 0,
            passes: vec![ModelPass::default(); ModelId::ALL.len()],
            summaries: vec![OracleSummary::default(); OracleKind::ALL.len()],
            discrepancies: Vec::new(),
        }
    }
}

impl Core {
    fn account(&mut self, row: &MatrixRow) {
        match row.origin {
            Origin::Library { .. } => self.library += 1,
            _ => self.generated += 1,
        }
        for (pass, cell) in self.passes.iter_mut().zip(&row.cells) {
            let Some(outcome) = cell else {
                pass.skipped += 1;
                continue;
            };
            pass.checked += 1;
            match outcome.result().map(|r| r.verdict) {
                Some(Verdict::Allowed) => pass.allowed += 1,
                Some(Verdict::Forbidden) => pass.forbidden += 1,
                None => pass.inconclusive += 1,
            }
        }
    }

    fn into_report(self) -> CampaignReport {
        CampaignReport {
            corpus_library: self.library,
            corpus_generated: self.generated,
            models: ModelId::ALL
                .iter()
                .zip(self.passes)
                .map(|(&id, pass)| ModelStats { id, pass })
                .collect(),
            oracles: OracleKind::ALL
                .iter()
                .zip(self.summaries)
                .map(|(&kind, summary)| OracleStats { kind, summary })
                .collect(),
            discrepancies: self.discrepancies,
            enumeration: None,
            data_plane: None,
            failed_units: Vec::new(),
            resumed_at: None,
            checkpoints_written: 0,
        }
    }
}
