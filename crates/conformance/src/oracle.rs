//! Typed invariants over verdict-matrix rows.
//!
//! Each oracle encodes one §5 validation claim (the last three belong to
//! the algorithm-family campaign, [`crate::algorithms`]):
//!
//! * **native≡cat** — the two LKMM formulations produce identical
//!   [`TestResult`]s (verdict *and* exact candidate/allowed/witness
//!   counts) on every test;
//! * **envelope ordering** — the LKMM is an envelope of the comparison
//!   models: anything SC allows, TSO allows; anything TSO / ARMv8 /
//!   Power allows, the LKMM allows;
//! * **sim soundness** — an operational simulator never observes an
//!   outcome the LKMM forbids (Table 5's empty "forbidden observed"
//!   column), checked with seeded runs;
//! * **C11 divergence whitelist** — original C11 under the P0124
//!   mapping may diverge from the LKMM only where the mapping loses
//!   ordering ([`OriginalC11::divergence_license`]); library rows must
//!   instead match the paper's published C11 column exactly;
//! * **family safety** — an algorithm-family program's LKMM verdict
//!   matches its family's declared expectation;
//! * **host soundness** — the klitmus runner never observes an
//!   LKMM-forbidden outcome on real threads;
//! * **interleave agreement** — exhaustive step-machine interleaving
//!   agrees with the row's SC verdict.
//!
//! Each oracle is defined once, as a [`Recheck`]: [`Recheck::oracle`]
//! names its invariant, and one judgement decides whether it holds on a
//! test, reading each column's completed result through a closure. A
//! campaign judges a row's checks over the row's cells ([`check_row`],
//! and the simulator, host and interleaving passes of the campaigns);
//! the shrinker judges the same check over fresh checks
//! ([`recheck_violated`]).
//!
//! A violation is a structured [`Discrepancy`] carrying its [`Recheck`].
//! Re-checks always recompute from scratch — **never through the verdict
//! store** — so a discrepancy can never be an artifact of a stale or
//! poisoned cache entry, and the shrinker can evaluate the same
//! predicate on mutated tests that were never checked before.

use crate::matrix::{MatrixRow, ModelId, ModelSet, Origin, RowRef};
use lkmm_exec::{CheckOutcome, EnumOptions, PipelineOptions, TestResult, Verdict};
use lkmm_litmus::ast::Test;
use lkmm_litmus::library::Expect;
use lkmm_models::OriginalC11;
use lkmm_sim::{run_test, Arch, RunConfig};
use std::fmt;

/// Which invariant a discrepancy violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Native and cat LKMM formulations must agree exactly.
    NativeCatAgreement,
    /// SC ⊆ TSO ⊆ LKMM (and ARMv8, Power ⊆ LKMM) on allowed sets.
    EnvelopeOrdering,
    /// A simulator observation implies the LKMM allows the outcome.
    SimSoundness,
    /// C11 may diverge from the LKMM only with a license (or exactly as
    /// the paper's C11 column says, for library rows).
    C11Divergence,
    /// An algorithm-family program's LKMM verdict matches the family's
    /// declared safety expectation (Forbidden for the safe variant,
    /// Allowed for its deliberately weakened twin).
    FamilySafety,
    /// The klitmus host runner never observes an LKMM-forbidden
    /// outcome on real hardware threads.
    HostSoundness,
    /// Loom-style exhaustive interleaving of a program's step machine
    /// agrees with the row's SC verdict: the bad state is reachable iff
    /// the SC column allows the condition.
    InterleaveAgreement,
}

impl OracleKind {
    /// Every oracle, in report order. The first four are the cycle
    /// campaign's; the last three belong to the algorithm-family
    /// campaign and stay at zero elsewhere.
    pub const ALL: [OracleKind; 7] = [
        OracleKind::NativeCatAgreement,
        OracleKind::EnvelopeOrdering,
        OracleKind::SimSoundness,
        OracleKind::C11Divergence,
        OracleKind::FamilySafety,
        OracleKind::HostSoundness,
        OracleKind::InterleaveAgreement,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::NativeCatAgreement => "native-cat-agreement",
            OracleKind::EnvelopeOrdering => "envelope-ordering",
            OracleKind::SimSoundness => "sim-soundness",
            OracleKind::C11Divergence => "c11-divergence",
            OracleKind::FamilySafety => "family-safety",
            OracleKind::HostSoundness => "host-soundness",
            OracleKind::InterleaveAgreement => "interleave-agreement",
        }
    }

    /// Position of this oracle in [`OracleKind::ALL`] (and in every
    /// summaries array).
    pub fn index(self) -> usize {
        OracleKind::ALL.iter().position(|k| *k == self).expect("ALL is total")
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One oracle check: the row's campaign judges it over the row's cells,
/// and the shrinker re-evaluates it (and only it) from scratch on every
/// candidate reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recheck {
    /// Two checkers disagree on the full [`TestResult`].
    ResultAgreement { left: ModelId, right: ModelId },
    /// `sub` allows an outcome that `envelope` forbids.
    Envelope { sub: ModelId, envelope: ModelId },
    /// A library row's C11 verdict differs from the paper's column.
    /// Expectations are statements about the *original named test*, so
    /// these discrepancies are never shrunk (a reduced test has no
    /// published expectation to compare against).
    C11Expectation { expect: Verdict },
    /// C11 diverges from the LKMM with no divergence license.
    C11Unlicensed,
    /// A seeded simulator run observes an LKMM-forbidden outcome.
    SimObservation { arch: Arch, iterations: u64, seed: u64 },
    /// An algorithm-family program's LKMM verdict differs from the
    /// family's declared expectation. Fully re-checkable, so
    /// family-safety discrepancies shrink to a minimal program that
    /// still gets the wrong verdict — and when the wrong verdict is an
    /// *Allow*, the recheck additionally demands the outcome be weak
    /// (the SC column forbids it), so the minimal witness is a genuine
    /// weak-memory discriminator rather than the empty program. The
    /// family's name and invariant, as in [`Origin::Algorithm`], are
    /// report text.
    FamilyExpectation { family: &'static str, invariant: &'static str, expect: Verdict },
    /// A klitmus host run observes an outcome the LKMM forbids.
    /// Re-checkable in principle (host scheduling is uncontrolled, so a
    /// re-run may not reproduce the observation), but never shrunk.
    HostObservation { iterations: u64 },
    /// Exhaustive interleaving of the program's step machine disagrees
    /// with the SC column's verdict. The machine travels
    /// with the check — it is hand-built per family and cannot be
    /// re-derived from a mutated test, so these are never shrunk.
    InterleaveDivergence {
        machine: lkmm_algorithms::interleave::Machine,
        max_states: usize,
    },
}

/// One oracle violation, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// Name of the offending test.
    pub test_name: String,
    /// Which invariant broke.
    pub oracle: OracleKind,
    /// Human-readable one-liner (verdicts/counts involved).
    pub detail: String,
    /// The exact failing pair, re-checkable from scratch.
    pub check: Recheck,
    /// The offending test (original form).
    pub test: Test,
    /// Minimal discriminating witness, if the shrinker ran.
    pub shrunk: Option<crate::shrink::Shrunk>,
}

/// Per-oracle aggregate counts for one campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleSummary {
    /// Row-level checks evaluated.
    pub checked: usize,
    /// Violations found.
    pub violations: usize,
    /// Checks skipped (missing or inconclusive cells).
    pub skipped: usize,
}

impl std::ops::AddAssign for OracleSummary {
    fn add_assign(&mut self, other: OracleSummary) {
        self.checked += other.checked;
        self.violations += other.violations;
        self.skipped += other.skipped;
    }
}

/// The envelope pairs: `(sub, envelope)` with `allowed(sub) ⊆
/// allowed(envelope)`. SC ⊆ LKMM follows transitively through TSO.
pub const ENVELOPE_PAIRS: [(ModelId, ModelId); 4] = [
    (ModelId::Sc, ModelId::Tso),
    (ModelId::Tso, ModelId::LkmmNative),
    (ModelId::Armv8, ModelId::LkmmNative),
    (ModelId::Power, ModelId::LkmmNative),
];

/// What one check concludes about one test.
enum Judgement {
    /// Not applicable (a soundness check on a test the LKMM allows):
    /// counted nowhere.
    Moot,
    /// A result it needs is missing or inconclusive, or its run failed.
    Skipped,
    Holds,
    /// Violated, with the report's detail text.
    Violated(String),
}

fn violated_if(violated: bool, detail: impl FnOnce() -> String) -> Judgement {
    if violated {
        Judgement::Violated(detail())
    } else {
        Judgement::Holds
    }
}

impl Recheck {
    /// The invariant this check belongs to.
    pub fn oracle(&self) -> OracleKind {
        match self {
            Recheck::ResultAgreement { .. } => OracleKind::NativeCatAgreement,
            Recheck::Envelope { .. } => OracleKind::EnvelopeOrdering,
            Recheck::C11Expectation { .. } | Recheck::C11Unlicensed => OracleKind::C11Divergence,
            Recheck::SimObservation { .. } => OracleKind::SimSoundness,
            Recheck::FamilyExpectation { .. } => OracleKind::FamilySafety,
            Recheck::HostObservation { .. } => OracleKind::HostSoundness,
            Recheck::InterleaveDivergence { .. } => OracleKind::InterleaveAgreement,
        }
    }

    /// Judge this check on `test`. `result` reads one column's completed
    /// result: `None` when the column does not cover the test or its
    /// check was inconclusive. The simulator and host checks run their
    /// machines here, and interleave agreement explores its machine.
    fn judge(
        &self,
        test: &Test,
        result: &mut dyn FnMut(ModelId) -> Option<TestResult>,
    ) -> Judgement {
        match self {
            Recheck::ResultAgreement { left, right } => {
                let (Some(a), Some(b)) = (result(*left), result(*right)) else {
                    return Judgement::Skipped;
                };
                // Full result equality, not just the verdict: the two
                // formulations enumerate the same candidates, so even a
                // count drift is a bug in one of them.
                violated_if(a != b, || {
                    format!(
                        "native {} (candidates={}, allowed={}) vs cat {} (candidates={}, allowed={})",
                        a.verdict, a.candidates, a.allowed, b.verdict, b.candidates, b.allowed
                    )
                })
            }
            Recheck::Envelope { sub, envelope } => {
                let (Some(weak), Some(strong)) = (result(*sub), result(*envelope)) else {
                    return Judgement::Skipped;
                };
                violated_if(
                    weak.verdict == Verdict::Allowed && strong.verdict == Verdict::Forbidden,
                    || format!("{} allows what {} forbids", sub.column(), envelope.column()),
                )
            }
            Recheck::C11Expectation { expect } => match result(ModelId::C11) {
                None => Judgement::Skipped,
                Some(c11) => violated_if(c11.verdict != *expect, || {
                    format!("C11 says {}, the paper's column says {expect}", c11.verdict)
                }),
            },
            Recheck::C11Unlicensed => {
                let (Some(c11), Some(native)) = (result(ModelId::C11), result(ModelId::LkmmNative))
                else {
                    return Judgement::Skipped;
                };
                let unlicensed = || OriginalC11::divergence_license(test).is_none();
                violated_if(c11.verdict != native.verdict && unlicensed(), || {
                    format!(
                        "LKMM {} vs C11 {} on a test with no divergence license",
                        native.verdict, c11.verdict
                    )
                })
            }
            Recheck::SimObservation { arch, iterations, seed } => {
                if result(ModelId::LkmmNative).map(|r| r.verdict) != Some(Verdict::Forbidden) {
                    return Judgement::Moot;
                }
                let config = RunConfig { iterations: *iterations, seed: *seed };
                match run_test(test, *arch, &config) {
                    Err(_) => Judgement::Skipped,
                    Ok(stats) => violated_if(stats.observed > 0, || {
                        format!(
                            "{} observed an LKMM-forbidden outcome {} times in {} runs (seed {seed})",
                            arch.name(),
                            stats.observed,
                            stats.total
                        )
                    }),
                }
            }
            Recheck::FamilyExpectation { family, invariant, expect } => {
                match result(ModelId::LkmmNative) {
                    None => Judgement::Skipped,
                    Some(native) => violated_if(native.verdict != *expect, || {
                        format!(
                            "{family}: LKMM says {}, the family expects {expect} ({invariant})",
                            native.verdict
                        )
                    }),
                }
            }
            Recheck::HostObservation { iterations } => {
                if result(ModelId::LkmmNative).map(|r| r.verdict) != Some(Verdict::Forbidden) {
                    return Judgement::Moot;
                }
                let config = lkmm_klitmus::HostConfig { iterations: *iterations };
                match lkmm_klitmus::run_on_host(test, &config) {
                    Err(_) => Judgement::Skipped,
                    Ok(stats) => violated_if(stats.observed > 0, || {
                        format!(
                            "host threads observed an LKMM-forbidden outcome {} times in {} runs",
                            stats.observed, stats.total
                        )
                    }),
                }
            }
            Recheck::InterleaveDivergence { machine, max_states } => {
                // A missing or inconclusive SC cell (a quarantined unit's
                // row among them) is skipped unexplored, and a truncated
                // exploration is skipped rather than risking a false
                // verdict.
                let Some(sc) = result(ModelId::Sc) else { return Judgement::Skipped };
                let explored = lkmm_algorithms::interleave::explore(machine, *max_states);
                if explored.truncated {
                    return Judgement::Skipped;
                }
                violated_if(explored.bad_reachable != (sc.verdict == Verdict::Allowed), || {
                    format!(
                        "interleaving says the bad state is {} ({} states explored), SC says {}",
                        if explored.bad_reachable { "reachable" } else { "unreachable" },
                        explored.states,
                        sc.verdict
                    )
                })
            }
        }
    }
}

/// Judge `checks` over the row's cells: each judgement counts into
/// `summaries` (indexed like [`OracleKind::ALL`]) and each violation
/// becomes a [`Discrepancy`] in `out`.
pub(crate) fn judge_row(
    row: RowRef<'_>,
    checks: impl IntoIterator<Item = Recheck>,
    out: &mut Vec<Discrepancy>,
    summaries: &mut [OracleSummary],
) {
    let mut cell = |id: ModelId| row.cell(id).and_then(CheckOutcome::result).cloned();
    for check in checks {
        let oracle = check.oracle();
        let s = &mut summaries[oracle.index()];
        match check.judge(row.test, &mut cell) {
            Judgement::Moot => {}
            Judgement::Skipped => s.skipped += 1,
            Judgement::Holds => s.checked += 1,
            Judgement::Violated(detail) => {
                s.checked += 1;
                s.violations += 1;
                out.push(Discrepancy {
                    test_name: row.test.name.clone(),
                    oracle,
                    detail,
                    check,
                    test: row.test.clone(),
                    shrunk: None,
                });
            }
        }
    }
}

/// Judge the matrix-level oracles on one row: native≡cat, the four
/// envelope pairs, the C11 check and, on algorithm rows, family safety,
/// counting into `summaries` (indexed like [`OracleKind::ALL`]) and
/// appending violations to `out`. The simulator, host and interleaving
/// checks need runs of their own; their campaigns judge them with the
/// same [`Recheck`]s ([`crate::campaign`], [`crate::algorithms`]).
pub fn check_row(row: &MatrixRow, out: &mut Vec<Discrepancy>, summaries: &mut [OracleSummary]) {
    judge_matrix(row.view(), out, summaries);
}

/// [`check_row`] on a borrowed row, as the campaign driver judges it.
pub(crate) fn judge_matrix(
    row: RowRef<'_>,
    out: &mut Vec<Discrepancy>,
    summaries: &mut [OracleSummary],
) {
    let agreement = Recheck::ResultAgreement { left: ModelId::LkmmNative, right: ModelId::LkmmCat };
    let envelope = ENVELOPE_PAIRS.map(|(sub, envelope)| Recheck::Envelope { sub, envelope });
    // Library rows must match the paper's C11 column; every other row
    // may diverge from the LKMM only with a license.
    let c11 = match *row.origin {
        Origin::Library { c11: Some(expect), .. } => Recheck::C11Expectation {
            expect: if expect == Expect::Allowed { Verdict::Allowed } else { Verdict::Forbidden },
        },
        _ => Recheck::C11Unlicensed,
    };
    // Algorithm rows carry their family's declared LKMM expectation.
    let family = match *row.origin {
        Origin::Algorithm { family, invariant, expect } => {
            Some(Recheck::FamilyExpectation { family, invariant, expect })
        }
        _ => None,
    };
    let checks = std::iter::once(agreement).chain(envelope).chain([c11]).chain(family);
    judge_row(row, checks, out, summaries);
}

/// Whether `check` still fails on `test`, computed **from scratch** —
/// every model run anew through the governed check engine, the simulator
/// re-seeded; nothing is read from or written to any verdict store.
/// Inconclusive checks count as *not failing* (the shrinker then simply
/// keeps the larger test, staying conservative).
///
/// This is the campaign's judgement over fresh checks, plus one rule of
/// the shrinker's own: a family program the LKMM wrongly allows must be
/// forbidden by SC. Without it the shrinker would collapse every
/// wrong-Allow witness to the trivially allowed empty program, which
/// discriminates nothing. The one predicate serves both roles the
/// shrinker needs: the keep-decision on candidate reductions, and the
/// final re-validation of the emitted witness.
pub fn recheck_violated(
    check: &Recheck,
    test: &Test,
    set: &ModelSet,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> bool {
    let mut run = |id: ModelId| -> Option<TestResult> {
        if !ModelId::supports(id, test) {
            return None;
        }
        match lkmm_exec::check(&[set.get(id)], test, opts, pipe).into_first() {
            CheckOutcome::Complete(result) => Some(result),
            CheckOutcome::Inconclusive { .. } => None,
        }
    };
    if !matches!(check.judge(test, &mut run), Judgement::Violated(_)) {
        return false;
    }
    match check {
        Recheck::FamilyExpectation { expect: Verdict::Forbidden, .. } => {
            run(ModelId::Sc).is_some_and(|sc| sc.verdict == Verdict::Forbidden)
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{reference_row, CorpusEntry};

    fn library_row(name: &str) -> MatrixRow {
        let pt = lkmm_litmus::library::by_name(name).unwrap();
        let entry = CorpusEntry {
            test: pt.test(),
            origin: Origin::Library { lkmm: pt.lkmm, c11: pt.c11 },
        };
        reference_row(entry, &ModelSet::standard())
    }

    #[test]
    fn reference_models_pass_on_divergent_and_agreeing_rows() {
        // RWC+mbs is a published LKMM/C11 divergence; the expectation
        // oracle must accept it because the paper's column says Allowed.
        for name in ["MP", "SB+mbs", "RWC+mbs", "RCU-MP"] {
            let row = library_row(name);
            let mut out = Vec::new();
            let mut summaries = [OracleSummary::default(); OracleKind::ALL.len()];
            check_row(&row, &mut out, &mut summaries);
            assert!(out.is_empty(), "{name}: {:?}", out.iter().map(|d| &d.detail).collect::<Vec<_>>());
            assert!(summaries[0].checked == 1);
        }
    }

    #[test]
    fn recheck_predicates_fire_on_a_broken_model() {
        let mut set = ModelSet::standard();
        set.replace(ModelId::LkmmCat, Box::new(lkmm_exec::model::AllowAll));
        let t = lkmm_litmus::library::by_name("SB+mbs").unwrap().test();
        let opts = EnumOptions::default();
        let pipe = PipelineOptions::default();
        let check = Recheck::ResultAgreement { left: ModelId::LkmmNative, right: ModelId::LkmmCat };
        assert!(recheck_violated(&check, &t, &set, &opts, &pipe));
        // The healthy set agrees.
        assert!(!recheck_violated(&check, &t, &ModelSet::standard(), &opts, &pipe));
    }

    #[test]
    fn envelope_recheck_is_direction_sensitive() {
        // SB: TSO allows, SC forbids — the *correct* direction, so the
        // (Sc, Tso) pair must not fire; the inverted pair would.
        let t = lkmm_litmus::library::by_name("SB").unwrap().test();
        let set = ModelSet::standard();
        let opts = EnumOptions::default();
        let pipe = PipelineOptions::default();
        let ok = Recheck::Envelope { sub: ModelId::Sc, envelope: ModelId::Tso };
        assert!(!recheck_violated(&ok, &t, &set, &opts, &pipe));
        let inverted = Recheck::Envelope { sub: ModelId::Tso, envelope: ModelId::Sc };
        assert!(recheck_violated(&inverted, &t, &set, &opts, &pipe));
    }
}
