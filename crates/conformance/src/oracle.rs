//! Typed invariants over verdict-matrix rows.
//!
//! Each oracle encodes one §5 validation claim as a checkable property
//! of a single row:
//!
//! * **native≡cat** — the two LKMM formulations produce identical
//!   [`TestResult`]s (verdict *and* exact candidate/allowed/witness
//!   counts) on every test;
//! * **envelope ordering** — the LKMM is an envelope of the comparison
//!   models: anything SC allows, TSO allows; anything TSO / ARMv8 /
//!   Power allows, the LKMM allows;
//! * **sim soundness** — an operational simulator never observes an
//!   outcome the LKMM forbids (Table 5's empty "forbidden observed"
//!   column), checked by [`crate::campaign`] with seeded runs;
//! * **C11 divergence whitelist** — original C11 under the P0124
//!   mapping may diverge from the LKMM only where the mapping loses
//!   ordering ([`OriginalC11::divergence_license`]); library rows must
//!   additionally match the paper's published C11 column exactly.
//!
//! The algorithm-family campaign ([`crate::algorithms`]) adds three
//! more: **family safety** (a family program's LKMM verdict matches its
//! declared expectation), **host soundness** (the klitmus runner never
//! observes an LKMM-forbidden outcome on real threads), and
//! **interleave agreement** (exhaustive step-machine interleaving
//! agrees with the row's SC verdict).
//!
//! A violation is a structured [`Discrepancy`] carrying a re-checkable
//! [`Recheck`] predicate. Re-checks always recompute from scratch —
//! **never through the verdict store** — so a discrepancy can never be
//! an artifact of a stale or poisoned cache entry, and the shrinker can
//! evaluate the same predicate on mutated tests that were never checked
//! before.

use crate::matrix::{MatrixRow, ModelId, ModelSet, Origin};
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

/// The re-checkable predicate behind one discrepancy: exactly the
/// failing oracle pair, nothing else. The shrinker re-evaluates this
/// (and only this) on every candidate reduction.
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
    /// weak-memory discriminator rather than the empty program.
    FamilyExpectation { expect: Verdict },
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

fn complete(row: &MatrixRow, id: ModelId) -> Option<&TestResult> {
    row.cell(id).and_then(CheckOutcome::result)
}

/// Evaluate the matrix-level oracles (agreement, envelope, C11, and —
/// on algorithm rows — family safety) on one row, appending any
/// violations and updating the summaries (indexed like
/// [`OracleKind::ALL`]). Sim soundness needs simulator runs and lives
/// in [`crate::campaign`]; host soundness and interleave agreement live
/// in [`crate::algorithms`].
pub fn check_row(
    row: &MatrixRow,
    out: &mut Vec<Discrepancy>,
    summaries: &mut [OracleSummary],
) {
    let discrepancy = |oracle: OracleKind, detail: String, check: Recheck| Discrepancy {
        test_name: row.test.name.clone(),
        oracle,
        detail,
        check,
        test: row.test.clone(),
        shrunk: None,
    };

    // Native ≡ cat: full result equality, not just the verdict — the two
    // formulations enumerate the same candidates, so even a count drift
    // is a bug in one of them.
    {
        let s = &mut summaries[0];
        match (complete(row, ModelId::LkmmNative), complete(row, ModelId::LkmmCat)) {
            (Some(native), Some(cat)) => {
                s.checked += 1;
                if native != cat {
                    s.violations += 1;
                    out.push(discrepancy(
                        OracleKind::NativeCatAgreement,
                        format!(
                            "native {} (candidates={}, allowed={}) vs cat {} (candidates={}, allowed={})",
                            native.verdict, native.candidates, native.allowed,
                            cat.verdict, cat.candidates, cat.allowed
                        ),
                        Recheck::ResultAgreement {
                            left: ModelId::LkmmNative,
                            right: ModelId::LkmmCat,
                        },
                    ));
                }
            }
            _ => s.skipped += 1,
        }
    }

    // Envelope ordering on verdicts: if the weaker model allows the
    // condition, every enveloping model must allow it too.
    {
        let s = &mut summaries[1];
        for (sub, envelope) in ENVELOPE_PAIRS {
            match (complete(row, sub), complete(row, envelope)) {
                (Some(weak), Some(strong)) => {
                    s.checked += 1;
                    if weak.verdict == Verdict::Allowed && strong.verdict == Verdict::Forbidden {
                        s.violations += 1;
                        out.push(discrepancy(
                            OracleKind::EnvelopeOrdering,
                            format!(
                                "{} allows what {} forbids",
                                sub.column(),
                                envelope.column()
                            ),
                            Recheck::Envelope { sub, envelope },
                        ));
                    }
                }
                _ => s.skipped += 1,
            }
        }
    }

    // C11: library rows must match the paper's column; generated rows
    // may diverge from the LKMM only with a license.
    {
        let s = &mut summaries[3];
        match complete(row, ModelId::C11) {
            None => s.skipped += 1,
            Some(c11) => {
                if let Origin::Library { c11: Some(expect), .. } = &row.origin {
                    s.checked += 1;
                    let expected = match expect {
                        Expect::Allowed => Verdict::Allowed,
                        Expect::Forbidden => Verdict::Forbidden,
                    };
                    if c11.verdict != expected {
                        s.violations += 1;
                        out.push(discrepancy(
                            OracleKind::C11Divergence,
                            format!("C11 says {}, the paper's column says {}", c11.verdict, expected),
                            Recheck::C11Expectation { expect: expected },
                        ));
                    }
                } else {
                    match complete(row, ModelId::LkmmNative) {
                        None => s.skipped += 1,
                        Some(native) => {
                            s.checked += 1;
                            if c11.verdict != native.verdict
                                && OriginalC11::divergence_license(&row.test).is_none()
                            {
                                s.violations += 1;
                                out.push(discrepancy(
                                    OracleKind::C11Divergence,
                                    format!(
                                        "LKMM {} vs C11 {} on a test with no divergence license",
                                        native.verdict, c11.verdict
                                    ),
                                    Recheck::C11Unlicensed,
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    // Family safety: algorithm rows carry their declared LKMM
    // expectation — the safe variant's violation condition must be
    // Forbidden, the weakened twin's Allowed.
    if let Origin::Algorithm { family, invariant, expect } = &row.origin {
        let s = &mut summaries[OracleKind::FamilySafety.index()];
        match complete(row, ModelId::LkmmNative) {
            Some(native) => {
                s.checked += 1;
                if native.verdict != *expect {
                    s.violations += 1;
                    out.push(discrepancy(
                        OracleKind::FamilySafety,
                        format!(
                            "{family}: LKMM says {}, the family expects {} ({invariant})",
                            native.verdict, expect
                        ),
                        Recheck::FamilyExpectation { expect: *expect },
                    ));
                }
            }
            None => s.skipped += 1,
        }
    }
}

/// Whether `check` still fails on `test`, computed **from scratch** —
/// every model run anew through the governed check engine, the simulator
/// re-seeded; nothing is read from or written to any verdict store.
/// Inconclusive checks count as *not failing* (the shrinker then simply
/// keeps the larger test, staying conservative).
///
/// This single predicate serves both roles the shrinker needs: the
/// keep-decision on candidate reductions, and the final re-validation
/// of the emitted witness.
pub fn recheck_violated(
    check: &Recheck,
    test: &Test,
    set: &ModelSet,
    opts: &EnumOptions,
    pipe: &PipelineOptions,
) -> bool {
    let run = |id: ModelId| -> Option<TestResult> {
        if !ModelId::supports(id, test) {
            return None;
        }
        match lkmm_exec::check(&[set.get(id)], test, opts, pipe).into_first() {
            CheckOutcome::Complete(result) => Some(result),
            CheckOutcome::Inconclusive { .. } => None,
        }
    };
    match check {
        Recheck::ResultAgreement { left, right } => match (run(*left), run(*right)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        },
        Recheck::Envelope { sub, envelope } => match (run(*sub), run(*envelope)) {
            (Some(weak), Some(strong)) => {
                weak.verdict == Verdict::Allowed && strong.verdict == Verdict::Forbidden
            }
            _ => false,
        },
        Recheck::C11Expectation { expect } => match run(ModelId::C11) {
            Some(c11) => c11.verdict != *expect,
            None => false,
        },
        Recheck::C11Unlicensed => match (run(ModelId::LkmmNative), run(ModelId::C11)) {
            (Some(native), Some(c11)) => {
                native.verdict != c11.verdict
                    && OriginalC11::divergence_license(test).is_none()
            }
            _ => false,
        },
        Recheck::SimObservation { arch, iterations, seed } => {
            let Some(native) = run(ModelId::LkmmNative) else { return false };
            if native.verdict != Verdict::Forbidden {
                return false;
            }
            match run_test(test, *arch, &RunConfig { iterations: *iterations, seed: *seed }) {
                Ok(stats) => stats.observed > 0,
                Err(_) => false,
            }
        }
        Recheck::FamilyExpectation { expect } => match run(ModelId::LkmmNative) {
            Some(native) => {
                if native.verdict == *expect {
                    return false;
                }
                match native.verdict {
                    // A wrong Allow must be backed by a genuinely weak
                    // outcome — one the SC column forbids. Without this
                    // the shrinker would collapse every wrong-Allow
                    // witness to the trivially-allowed empty program,
                    // which discriminates nothing.
                    Verdict::Allowed => {
                        run(ModelId::Sc).is_some_and(|sc| sc.verdict == Verdict::Forbidden)
                    }
                    _ => true,
                }
            }
            None => false,
        },
        Recheck::HostObservation { iterations } => {
            let Some(native) = run(ModelId::LkmmNative) else { return false };
            if native.verdict != Verdict::Forbidden {
                return false;
            }
            let config = lkmm_klitmus::HostConfig { iterations: *iterations };
            match lkmm_klitmus::run_on_host(test, &config) {
                Ok(stats) => stats.observed > 0,
                Err(_) => false,
            }
        }
        Recheck::InterleaveDivergence { machine, max_states } => {
            // Recompute both sides from scratch: the machine re-explored,
            // the axiomatic side re-checked by the SC column.
            let explored = lkmm_algorithms::interleave::explore(machine, *max_states);
            if explored.truncated {
                return false;
            }
            match run(ModelId::Sc) {
                Some(sc) => explored.bad_reachable != (sc.verdict == Verdict::Allowed),
                None => false,
            }
        }
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
