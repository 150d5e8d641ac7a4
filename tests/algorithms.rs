//! Integration tests for the real-algorithm verification tier
//! (ISSUE 7): every family's programs must get the verdict the family
//! declares under the native LKMM, the exhaustive interleaving of each
//! step machine must agree with the axiomatic SC+atomicity verdict,
//! and a faultpoint-weakened family must be caught — and shrunk to a
//! minimal witness — by the family-safety oracle.

use linux_kernel_memory_model::algorithms::{
    all_programs, interleave, FamilyParams, ScAtomic,
};
use linux_kernel_memory_model::exec::enumerate::EnumOptions;
use linux_kernel_memory_model::exec::{check_test, Verdict};
use linux_kernel_memory_model::model::Lkmm;

#[test]
fn every_program_meets_its_family_expectation_under_lkmm() {
    let lkmm = Lkmm::new();
    let programs = all_programs(&FamilyParams::default()).unwrap();
    assert!(programs.len() >= 20, "six families expand to a real corpus");
    for p in &programs {
        let r = check_test(&lkmm, &p.test, &EnumOptions::default()).unwrap();
        assert_eq!(
            r.verdict,
            p.expect,
            "{} ({}: {})",
            p.test.name,
            p.family.name(),
            p.family.invariant()
        );
    }
}

#[test]
fn interleaving_agrees_with_sc_atomic_on_every_machine_program() {
    // The loom-style cross-check: a family's step machine reaches its
    // bad state iff the axiomatic SC+atomicity model allows the litmus
    // program's bad outcome. Both sides model the same interleaving
    // semantics by independent constructions, so divergence in either
    // direction is a bug.
    let programs = all_programs(&FamilyParams::default()).unwrap();
    let machines: Vec<_> = programs.iter().filter(|p| p.machine.is_some()).collect();
    assert!(machines.len() >= 10, "most families carry step machines");
    for p in machines {
        let machine = p.machine.as_ref().unwrap();
        let explored = interleave::explore(machine, 0);
        assert!(!explored.truncated);
        let r = check_test(&ScAtomic, &p.test, &EnumOptions::default()).unwrap();
        assert_eq!(
            explored.bad_reachable,
            r.verdict == Verdict::Allowed,
            "{}: machine explored {} states and says bad is {}, SC+atomic says {}",
            p.test.name,
            explored.states,
            if explored.bad_reachable { "reachable" } else { "unreachable" },
            r.verdict
        );
    }
}

/// The mutant-catching path end to end: arming `algo.weaken` makes the
/// ticket family silently generate its relaxed orderings while still
/// claiming Forbidden, and the family-safety oracle must catch every
/// misjudged program and shrink it to a minimal wrong-verdict witness.
/// Runs storeless, as every fault-injection campaign must — a poisoned
/// verdict must never be persisted.
#[cfg(feature = "fault-injection")]
#[test]
fn weakened_ticket_family_is_caught_and_shrunk() {
    use linux_kernel_memory_model::algorithms::FamilyId;
    use linux_kernel_memory_model::conformance::{
        recheck_violated, run_algo_campaign, AlgoConfig, ModelSet, OracleKind, SimConfig,
    };
    use linux_kernel_memory_model::exec::PipelineOptions;
    use lkmm_core::faultpoint;

    let cfg = AlgoConfig {
        families: vec![FamilyId::Ticket],
        sim: SimConfig { iterations: 0, ..SimConfig::default() },
        host_iterations: 0,
        ..AlgoConfig::default()
    };

    let guard = faultpoint::arm("algo.weaken");
    let report = run_algo_campaign(&cfg).unwrap();
    drop(guard);

    assert!(!report.campaign.clean(), "the weakened family must not pass");
    let safety: Vec<_> = report
        .campaign
        .discrepancies
        .iter()
        .filter(|d| d.oracle == OracleKind::FamilySafety)
        .collect();
    assert!(!safety.is_empty(), "family safety catches the weakened lock");
    for d in safety {
        let shrunk = d.shrunk.as_ref().expect("family-safety discrepancies shrink");
        let witness = linux_kernel_memory_model::litmus::parse(&shrunk.litmus).unwrap();
        // The minimal witness still discriminates: the real LKMM says
        // Allowed where the weakened family claimed Forbidden.
        assert!(recheck_violated(
            &d.check,
            &witness,
            &ModelSet::standard(),
            &EnumOptions::default(),
            &PipelineOptions::default(),
        ));
        // ... and it is a genuine weak-memory witness, not the
        // trivially-allowed empty program: the SC+atomicity reference
        // forbids the very outcome the LKMM admits.
        let lkmm = check_test(&Lkmm::new(), &witness, &EnumOptions::default()).unwrap();
        let sc = check_test(&ScAtomic, &witness, &EnumOptions::default()).unwrap();
        assert_eq!(lkmm.verdict, Verdict::Allowed, "{}", witness.name);
        assert_eq!(sc.verdict, Verdict::Forbidden, "{}", witness.name);
    }

    // Disarmed, the same campaign is clean again.
    let healed = run_algo_campaign(&cfg).unwrap();
    assert!(
        healed.campaign.clean(),
        "{:?}",
        healed.campaign.discrepancies.first().map(|d| &d.detail)
    );
}
