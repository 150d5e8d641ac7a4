//! Integration tests for the real-algorithm verification tier: every
//! family's programs must get the verdict the family declares under
//! the native LKMM, and the exhaustive interleaving of each step
//! machine must agree with the axiomatic SC+atomicity verdict. The
//! faultpoint-weakened family, which the family-safety oracle must
//! catch and shrink, is tested in `fault_injection.rs` under that
//! file's lock: armed here, `algo.weaken` would leak into the
//! expectation test.

use linux_kernel_memory_model::algorithms::{all_programs, interleave, FamilyParams};
use linux_kernel_memory_model::exec::enumerate::EnumOptions;
use linux_kernel_memory_model::exec::{check_test, Verdict};
use linux_kernel_memory_model::model::Lkmm;
use linux_kernel_memory_model::models::Sc;

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
        let r = check_test(&Sc, &p.test, &EnumOptions::default()).unwrap();
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
