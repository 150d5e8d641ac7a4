//! Monte-Carlo litmus harness: the klitmus-style experiment loop.
//!
//! [`run_test`] lowers the test once, then runs one machine for every
//! iteration, resetting it in place between runs; iteration `i` draws its
//! schedule from its own stream seeded `seed + i`. Final states are
//! counted by their raw term values, and each distinct one is rendered
//! into the histogram once at the end.

use crate::machine::{Arch, Machine, MachineError};
use crate::rng::SplitMix64;
use lkmm_exec::lower::Program;
use lkmm_exec::Val;
use lkmm_litmus::ast::Test;
use std::collections::{BTreeMap, HashMap};

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of independent runs.
    pub iterations: u64,
    /// RNG seed (each run derives its own stream).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { iterations: 10_000, seed: 0xB1F0 }
    }
}

/// Aggregated results of running a test on one simulated architecture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Runs whose final state satisfied the test's `exists` proposition.
    pub observed: u64,
    /// Total runs.
    pub total: u64,
    /// Histogram of final states, keyed by a canonical rendering of the
    /// state terms appearing in the condition (`term=value` pairs joined
    /// by spaces, `?` for a register never written).
    pub histogram: BTreeMap<String, u64>,
}

impl RunStats {
    /// `observed/total` in the paper's Table 5 notation (`0/33G` style,
    /// with k/M/G suffixes).
    pub fn table_cell(&self) -> String {
        fn human(n: u64) -> String {
            match n {
                0 => "0".to_string(),
                n if n >= 1_000_000_000 => format!("{:.1}G", n as f64 / 1e9),
                n if n >= 1_000_000 => format!("{:.1}M", n as f64 / 1e6),
                n if n >= 1_000 => format!("{:.0}k", n as f64 / 1e3),
                n => n.to_string(),
            }
        }
        format!("{}/{}", human(self.observed), human(self.total))
    }
}

/// Run `test` `config.iterations` times on the simulated `arch`.
///
/// # Errors
///
/// Returns [`MachineError`] for unsupported constructs (`__assume`) or a
/// scheduler deadlock (a bug or a never-terminating program).
///
/// # Examples
///
/// ```
/// use lkmm_sim::{run_test, Arch, RunConfig};
///
/// let mp = lkmm_litmus::library::by_name("MP").unwrap().test();
/// // Message passing is never observable on the x86 simulator…
/// let x86 = run_test(&mp, Arch::X86, &RunConfig { iterations: 1_000, seed: 7 }).unwrap();
/// assert_eq!(x86.observed, 0);
/// ```
pub fn run_test(test: &Test, arch: Arch, config: &RunConfig) -> Result<RunStats, MachineError> {
    let prog = Program::lower(test);
    let mut machine = Machine::new(&prog, arch);
    let mut actions = Vec::new();
    let mut vals = Vec::new();
    let mut outcomes: HashMap<Box<[Option<Val>]>, u64> = HashMap::new();
    for i in 0..config.iterations {
        let mut rng = SplitMix64::seed_from_u64(config.seed.wrapping_add(i));
        machine.reset();
        machine.run(&mut rng, &mut actions)?;
        machine.final_values(&mut vals);
        match outcomes.get_mut(vals.as_slice()) {
            Some(n) => *n += 1,
            None => {
                outcomes.insert(vals.as_slice().into(), 1);
            }
        }
    }
    let (mut observed, mut histogram) = (0, BTreeMap::new());
    for (vals, n) in outcomes {
        if prog.holds(&test.condition.prop, &vals) {
            observed += n;
        }
        *histogram.entry(prog.render(&vals, " ")).or_insert(0) += n;
    }
    Ok(RunStats { observed, total: config.iterations, histogram })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::library;

    const N: u64 = 4_000;

    fn observed(name: &str, arch: Arch) -> u64 {
        let t = library::by_name(name).unwrap().test();
        run_test(&t, arch, &RunConfig { iterations: N, seed: 42 }).unwrap().observed
    }

    #[test]
    fn sb_observed_everywhere() {
        for arch in Arch::ALL {
            assert!(observed("SB", arch) > 0, "{}", arch.name());
        }
    }

    #[test]
    fn mp_observed_only_on_weak_machines() {
        assert!(observed("MP", Arch::Power) > 0);
        assert!(observed("MP", Arch::Armv8) > 0);
        assert_eq!(observed("MP", Arch::X86), 0);
    }

    #[test]
    fn wrc_observed_on_power_via_non_mca() {
        assert!(observed("WRC", Arch::Power) > 0);
        assert_eq!(observed("WRC", Arch::X86), 0);
    }

    #[test]
    fn lb_never_observed_without_speculation() {
        // Matches §5.1: LB was not observed on any of the paper's systems.
        for arch in Arch::ALL {
            assert_eq!(observed("LB", arch), 0, "{}", arch.name());
        }
    }

    #[test]
    fn fenced_tests_never_observed() {
        for name in ["SB+mbs", "MP+wmb+rmb", "WRC+po-rel+rmb", "LB+ctrl+mb", "PeterZ"] {
            for arch in Arch::ALL {
                assert_eq!(observed(name, arch), 0, "{name} on {}", arch.name());
            }
        }
    }

    #[test]
    fn rcu_tests_never_observed() {
        for name in ["RCU-MP", "RCU-deferred-free"] {
            for arch in Arch::ALL {
                assert_eq!(observed(name, arch), 0, "{name} on {}", arch.name());
            }
        }
    }

    #[test]
    fn peterz_no_synchro_observed_on_x86() {
        assert!(observed("PeterZ-No-Synchro", Arch::X86) > 0);
    }

    #[test]
    fn histogram_partitions_runs() {
        let t = library::by_name("SB").unwrap().test();
        let stats = run_test(&t, Arch::X86, &RunConfig { iterations: 500, seed: 3 }).unwrap();
        assert_eq!(stats.histogram.values().sum::<u64>(), 500);
        assert!(stats.table_cell().contains('/'));
    }

    /// Soundness (the experiment of §5.1): nothing forbidden by the LKMM
    /// is ever observed on any simulated architecture.
    #[test]
    fn simulators_are_sound_wrt_lkmm() {
        use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
        let model = lkmm::Lkmm::new();
        for pt in library::all() {
            let t = pt.test();
            let verdict = check_test(&model, &t, &EnumOptions::default()).unwrap().verdict;
            if verdict == Verdict::Forbidden {
                for arch in Arch::ALL {
                    let stats =
                        run_test(&t, arch, &RunConfig { iterations: 2_000, seed: 99 }).unwrap();
                    assert_eq!(
                        stats.observed,
                        0,
                        "{} observed on {} but LKMM forbids it",
                        pt.name,
                        arch.name()
                    );
                }
            }
        }
    }
}
