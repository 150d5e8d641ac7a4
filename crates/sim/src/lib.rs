//! Operational hardware simulators — the stand-in for the paper's
//! Power8 / ARMv8 / ARMv7 / x86 testbeds (§5.1, Table 5).
//!
//! The paper runs litmus tests as kernel modules on real machines and
//! counts how often each outcome is observed. We do not have those
//! machines, so this crate provides *operational* models that exercise the
//! same code path — run a test many times under randomised scheduling,
//! histogram the outcomes — while exhibiting each architecture's
//! documented relaxations:
//!
//! * **x86** ([`Arch::X86`]): in-order execution with a FIFO store buffer
//!   (TSO). The only relaxation is write→read; `smp_mb` drains the
//!   buffer.
//! * **ARMv8 / ARMv7** ([`Arch::Armv8`], [`Arch::Armv7`]): out-of-order
//!   performs from a bounded window over a *single-copy* (multi-copy
//!   atomic) memory; dependencies and fences restrict reordering. ARMv7
//!   implements acquire/release with full `dmb` fences, ARMv8 with native
//!   one-directional ld.acq/st.rel (§3.2.2 of the paper).
//! * **Power8** ([`Arch::Power`]): additionally *non-multi-copy-atomic* —
//!   a committed write propagates to each other hardware thread at an
//!   independent random time; release stores and `smp_mb`/`sync` impose
//!   (A-)cumulative propagation constraints.
//!
//! `synchronize_rcu` is modelled operationally (full fence, then wait
//! until every thread is outside the read-side critical section it was in
//! when the grace period began, then full fence), matching a correct
//! kernel RCU implementation on each machine.
//!
//! The simulators are deliberately *stronger* than the LKMM in places
//! where real pipelines are too (no store speculation: stores retire only after
//! program-order-earlier loads complete, so `LB` is never observed —
//! just as the paper's machines never produced it). The
//! soundness property that matters, and that the test suite enforces, is
//! Table 5's: **no outcome forbidden by the LKMM is ever observed**.
//!
//! # Examples
//!
//! ```
//! use lkmm_sim::{run_test, Arch, RunConfig};
//!
//! let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
//! let stats = run_test(&sb, Arch::X86, &RunConfig { iterations: 2_000, seed: 1 }).unwrap();
//! assert!(stats.observed > 0, "store buffering is visible on x86");
//! ```

pub mod exhaustive;
pub mod machine;
pub mod rng;
pub mod runner;

pub use exhaustive::{explore, ExploreResult};
pub use machine::{Arch, MachineError};
pub use runner::{run_test, RunConfig, RunStats};
