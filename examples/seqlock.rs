//! Verifying a kernel idiom end to end: a **seqlock**.
//!
//! Linux's seqlock lets a writer publish a multi-word datum while readers
//! retry instead of blocking: the writer bumps a sequence counter to odd,
//! writes the data, bumps it back to even; a reader snapshots the counter,
//! reads the data, re-reads the counter, and *accepts* only if both
//! snapshots are equal and even.
//!
//! The litmus question: can an accepting reader ever observe a torn datum
//! (`d1 = 1 ∧ d2 = 0`)? With the kernel's barriers (the counter accesses
//! ordered by `smp_wmb`/`smp_rmb` around the data) the LKMM forbids it;
//! strip the barriers and the torn read is allowed — exactly the kind of
//! bug the paper's model exists to catch.
//!
//! ```sh
//! cargo run --release --example seqlock
//! ```

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm_exec::states::collect_states;
use lkmm_exec::enumerate::EnumOptions;

/// The reader accepts when it saw the counter even and unchanged; the
/// condition asks for an accepted-yet-torn read.
fn seqlock_source(wmb: &str, rmb: &str) -> String {
    format!(
        "C seqlock{suffix}\n\
         {{ seq=0; d1=0; d2=0; }}\n\
         P0(int *seq, int *d1, int *d2)\n\
         {{\n\
             WRITE_ONCE(*seq, 1);\n\
             {wmb}\n\
             WRITE_ONCE(*d1, 1);\n\
             WRITE_ONCE(*d2, 1);\n\
             {wmb}\n\
             WRITE_ONCE(*seq, 2);\n\
         }}\n\
         P1(int *seq, int *d1, int *d2)\n\
         {{\n\
             int s1;\n\
             int r1;\n\
             int r2;\n\
             int s2;\n\
             s1 = READ_ONCE(*seq);\n\
             {rmb}\n\
             r1 = READ_ONCE(*d1);\n\
             r2 = READ_ONCE(*d2);\n\
             {rmb}\n\
             s2 = READ_ONCE(*seq);\n\
         }}\n\
         exists (1:s1=0 /\\ 1:s2=0 /\\ 1:r1=1 /\\ 1:r2=0)",
        suffix = if wmb.is_empty() { "-broken" } else { "" },
    )
}

fn main() {
    let herd = Herd::new(ModelId::LkmmNative);

    // With the kernel's barriers: an accepted read is never torn.
    let good = seqlock_source("smp_wmb();", "smp_rmb();");
    let report = herd.check_source(&good).unwrap();
    println!("{report}\n");
    assert!(!report.allowed(), "barriered seqlock must not tear");

    // Without the barriers the torn read is a real execution.
    let broken = seqlock_source("", "");
    let report = herd.check_source(&broken).unwrap();
    println!("{report}\n");
    assert!(report.allowed(), "barrier-free seqlock tears");

    // herd-style state histogram of the broken version: the torn state
    // appears among the allowed ones.
    let test = lkmm_litmus::parse(&broken).unwrap();
    let summary = collect_states(
        ModelId::LkmmNative.instantiate().as_ref(),
        &test,
        &EnumOptions::default(),
    )
    .unwrap();
    println!("{summary}");

    // And on the simulated hardware: the barriered version is never torn
    // on any architecture; the broken one tears on the weak machines.
    use lkmm_sim::{run_test, Arch, RunConfig};
    let good_test = lkmm_litmus::parse(&good).unwrap();
    let broken_test = lkmm_litmus::parse(&broken).unwrap();
    println!("\n{:<12} {:>14} {:>14}", "arch", "barriered", "barrier-free");
    for arch in Arch::ALL {
        let cfg = RunConfig { iterations: 20_000, seed: 0x5EC1 };
        let g = run_test(&good_test, arch, &cfg).unwrap();
        let b = run_test(&broken_test, arch, &cfg).unwrap();
        println!("{:<12} {:>14} {:>14}", arch.name(), g.table_cell(), b.table_cell());
        assert_eq!(g.observed, 0, "{}: torn read through barriers!", arch.name());
    }
}
