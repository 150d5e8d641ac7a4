//! Quickstart: parse a litmus test, check it against the LKMM, and
//! explain the verdict.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use linux_kernel_memory_model::{Herd, ModelId};
use lkmm::{explain_violation, Lkmm, LkmmRelations};
use lkmm_exec::enumerate::{enumerate, EnumOptions};

const MESSAGE_PASSING: &str = r#"
C MP+wmb+rmb

// Figure 1 of the paper: message passing with write/read barriers.
{ x=0; y=0; }

P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}

P1(int *x, int *y)
{
    int r1;
    int r2;
    r1 = READ_ONCE(*y);
    smp_rmb();
    r2 = READ_ONCE(*x);
}

exists (1:r1=1 /\ 1:r2=0)
"#;

fn main() {
    // 1. The one-call API.
    let herd = Herd::new(ModelId::LkmmNative);
    let report = herd.check_source(MESSAGE_PASSING).expect("valid litmus");
    println!("{report}\n");

    // 2. Dig into *why*: find the weak-outcome candidate and show which
    //    axiom rejects it, paper-style.
    let test = lkmm_litmus::parse(MESSAGE_PASSING).unwrap();
    let execs = enumerate(&test, &EnumOptions::default()).unwrap();
    let weak = execs
        .iter()
        .find(|x| x.satisfies_prop(&test.condition.prop))
        .expect("the weak outcome is a candidate");

    let model = Lkmm::new();
    let axiom = model.violated_axiom(weak).expect("forbidden");
    println!("The weak outcome candidate violates: {axiom}");
    println!("{}", explain_violation(weak).expect("forbidden"));

    // 3. The intermediate relations of Figure 8 are all inspectable.
    let rels = LkmmRelations::compute(weak);
    println!("  wmb edges:  {:?}", rels.wmb);
    println!("  prop edges: {:?}", rels.prop);
    println!("  hb cycle:   {:?}", rels.hb.find_cycle());

    // 4. Events render as in the paper's execution diagrams.
    println!("\nWeak-outcome candidate execution:");
    for e in weak.events.iter() {
        println!("  {e}");
    }

    // 5. Compare models in one line each.
    for choice in [ModelId::Sc, ModelId::Tso, ModelId::C11, ModelId::LkmmCat] {
        let r = Herd::new(choice).check_source(MESSAGE_PASSING).unwrap();
        println!("{:10} says: {}", r.model_name, r.result.verdict);
    }
}
