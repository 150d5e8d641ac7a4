//! Pinned semantics of compiled cat evaluation. Each case states the
//! full outcome, or the exact error, a small model gives on the
//! store-buffering test, so compiling cannot drift from cat's lexical
//! scoping, simultaneous and recursive bindings, check semantics or
//! error reporting.
//!
//! Facts about SB's candidates the expectations rely on: `po` relates
//! each thread's write to its read, so it is non-empty and `po ; po` is
//! empty; `rf` and `co` are non-empty and `po & rf` is empty.

use lkmm_cat::{CatModel, CatOutcome, CatSession, EvalError};
use lkmm_core::budget::StepFuel;
use lkmm_exec::enumerate::{enumerate, EnumOptions};
use lkmm_exec::Execution;
use lkmm_litmus::library;
use std::sync::Arc;

type Outcome = Result<CatOutcome, EvalError>;

fn sb() -> Vec<Execution> {
    let t = library::by_name("SB").unwrap().test();
    let xs = enumerate(&t, &EnumOptions::default()).unwrap();
    assert_eq!(xs.len(), 4);
    xs
}

fn allowed(flags: &[&str]) -> Outcome {
    Ok(CatOutcome { failed_check: None, flags: flags.iter().map(|f| f.to_string()).collect() })
}

fn forbidden(check: &str, flags: &[&str]) -> Outcome {
    Ok(CatOutcome {
        failed_check: Some(check.into()),
        flags: flags.iter().map(|f| f.to_string()).collect(),
    })
}

fn error(message: &str) -> Outcome {
    Err(EvalError { message: message.into() })
}

/// `src` gives `expected` on every SB candidate, through a fresh
/// evaluation and through one session reused across the candidates.
fn assert_model(src: &str, expected: &Outcome) {
    let model = CatModel::parse(src).unwrap();
    let mut session = CatSession::new(&model);
    for x in &sb() {
        assert_eq!(&model.evaluate(x), expected, "fresh evaluation of:\n{src}");
        assert_eq!(&session.evaluate(x), expected, "session evaluation of:\n{src}");
    }
}

/// The smallest step-fuel tank with which `src` evaluates on the first
/// SB candidate without running dry.
fn fuel_needed(src: &str) -> u64 {
    let model = CatModel::parse(src).unwrap();
    let x = &sb()[0];
    let runs_dry = |steps: u64| {
        let mut session = CatSession::new(&model);
        session.set_fuel(Arc::new(StepFuel::new(steps)));
        matches!(session.evaluate(x), Err(e) if e.is_fuel_exhausted())
    };
    let steps = (0..1000).find(|&s| !runs_dry(s)).expect("finite fuel");
    assert!(steps == 0 || runs_dry(steps - 1));
    steps
}

#[test]
fn functions_see_the_scope_they_were_defined_in() {
    // `f` closes over the first `a`; rebinding `a` later must not reach
    // into its body.
    let src = "let a = po\n\
               let f(x) = x & a\n\
               let a = rf\n\
               empty f(rf) as f-sees-po\n\
               empty f(po) as not-rf";
    assert_model(src, &forbidden("not-rf", &[]));
}

#[test]
fn functions_are_values() {
    let src = "let twice(f, r) = f(f(r))\n\
               let inv(r) = r^-1\n\
               let pick(f) = f\n\
               let inv2 = pick(inv)\n\
               empty twice(inv, po) \\ po as involution\n\
               empty inv2(po) \\ po^-1 as returned\n\
               empty twice(inv2, rf) as nonempty";
    assert_model(src, &forbidden("nonempty", &[]));
}

#[test]
fn let_shadows_base_names() {
    let src = "let f(r) = r | po\n\
               let po = rf\n\
               empty po \\ rf as po-is-rf\n\
               empty f(0) & rf as f-keeps-old-po\n\
               acyclic po | rf as shadowed\n\
               let id = po\n\
               empty 0 as zero\n\
               empty id \\ rf as id-is-rf\n\
               ~empty id as id-not-empty";
    assert_model(src, &allowed(&[]));
}

#[test]
fn let_and_binds_simultaneously() {
    // `b = a` reads the `a` from before this `let`, not its sibling.
    let src = "let a = rf\n\
               let a = po and b = a\n\
               empty b \\ rf as b-is-old-a\n\
               empty a \\ po as a-is-po\n\
               empty b & po as disjoint\n\
               flag ~empty b as b-flag";
    assert_model(src, &allowed(&["b-flag"]));
}

#[test]
fn let_rec_and_iterates_gauss_seidel() {
    // Each binding sees the values its predecessors took in the same
    // round: `b = a` picks up `po` in round one, so the group settles
    // after two rounds (a Jacobi sweep would need three).
    let forward = "let rec a = po and b = a\n\
                   empty b \\ po as b-is-po\n\
                   empty b as b-empty";
    assert_model(forward, &forbidden("b-empty", &[]));
    assert_eq!(fuel_needed(forward), 3 + 2 * 2);
    // In the other order `b` only sees `a` a round later.
    let backward = "let rec b = a and a = po\n\
                    empty b \\ po as b-is-po\n\
                    empty b as b-empty";
    assert_model(backward, &forbidden("b-empty", &[]));
    assert_eq!(fuel_needed(backward), 3 + 3 * 2);
    // A least fixpoint: the recursive closure is `po+`.
    let closure = "let rec tc = po | (tc ; tc)\n\
                   empty (tc \\ po+) | (po+ \\ tc) as closure\n\
                   let rec a = a\n\
                   empty a as least";
    assert_model(closure, &allowed(&[]));
}

#[test]
fn flags_and_negated_checks() {
    // Flags fire when their condition holds and never forbid; they are
    // still evaluated after a check has failed. Only the first failed
    // check is reported.
    let src = "flag ~empty rf as has-rf\n\
               flag empty po as no-po\n\
               ~empty po as some-po\n\
               ~empty po & rf as po-meets-rf\n\
               flag ~empty co as late-flag\n\
               empty po as after-failure";
    assert_model(src, &forbidden("po-meets-rf", &["has-rf", "late-flag"]));
    assert_model(
        "acyclic po\nirreflexive po ; po^-1",
        &forbidden("irreflexive (instruction 1)", &[]),
    );
}

#[test]
fn every_semantic_error_is_reported_at_evaluation() {
    let cases: &[(&str, &str)] = &[
        ("empty nonsense as e", "unknown identifier `nonsense`"),
        ("acyclic R as e", "expected a relation, found a set"),
        ("let f(x) = x\nacyclic f as e", "expected a relation, found a function"),
        ("let f(x) = x\nempty f as e", "`empty` applied to a function"),
        ("let unused = R ; W\nacyclic po", "type error in sequence"),
        ("empty po | R", "type error in union"),
        ("empty po & R", "type error in intersection"),
        ("empty po \\ R", "type error in difference"),
        ("empty po * R", "type error in cartesian product"),
        ("empty [po]", "`[…]` expects a set"),
        ("let f(x) = x\nempty ~f", "`~` applied to a function"),
        ("empty R?", "`?` expects a relation"),
        ("empty R+", "`+` expects a relation"),
        ("empty R* as e", "`*` expects a relation"),
        ("empty R^-1", "`^-1` expects a relation"),
        ("let f(x) = x\nacyclic f(po, rf)", "`f` expects 1 argument(s), got 2"),
        ("acyclic po(rf)", "`po` is not a function"),
        ("acyclic g(po)", "unknown function `g`"),
        ("let f(x) = g(x)\nacyclic f(po)", "unknown function `g`"),
        ("let rec f(x) = x\nacyclic po", "recursive functions are not supported"),
        ("let rec x = R\nacyclic po", "expected a relation, found a set"),
        ("let rec x = ~x\nacyclic x", "recursive definition did not converge (non-monotone?)"),
        ("let id = R\nempty 0", "internal: `id` missing from base env"),
        // A semantic error wins over an earlier failed check.
        ("empty po as fails\nempty nonsense", "unknown identifier `nonsense`"),
    ];
    for (src, message) in cases {
        assert_model(src, &error(message));
    }
    // A function body is only checked where it is applied.
    assert_model("let f(x) = x ; R\nacyclic po as unused-fn", &allowed(&[]));
}

#[test]
fn errors_come_after_the_fuel_of_the_instructions_before_them() {
    assert_eq!(fuel_needed("acyclic po\nlet x = nonsense"), 2);
    // Inside `let rec`, the first round's fuel is burned first.
    assert_eq!(fuel_needed("acyclic po\nlet rec x = po and y = R"), 1 + 1 + 2);
    assert_eq!(fuel_needed("let rec f(x) = x"), 1);
}

#[test]
fn srcu_events_are_rejected() {
    let t = lkmm_litmus::parse(
        "C SRCU-MP\n{ ss=0; x=0; y=0; }\n\
         P0(srcu_struct *ss, int *x, int *y) { int r1; int r2; srcu_read_lock(ss); \
         r1 = READ_ONCE(*x); r2 = READ_ONCE(*y); srcu_read_unlock(ss); }\n\
         P1(srcu_struct *ss, int *x, int *y) { WRITE_ONCE(*y, 1); \
         synchronize_srcu(ss); WRITE_ONCE(*x, 1); }\n\
         exists (0:r1=1 /\\ 0:r2=0)",
    )
    .unwrap();
    let model = CatModel::parse("acyclic po as ok").unwrap();
    let mut session = CatSession::new(&model);
    for x in &enumerate(&t, &EnumOptions::default()).unwrap() {
        let expected = error("SRCU events are not exposed to cat models; use the native LKMM");
        assert_eq!(model.evaluate(x), expected);
        assert_eq!(session.evaluate(x), expected);
    }
}
