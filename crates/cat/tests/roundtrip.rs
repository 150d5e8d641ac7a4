//! The printer and the parser are inverses: any cat expression prints to
//! a model that re-parses to the same AST. The expressions come from a
//! seeded generator over every operator, so every failure replays.

use lkmm_cat::ast::{Binding, CheckKind, Expr, Instr, Model};
use lkmm_core::rng::SplitMix64;

const IDENTS: [&str; 7] = ["po", "rf", "co", "po-loc", "rcu-path", "Rb-dep", "x_1"];

fn ident(rng: &mut SplitMix64) -> String {
    IDENTS[rng.gen_index(IDENTS.len())].to_string()
}

/// A random expression at most `depth` operators deep: a leaf a quarter
/// of the time, otherwise any operator over smaller expressions.
fn expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.gen_index(4) == 0 {
        return match rng.gen_index(3) {
            0 => Expr::Id(ident(rng)),
            1 => Expr::Empty,
            _ => Expr::Universe,
        };
    }
    let op = rng.gen_index(12);
    if op == 11 {
        let name = ident(rng);
        let args = (0..1 + rng.gen_index(2)).map(|_| expr(rng, depth - 1)).collect();
        return Expr::App(name, args);
    }
    let mut sub = || Box::new(expr(rng, depth - 1));
    match op {
        0 => Expr::Union(sub(), sub()),
        1 => Expr::Seq(sub(), sub()),
        2 => Expr::Diff(sub(), sub()),
        3 => Expr::Inter(sub(), sub()),
        4 => Expr::Cartesian(sub(), sub()),
        5 => Expr::Complement(sub()),
        6 => Expr::Opt(sub()),
        7 => Expr::Plus(sub()),
        8 => Expr::Star(sub()),
        9 => Expr::Inverse(sub()),
        _ => Expr::SetToId(sub()),
    }
}

/// A `let` (maybe `rec`, maybe of functions, maybe of several bindings
/// joined by `and`) or a check of any kind, maybe negated, named or a
/// flag.
fn instr(rng: &mut SplitMix64) -> Instr {
    if rng.gen_index(2) == 0 {
        let bindings = (0..1 + rng.gen_index(2))
            .map(|i| Binding {
                name: format!("e{i}"),
                params: (0..rng.gen_index(3)).map(|p| format!("p{p}")).collect(),
                body: expr(rng, 5),
            })
            .collect();
        return Instr::Let { recursive: rng.gen_index(2) == 0, bindings };
    }
    let kind = [CheckKind::Acyclic, CheckKind::Irreflexive, CheckKind::Empty][rng.gen_index(3)];
    Instr::Check {
        kind,
        negated: rng.gen_index(2) == 0,
        expr: expr(rng, 5),
        name: (rng.gen_index(2) == 0).then(|| ident(rng)),
        flag: rng.gen_index(2) == 0,
    }
}

#[test]
fn print_parse_round_trip_on_seeded_expressions() {
    let mut rng = SplitMix64::seed_from_u64(0xca7_5eed);
    for case in 0..4096 {
        let model = Model {
            name: (rng.gen_index(2) == 0).then(|| "roundtrip".into()),
            instrs: (0..1 + rng.gen_index(3)).map(|_| instr(&mut rng)).collect(),
        };
        let printed = model.to_string();
        let reparsed = lkmm_cat::parser::parse(&printed)
            .unwrap_or_else(|e| panic!("case {case}:\n{printed}\n{e}"));
        assert_eq!(model, reparsed, "case {case}:\n{printed}");
    }
}
