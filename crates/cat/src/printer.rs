//! Pretty-printer for cat models: `Display` impls that re-parse to the
//! same AST (round-trip property, enforced by tests).

use crate::ast::{Binding, CheckKind, Expr, Instr, Model};
use std::fmt;

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            writeln!(f, "\"{name}\"")?;
        }
        for instr in &self.instrs {
            writeln!(f, "{instr}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Let { recursive, bindings } => {
                write!(f, "let ")?;
                if *recursive {
                    write!(f, "rec ")?;
                }
                for (i, b) in bindings.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{b}")?;
                }
                Ok(())
            }
            Instr::Check { kind, negated, expr, name, flag } => {
                if *flag {
                    write!(f, "flag ")?;
                }
                if *negated {
                    write!(f, "~")?;
                }
                let kw = match kind {
                    CheckKind::Acyclic => "acyclic",
                    CheckKind::Irreflexive => "irreflexive",
                    CheckKind::Empty => "empty",
                };
                write!(f, "{kw} {expr}")?;
                if let Some(n) = name {
                    write!(f, " as {n}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.params.is_empty() {
            write!(f, "({})", self.params.join(", "))?;
        }
        write!(f, " = {}", self.body)
    }
}

/// Precedence levels for parenthesisation, loosest first (mirrors the
/// parser): union < seq < diff < inter < cartesian < unary < postfix.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Union(..) => 0,
        Expr::Seq(..) => 1,
        Expr::Diff(..) => 2,
        Expr::Inter(..) => 3,
        Expr::Cartesian(..) => 4,
        Expr::Complement(..) => 5,
        Expr::Opt(..) | Expr::Plus(..) | Expr::Star(..) | Expr::Inverse(..) => 6,
        Expr::Id(..) | Expr::Empty | Expr::Universe | Expr::App(..) | Expr::SetToId(..) => 7,
    }
}

fn write_child(f: &mut fmt::Formatter<'_>, child: &Expr, min: u8) -> fmt::Result {
    if prec(child) < min {
        write!(f, "({child})")
    } else {
        write!(f, "{child}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Id(n) => write!(f, "{n}"),
            Expr::Empty => write!(f, "0"),
            Expr::Universe => write!(f, "_"),
            Expr::App(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::SetToId(inner) => write!(f, "[{inner}]"),
            Expr::Union(a, b) => {
                write_child(f, a, 0)?;
                write!(f, " | ")?;
                write_child(f, b, 1)
            }
            Expr::Seq(a, b) => {
                write_child(f, a, 1)?;
                write!(f, " ; ")?;
                write_child(f, b, 2)
            }
            Expr::Diff(a, b) => {
                write_child(f, a, 2)?;
                write!(f, " \\ ")?;
                write_child(f, b, 3)
            }
            Expr::Inter(a, b) => {
                write_child(f, a, 3)?;
                write!(f, " & ")?;
                write_child(f, b, 4)
            }
            Expr::Cartesian(a, b) => {
                write_child(f, a, 5)?;
                write!(f, " * ")?;
                write_child(f, b, 5)
            }
            Expr::Complement(inner) => {
                write!(f, "~")?;
                write_child(f, inner, 5)
            }
            Expr::Opt(inner) => {
                write_child(f, inner, 7)?;
                write!(f, "?")
            }
            Expr::Plus(inner) => {
                write_child(f, inner, 7)?;
                write!(f, "+")
            }
            Expr::Star(inner) => {
                write_child(f, inner, 7)?;
                write!(f, "*")
            }
            Expr::Inverse(inner) => {
                write_child(f, inner, 7)?;
                write!(f, "^-1")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    #[test]
    fn embedded_models_round_trip() {
        for src in [
            crate::builtin::LINUX_KERNEL_CAT,
            crate::builtin::SC_CAT,
            crate::builtin::X86_TSO_CAT,
        ] {
            let m = parse(src).unwrap();
            let printed = m.to_string();
            let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{printed}\n{e}"));
            assert_eq!(m, reparsed, "round-trip failed for:\n{printed}");
        }
    }

    #[test]
    fn left_associativity_survives() {
        // `a ; b ; c` and the parenthesised right version must print
        // distinguishably and round-trip.
        let m = parse("let x = a ; b ; c\nlet y = a ; (b ; c)").unwrap();
        let printed = m.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(m, reparsed, "{printed}");
    }

    #[test]
    fn postfix_star_vs_cartesian_print_unambiguously() {
        let m = parse("let a = r* ; s\nlet b = R * W\nlet c = (R * W)*").unwrap();
        let printed = m.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(m, reparsed, "{printed}");
    }

    #[test]
    fn a_negated_check_after_a_postfix_star_starts_an_instruction() {
        let m = parse("let a = r*\n~empty s as t\nlet b = r* * ~s").unwrap();
        assert_eq!(m.instrs.len(), 3, "{m}");
        let reparsed = parse(&m.to_string()).unwrap();
        assert_eq!(m, reparsed, "{m}");
    }
}
