//! Final-state conditions: `exists`, `~exists` and `forall` clauses.

use std::fmt;

/// Quantifier of a final condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `exists (…)` — is there a consistent execution whose final state
    /// satisfies the proposition?
    Exists,
    /// `~exists (…)` — the negation of [`Quantifier::Exists`].
    NotExists,
    /// `forall (…)` — do *all* consistent executions satisfy it?
    Forall,
}

impl Quantifier {
    /// The source spelling: `exists`, `~exists` or `forall`.
    pub fn keyword(self) -> &'static str {
        match self {
            Quantifier::Exists => "exists",
            Quantifier::NotExists => "~exists",
            Quantifier::Forall => "forall",
        }
    }
}

/// A final-state condition: a quantifier over a proposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Condition {
    pub quantifier: Quantifier,
    pub prop: Prop,
}

impl Condition {
    /// `exists (true)` — satisfied by any execution.
    pub fn exists_true() -> Self {
        Condition { quantifier: Quantifier::Exists, prop: Prop::True }
    }

    /// `exists (prop)`.
    pub fn exists(prop: Prop) -> Self {
        Condition { quantifier: Quantifier::Exists, prop }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.quantifier.keyword(), self.prop)
    }
}

/// One observable of the final state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StateTerm {
    /// Final value of thread-local register, written `0:r1`.
    Reg { thread: usize, reg: String },
    /// Final value of a shared location, written `x`.
    Loc(String),
}

impl fmt::Display for StateTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateTerm::Reg { thread, reg } => write!(f, "{thread}:{reg}"),
            StateTerm::Loc(l) => write!(f, "{l}"),
        }
    }
}

/// Value a [`StateTerm`] may be compared against.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CondVal {
    /// Plain integer.
    Int(i64),
    /// Address of a shared location (for pointer-valued registers).
    LocRef(String),
}

impl fmt::Display for CondVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondVal::Int(i) => write!(f, "{i}"),
            CondVal::LocRef(l) => write!(f, "&{l}"),
        }
    }
}

/// Propositions over the final state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prop {
    /// Always satisfied.
    True,
    /// `term = value`.
    Eq(StateTerm, CondVal),
    /// `p /\ q`.
    And(Box<Prop>, Box<Prop>),
    /// `p \/ q`.
    Or(Box<Prop>, Box<Prop>),
    /// `not (p)`.
    Not(Box<Prop>),
}

impl Prop {
    /// `term = int` convenience constructor.
    pub fn eq_int(term: StateTerm, v: i64) -> Prop {
        Prop::Eq(term, CondVal::Int(v))
    }

    /// Conjunction of a list of propositions (`True` when empty).
    pub fn all(props: impl IntoIterator<Item = Prop>) -> Prop {
        let mut it = props.into_iter();
        match it.next() {
            None => Prop::True,
            Some(first) => it.fold(first, |acc, p| Prop::And(Box::new(acc), Box::new(p))),
        }
    }

    /// Evaluate against a final state oracle.
    ///
    /// `lookup` maps a [`StateTerm`] to its final value; returning `None`
    /// makes any comparison involving that term false.
    pub fn eval(&self, lookup: &dyn Fn(&StateTerm) -> Option<CondVal>) -> bool {
        match self {
            Prop::True => true,
            Prop::Eq(t, v) => lookup(t).as_ref() == Some(v),
            Prop::And(a, b) => a.eval(lookup) && b.eval(lookup),
            Prop::Or(a, b) => a.eval(lookup) || b.eval(lookup),
            Prop::Not(p) => !p.eval(lookup),
        }
    }

    /// All state terms mentioned by the proposition.
    pub fn terms(&self) -> Vec<&StateTerm> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a StateTerm>) {
        match self {
            Prop::True => {}
            Prop::Eq(t, _) => out.push(t),
            Prop::And(a, b) | Prop::Or(a, b) => {
                a.collect_terms(out);
                b.collect_terms(out);
            }
            Prop::Not(p) => p.collect_terms(out),
        }
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::True => write!(f, "true"),
            Prop::Eq(t, v) => write!(f, "{t}={v}"),
            Prop::And(a, b) => write!(f, "{a} /\\ {b}"),
            Prop::Or(a, b) => write!(f, "({a} \\/ {b})"),
            Prop::Not(p) => write!(f, "not ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(t: usize, r: &str) -> StateTerm {
        StateTerm::Reg { thread: t, reg: r.to_string() }
    }

    #[test]
    fn eval_conjunction() {
        let p = Prop::all([Prop::eq_int(term(0, "r1"), 1), Prop::eq_int(term(1, "r2"), 0)]);
        let lookup = |t: &StateTerm| match t {
            StateTerm::Reg { thread: 0, .. } => Some(CondVal::Int(1)),
            StateTerm::Reg { thread: 1, .. } => Some(CondVal::Int(0)),
            _ => None,
        };
        assert!(p.eval(&lookup));
        let bad = |_: &StateTerm| Some(CondVal::Int(7));
        assert!(!p.eval(&bad));
    }

    #[test]
    fn eval_not_and_or() {
        let p = Prop::Or(
            Box::new(Prop::Not(Box::new(Prop::True))),
            Box::new(Prop::eq_int(StateTerm::Loc("x".into()), 2)),
        );
        assert!(p.eval(&|_| Some(CondVal::Int(2))));
        assert!(!p.eval(&|_| Some(CondVal::Int(3))));
    }

    #[test]
    fn display_round_trippable_shape() {
        let c = Condition {
            quantifier: Quantifier::NotExists,
            prop: Prop::all([
                Prop::eq_int(term(1, "r0"), 1),
                Prop::Eq(StateTerm::Loc("p".into()), CondVal::LocRef("x".into())),
            ]),
        };
        assert_eq!(c.to_string(), "~exists (1:r0=1 /\\ p=&x)");
    }

    #[test]
    fn terms_collects_all() {
        let p = Prop::all([Prop::eq_int(term(0, "a"), 1), Prop::eq_int(term(1, "b"), 2)]);
        assert_eq!(p.terms().len(), 2);
    }
}
