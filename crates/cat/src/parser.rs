//! Recursive-descent parser for the cat dialect.

use crate::ast::{Binding, CheckKind, Expr, Instr, Model};
use crate::lexer::{lex, Spanned, Tok};
use std::fmt;

/// Parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for CatParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cat parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CatParseError {}

/// Parse a cat model source.
///
/// # Errors
///
/// Returns [`CatParseError`] for lexical or syntactic problems, including
/// the unsupported `include` directive.
pub fn parse(src: &str) -> Result<Model, CatParseError> {
    let toks = lex(src).map_err(|(message, offset)| CatParseError { message, offset })?;
    Parser { toks, pos: 0, nest: 0 }.parse_model()
}

/// Expression trees are walked recursively by this parser, the printer,
/// the compiler and `Drop` for `Box<Expr>`, so their height is capped:
/// hostile input such as 20 000 nested `(`, a run of prefix `~`, or a
/// flat 200 000-operand `po | po | …` chain (left-deep, so as tall as it
/// is long) must be a parse error, not a stack overflow, which
/// `catch_unwind` cannot contain. Real models stay under a dozen levels.
pub const MAX_EXPR_DEPTH: usize = 64;

/// An expression with the height of its tree.
type Parsed = (Expr, usize);

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Current recursion depth through parentheses, brackets, arguments
    /// and prefix `~`.
    nest: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, CatParseError> {
        Err(CatParseError { message: message.into(), offset: self.offset() })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CatParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(w) if w == kw)
    }

    fn expect_ident(&mut self) -> Result<String, CatParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn parse_model(&mut self) -> Result<Model, CatParseError> {
        let name = if let Tok::Str(_) = self.peek() {
            match self.bump() {
                Tok::Str(s) => Some(s),
                _ => unreachable!(),
            }
        } else {
            None
        };
        let mut instrs = Vec::new();
        while *self.peek() != Tok::Eof {
            instrs.push(self.parse_instr()?);
        }
        Ok(Model { name, instrs })
    }

    fn parse_instr(&mut self) -> Result<Instr, CatParseError> {
        if self.is_kw("include") {
            return self.err("`include` is not supported; inline the included model");
        }
        if self.is_kw("let") {
            self.bump();
            let recursive = self.is_kw("rec") && {
                self.bump();
                true
            };
            let mut bindings = vec![self.parse_binding()?];
            while self.is_kw("and") {
                self.bump();
                bindings.push(self.parse_binding()?);
            }
            return Ok(Instr::Let { recursive, bindings });
        }
        let flag = self.is_kw("flag") && {
            self.bump();
            true
        };
        let negated = self.eat_punct("~");
        let kind = match self.peek() {
            Tok::Ident(w) if w == "acyclic" => CheckKind::Acyclic,
            Tok::Ident(w) if w == "irreflexive" => CheckKind::Irreflexive,
            Tok::Ident(w) if w == "empty" => CheckKind::Empty,
            other => return self.err(format!("expected instruction, found {other}")),
        };
        self.bump();
        let (expr, _) = self.parse_expr()?;
        let name = if self.is_kw("as") {
            self.bump();
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(Instr::Check { kind, negated, expr, name, flag })
    }

    fn parse_binding(&mut self) -> Result<Binding, CatParseError> {
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct("(") {
            loop {
                params.push(self.expect_ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("=")?;
        let (body, _) = self.parse_expr()?;
        Ok(Binding { name, params, body })
    }

    // Precedence, loosest first: `|`, `;`, `\`, `&`, cartesian `*`,
    // unary `~`, postfix `? + * ^-1`. Every production returns the
    // parsed tree with its height, so a chain that grows the tree in a
    // loop (`po | po | …`, `po+++…`) is capped like a nested one.
    fn parse_expr(&mut self) -> Result<Parsed, CatParseError> {
        let mut lhs = self.parse_seq()?;
        while self.eat_punct("|") {
            let rhs = self.parse_seq()?;
            lhs = self.binary(Expr::Union, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_seq(&mut self) -> Result<Parsed, CatParseError> {
        let mut lhs = self.parse_diff()?;
        while self.eat_punct(";") {
            let rhs = self.parse_diff()?;
            lhs = self.binary(Expr::Seq, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_diff(&mut self) -> Result<Parsed, CatParseError> {
        let mut lhs = self.parse_inter()?;
        while self.eat_punct("\\") {
            let rhs = self.parse_inter()?;
            lhs = self.binary(Expr::Diff, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_inter(&mut self) -> Result<Parsed, CatParseError> {
        let mut lhs = self.parse_cartesian()?;
        while self.eat_punct("&") {
            let rhs = self.parse_cartesian()?;
            lhs = self.binary(Expr::Inter, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_cartesian(&mut self) -> Result<Parsed, CatParseError> {
        let lhs = self.parse_unary()?;
        // `X * Y` is cartesian product when `*` is followed by the start of
        // an atom; otherwise `*` was already consumed as a postfix closure
        // by parse_unary.
        if matches!(self.peek(), Tok::Punct("*")) && self.starts_atom(1) {
            self.bump();
            let rhs = self.parse_unary()?;
            return self.binary(Expr::Cartesian, lhs, rhs);
        }
        Ok(lhs)
    }

    /// Whether the token `ahead` places past the cursor starts an atom.
    /// A `~` does only when an atom follows it: `~empty`, `~acyclic` and
    /// `~irreflexive` begin a negated check, which may follow a postfix
    /// `*` that ends the instruction before it.
    fn starts_atom(&self, mut ahead: usize) -> bool {
        const KEYWORDS: &[&str] = &[
            "let", "rec", "and", "as", "acyclic", "irreflexive", "empty", "flag", "include",
        ];
        loop {
            match &self.toks[(self.pos + ahead).min(self.toks.len() - 1)].0 {
                Tok::Ident(w) => return !KEYWORDS.contains(&w.as_str()),
                Tok::Zero | Tok::Punct("(") | Tok::Punct("[") => return true,
                Tok::Punct("~") => ahead += 1,
                _ => return false,
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Parsed, CatParseError> {
        if self.eat_punct("~") {
            self.enter_nested()?;
            let e = self.parse_unary()?;
            self.nest -= 1;
            return self.unary(Expr::Complement, e);
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Parsed, CatParseError> {
        let mut e = self.parse_atom()?;
        loop {
            if self.eat_punct("?") {
                e = self.unary(Expr::Opt, e)?;
            } else if self.eat_punct("+") {
                e = self.unary(Expr::Plus, e)?;
            } else if self.eat_punct("^-1") {
                e = self.unary(Expr::Inverse, e)?;
            } else if matches!(self.peek(), Tok::Punct("*")) && !self.starts_atom(1) {
                self.bump();
                e = self.unary(Expr::Star, e)?;
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Parsed, CatParseError> {
        match self.peek().clone() {
            Tok::Zero => {
                self.bump();
                Ok((Expr::Empty, 1))
            }
            Tok::Punct("(") => {
                self.bump();
                self.enter_nested()?;
                let e = self.parse_expr()?;
                self.nest -= 1;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("[") => {
                self.bump();
                self.enter_nested()?;
                let e = self.parse_expr()?;
                self.nest -= 1;
                self.expect_punct("]")?;
                self.unary(Expr::SetToId, e)
            }
            Tok::Ident(name) => {
                self.bump();
                if name == "_" {
                    return Ok((Expr::Universe, 1));
                }
                if matches!(self.peek(), Tok::Punct("(")) {
                    self.bump();
                    self.enter_nested()?;
                    let (first, mut height) = self.parse_expr()?;
                    let mut args = vec![first];
                    while self.eat_punct(",") {
                        let (arg, h) = self.parse_expr()?;
                        height = height.max(h);
                        args.push(arg);
                    }
                    self.nest -= 1;
                    self.expect_punct(")")?;
                    return self.node(Expr::App(name, args), height + 1);
                }
                Ok((Expr::Id(name), 1))
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }

    /// Depth guard for the productions that recurse without growing the
    /// tree (parentheses, brackets, arguments, prefix `~`). The counter
    /// is only decremented on success; an error aborts the whole parse.
    fn enter_nested(&mut self) -> Result<(), CatParseError> {
        self.nest += 1;
        if self.nest > MAX_EXPR_DEPTH {
            return self.err("expression nested too deeply");
        }
        Ok(())
    }

    /// Accept a node of the given height, or fail once it exceeds
    /// [`MAX_EXPR_DEPTH`].
    fn node(&self, e: Expr, height: usize) -> Result<Parsed, CatParseError> {
        if height > MAX_EXPR_DEPTH {
            return self.err("expression nested too deeply");
        }
        Ok((e, height))
    }

    fn unary(&self, f: fn(Box<Expr>) -> Expr, (e, h): Parsed) -> Result<Parsed, CatParseError> {
        self.node(f(Box::new(e)), h + 1)
    }

    fn binary(
        &self,
        f: fn(Box<Expr>, Box<Expr>) -> Expr,
        (a, ha): Parsed,
        (b, hb): Parsed,
    ) -> Result<Parsed, CatParseError> {
        self.node(f(Box::new(a), Box::new(b)), ha.max(hb) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_name_and_lets() {
        let m = parse("\"demo\"\nlet fr = rf^-1 ; co\nacyclic po | fr as check1").unwrap();
        assert_eq!(m.name.as_deref(), Some("demo"));
        assert_eq!(m.instrs.len(), 2);
        match &m.instrs[0] {
            Instr::Let { recursive: false, bindings } => {
                assert_eq!(bindings[0].name, "fr");
                assert_eq!(
                    bindings[0].body,
                    Expr::seq(Expr::Inverse(Box::new(Expr::Id("rf".into()))), Expr::Id("co".into()))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_is_postfix_or_cartesian_by_lookahead() {
        let m = parse("let a = rrdep* ; fence\nlet b = (R * R)").unwrap();
        match &m.instrs[0] {
            Instr::Let { bindings, .. } => {
                assert_eq!(
                    bindings[0].body,
                    Expr::seq(Expr::Star(Box::new(Expr::Id("rrdep".into()))), Expr::Id("fence".into()))
                );
            }
            _ => unreachable!(),
        }
        match &m.instrs[1] {
            Instr::Let { bindings, .. } => {
                assert!(matches!(bindings[0].body, Expr::Cartesian(_, _)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_rec_and() {
        let m = parse("let rec p = q | (p ; p) and q = p").unwrap();
        match &m.instrs[0] {
            Instr::Let { recursive: true, bindings } => assert_eq!(bindings.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_functions_and_brackets() {
        let m = parse("let A-cumul(r) = rfe? ; r\nlet mb = po ; [Mb] ; po").unwrap();
        match &m.instrs[0] {
            Instr::Let { bindings, .. } => {
                assert_eq!(bindings[0].params, vec!["r"]);
            }
            _ => unreachable!(),
        }
        match &m.instrs[1] {
            Instr::Let { bindings, .. } => {
                // Sequence is left-associative: (po ; [Mb]) ; po.
                let Expr::Seq(first, _) = &bindings[0].body else { panic!() };
                let Expr::Seq(_, mid) = &**first else { panic!() };
                assert!(matches!(**mid, Expr::SetToId(_)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_flag_checks() {
        let m = parse("flag ~empty rmw as atomicity-warning").unwrap();
        match &m.instrs[0] {
            Instr::Check { kind: CheckKind::Empty, negated: true, flag: true, name, .. } => {
                assert_eq!(name.as_deref(), Some("atomicity-warning"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_include_and_garbage() {
        assert!(parse("include \"cos.cat\"").is_err());
        assert!(parse("let = 3").is_err());
        assert!(parse("acyclic").is_err());
    }
}
