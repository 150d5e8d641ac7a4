//! Canonical form and content-addressed cache keys for litmus tests.
//!
//! Generator output (and humans) produce *isomorphic* tests that differ
//! only in inessential presentation: location and register names, thread
//! order, `/\`-operand order, explicit-vs-implicit zero initialisation.
//! A verdict cache keyed on raw source would miss all of them. This
//! module computes a deterministic canonical [`Test`] such that any two
//! tests related by those transformations map to the same value, and a
//! 128-bit content hash of its rendering ([`cache_key`]) usable as a
//! store key.
//!
//! The canonical form (in application order):
//!
//! 1. **Init normalisation** — every location referenced by a thread
//!    body, the condition, or reachable through pointer initialisers gets
//!    an explicit init entry (absent ⇒ `0`); locations referenced nowhere
//!    are dropped (they generate no events and no condition mentions
//!    them).
//! 2. **Thread ordering** — threads sort by a name-blind structural
//!    fingerprint (body rendered with first-occurrence placeholder names
//!    plus init values), tie-broken by each thread's footprint in the
//!    condition; the sort is stable, and condition thread indices are
//!    remapped.
//! 3. **Alpha-renaming** — locations become `x0, x1, …` in order of first
//!    appearance (sorted-body traversal, then condition, then pointer
//!    targets); registers become `r0, r1, …` per thread (body traversal,
//!    then condition).
//! 4. **Condition normalisation** — `/\` and `\/` chains are flattened,
//!    operands normalised recursively, sorted, and deduplicated (both
//!    connectives are commutative, associative, and idempotent over
//!    final-state propositions); double negation is removed; the test
//!    name is replaced by a fixed marker.
//!
//! The work splits in two. A plan fixes the orders — threads,
//! locations, per-thread registers — over names borrowed from the test,
//! fingerprinting each thread by printing it under `L{i}`/`G{i}`
//! spellings. [`canonical_text`] then prints the *original* test through
//! the plan's `x{i}`/`r{j}` spellings into one `String`, using the litmus
//! crate's one statement printer with a name-spelling hook, so no
//! permuted or renamed copy is ever built. [`canonicalize`] builds the
//! same plan into a [`Test`]; it is the reference the render is tested
//! against (`canonical_text(t) == canonicalize(t).to_litmus_string()`).
//!
//! Soundness: the cache only ever *merges* tests whose canonical forms
//! are equal, every step above preserves check semantics (the LKMM and
//! all comparison models are thread-symmetric and name-blind), and the
//! checked test is always the original — so a merged entry serves the
//! exact `TestResult` either member would have computed. Missing an
//! isomorphic pair (the renaming is first-occurrence greedy, not a
//! minimal graph canonisation) costs a cache miss, never a wrong answer.

use crate::hash::Fnv128;
use lkmm_litmus::ast::{fmt_stmt, InitVal, Spelling, Test, Thread};
use lkmm_litmus::cond::{CondVal, Condition, Prop, StateTerm};
use lkmm_litmus::rename::{permute_threads, rename_test, thread_locations, thread_registers};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Bump when the canonical form or key derivation changes: stored keys
/// from older revisions then never match, so stale verdicts are invisible
/// rather than wrong.
pub const CANON_REVISION: u32 = 1;

/// The name given to every canonical test (original names are
/// presentation, not semantics).
pub const CANON_NAME: &str = "canonical";

/// The canonical orders of one test (steps 1–3), over names borrowed
/// from it.
struct Plan<'t> {
    /// `order[i]` is the original index of canonical thread `i`.
    order: Vec<usize>,
    /// `locs[i]` is spelled `x{i}`: every referenced location, in order
    /// of first appearance (sorted bodies, condition, pointer targets).
    locs: Vec<&'t str>,
    /// Per canonical thread, `regs[i][j]` is spelled `r{j}`: the body's
    /// registers, then those only the condition names.
    regs: Vec<Vec<&'t str>>,
    /// Per canonical thread, how many of `regs[i]` the body declares.
    declared: Vec<usize>,
}

impl<'t> Plan<'t> {
    fn new(test: &'t Test) -> Plan<'t> {
        let prop = &test.condition.prop;
        let body_locs: Vec<Vec<&str>> = test.threads.iter().map(thread_locations).collect();
        let mut body_regs: Vec<Vec<&str>> = test.threads.iter().map(thread_registers).collect();

        // 2. Thread ordering by (structural fingerprint, condition footprint).
        let keys: Vec<(String, String)> = test
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (
                    thread_fingerprint(t, &body_locs[i], &body_regs[i], &test.init),
                    cond_signature(i, &body_regs[i], prop),
                )
            })
            .collect();
        let mut order: Vec<usize> = (0..test.threads.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));

        // 3. First appearance: locations globally (which also settles
        // step 1's referenced set), registers per thread.
        let mut locs: Vec<&str> = Vec::new();
        for &t in &order {
            for &l in &body_locs[t] {
                push_unique(&mut locs, l);
            }
        }
        walk_prop_locations(prop, &mut locs);
        let mut i = 0;
        while i < locs.len() {
            if let Some(InitVal::Ptr(target)) = test.init.get(locs[i]) {
                push_unique(&mut locs, target);
            }
            i += 1;
        }
        let mut regs = Vec::with_capacity(order.len());
        let mut declared = Vec::with_capacity(order.len());
        for &t in &order {
            let mut thread_regs = std::mem::take(&mut body_regs[t]);
            declared.push(thread_regs.len());
            walk_prop_thread_regs(prop, t, &mut thread_regs);
            regs.push(thread_regs);
        }
        Plan { order, locs, regs, declared }
    }

    /// Canonical thread `i`'s spelling: `x{…}` locations, `r{…}`
    /// registers.
    fn spelling(&self, i: usize) -> ByPosition<'_> {
        ByPosition { locs: &self.locs, regs: &self.regs[i], loc_prefix: 'x', reg_prefix: 'r' }
    }

    fn loc_index(&self, name: &str) -> usize {
        self.locs.iter().position(|&l| l == name).expect("the plan holds every referenced location")
    }

    /// Print `test` as its canonical form would print
    /// ([`Test::to_litmus_string`]), through this plan's spellings.
    fn render(&self, test: &Test, out: &mut String) {
        // `x10` sorts before `x2`: the init section, the parameter list
        // and the register declarations follow the spelled names' order.
        let longest = self.declared.iter().copied().fold(self.locs.len(), usize::max);
        let numerals = numeral_order(longest);

        out.push_str("C ");
        out.push_str(CANON_NAME);
        out.push_str("\n\n{\n");
        let mut params = String::new();
        for &i in numerals.iter().filter(|&&i| i < self.locs.len()) {
            let _ = match test.init.get(self.locs[i]) {
                Some(InitVal::Ptr(target)) => writeln!(out, "x{i}=&x{};", self.loc_index(target)),
                Some(InitVal::Int(v)) => writeln!(out, "x{i}={v};"),
                None => writeln!(out, "x{i}=0;"),
            };
            params.push_str(if params.is_empty() { "int *x" } else { ", int *x" });
            let _ = write!(params, "{i}");
        }
        out.push_str("}\n\n");
        for (ci, &t) in self.order.iter().enumerate() {
            let _ = write!(out, "P{ci}({params})\n{{\n");
            for &j in numerals.iter().filter(|&&j| j < self.declared[ci]) {
                let _ = writeln!(out, "\tint r{j};");
            }
            let names = self.spelling(ci);
            for s in &test.threads[t].body {
                fmt_stmt(s, 1, &names, out);
            }
            out.push_str("}\n\n");
        }
        // 4. Condition normalisation.
        out.push_str(test.condition.quantifier.keyword());
        out.push_str(" (");
        out.push_str(&self.normalize(&test.condition.prop).text);
        out.push_str(")\n");
    }

    /// Step 4 over the original condition: the result prints as
    /// `normalize_prop` of the renamed condition would.
    fn normalize<'p>(&self, prop: &'p Prop) -> Norm<'p> {
        match prop {
            Prop::True => Norm { text: "true".to_string(), node: Node::True },
            Prop::Eq(term, val) => {
                let mut text = String::new();
                self.spell_eq(term, val, &mut text);
                Norm { text, node: Node::Eq(term, val) }
            }
            Prop::Not(inner) => {
                let inner = self.normalize(inner);
                match inner.node {
                    Node::Not(doubled) => *doubled,
                    _ => Norm {
                        text: format!("not ({})", inner.text),
                        node: Node::Not(Box::new(inner)),
                    },
                }
            }
            Prop::And(..) => self.normalize_chain(prop, true),
            Prop::Or(..) => self.normalize_chain(prop, false),
        }
    }

    fn normalize_chain<'p>(&self, prop: &'p Prop, is_and: bool) -> Norm<'p> {
        let mut operands = Vec::new();
        self.flatten_chain(prop, is_and, &mut operands);
        if is_and {
            operands.retain(|p| p.node != Node::True);
        }
        operands.sort_by(|a, b| a.text.cmp(&b.text));
        operands.dedup();
        if operands.len() <= 1 {
            // A lone operand stands for itself; an all-`true`
            // conjunction is `true`.
            return operands.pop().unwrap_or(Norm { text: "true".to_string(), node: Node::True });
        }
        // The reference folds operands left-deep: `a /\ b /\ c` is
        // `(a /\ b) /\ c`, and `((a \/ b) \/ c)` prints its brackets.
        let mut text = String::new();
        if !is_and {
            text.extend(std::iter::repeat_n('(', operands.len() - 1));
        }
        for (k, op) in operands.iter().enumerate() {
            if k > 0 {
                text.push_str(if is_and { " /\\ " } else { " \\/ " });
            }
            text.push_str(&op.text);
            if k > 0 && !is_and {
                text.push(')');
            }
        }
        // A first operand that is itself this connective's fold sits on
        // the same left spine, so it compares equal to the flat fold.
        let mut spine = Vec::with_capacity(operands.len());
        let mut rest = operands.into_iter();
        let first = rest.next().expect("a chain has two operands");
        match first.node {
            Node::And(inner) if is_and => spine.extend(inner),
            Node::Or(inner) if !is_and => spine.extend(inner),
            node => spine.push(Norm { text: first.text, node }),
        }
        spine.extend(rest);
        Norm { text, node: if is_and { Node::And(spine) } else { Node::Or(spine) } }
    }

    fn flatten_chain<'p>(&self, prop: &'p Prop, is_and: bool, out: &mut Vec<Norm<'p>>) {
        match (prop, is_and) {
            (Prop::And(a, b), true) | (Prop::Or(a, b), false) => {
                self.flatten_chain(a, is_and, out);
                self.flatten_chain(b, is_and, out);
            }
            _ => out.push(self.normalize(prop)),
        }
    }

    /// `term=value` with the canonical thread index and spellings; a
    /// term on a thread the test lacks keeps its index and register.
    fn spell_eq(&self, term: &StateTerm, val: &CondVal, out: &mut String) {
        match term {
            StateTerm::Reg { thread, reg } => match self.order.iter().position(|&t| t == *thread) {
                Some(ci) => {
                    let _ = write!(out, "{ci}:");
                    self.spelling(ci).reg(reg, out);
                }
                None => {
                    let _ = write!(out, "{thread}:{reg}");
                }
            },
            StateTerm::Loc(l) => {
                let _ = write!(out, "x{}", self.loc_index(l));
            }
        }
        let _ = match val {
            CondVal::Int(v) => write!(out, "={v}"),
            CondVal::LocRef(l) => write!(out, "=&x{}", self.loc_index(l)),
        };
    }
}

/// Spells the `i`-th listed location `{loc_prefix}{i}` and the `j`-th
/// listed register `{reg_prefix}{j}`; unlisted names as written.
struct ByPosition<'a> {
    locs: &'a [&'a str],
    regs: &'a [&'a str],
    loc_prefix: char,
    reg_prefix: char,
}

impl Spelling for ByPosition<'_> {
    fn loc(&self, name: &str, out: &mut String) {
        spell(self.locs, self.loc_prefix, name, out);
    }

    fn reg(&self, name: &str, out: &mut String) {
        spell(self.regs, self.reg_prefix, name, out);
    }
}

fn spell(listed: &[&str], prefix: char, name: &str, out: &mut String) {
    match listed.iter().position(|&n| n == name) {
        Some(i) => {
            out.push(prefix);
            let _ = write!(out, "{i}");
        }
        None => out.push_str(name),
    }
}

/// `0..n` in the order of the indices' decimal spellings.
fn numeral_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if n > 10 {
        order.sort_by_cached_key(usize::to_string);
    }
    order
}

/// A normalised condition operand: its printed form under the canonical
/// spelling (the sort key) and its shape (for deduplication, which
/// compares structure, as the reference does).
#[derive(Debug, PartialEq)]
struct Norm<'p> {
    text: String,
    node: Node<'p>,
}

#[derive(Debug, PartialEq)]
enum Node<'p> {
    True,
    /// The original term and value: renaming is injective over a
    /// condition's terms, so equal originals are equal renamed ones.
    Eq(&'p StateTerm, &'p CondVal),
    Not(Box<Norm<'p>>),
    /// A left-deep fold, listed along its left spine.
    And(Vec<Norm<'p>>),
    Or(Vec<Norm<'p>>),
}

/// Compute the canonical form of `test` — the reference the render is
/// tested against: the same plan, built into a [`Test`].
pub fn canonicalize(test: &Test) -> Test {
    let plan = Plan::new(test);
    // 1. Init normalisation over the referenced-location set.
    let init: BTreeMap<String, InitVal> = plan
        .locs
        .iter()
        .map(|&l| (l.to_string(), test.init.get(l).cloned().unwrap_or(InitVal::Int(0))))
        .collect();
    let base = Test {
        name: test.name.clone(),
        init,
        threads: test.threads.clone(),
        condition: test.condition.clone(),
    };
    // 2. and 3.: permute, then rename.
    let permuted = permute_threads(&base, &plan.order);
    let loc_map: BTreeMap<String, String> =
        plan.locs.iter().enumerate().map(|(i, &l)| (l.to_string(), format!("x{i}"))).collect();
    let reg_maps: Vec<BTreeMap<String, String>> = plan
        .regs
        .iter()
        .map(|regs| {
            regs.iter().enumerate().map(|(j, &r)| (r.to_string(), format!("r{j}"))).collect()
        })
        .collect();
    let renamed = rename_test(&permuted, &loc_map, &reg_maps);

    // 4. Condition normalisation.
    let condition = Condition {
        quantifier: renamed.condition.quantifier,
        prop: normalize_prop(&renamed.condition.prop),
    };
    Test { name: CANON_NAME.to_string(), init: renamed.init, threads: renamed.threads, condition }
}

/// The canonical form rendered as litmus source — the exact byte string
/// the cache key hashes, printed straight from `test`.
pub fn canonical_text(test: &Test) -> String {
    let mut out = String::with_capacity(256);
    Plan::new(test).render(test, &mut out);
    out
}

/// 128-bit content-addressed cache key: hash of the canonical text,
/// salted with the model name (one store may hold many models' verdicts)
/// and a caller-supplied version salt (bump it when model or interpreter
/// semantics change, and old entries silently stop matching).
pub fn cache_key(test: &Test, model_name: &str, salt: &str) -> u128 {
    cache_key_of_text(&canonical_text(test), model_name, salt)
}

/// [`cache_key`] with the canonicalization already done. Canonicalizing
/// dominates key derivation; a multi-column checker canonicalizes each
/// test once and derives every column's key from the same text — the
/// keys are byte-identical to per-column [`cache_key`] calls.
pub fn cache_key_of_text(canonical_text: &str, model_name: &str, salt: &str) -> u128 {
    KeyPrefix::new(model_name, salt).key_of_text(canonical_text)
}

/// The part of a cache key that does not depend on the test —
/// `lkmm-verdict-key`, the model name, the salt and [`CANON_REVISION`] —
/// hashed once, so a checker keys each test by hashing only its
/// canonical text.
#[derive(Clone, Debug)]
pub(crate) struct KeyPrefix(Fnv128);

impl KeyPrefix {
    pub(crate) fn new(model_name: &str, salt: &str) -> KeyPrefix {
        let mut h = Fnv128::new();
        h.write(b"lkmm-verdict-key");
        h.write(&[0]);
        h.write(model_name.as_bytes());
        h.write(&[0]);
        h.write(salt.as_bytes());
        h.write(&[0]);
        h.write(&CANON_REVISION.to_le_bytes());
        h.write(&[0]);
        KeyPrefix(h)
    }

    /// The key of the test whose canonical text is `canonical_text`.
    pub(crate) fn key_of_text(&self, canonical_text: &str) -> u128 {
        let mut h = self.0.clone();
        h.write(canonical_text.as_bytes());
        h.finish()
    }
}

fn push_unique<'a>(order: &mut Vec<&'a str>, name: &'a str) {
    if !order.contains(&name) {
        order.push(name);
    }
}

/// Name-blind structural fingerprint of one thread: the body printed
/// with thread-local first-occurrence placeholders (`L0, L1, …` for
/// `locs`, `G0, G1, …` for `regs` — distinct prefixes so `*L0` and
/// `*G0` stay distinguishable), followed by each location's init value.
/// Invariant under renaming and thread permutation.
fn thread_fingerprint(
    thread: &Thread,
    locs: &[&str],
    regs: &[&str],
    init: &BTreeMap<String, InitVal>,
) -> String {
    let mut sig = String::new();
    let names = ByPosition { locs, regs, loc_prefix: 'L', reg_prefix: 'G' };
    for s in &thread.body {
        fmt_stmt(s, 1, &names, &mut sig);
    }
    for (i, &l) in locs.iter().enumerate() {
        let _ = match init.get(l) {
            None => write!(sig, "|L{i}=0"),
            Some(InitVal::Int(v)) => write!(sig, "|L{i}={v}"),
            // The target's identity is resolved by the global renaming;
            // for *ordering* a pointer marker suffices.
            Some(InitVal::Ptr(_)) => write!(sig, "|L{i}=&"),
        };
    }
    sig
}

/// How the condition constrains thread `ti`, rename-invariantly: for
/// each `ti:reg = value` term in traversal order, the register's
/// first-occurrence index in the thread body (`?` if the register never
/// appears there) and the compared value.
fn cond_signature(ti: usize, body_regs: &[&str], prop: &Prop) -> String {
    let mut sig = String::new();
    walk_cond_signature(ti, body_regs, prop, &mut sig);
    sig
}

fn walk_cond_signature(ti: usize, body_regs: &[&str], prop: &Prop, sig: &mut String) {
    match prop {
        Prop::True => {}
        Prop::Eq(StateTerm::Reg { thread, reg }, val) if *thread == ti => {
            match body_regs.iter().position(|r| r == reg) {
                Some(i) => {
                    let _ = write!(sig, "G{i}");
                }
                None => sig.push('?'),
            }
            let _ = match val {
                CondVal::Int(v) => write!(sig, "={v};"),
                CondVal::LocRef(_) => write!(sig, "=&;"),
            };
        }
        Prop::Eq(..) => {}
        Prop::And(a, b) | Prop::Or(a, b) => {
            walk_cond_signature(ti, body_regs, a, sig);
            walk_cond_signature(ti, body_regs, b, sig);
        }
        Prop::Not(inner) => walk_cond_signature(ti, body_regs, inner, sig),
    }
}

/// Push the locations the condition mentions (as final-state terms or
/// `&loc` comparison values), in traversal order, onto `out` unless
/// already there.
fn walk_prop_locations<'a>(prop: &'a Prop, out: &mut Vec<&'a str>) {
    match prop {
        Prop::True => {}
        Prop::Eq(term, val) => {
            if let StateTerm::Loc(l) = term {
                push_unique(out, l);
            }
            if let CondVal::LocRef(l) = val {
                push_unique(out, l);
            }
        }
        Prop::And(a, b) | Prop::Or(a, b) => {
            walk_prop_locations(a, out);
            walk_prop_locations(b, out);
        }
        Prop::Not(inner) => walk_prop_locations(inner, out),
    }
}

/// Push the registers of thread `ti` the condition mentions, in
/// traversal order, onto `out` unless already there.
fn walk_prop_thread_regs<'a>(prop: &'a Prop, ti: usize, out: &mut Vec<&'a str>) {
    match prop {
        Prop::True => {}
        Prop::Eq(StateTerm::Reg { thread, reg }, _) if *thread == ti => push_unique(out, reg),
        Prop::Eq(..) => {}
        Prop::And(a, b) | Prop::Or(a, b) => {
            walk_prop_thread_regs(a, ti, out);
            walk_prop_thread_regs(b, ti, out);
        }
        Prop::Not(inner) => walk_prop_thread_regs(inner, ti, out),
    }
}

/// Flatten, sort, and deduplicate `/\` and `\/` chains; drop `true` from
/// conjunctions; collapse double negation.
fn normalize_prop(prop: &Prop) -> Prop {
    match prop {
        Prop::True | Prop::Eq(..) => prop.clone(),
        Prop::Not(inner) => match normalize_prop(inner) {
            Prop::Not(doubled) => *doubled,
            p => Prop::Not(Box::new(p)),
        },
        Prop::And(..) => normalize_chain(prop, true),
        Prop::Or(..) => normalize_chain(prop, false),
    }
}

fn normalize_chain(prop: &Prop, is_and: bool) -> Prop {
    let mut operands = Vec::new();
    flatten_chain(prop, is_and, &mut operands);
    if is_and {
        operands.retain(|p| !matches!(p, Prop::True));
    }
    operands.sort_by_key(Prop::to_string);
    operands.dedup();
    let mut it = operands.into_iter();
    let Some(first) = it.next() else {
        // An all-`true` conjunction.
        return Prop::True;
    };
    it.fold(first, |acc, p| {
        if is_and {
            Prop::And(Box::new(acc), Box::new(p))
        } else {
            Prop::Or(Box::new(acc), Box::new(p))
        }
    })
}

fn flatten_chain(prop: &Prop, is_and: bool, out: &mut Vec<Prop>) {
    match (prop, is_and) {
        (Prop::And(a, b), true) | (Prop::Or(a, b), false) => {
            flatten_chain(a, is_and, out);
            flatten_chain(b, is_and, out);
        }
        _ => out.push(normalize_prop(prop)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::parse;

    const MP: &str = r#"
C MP
{ x=0; y=0; }
P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }
P1(int *x, int *y) {
    int r0; int r1;
    r0 = READ_ONCE(*y); smp_rmb(); r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\ 1:r1=0)
"#;

    /// MP with renamed everything, the threads swapped, and the
    /// condition conjuncts flipped — isomorphic to `MP`.
    const MP_SCRAMBLED: &str = r#"
C MP-scrambled
{ alpha=0; beta=0; }
P0(int *alpha, int *beta) {
    int s9; int s2;
    s9 = READ_ONCE(*beta); smp_rmb(); s2 = READ_ONCE(*alpha);
}
P1(int *alpha, int *beta) { WRITE_ONCE(*alpha, 1); smp_wmb(); WRITE_ONCE(*beta, 1); }
exists (0:s2=0 /\ 0:s9=1)
"#;

    #[test]
    fn isomorphic_tests_share_a_key() {
        let a = parse(MP).unwrap();
        let b = parse(MP_SCRAMBLED).unwrap();
        assert_eq!(canonical_text(&a), canonical_text(&b));
        assert_eq!(cache_key(&a, "LKMM", "v1"), cache_key(&b, "LKMM", "v1"));
    }

    #[test]
    fn key_separates_models_and_salts() {
        let a = parse(MP).unwrap();
        assert_ne!(cache_key(&a, "LKMM", "v1"), cache_key(&a, "SC", "v1"));
        assert_ne!(cache_key(&a, "LKMM", "v1"), cache_key(&a, "LKMM", "v2"));
    }

    #[test]
    fn mutants_get_distinct_keys() {
        let a = parse(MP).unwrap();
        // Different compared value.
        let b = parse(&MP.replace("1:r1=0", "1:r1=1")).unwrap();
        // Different fence.
        let c = parse(&MP.replace("smp_wmb", "smp_mb")).unwrap();
        // Different quantifier.
        let d = parse(&MP.replace("exists", "~exists")).unwrap();
        let k = |t: &Test| cache_key(t, "LKMM", "v1");
        assert_ne!(k(&a), k(&b));
        assert_ne!(k(&a), k(&c));
        assert_ne!(k(&a), k(&d));
        assert_ne!(k(&b), k(&c));
    }

    #[test]
    fn implicit_and_explicit_zero_init_are_identified() {
        let a = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        let b = parse("C t\n{ }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        assert_eq!(canonical_text(&a), canonical_text(&b));
    }

    #[test]
    fn unreferenced_zero_location_is_dropped() {
        let a = parse("C t\n{ x=0; junk=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)")
            .unwrap();
        let b = parse("C t\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\nexists (x=1)").unwrap();
        assert_eq!(canonical_text(&a), canonical_text(&b));
    }

    #[test]
    fn condition_only_location_is_kept() {
        let a = parse("C t\n{ x=7; }\nP0(int *y) { WRITE_ONCE(*y, 1); }\nexists (x=7)").unwrap();
        let b = parse("C t\n{ }\nP0(int *y) { WRITE_ONCE(*y, 1); }\nexists (x=7)").unwrap();
        assert_ne!(canonical_text(&a), canonical_text(&b));
    }

    #[test]
    fn canonical_text_is_reparseable_and_idempotent() {
        for pt in lkmm_litmus::library::all() {
            let t = pt.test();
            let canon = canonicalize(&t);
            let reparsed = parse(&canon.to_litmus_string())
                .unwrap_or_else(|e| panic!("{}: canonical form must reparse: {e}", pt.name));
            assert_eq!(reparsed, canon, "{}: reparse changed the canonical form", pt.name);
            assert_eq!(
                canonicalize(&canon),
                canon,
                "{}: canonicalization must be idempotent",
                pt.name
            );
        }
    }

    #[test]
    fn pointer_init_targets_survive() {
        let src = "C t\n{ p=&x; x=2; }\nP0(int *p) { int r0; r0 = READ_ONCE(*p); }\nexists (0:r0=2)";
        let t = parse(src).unwrap();
        let canon = canonicalize(&t);
        // Both p and its target must be present under canonical names.
        assert_eq!(canon.init.len(), 2);
        assert!(canon.init.values().any(|v| matches!(v, InitVal::Ptr(_))));
    }
}
