//! Binary relations over a fixed universe of events.
//!
//! # Bounds policy
//!
//! Every structure in this crate ([`Relation`], [`EventSet`],
//! [`IncrementalOrder`](crate::IncrementalOrder)) follows one rule for
//! out-of-universe indices: **mutators panic, queries are total**.
//! `insert`/`remove` on an index `>= universe()` is always a caller bug
//! — silently ignoring it would hide miscomputed event indices — so
//! both panic. Pure queries (`contains`) treat out-of-universe indices
//! as simply *absent* and return `false`, which lets callers probe
//! speculative indices without pre-checking the universe.
//!
//! # Row invariant
//!
//! No row carries a bit at or past the universe `n`: mutators keep the
//! tail of each row's last word clear, and `complement` masks it back.
//! The one-word arms (universes of 1–64 events, one `u64` per row) rely
//! on it, since `seq_into` and `inverse_into` index rows by the position
//! of each set bit. `tests/kernels.rs` checks every arm against a
//! pair-by-pair reference on both sides of 64 events.

use crate::{for_each_bit, iter_bits, kernel, word_and_bit, words_for, EventSet, WORD_BITS};
use std::fmt;

/// A binary relation over a universe of `n` events, stored as a bitset
/// adjacency matrix (`rows[i]` is the successor set of event `i`).
///
/// All the operators used by cat models are provided: union, intersection,
/// difference, complement, inverse, relational sequence, reflexive /
/// transitive / reflexive-transitive closures, restriction by domain/range
/// sets, and the acyclicity / irreflexivity / emptiness checks that form
/// model axioms.
///
/// # Examples
///
/// ```
/// use lkmm_relation::Relation;
///
/// let r = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
/// assert!(r.transitive_closure().contains(0, 3));
/// assert!(r.is_acyclic());
/// assert!(!r.union(&Relation::from_pairs(4, [(3, 0)])).is_acyclic());
/// ```
/// `Default` is the empty relation over the empty universe — the
/// natural seed for reusable scratch that is [`Relation::reset`] (or
/// [`Relation::copy_from`]) into shape before first use.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    row_words: usize,
    rows: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Self {
        let row_words = words_for(n);
        Relation { n, row_words, rows: vec![0; row_words * n] }
    }

    /// The identity relation `{(e, e)}` over `n` events.
    pub fn identity(n: usize) -> Self {
        let mut r = Self::empty(n);
        for i in 0..n {
            r.insert(i, i);
        }
        r
    }

    /// The full relation `n × n`.
    pub fn full(n: usize) -> Self {
        EventSet::full(n).cross(&EventSet::full(n))
    }

    /// Build a relation from `(from, to)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut r = Self::empty(n);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Add the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= universe()` or `b >= universe()`.
    pub fn insert(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "pair ({a},{b}) out of universe {}", self.n);
        let (w, bit) = word_and_bit(b);
        self.rows[a * self.row_words + w] |= bit;
    }

    /// Remove the pair `(a, b)` if present.
    ///
    /// # Panics
    ///
    /// Panics if `a >= universe()` or `b >= universe()` (mutators are
    /// strict; see the module-level bounds policy).
    pub fn remove(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "pair ({a},{b}) out of universe {}", self.n);
        let (w, bit) = word_and_bit(b);
        self.rows[a * self.row_words + w] &= !bit;
    }

    /// Whether `(a, b)` is in the relation. Out-of-universe pairs are
    /// absent by definition, so this is total (queries never panic; see
    /// the module-level bounds policy).
    pub fn contains(&self, a: usize, b: usize) -> bool {
        if a >= self.n || b >= self.n {
            return false;
        }
        let (w, bit) = word_and_bit(b);
        self.rows[a * self.row_words + w] & bit != 0
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|&w| w == 0)
    }

    /// Iterate all pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| self.successors(a).map(move |b| (a, b)))
    }

    /// Iterate the successors of `a`.
    pub fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        iter_bits(self.row(a), self.n)
    }

    fn row(&self, a: usize) -> &[u64] {
        &self.rows[a * self.row_words..(a + 1) * self.row_words]
    }

    /// Reshape into the empty relation over `n` events, reusing the row
    /// storage. This is what lets a [`RelationArena`](crate::RelationArena)
    /// recycle relations across candidates (and universes) without
    /// round-tripping through the allocator, and what lets checking
    /// sessions keep long-lived scratch relations that are reshaped per
    /// candidate instead of reacquired.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.row_words = words_for(n);
        let words = self.row_words * n;
        // `fill` compiles to one memset over the reused buffer; the
        // clear-then-resize shape re-grows element by element, which is
        // measurably slower at arena-recycling rates.
        if self.rows.len() == words {
            self.rows.fill(0);
        } else {
            self.rows.clear();
            self.rows.resize(words, 0);
        }
    }

    /// Become a copy of `other`, reusing this relation's storage
    /// (reshaping to `other`'s universe if needed).
    pub fn copy_from(&mut self, other: &Relation) {
        self.n = other.n;
        self.row_words = other.row_words;
        self.rows.clear();
        self.rows.extend_from_slice(&other.rows);
    }

    /// Union of two relations.
    pub fn union(&self, other: &Relation) -> Relation {
        self.zip(other, |a, b| a | b)
    }

    /// Intersection of two relations.
    pub fn intersection(&self, other: &Relation) -> Relation {
        self.zip(other, |a, b| a & b)
    }

    /// Difference `self \ other`.
    pub fn difference(&self, other: &Relation) -> Relation {
        self.zip(other, |a, b| a & !b)
    }

    /// In-place union: `self ∪= other`, through the 4×`u64`-unrolled
    /// [`kernel::or_assign`]. Avoids allocating a result relation in hot
    /// loops (model fixpoints, per-candidate pruning).
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn union_in_place(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        kernel::or_assign(&mut self.rows, &other.rows);
    }

    /// In-place intersection: `self ∩= other`, through
    /// [`kernel::and_assign`].
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn intersection_in_place(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        kernel::and_assign(&mut self.rows, &other.rows);
    }

    /// In-place difference: `self \= other`, through
    /// [`kernel::andnot_assign`].
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn difference_in_place(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        kernel::andnot_assign(&mut self.rows, &other.rows);
    }

    /// Whether the two relations share at least one pair, without
    /// materialising the intersection.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn intersects(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        kernel::intersects(&self.rows, &other.rows)
    }

    /// Complement with respect to `n × n`.
    pub fn complement(&self) -> Relation {
        let mut out = self.clone();
        out.complement_in_place();
        out
    }

    /// In-place complement with respect to `n × n`.
    pub fn complement_in_place(&mut self) {
        for w in &mut self.rows {
            *w = !*w;
        }
        self.mask_tails();
    }

    /// Inverse relation `r⁻¹ = {(b, a) | (a, b) ∈ r}`.
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        self.inverse_into(&mut out);
        out
    }

    /// Inverse writing into a caller-provided relation, reusing its
    /// allocation (`out` is overwritten). On one-word rows it sets bit
    /// `a` of row `b` for each set bit `b` of row `a`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn inverse_into(&self, out: &mut Relation) {
        assert_eq!(self.n, out.n, "output universe mismatch");
        out.rows.fill(0);
        if self.row_words == 1 {
            for (a, &row) in self.rows.iter().enumerate() {
                for_each_bit(row, |b| out.rows[b] |= 1 << a);
            }
            return;
        }
        for (a, b) in self.iter() {
            let (w, bit) = word_and_bit(a);
            out.rows[b * out.row_words + w] |= bit;
        }
    }

    /// Relational sequence `self ; other`.
    ///
    /// `(a, c)` is in the result iff there is `b` with `(a, b) ∈ self` and
    /// `(b, c) ∈ other`.
    pub fn seq(&self, other: &Relation) -> Relation {
        let mut out = Relation::empty(self.n);
        self.seq_into(other, &mut out);
        out
    }

    /// Relational sequence writing into a caller-provided relation,
    /// reusing its allocation (`out` is overwritten, not accumulated
    /// into). The borrow checker rules out aliasing with `self`/`other`.
    /// On one-word rows, row `a` of the result is the OR of `other`'s
    /// rows at the set bits of `self`'s row `a`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch (including `out`).
    pub fn seq_into(&self, other: &Relation, out: &mut Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        assert_eq!(self.n, out.n, "output universe mismatch");
        if self.row_words == 1 {
            for (dst, &row) in out.rows.iter_mut().zip(&self.rows) {
                let mut acc = 0;
                for_each_bit(row, |b| acc |= other.rows[b]);
                *dst = acc;
            }
            return;
        }
        for a in 0..self.n {
            let base = a * self.row_words;
            out.rows[base..base + self.row_words].fill(0);
            for b in self.successors(a) {
                kernel::or_assign(
                    &mut out.rows[base..base + self.row_words],
                    &other.rows[b * other.row_words..(b + 1) * other.row_words],
                );
            }
        }
    }

    /// Reflexive closure `r?`.
    pub fn reflexive(&self) -> Relation {
        let mut out = self.clone();
        out.reflexive_in_place();
        out
    }

    /// In-place reflexive closure: add every `(e, e)` pair (bit `e` of
    /// row `e` on one-word rows).
    pub fn reflexive_in_place(&mut self) {
        if self.row_words == 1 {
            for (e, row) in self.rows.iter_mut().enumerate() {
                *row |= 1 << e;
            }
            return;
        }
        for i in 0..self.n {
            let (w, bit) = word_and_bit(i);
            self.rows[i * self.row_words + w] |= bit;
        }
    }

    /// Transitive closure `r⁺` (Floyd–Warshall over bitset rows).
    pub fn transitive_closure(&self) -> Relation {
        let mut out = self.clone();
        out.transitive_close();
        out
    }

    /// In-place transitive closure, with a single scratch row reused
    /// across Floyd–Warshall rounds instead of one allocation per pivot.
    pub fn transitive_close(&mut self) {
        let mut row_k = vec![0u64; self.row_words];
        self.transitive_close_with(&mut row_k);
    }

    /// [`Relation::transitive_close`] with a caller-provided scratch
    /// row, so arena-backed hot loops avoid even the single per-call
    /// allocation. The scratch is resized as needed. One-word rows need
    /// no scratch: each round ORs row `k` into every row holding bit `k`.
    pub fn transitive_close_with(&mut self, row_k: &mut Vec<u64>) {
        if self.row_words == 1 {
            for k in 0..self.n {
                let row_k = self.rows[k];
                for row in &mut self.rows {
                    // All ones when the row holds bit `k`, else zero.
                    *row |= row_k & (*row >> k & 1).wrapping_neg();
                }
            }
            return;
        }
        row_k.clear();
        row_k.resize(self.row_words, 0);
        for k in 0..self.n {
            row_k.copy_from_slice(self.row(k));
            for a in 0..self.n {
                if a != k && self.contains(a, k) {
                    let base = a * self.row_words;
                    kernel::or_assign(&mut self.rows[base..base + self.row_words], row_k);
                }
            }
        }
    }

    /// Reflexive-transitive closure `r*`.
    pub fn reflexive_transitive_closure(&self) -> Relation {
        self.transitive_closure().reflexive()
    }

    /// Restrict the domain to `s`: `[s] ; r`.
    pub fn restrict_domain(&self, s: &EventSet) -> Relation {
        let mut out = self.clone();
        out.restrict_domain_in_place(s);
        out
    }

    /// Restrict the range to `s`: `r ; [s]`.
    pub fn restrict_range(&self, s: &EventSet) -> Relation {
        let mut out = self.clone();
        out.restrict_range_in_place(s);
        out
    }

    /// In-place [`Relation::restrict_domain`]: zero every row whose
    /// event is outside `s` (on one-word rows, every row `a` whose bit
    /// `a` of `s` is clear).
    pub fn restrict_domain_in_place(&mut self, s: &EventSet) {
        assert_eq!(self.n, s.universe(), "universe mismatch");
        if self.row_words == 1 {
            let keep = s.words()[0];
            for (a, row) in self.rows.iter_mut().enumerate() {
                *row &= (keep >> a & 1).wrapping_neg();
            }
            return;
        }
        for a in 0..self.n {
            if !s.contains(a) {
                let base = a * self.row_words;
                self.rows[base..base + self.row_words].fill(0);
            }
        }
    }

    /// In-place [`Relation::restrict_range`]: mask every row by `s`
    /// (by its one word, on one-word rows).
    pub fn restrict_range_in_place(&mut self, s: &EventSet) {
        assert_eq!(self.n, s.universe(), "universe mismatch");
        if self.row_words == 1 {
            let keep = s.words()[0];
            for row in &mut self.rows {
                *row &= keep;
            }
            return;
        }
        for a in 0..self.n {
            let base = a * self.row_words;
            kernel::and_assign(&mut self.rows[base..base + self.row_words], s.words());
        }
    }

    /// Subtract the Cartesian product `dom × ran` in place — one masked
    /// row operation per event of `dom`, never materialising the
    /// product relation.
    pub fn subtract_cross(&mut self, dom: &EventSet, ran: &EventSet) {
        assert_eq!(self.n, dom.universe(), "universe mismatch");
        assert_eq!(self.n, ran.universe(), "universe mismatch");
        for a in dom.iter() {
            let base = a * self.row_words;
            kernel::andnot_assign(&mut self.rows[base..base + self.row_words], ran.words());
        }
    }

    /// The set of events with at least one successor.
    pub fn domain(&self) -> EventSet {
        let mut out = EventSet::empty(self.n);
        self.domain_into(&mut out);
        out
    }

    /// Compute [`Relation::domain`] into `out` (reshaped to this
    /// universe).
    pub fn domain_into(&self, out: &mut EventSet) {
        out.reset(self.n);
        for a in 0..self.n {
            if self.row(a).iter().any(|&w| w != 0) {
                out.insert(a);
            }
        }
    }

    /// The set of events with at least one predecessor.
    pub fn range(&self) -> EventSet {
        let mut out = EventSet::empty(self.n);
        self.range_into(&mut out);
        out
    }

    /// Compute [`Relation::range`] into `out` (reshaped to this
    /// universe): the union of all rows, one word-parallel `or` per row.
    pub fn range_into(&self, out: &mut EventSet) {
        out.reset(self.n);
        for a in 0..self.n {
            kernel::or_assign(out.words_mut(), self.row(a));
        }
    }

    /// Whether the relation contains no pair `(e, e)`: on one-word
    /// rows, whether no row `e` holds bit `e`.
    pub fn is_irreflexive(&self) -> bool {
        if self.row_words == 1 {
            return self.rows.iter().enumerate().all(|(e, &row)| row >> e & 1 == 0);
        }
        (0..self.n).all(|i| !self.contains(i, i))
    }

    /// Whether the relation is acyclic (its transitive closure is
    /// irreflexive).
    ///
    /// Every model axiom `acyclic r` runs this once per candidate, so on
    /// universes of up to 64 events — every litmus test's — it allocates
    /// nothing: it repeatedly peels the events with no successor among
    /// those left, over one word of liveness bits, and finds a cycle
    /// when a sweep peels nothing. Sweeps run from the highest index
    /// down, so a chain pointing forward in index order (program order
    /// numbers each thread's events forward) peels in one sweep. Larger
    /// universes run a depth-first search.
    pub fn is_acyclic(&self) -> bool {
        if self.n > WORD_BITS {
            return self.is_acyclic_by_search();
        }
        let mut live = if self.n == 0 { 0 } else { u64::MAX >> (WORD_BITS - self.n) };
        loop {
            let before = live;
            let mut left = live;
            while left != 0 {
                let a = WORD_BITS - 1 - left.leading_zeros() as usize;
                left ^= 1 << a;
                if self.rows[a] & live == 0 {
                    live ^= 1 << a;
                }
            }
            if live == 0 {
                return true;
            }
            if live == before {
                // Every event left has a successor left: they close a cycle.
                return false;
            }
        }
    }

    /// [`Relation::is_acyclic`] for universes wider than a word.
    fn is_acyclic_by_search(&self) -> bool {
        // DFS three-colour cycle detection: cheaper than full closure.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.n];
        // Iterative DFS with explicit stack of (node, successor iterator position).
        for start in 0..self.n {
            if colour[start] != Colour::White {
                continue;
            }
            let mut stack: Vec<(usize, Vec<usize>, usize)> =
                vec![(start, self.successors(start).collect(), 0)];
            colour[start] = Colour::Grey;
            while let Some((node, succs, idx)) = stack.last_mut() {
                if *idx < succs.len() {
                    let next = succs[*idx];
                    *idx += 1;
                    match colour[next] {
                        Colour::Grey => return false,
                        Colour::White => {
                            colour[next] = Colour::Grey;
                            let nsuccs: Vec<usize> = self.successors(next).collect();
                            stack.push((next, nsuccs, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[*node] = Colour::Black;
                    stack.pop();
                }
            }
        }
        true
    }

    /// Find one cycle, as a sequence of events `e0 → e1 → … → e0`, if any.
    ///
    /// Useful for explaining *why* a model forbids an execution.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        // DFS with an explicit path stack: a back-edge to a node on the
        // current path closes a cycle; return the stack suffix from it.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.n];
        for start in 0..self.n {
            if colour[start] != Colour::White {
                continue;
            }
            let mut path: Vec<usize> = vec![start];
            let mut iters: Vec<Vec<usize>> = vec![self.successors(start).collect()];
            let mut pos: Vec<usize> = vec![0];
            colour[start] = Colour::Grey;
            while let Some(&node) = path.last() {
                let top = path.len() - 1;
                if pos[top] < iters[top].len() {
                    let next = iters[top][pos[top]];
                    pos[top] += 1;
                    match colour[next] {
                        Colour::Grey => {
                            let from = path.iter().position(|&p| p == next).expect("grey on path");
                            return Some(path[from..].to_vec());
                        }
                        Colour::White => {
                            colour[next] = Colour::Grey;
                            path.push(next);
                            iters.push(self.successors(next).collect());
                            pos.push(0);
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[node] = Colour::Black;
                    path.pop();
                    iters.pop();
                    pos.pop();
                }
            }
        }
        None
    }

    fn zip(&self, other: &Relation, f: impl Fn(u64, u64) -> u64) -> Relation {
        assert_eq!(self.n, other.n, "universe mismatch");
        let rows = self.rows.iter().zip(&other.rows).map(|(&a, &b)| f(a, b)).collect();
        let mut r = Relation { n: self.n, row_words: self.row_words, rows };
        r.mask_tails();
        r
    }

    fn mask_tails(&mut self) {
        let rem = self.n % crate::WORD_BITS;
        if rem != 0 && self.row_words > 0 {
            let mask = (1u64 << rem) - 1;
            for a in 0..self.n {
                self.rows[a * self.row_words + self.row_words - 1] &= mask;
            }
        }
    }
}

impl EventSet {
    /// Cartesian product `self × other` as a relation.
    pub fn cross(&self, other: &EventSet) -> Relation {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        let mut r = Relation::empty(self.universe());
        for a in self.iter() {
            for b in other.iter() {
                r.insert(a, b);
            }
        }
        r
    }

    /// The identity relation restricted to this set: `[S]`.
    pub fn as_identity(&self) -> Relation {
        let mut r = Relation::empty(self.universe());
        for a in self.iter() {
            r.insert(a, a);
        }
        r
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut r = Relation::empty(70);
        r.insert(0, 69);
        r.insert(69, 0);
        assert!(r.contains(0, 69) && r.contains(69, 0) && !r.contains(0, 0));
        assert_eq!(r.len(), 2);
        r.remove(0, 69);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn seq_composes() {
        let r = Relation::from_pairs(4, [(0, 1), (1, 2)]);
        let s = Relation::from_pairs(4, [(1, 3), (2, 3)]);
        let rs = r.seq(&s);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 3), (1, 3)]);
    }

    #[test]
    fn closure_and_acyclicity() {
        let chain = Relation::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let tc = chain.transitive_closure();
        assert!(tc.contains(0, 4));
        assert!(chain.is_acyclic());
        let cyc = chain.union(&Relation::from_pairs(5, [(4, 0)]));
        assert!(!cyc.is_acyclic());
        assert!(!cyc.transitive_closure().is_irreflexive());
    }

    #[test]
    fn find_cycle_returns_valid_cycle() {
        let r = Relation::from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4)]);
        let cycle = r.find_cycle().unwrap();
        assert!(cycle.len() >= 2);
        for w in cycle.windows(2) {
            assert!(r.contains(w[0], w[1]));
        }
        assert!(r.contains(*cycle.last().unwrap(), cycle[0]));
        assert!(Relation::from_pairs(6, [(0, 1)]).find_cycle().is_none());
    }

    #[test]
    fn inverse_and_identity() {
        let r = Relation::from_pairs(3, [(0, 2)]);
        assert!(r.inverse().contains(2, 0));
        let id = Relation::identity(3);
        assert_eq!(r.seq(&id), r);
        assert_eq!(id.seq(&r), r);
    }

    #[test]
    fn restriction_and_domain_range() {
        let r = Relation::from_pairs(4, [(0, 1), (2, 3)]);
        let evens = EventSet::from_iter(4, [0, 2]);
        assert_eq!(r.restrict_domain(&evens), r);
        assert_eq!(r.restrict_range(&evens).len(), 0);
        assert_eq!(r.domain(), evens);
        assert_eq!(r.range(), EventSet::from_iter(4, [1, 3]));
    }

    #[test]
    fn cross_and_set_identity() {
        let a = EventSet::from_iter(4, [0, 1]);
        let b = EventSet::from_iter(4, [3]);
        let r = a.cross(&b);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, 3), (1, 3)]);
        assert_eq!(a.as_identity().len(), 2);
    }

    #[test]
    fn complement_respects_universe() {
        let r = Relation::empty(3);
        assert_eq!(r.complement().len(), 9);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        // Cross a word boundary (70 > 64) to exercise tail masking.
        let r = Relation::from_pairs(70, [(0, 69), (69, 0), (1, 2), (5, 5)]);
        let s = Relation::from_pairs(70, [(0, 69), (2, 3), (5, 5), (68, 69)]);

        let mut u = r.clone();
        u.union_in_place(&s);
        assert_eq!(u, r.union(&s));

        let mut i = r.clone();
        i.intersection_in_place(&s);
        assert_eq!(i, r.intersection(&s));

        let mut d = r.clone();
        d.difference_in_place(&s);
        assert_eq!(d, r.difference(&s));

        let mut out = Relation::full(70); // seq_into must overwrite stale contents
        r.seq_into(&s, &mut out);
        assert_eq!(out, r.seq(&s));

        let chain = Relation::from_pairs(70, [(0, 1), (1, 2), (2, 69), (69, 3), (3, 3)]);
        let mut tc = chain.clone();
        tc.transitive_close();
        assert_eq!(tc, chain.transitive_closure());
        assert!(tc.contains(0, 3));

        let mut inv = Relation::full(70); // inverse_into must overwrite
        r.inverse_into(&mut inv);
        assert_eq!(inv, r.inverse());

        let mut comp = r.clone();
        comp.complement_in_place();
        assert_eq!(comp, r.complement());

        let mut refl = r.clone();
        refl.reflexive_in_place();
        assert_eq!(refl, r.reflexive());

        let mut scratch = Vec::new();
        let mut tc2 = chain.clone();
        tc2.transitive_close_with(&mut scratch);
        assert_eq!(tc2, chain.transitive_closure());

        let dom = EventSet::from_iter(70, [0, 1, 68]);
        let ran = EventSet::from_iter(70, [2, 69]);
        let mut rd = r.clone();
        rd.restrict_domain_in_place(&dom);
        assert_eq!(rd, r.restrict_domain(&dom));
        let mut rr = r.clone();
        rr.restrict_range_in_place(&ran);
        assert_eq!(rr, r.restrict_range(&ran));
        let mut sc = r.clone();
        sc.subtract_cross(&dom, &ran);
        assert_eq!(sc, r.difference(&dom.cross(&ran)));

        let mut dset = EventSet::full(3); // *_into must reshape and overwrite
        r.domain_into(&mut dset);
        assert_eq!(dset, r.domain());
        let mut rset = EventSet::full(3);
        r.range_into(&mut rset);
        assert_eq!(rset, r.range());
    }

    #[test]
    fn copy_from_reshapes_and_reuses_storage() {
        let src = Relation::from_pairs(70, [(0, 69), (5, 5)]);
        let mut dst = Relation::full(3);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // Shrinking works too, and the result behaves like a fresh clone.
        let small = Relation::from_pairs(2, [(1, 0)]);
        dst.copy_from(&small);
        assert_eq!(dst, small);
        assert_eq!(dst.universe(), 2);
    }

    #[test]
    fn intersects_matches_materialised_intersection() {
        let a = Relation::from_pairs(70, [(0, 69), (1, 2)]);
        let b = Relation::from_pairs(70, [(69, 0), (1, 2)]);
        let c = Relation::from_pairs(70, [(69, 0)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersects(&b), !a.intersection(&b).is_empty());
        assert_eq!(a.intersects(&c), !a.intersection(&c).is_empty());
    }

    // Bounds policy: mutators panic, queries are total.

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        Relation::empty(4).insert(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn remove_out_of_universe_panics() {
        Relation::empty(4).remove(4, 0);
    }

    #[test]
    fn contains_is_total_over_out_of_universe_queries() {
        let r = Relation::from_pairs(4, [(0, 1)]);
        assert!(!r.contains(0, 4));
        assert!(!r.contains(4, 0));
        assert!(!r.contains(usize::MAX, usize::MAX));
    }
}
