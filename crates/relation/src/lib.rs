//! Dense relation algebra over litmus-test events.
//!
//! Memory-model axioms are constraints over *relations on events*: unions,
//! intersections, sequences (relational composition), closures, and acyclicity
//! checks. A candidate execution of a litmus test has a small, fixed set of
//! events, so this crate represents a relation as a bitset adjacency matrix
//! over dense event indices `0..n`, which makes every cat operator a handful
//! of word-level operations.
//!
//! The two core types are [`EventSet`] (a set of events) and [`Relation`]
//! (a binary relation on events). Both are sized to a *universe* of `n`
//! events fixed at construction; operations on mismatched universes panic.
//!
//! On universes of up to 64 events (every campaign candidate has at
//! most 14), each relation row is one `u64`, and the operators a
//! candidate runs (`seq_into`, `transitive_close_with`, `inverse_into`,
//! `reflexive_in_place`, the in-place restrictions, `is_irreflexive`,
//! `is_acyclic`) work on those words directly. Wider universes, up to
//! [`MAX_EVENTS`], bottom out in the word-parallel slice kernels of
//! [`kernel`]. The one-word arms rely on one invariant: no row carries a
//! bit at or past the universe. Every mutator keeps the tail of each
//! row's last word clear, and `complement` masks it back. The in-place
//! variants (`union_in_place`, `seq_into`, `transitive_close`, …)
//! combined with a [`RelationArena`] make per-candidate relation algebra
//! allocation-free in steady state.
//!
//! # Bounds policy
//!
//! One rule for out-of-universe indices across [`Relation`],
//! [`EventSet`], and [`IncrementalOrder`]: **mutators panic, queries
//! are total**. `insert`/`remove`/`add_edge` on an index
//! `>= universe()` is always a caller bug — silently ignoring it would
//! hide miscomputed event indices — so mutators panic. Pure queries
//! (`contains`) treat out-of-universe indices as simply *absent* and
//! return `false`.
//!
//! # Examples
//!
//! ```
//! use lkmm_relation::Relation;
//!
//! // po on three events: 0 -> 1 -> 2
//! let po = Relation::from_pairs(3, [(0, 1), (1, 2)]);
//! let po_plus = po.transitive_closure();
//! assert!(po_plus.contains(0, 2));
//! assert!(po_plus.is_acyclic());
//! ```

mod arena;
mod incremental;
pub mod kernel;
mod relation;
mod set;

pub use arena::{
    acquire_rel, acquire_set, scratch_words, shared_arena, with_scratch, ArenaRel, ArenaSet,
    RelationArena, SharedArena,
};
pub use incremental::IncrementalOrder;
pub use relation::Relation;
pub use set::EventSet;

/// Maximum number of events in one candidate execution.
///
/// Litmus tests are tiny (a handful of events per thread); 128 leaves ample
/// headroom even for the Figure-15 RCU-implementation expansion.
pub const MAX_EVENTS: usize = 128;

/// A word-indexed bitmask helper shared by [`EventSet`] and [`Relation`].
pub(crate) const WORD_BITS: usize = 64;

pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

pub(crate) fn word_and_bit(i: usize) -> (usize, u64) {
    (i / WORD_BITS, 1u64 << (i % WORD_BITS))
}

/// Call `f` with the index of each set bit of `word`, lowest first.
#[inline]
pub(crate) fn for_each_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Iterate the indices of set bits in a row of words.
pub(crate) fn iter_bits(words: &[u64], n: usize) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(move |(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * WORD_BITS + b)
            }
        })
    })
    .take_while(move |&i| i < n)
}
