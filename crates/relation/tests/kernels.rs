//! The relation operators that run once or more per candidate, pair by
//! pair against references written with `contains`/`insert` loops:
//! `seq_into`, `transitive_close_with`, `inverse_into`,
//! `reflexive_in_place`, both in-place restrictions and
//! `is_irreflexive`. Every case runs on both sides of one word (the
//! universes of up to 64 events, whose rows are one `u64`, and the wider
//! ones), on relations with self-loops and on relations built through
//! `complement`, whose last row word must carry no bit past the universe.
//! Destinations and scratch rows are reused across universes, so a
//! buffer that last held a 130-event relation is reshaped to 13 events
//! and back.

use lkmm_core::rng::SplitMix64;
use lkmm_relation::{EventSet, Relation};

/// A draw from `0..n`, from a seeded stream so every failure replays.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// True with probability `per_mille / 1000`.
fn chance(rng: &mut SplitMix64, per_mille: u64) -> bool {
    rng.next_u64() % 1000 < per_mille
}

/// `acyclic.rs`'s universes, ordered so that each step crosses between
/// one word and more (`64` last): the reused buffers shrink to one word
/// and grow back.
const UNIVERSES: [usize; 8] = [0, 130, 1, 128, 13, 65, 63, 64];

/// Edge densities in per mille, from empty to dense.
const DENSITIES: [u64; 7] = [0, 1, 10, 50, 200, 600, 1000];

/// Unstructured pairs, self-loops included.
fn random_relation(rng: &mut SplitMix64, n: usize, per_mille: u64) -> Relation {
    let mut r = Relation::empty(n);
    for a in 0..n {
        for b in 0..n {
            if chance(rng, per_mille) {
                r.insert(a, b);
            }
        }
    }
    r
}

/// A random relation, or the complement of one: the complement sets
/// every bit of each row's last word and must mask those past `n`.
fn operand(rng: &mut SplitMix64, n: usize, per_mille: u64) -> Relation {
    let r = random_relation(rng, n, per_mille);
    if below(rng, 2) == 0 {
        r
    } else {
        r.complement()
    }
}

/// A random set, or the complement of one.
fn random_set(rng: &mut SplitMix64, n: usize, per_mille: u64) -> EventSet {
    let s = EventSet::from_iter(n, (0..n).filter(|_| chance(rng, per_mille)));
    if below(rng, 2) == 0 {
        s
    } else {
        s.complement()
    }
}

fn ref_seq(a: &Relation, b: &Relation) -> Relation {
    let n = a.universe();
    let mut out = Relation::empty(n);
    for x in 0..n {
        for y in 0..n {
            if a.contains(x, y) {
                for z in 0..n {
                    if b.contains(y, z) {
                        out.insert(x, z);
                    }
                }
            }
        }
    }
    out
}

/// Warshall's closure, one pair at a time.
fn ref_closure(r: &Relation) -> Relation {
    let n = r.universe();
    let mut out = r.clone();
    for k in 0..n {
        for i in 0..n {
            if out.contains(i, k) {
                for j in 0..n {
                    if out.contains(k, j) {
                        out.insert(i, j);
                    }
                }
            }
        }
    }
    out
}

fn ref_inverse(r: &Relation) -> Relation {
    let n = r.universe();
    let mut out = Relation::empty(n);
    for a in 0..n {
        for b in 0..n {
            if r.contains(a, b) {
                out.insert(b, a);
            }
        }
    }
    out
}

fn ref_reflexive(r: &Relation) -> Relation {
    let mut out = r.clone();
    for e in 0..r.universe() {
        out.insert(e, e);
    }
    out
}

/// `[dom] ; r ; [ran]`, pair by pair.
fn ref_restrict(r: &Relation, dom: &EventSet, ran: &EventSet) -> Relation {
    let n = r.universe();
    let mut out = Relation::empty(n);
    for a in 0..n {
        for b in 0..n {
            if r.contains(a, b) && dom.contains(a) && ran.contains(b) {
                out.insert(a, b);
            }
        }
    }
    out
}

fn ref_irreflexive(r: &Relation) -> bool {
    (0..r.universe()).all(|e| !r.contains(e, e))
}

/// Buffers that outlive one universe, as a checking session's scratch
/// does: each operator writes into storage last shaped for another `n`.
#[derive(Default)]
struct Reused {
    out: Relation,
    work: Relation,
    row: Vec<u64>,
}

/// The `is_irreflexive` verdicts seen on one-word universes (1–64
/// events) and on wider ones, so a run proves both sides were exercised.
#[derive(Default)]
struct Seen {
    one_word: [bool; 2],
    multi_word: [bool; 2],
}

impl Seen {
    fn irreflexive(&mut self, n: usize, verdict: bool) {
        if n == 0 {
            return;
        }
        let side = if n <= 64 { &mut self.one_word } else { &mut self.multi_word };
        side[usize::from(verdict)] = true;
    }
}

/// Every operator on `a`, `b`, `dom` and `ran` of one universe, against
/// its reference, writing through the reused buffers. Each `*_into`
/// write finds `out` reshaped and full, and must overwrite it.
fn check(
    what: &str,
    [a, b]: [&Relation; 2],
    [dom, ran]: [&EventSet; 2],
    reused: &mut Reused,
    seen: &mut Seen,
) {
    let n = a.universe();
    let stale = Relation::full(n);

    reused.out.reset(n);
    reused.out.union_in_place(&stale);
    a.seq_into(b, &mut reused.out);
    assert_eq!(reused.out, ref_seq(a, b), "{what}: seq_into");

    reused.out.reset(n);
    reused.out.union_in_place(&stale);
    a.inverse_into(&mut reused.out);
    assert_eq!(reused.out, ref_inverse(a), "{what}: inverse_into");

    reused.work.copy_from(a);
    reused.work.transitive_close_with(&mut reused.row);
    assert_eq!(reused.work, ref_closure(a), "{what}: transitive_close_with");

    reused.work.copy_from(a);
    reused.work.reflexive_in_place();
    assert_eq!(reused.work, ref_reflexive(a), "{what}: reflexive_in_place");

    reused.work.copy_from(a);
    reused.work.restrict_domain_in_place(dom);
    assert_eq!(
        reused.work,
        ref_restrict(a, dom, &EventSet::full(n)),
        "{what}: restrict_domain_in_place"
    );

    reused.work.copy_from(a);
    reused.work.restrict_range_in_place(ran);
    assert_eq!(
        reused.work,
        ref_restrict(a, &EventSet::full(n), ran),
        "{what}: restrict_range_in_place"
    );

    for r in [a, b] {
        let verdict = r.is_irreflexive();
        assert_eq!(verdict, ref_irreflexive(r), "{what}: is_irreflexive");
        seen.irreflexive(n, verdict);
    }
}

#[test]
fn operators_match_their_pairwise_references() {
    let mut rng = SplitMix64::seed_from_u64(0x6b65_726e_656c);
    let mut reused = Reused::default();
    let mut seen = Seen::default();
    for n in UNIVERSES {
        for per_mille in DENSITIES {
            for trial in 0..3 {
                let a = operand(&mut rng, n, per_mille);
                let b = operand(&mut rng, n, per_mille);
                let dom = random_set(&mut rng, n, 500);
                let ran = random_set(&mut rng, n, 500);
                check(
                    &format!("n={n} d={per_mille} #{trial}"),
                    [&a, &b],
                    [&dom, &ran],
                    &mut reused,
                    &mut seen,
                );
            }
        }
    }
    assert_eq!(seen.one_word, [true, true], "one-word universes saw both irreflexivity verdicts");
    assert_eq!(seen.multi_word, [true, true], "wider universes saw both irreflexivity verdicts");
}

#[test]
fn complements_keep_their_rows_inside_the_universe() {
    // ~id is irreflexive and full elsewhere; ~empty is n × n. Sequencing
    // and closing them reads each row's last word, where a bit past `n`
    // would name an event outside the universe.
    let mut reused = Reused::default();
    let mut seen = Seen::default();
    for n in UNIVERSES {
        let not_id = Relation::identity(n).complement();
        let full = Relation::empty(n).complement();
        assert_eq!(full, Relation::full(n), "n={n}: ~empty");
        let all = EventSet::full(n);
        let none = EventSet::empty(n).complement();
        assert_eq!(none, all, "n={n}: ~{{}}");
        check(&format!("~id n={n}"), [&not_id, &full], [&none, &all], &mut reused, &mut seen);
        check(&format!("~empty n={n}"), [&full, &not_id], [&all, &none], &mut reused, &mut seen);
    }
    assert_eq!(seen.one_word, [true, true], "one-word universes saw both irreflexivity verdicts");
    assert_eq!(seen.multi_word, [true, true], "wider universes saw both irreflexivity verdicts");
}

#[test]
fn one_self_loop_anywhere_is_found() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for n in UNIVERSES.into_iter().filter(|&n| n > 0) {
        for e in [0, n / 2, n - 1] {
            let mut r = Relation::identity(n).complement();
            r.difference_in_place(&random_relation(&mut rng, n, 500));
            assert!(r.is_irreflexive(), "n={n}: ~id minus pairs");
            r.insert(e, e);
            assert!(!r.is_irreflexive(), "n={n}: the self-loop at {e}");
        }
    }
}
