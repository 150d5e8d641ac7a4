//! The relation algebra on seeded relations. The acyclicity check
//! against the closure: `is_acyclic()`, `find_cycle().is_none()` and
//! `transitive_closure().is_irreflexive()` must agree on every relation,
//! on both sides of the one-word fast path (universes of up to 64
//! events) and the search past it. And the laws the cat language relies
//! on (union, sequence, inverse, closures, restriction and the set
//! operators) must hold on the same universes and densities.

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

const UNIVERSES: [usize; 8] = [0, 1, 13, 63, 64, 65, 128, 130];

/// Edge densities in per mille, from empty to dense.
const DENSITIES: [u64; 7] = [0, 1, 10, 50, 200, 600, 1000];

/// Which verdicts each path reached, so a run proves both were exercised.
#[derive(Default)]
struct Seen {
    word: [bool; 2],
    search: [bool; 2],
}

/// Assert the three formulations agree on `r` and that a reported cycle
/// is one; returns whether `r` is acyclic.
fn agree(what: &str, r: &Relation, seen: &mut Seen) -> bool {
    let acyclic = r.is_acyclic();
    let cycle = r.find_cycle();
    assert_eq!(acyclic, cycle.is_none(), "{what}: is_acyclic vs find_cycle");
    assert_eq!(
        acyclic,
        r.transitive_closure().is_irreflexive(),
        "{what}: is_acyclic vs the closure"
    );
    if let Some(cycle) = cycle {
        assert!(!cycle.is_empty(), "{what}: the reported cycle is empty");
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            assert!(r.contains(a, b), "{what}: ({a},{b}) of the reported cycle is no edge");
        }
    }
    let paths = if r.universe() <= 64 { &mut seen.word } else { &mut seen.search };
    paths[usize::from(acyclic)] = true;
    acyclic
}

/// A random DAG over `n` events: edges only forward in a random
/// permutation of the events, so they point both ways in index order.
fn random_dag(rng: &mut SplitMix64, n: usize, per_mille: u64) -> Relation {
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, below(rng, i + 1));
    }
    let mut r = Relation::empty(n);
    for a in 0..n {
        for b in 0..n {
            if rank[a] < rank[b] && chance(rng, per_mille) {
                r.insert(a, b);
            }
        }
    }
    r
}

/// Unstructured pairs without self-loops, at an eighth of the density:
/// dense ones are almost always cyclic.
fn wild(rng: &mut SplitMix64, n: usize, per_mille: u64) -> Relation {
    let mut r = Relation::empty(n);
    for a in 0..n {
        for b in 0..n {
            if a != b && chance(rng, per_mille / 8) {
                r.insert(a, b);
            }
        }
    }
    r
}

#[test]
fn random_relations_agree_with_the_closure() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_ac1c);
    let mut seen = Seen::default();
    for n in UNIVERSES {
        for per_mille in DENSITIES {
            for trial in 0..12 {
                let mut r = random_dag(&mut rng, n, per_mille);
                assert!(agree(&format!("dag n={n} d={per_mille} #{trial}"), &r, &mut seen));
                // One random extra edge may close a cycle, or not.
                if n > 0 {
                    r.insert(below(&mut rng, n), below(&mut rng, n));
                    agree(&format!("dag+edge n={n} d={per_mille} #{trial}"), &r, &mut seen);
                }
                let wild = wild(&mut rng, n, per_mille);
                agree(&format!("wild n={n} d={per_mille} #{trial}"), &wild, &mut seen);
            }
        }
    }
    assert_eq!(seen.word, [true, true], "the one-word path saw both verdicts");
    assert_eq!(seen.search, [true, true], "the search path saw both verdicts");
}

#[test]
fn self_loops_are_cycles() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let mut seen = Seen::default();
    for n in UNIVERSES.into_iter().filter(|&n| n > 0) {
        for e in [0, n / 2, n - 1] {
            let mut r = random_dag(&mut rng, n, 50);
            r.insert(e, e);
            assert!(!agree(&format!("self-loop {e} n={n}"), &r, &mut seen));
        }
    }
}

#[test]
fn a_long_chain_closed_by_one_back_edge() {
    let mut seen = Seen::default();
    for n in UNIVERSES.into_iter().filter(|&n| n > 1) {
        // Forward in index order (one peeling sweep) and backward (one
        // sweep per event), each acyclic until its back edge lands.
        let forward = Relation::from_pairs(n, (1..n).map(|i| (i - 1, i)));
        let backward = Relation::from_pairs(n, (1..n).map(|i| (i, i - 1)));
        for (name, mut chain, back) in
            [("forward", forward, (n - 1, 0)), ("backward", backward, (0, n - 1))]
        {
            assert!(agree(&format!("{name} chain n={n}"), &chain, &mut seen));
            chain.insert(back.0, back.1);
            assert!(!agree(&format!("{name} cycle n={n}"), &chain, &mut seen));
        }
    }
}

#[test]
fn relations_built_through_complement() {
    // `complement` must leave no bit past the universe in a row's last
    // word, or the one-word path would see phantom successors.
    let mut seen = Seen::default();
    for n in UNIVERSES {
        let le = Relation::from_pairs(n, (0..n).flat_map(|a| (a..n).map(move |b| (a, b))));
        // ~(a <= b) is a > b: a strict order.
        assert!(agree(&format!("~le n={n}"), &le.complement(), &mut seen));
        // ~empty is the full relation: cyclic on any event.
        let full = Relation::empty(n).complement();
        assert_eq!(agree(&format!("~0 n={n}"), &full, &mut seen), n == 0);
        // ~(~le) is le again, reflexive hence cyclic.
        let le_again = le.complement().complement();
        assert_eq!(agree(&format!("~~le n={n}"), &le_again, &mut seen), n == 0);
        // The strict order restricted to every other event stays acyclic.
        let evens = EventSet::from_iter(n, (0..n).step_by(2));
        let gt = le.complement().restrict_domain(&evens);
        assert!(agree(&format!("~le|evens n={n}"), &gt, &mut seen));
    }
}

/// A seeded relation for the laws: a random DAG or unstructured pairs,
/// plus one random edge, which may be a self-loop.
fn random_relation(rng: &mut SplitMix64, n: usize, per_mille: u64) -> Relation {
    let mut r = if below(rng, 2) == 0 {
        random_dag(rng, n, per_mille)
    } else {
        wild(rng, n, per_mille)
    };
    if n > 0 {
        r.insert(below(rng, n), below(rng, n));
    }
    r
}

fn random_set(rng: &mut SplitMix64, n: usize, per_mille: u64) -> EventSet {
    EventSet::from_iter(n, (0..n).filter(|_| chance(rng, per_mille)))
}

/// The relation and set laws on relations `a`, `b`, `c` and sets `s`,
/// `t` of one universe. Acyclicity against the closure and `find_cycle`
/// are [`agree`]'s.
fn laws(what: &str, [a, b, c]: &[Relation; 3], [s, t]: &[EventSet; 2]) {
    let n = a.universe();
    // Union is commutative and associative.
    assert_eq!(a.union(b), b.union(a), "{what}: a|b");
    assert_eq!(a.union(b).union(c), a.union(&b.union(c)), "{what}: (a|b)|c");
    // Sequence is associative and distributes over union on both sides.
    assert_eq!(a.seq(b).seq(c), a.seq(&b.seq(c)), "{what}: (a;b);c");
    assert_eq!(a.seq(&b.union(c)), a.seq(b).union(&a.seq(c)), "{what}: a;(b|c)");
    assert_eq!(b.union(c).seq(a), b.seq(a).union(&c.seq(a)), "{what}: (b|c);a");
    // The identity is neutral for sequence.
    let id = Relation::identity(n);
    assert_eq!(&a.seq(&id), a, "{what}: a;id");
    assert_eq!(&id.seq(a), a, "{what}: id;a");
    // Inverse is involutive and antidistributes over sequence.
    assert_eq!(&a.inverse().inverse(), a, "{what}: a^-1^-1");
    assert_eq!(a.seq(b).inverse(), b.inverse().seq(&a.inverse()), "{what}: (a;b)^-1");
    // The transitive closure contains `a`, is transitive and idempotent.
    let tc = a.transitive_closure();
    assert!(a.difference(&tc).is_empty(), "{what}: a in a+");
    assert!(tc.seq(&tc).difference(&tc).is_empty(), "{what}: a+;a+ in a+");
    assert_eq!(tc.transitive_closure(), tc, "{what}: (a+)+");
    // a+ = a | a;a | a;a;a | ..., iterated to its fixpoint.
    let mut acc = a.clone();
    loop {
        let next = acc.union(&acc.seq(a));
        if next == acc {
            break;
        }
        acc = next;
    }
    assert_eq!(acc, tc, "{what}: a+ vs the iterated sequence");
    // a* = (a?)+ = (a+)?
    let star = a.reflexive_transitive_closure();
    assert_eq!(a.reflexive().transitive_closure(), star, "{what}: (a?)+");
    assert_eq!(tc.reflexive(), star, "{what}: (a+)?");
    // De Morgan.
    assert_eq!(
        a.union(b).complement(),
        a.complement().intersection(&b.complement()),
        "{what}: ~(a|b)"
    );
    // Restriction is composition with the set's identity.
    assert_eq!(a.restrict_domain(s), s.as_identity().seq(a), "{what}: [s];a");
    assert_eq!(a.restrict_range(t), a.seq(&t.as_identity()), "{what}: a;[t]");
    // The domain and range of a cartesian product.
    let cross = s.cross(t);
    if !t.is_empty() {
        assert_eq!(&cross.domain(), s, "{what}: domain(s*t)");
    }
    if !s.is_empty() {
        assert_eq!(&cross.range(), t, "{what}: range(s*t)");
    }
    // The set operators.
    assert_eq!(s.union(t), t.union(s), "{what}: s|t");
    assert_eq!(s.difference(t), s.intersection(&t.complement()), "{what}: s\\t");
    assert!(s.intersection(t).is_subset(s), "{what}: s&t in s");
    assert!(s.is_subset(&s.union(t)), "{what}: s in s|t");
    assert_eq!(&s.complement().complement(), s, "{what}: ~~s");
}

/// 256 cases, 32 on each universe, every density on each: a dense case
/// on 130 events costs ~40 ms in a debug build.
#[test]
fn relation_algebra_laws_hold_on_seeded_relations() {
    let mut rng = SplitMix64::seed_from_u64(0xa19e_b7a5);
    for n in UNIVERSES {
        for case in 0..32 {
            let per_mille = DENSITIES[case % DENSITIES.len()];
            let rels = [(); 3].map(|_| random_relation(&mut rng, n, per_mille));
            let sets = [(); 2].map(|_| random_set(&mut rng, n, per_mille));
            laws(&format!("n={n} d={per_mille} #{case}"), &rels, &sets);
        }
    }
}
