//! The acyclicity check against the closure: `is_acyclic()`,
//! `find_cycle().is_none()` and `transitive_closure().is_irreflexive()`
//! must agree on every relation, on both sides of the one-word fast path
//! (universes of up to 64 events) and the search past it.

use lkmm_relation::{EventSet, Relation};

/// SplitMix64: a seeded stream, so every failure replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `per_mille / 1000`.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }
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
fn random_dag(rng: &mut Rng, n: usize, per_mille: u64) -> Relation {
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    let mut r = Relation::empty(n);
    for a in 0..n {
        for b in 0..n {
            if rank[a] < rank[b] && rng.chance(per_mille) {
                r.insert(a, b);
            }
        }
    }
    r
}

#[test]
fn random_relations_agree_with_the_closure() {
    let mut rng = Rng(0x5eed_ac1c);
    let mut seen = Seen::default();
    for n in UNIVERSES {
        for per_mille in DENSITIES {
            for trial in 0..12 {
                let mut r = random_dag(&mut rng, n, per_mille);
                assert!(agree(&format!("dag n={n} d={per_mille} #{trial}"), &r, &mut seen));
                // One random extra edge may close a cycle, or not.
                if n > 0 {
                    r.insert(rng.below(n), rng.below(n));
                    agree(&format!("dag+edge n={n} d={per_mille} #{trial}"), &r, &mut seen);
                }
                // Unstructured pairs: dense ones are almost always cyclic.
                let mut wild = Relation::empty(n);
                for a in 0..n {
                    for b in 0..n {
                        if a != b && rng.chance(per_mille / 8) {
                            wild.insert(a, b);
                        }
                    }
                }
                agree(&format!("wild n={n} d={per_mille} #{trial}"), &wild, &mut seen);
            }
        }
    }
    assert_eq!(seen.word, [true, true], "the one-word path saw both verdicts");
    assert_eq!(seen.search, [true, true], "the search path saw both verdicts");
}

#[test]
fn self_loops_are_cycles() {
    let mut rng = Rng(7);
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
