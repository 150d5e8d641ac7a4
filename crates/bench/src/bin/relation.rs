//! Relation kernel micro-bench: naive bit-at-a-time operators vs the
//! word-parallel in-place kernels the checkers' hot paths use.
//!
//! Dependency-free (no criterion): times `union`/`seq`/`transitive
//! closure` in both styles at universes 8, 64 and 256 — the library
//! tests, a roomy execution, and a deliberately oversized stress shape —
//! then writes `BENCH_RELATION.json` in the working directory and
//! prints a summary table. The naive side is what a pair-by-pair
//! implementation costs (`iter`/`contains`/`insert` loops, one fresh
//! relation per op); the in-place side is the word-parallel kernel
//! writing into a reused buffer, exactly as the fixpoints run it. Each
//! (op, universe) cell is the best of several repetitions, so scheduler
//! noise shrinks the measured gap rather than inflating it.
//!
//! ```text
//! cargo run --release -p lkmm-bench --bin relation [-- --reps N]
//! ```
//!
//! The run asserts two things while timing: both styles produce
//! identical relations, and the word-parallel in-place style is never
//! slower — it packs 64 pair-tests into each `u64` op and skips the
//! allocator, so losing to the scalar loop at any universe size would
//! mean the kernels regressed.

use lkmm_bench::{Flag, Report, Row, Val};
use lkmm_core::rng::SplitMix64;
use lkmm_relation::Relation;
use std::time::Instant;

/// Universes to measure. 8 covers the paper's library tests, 64 a
/// roomy generated execution, 256 an oversized stress shape (relations
/// are not bounded by the execution event cap).
const UNIVERSES: [usize; 3] = [8, 64, 256];

/// A po-like forward order: each event points at a handful of later
/// ones — sparse, acyclic, the shape the checkers sequence against.
fn order_like(n: usize) -> Relation {
    let mut r = Relation::empty(n);
    for i in 0..n {
        for step in [1usize, 3, 7] {
            if i + step < n {
                r.insert(i, i + step);
            }
        }
    }
    r
}

/// A communication-like scatter: ~4·n pseudo-random pairs, from a
/// seeded stream so every run measures identical inputs.
fn scatter(n: usize, seed: u64) -> Relation {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut r = Relation::empty(n);
    for _ in 0..4 * n {
        let a = (rng.next_u64() as usize) % n;
        let b = (rng.next_u64() as usize) % n;
        r.insert(a, b);
    }
    r
}

/// Best-of-`reps` time for `iters` runs of `f`, in ns per iteration.
fn best_of(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Pair-by-pair union: clone the left operand, insert the right's
/// pairs one at a time.
fn naive_union(a: &Relation, b: &Relation) -> Relation {
    let mut out = a.clone();
    for (x, y) in b.iter() {
        out.insert(x, y);
    }
    out
}

/// Pair-by-pair composition: for every `(x, y)` in `a`, walk `y`'s
/// successors in `b` and insert each `(x, z)`.
fn naive_seq(a: &Relation, b: &Relation) -> Relation {
    let mut out = Relation::empty(a.universe());
    for (x, y) in a.iter() {
        for z in b.successors(y) {
            out.insert(x, z);
        }
    }
    out
}

/// Bit-at-a-time Floyd–Warshall: the textbook triple loop over
/// `contains`/`insert`.
fn naive_closure(r: &Relation) -> Relation {
    let n = r.universe();
    let mut out = r.clone();
    for k in 0..n {
        for i in 0..n {
            if !out.contains(i, k) {
                continue;
            }
            for j in 0..n {
                if out.contains(k, j) {
                    out.insert(i, j);
                }
            }
        }
    }
    out
}

fn bench_universe(n: usize, reps: usize, rows: &mut Vec<Row>, slower: &mut Vec<String>) {
    let mut push = |op: &str, iters: usize, naive_ns: f64, inplace_ns: f64| {
        let speedup = naive_ns / inplace_ns;
        if speedup < 1.0 {
            slower.push(format!("{op} at n={n} ({speedup:.2}x)"));
        }
        rows.push(vec![
            ("op", op.into()),
            ("universe", n.into()),
            ("iters", iters.into()),
            ("naive_ns_per_op", Val::Fixed(naive_ns, 1)),
            ("inplace_ns_per_op", Val::Fixed(inplace_ns, 1)),
            ("speedup", Val::Fixed(speedup, 3)),
        ]);
    };
    // Iteration counts scale with the O(n²) row footprint so every cell
    // measures a comparable amount of work.
    let iters = (2_000_000 / (n * n)).max(64);
    let a = order_like(n);
    let b = scatter(n, 42);

    // union: scalar insert loop vs one OR pass over the rows. The
    // in-place side accumulates into a buffer that already holds the
    // left operand (idempotent, so re-running it per iteration measures
    // exactly one accumulate pass — the shape the fixpoints run).
    let expected = naive_union(&a, &b);
    let mut out = Relation::empty(n);
    out.copy_from(&a);
    out.union_in_place(&b);
    assert_eq!(out, expected, "union styles disagree at n={n}");
    let naive = best_of(reps, iters, || {
        std::hint::black_box(naive_union(&a, &b));
    });
    let inplace = best_of(reps, iters, || {
        out.union_in_place(&b);
        std::hint::black_box(&out);
    });
    push("union", iters, naive, inplace);

    // seq: successor walks vs the O(n³/64) row-OR composition every
    // fixpoint is made of.
    let expected = naive_seq(&a, &b);
    a.seq_into(&b, &mut out);
    assert_eq!(out, expected, "seq styles disagree at n={n}");
    let seq_iters = iters / 8 + 8;
    let naive = best_of(reps, seq_iters, || {
        std::hint::black_box(naive_seq(&a, &b));
    });
    let inplace = best_of(reps, seq_iters, || {
        a.seq_into(&b, &mut out);
        std::hint::black_box(&out);
    });
    push("seq", seq_iters, naive, inplace);

    // transitive closure: bit-level Warshall vs the row-OR kernel with
    // a reused scratch row — the hb*/pb*/rcu fixpoint workhorse.
    let expected = naive_closure(&b);
    let mut scratch: Vec<u64> = Vec::new();
    out.copy_from(&b);
    out.transitive_close_with(&mut scratch);
    assert_eq!(out, expected, "closure styles disagree at n={n}");
    let close_iters = iters / 16 + 4;
    let naive = best_of(reps, close_iters, || {
        std::hint::black_box(naive_closure(&b));
    });
    let inplace = best_of(reps, close_iters, || {
        out.copy_from(&b);
        out.transitive_close_with(&mut scratch);
        std::hint::black_box(&out);
    });
    push("closure", close_iters, naive, inplace);
}

fn main() {
    let mut reps = 7;
    lkmm_bench::flags(&mut [Flag::count("--reps", &mut reps, "best-of repetitions per cell")]);

    let (mut rows, mut slower) = (Vec::new(), Vec::new());
    for n in UNIVERSES {
        bench_universe(n, reps, &mut rows, &mut slower);
    }
    Report { bench: "relation-kernels", params: vec![("reps", reps.into())], rows }
        .finish("BENCH_RELATION.json");

    assert!(
        slower.is_empty(),
        "in-place kernels measured slower than allocating ones: {}",
        slower.join(", ")
    );
}
