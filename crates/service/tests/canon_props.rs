//! Property-style tests for the canonicalization layer, run over the
//! whole built-in paper library as the corpus. Dependency-free: instead
//! of random generation, the "properties" quantify over every library
//! test × a deterministic set of isomorphisms (thread rotations and
//! reversals, location renames, register renames) and semantic mutants
//! (quantifier flips, negated conditions, changed init values).
//!
//! The canonical text is printed straight from the original test; it
//! must equal the reference — the canonical [`Test`] built by
//! `canonicalize`, printed — byte for byte, on every input here. The
//! `#[ignore]`d full-corpus differential runs in release from `ci.sh`.

use lkmm_generator::{cycles_up_to, default_alphabet, generate, generate_contended};
use lkmm_litmus::ast::{InitVal, Test};
use lkmm_litmus::cond::{Condition, Prop, Quantifier};
use lkmm_litmus::rename::{
    permute_threads, rename_test, thread_locations, thread_registers,
};
use lkmm_service::canon::{cache_key, canonical_text, canonicalize};
use std::collections::BTreeMap;

const MODEL: &str = "lkmm";
const SALT: &str = "props";

fn key(test: &Test) -> u128 {
    cache_key(test, MODEL, SALT)
}

fn library() -> Vec<(&'static str, Test)> {
    lkmm_litmus::library::all().iter().map(|pt| (pt.name, pt.test())).collect()
}

/// The canonical text equals the printed reference canonical form.
fn assert_render_matches_reference(what: &str, test: &Test) {
    assert_eq!(
        canonical_text(test),
        canonicalize(test).to_litmus_string(),
        "{what}: canonical text differs from the printed canonical form"
    );
}

/// Every diy cycle up to `max_len`, then each one's contended twin.
fn generated(max_len: usize) -> Vec<(String, Test)> {
    let cycles = cycles_up_to(max_len, &default_alphabet());
    let plain = cycles.iter().map(|c| (format!("{c:?}"), generate(c).unwrap()));
    let contended =
        cycles.iter().map(|c| (format!("{c:?} contended"), generate_contended(c).unwrap()));
    plain.chain(contended).collect()
}

/// Every global location and per-thread register, renamed with an ugly
/// prefix that sorts differently from the original names.
fn scrambled_names(test: &Test) -> Test {
    let mut locs: BTreeMap<String, String> = BTreeMap::new();
    for loc in test.init.keys() {
        locs.insert(loc.clone(), format!("zz_{loc}_q"));
    }
    for thread in &test.threads {
        for loc in thread_locations(thread) {
            locs.entry(loc.to_string()).or_insert_with(|| format!("zz_{loc}_q"));
        }
    }
    let regs: Vec<BTreeMap<String, String>> = test
        .threads
        .iter()
        .map(|t| {
            thread_registers(t)
                .into_iter()
                .map(|r| (r.to_string(), format!("aa{r}")))
                .collect()
        })
        .collect();
    rename_test(test, &locs, &regs)
}

fn rotations(n: usize) -> Vec<Vec<usize>> {
    let mut orders = Vec::new();
    for shift in 0..n {
        orders.push((0..n).map(|i| (i + shift) % n).collect());
    }
    orders.push((0..n).rev().collect());
    orders
}

#[test]
fn isomorphic_variants_hash_identically_across_the_library() {
    for (name, test) in library() {
        let original = key(&test);
        let renamed = scrambled_names(&test);
        assert_eq!(
            key(&renamed),
            original,
            "{name}: location/register rename changed the cache key"
        );
        assert_render_matches_reference(&format!("{name} renamed"), &renamed);
        for order in rotations(test.threads.len()) {
            let permuted = permute_threads(&test, &order);
            assert_eq!(
                key(&permuted),
                original,
                "{name}: thread order {order:?} changed the cache key"
            );
            // Rename and permutation composed, in both orders.
            let permuted_renamed = scrambled_names(&permuted);
            let renamed_permuted = permute_threads(&renamed, &order);
            assert_eq!(key(&permuted_renamed), original, "{name}: {order:?}∘rename");
            assert_eq!(key(&renamed_permuted), original, "{name}: rename∘{order:?}");
            for variant in [&permuted, &permuted_renamed, &renamed_permuted] {
                assert_render_matches_reference(&format!("{name} {order:?}"), variant);
            }
        }
    }
}

#[test]
fn semantic_mutants_change_the_key() {
    for (name, test) in library() {
        let original = key(&test);

        let mut flipped = test.clone();
        flipped.condition = Condition {
            quantifier: match test.condition.quantifier {
                Quantifier::Exists => Quantifier::Forall,
                _ => Quantifier::Exists,
            },
            prop: test.condition.prop.clone(),
        };
        assert_ne!(key(&flipped), original, "{name}: quantifier flip kept the key");

        let mut negated = test.clone();
        negated.condition = Condition {
            quantifier: test.condition.quantifier,
            prop: Prop::Not(Box::new(test.condition.prop.clone())),
        };
        assert_ne!(key(&negated), original, "{name}: negated condition kept the key");

        if let Some((loc, InitVal::Int(v))) =
            test.init.iter().find_map(|(l, v)| match v {
                InitVal::Int(i) => Some((l.clone(), InitVal::Int(*i))),
                InitVal::Ptr(_) => None,
            })
        {
            let mut reinit = test.clone();
            reinit.init.insert(loc.clone(), InitVal::Int(v + 41));
            assert_ne!(key(&reinit), original, "{name}: init change of `{loc}` kept the key");
        }
    }
}

#[test]
fn different_models_and_salts_never_share_keys() {
    for (name, test) in library() {
        assert_ne!(
            cache_key(&test, "lkmm", SALT),
            cache_key(&test, "sc", SALT),
            "{name}: models share a key"
        );
        assert_ne!(
            cache_key(&test, MODEL, "v1"),
            cache_key(&test, MODEL, "v2"),
            "{name}: salts share a key"
        );
    }
}

#[test]
fn canonicalization_is_idempotent_and_reparseable() {
    for (name, test) in library() {
        assert_render_matches_reference(name, &test);
        let canon = canonicalize(&test);
        let twice = canonicalize(&canon);
        assert_eq!(
            canon.to_litmus_string(),
            twice.to_litmus_string(),
            "{name}: canonicalization is not idempotent"
        );
        let reparsed = lkmm_litmus::parse(&canonical_text(&test))
            .unwrap_or_else(|e| panic!("{name}: canonical text does not reparse: {e}"));
        assert_eq!(key(&reparsed), key(&test), "{name}: reparsed canonical text changed the key");
    }
}

#[test]
fn canonical_text_matches_the_reference_on_generated_tests() {
    for (name, test) in generated(5) {
        assert_render_matches_reference(&name, &test);
        // A reparsed canonical text is its own canonical form.
        let reparsed = lkmm_litmus::parse(&canonical_text(&test)).unwrap();
        assert_eq!(canonical_text(&reparsed), canonical_text(&test), "{name}: reparse");
    }
}

/// The whole campaign corpus at cycle length 6: 126 880 tests, about
/// 3 s in release and far longer unoptimised, so `ci.sh` runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "full cycle-length-6 corpus; run in release"]
fn canonical_text_matches_the_reference_on_every_cycle_up_to_length_6() {
    let corpus = generated(6);
    assert_eq!(corpus.len(), 126_880);
    for (name, test) in corpus {
        assert_render_matches_reference(&name, &test);
    }
}

fn parsed(src: &str) -> Test {
    lkmm_litmus::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// Inputs chosen for the ways the printed bytes could drift from the
/// reference's.
#[test]
fn canonical_text_matches_the_reference_on_synthetic_edge_cases() {
    // Twelve locations and twelve registers in one thread: canonical
    // names sort as strings, so `x10` and `r10` precede `x2` and `r2` in
    // the init section, the parameter list and the declarations.
    let locs: Vec<String> = (0..12).map(|i| format!("v{}", 11 - i)).collect();
    let params = locs.iter().map(|l| format!("int *{l}")).collect::<Vec<_>>().join(", ");
    let reads: String =
        locs.iter().enumerate().map(|(i, l)| format!("q{i} = READ_ONCE(*{l});\n")).collect();
    let writes: String = locs.iter().map(|l| format!("WRITE_ONCE(*{l}, 1);\n")).collect();
    let wide = parsed(&format!(
        "C wide\n{{ v3=5; }}\nP0({params}) {{\n{reads}}}\nP1({params}) {{\n{writes}}}\n\
         exists (0:q11=1 /\\ 0:q2=0 /\\ v0=1)"
    ));
    let text = canonical_text(&wide);
    assert!(text.find("x10=").unwrap() < text.find("x2=").unwrap(), "{text}");
    assert!(text.contains("int *x1, int *x10, int *x11, int *x2"), "{text}");
    assert!(text.find("int r10;").unwrap() < text.find("int r2;").unwrap(), "{text}");

    let cases = [
        ("wide", wide),
        // `q` and `d` are registers used only as lock and SRCU domain
        // addresses: not collected as registers, so they keep their
        // spelling — unless the condition names them.
        (
            "lock-register",
            parsed(
                "C lock-register\n{ x=0; }\n\
                 P0(int *x) { int r0; r0 = READ_ONCE(*x); spin_lock(*q); WRITE_ONCE(*x, r0); \
                 spin_unlock(*q); srcu_read_lock(*d); synchronize_srcu(*d); \
                 srcu_read_unlock(*d); }\n\
                 P1(int *x) { WRITE_ONCE(*x, 2); spin_lock(*q); spin_unlock(*q); }\n\
                 exists (0:r0=2 /\\ 1:q=0)",
            ),
        ),
        // A term on a thread the test lacks, and a register only the
        // condition names.
        (
            "absent-thread",
            parsed(
                "C absent-thread\n{ x=0; y=0; }\n\
                 P0(int *x, int *y) { int r0; r0 = READ_ONCE(*y); WRITE_ONCE(*x, 1); }\n\
                 P1(int *x, int *y) { WRITE_ONCE(*y, 1); }\n\
                 exists (0:r0=1 /\\ 5:r3=2 /\\ 1:r9=0 /\\ 0:zz=4)",
            ),
        ),
        // Nested connectives with duplicate operands, double negations,
        // a conjunction nested under a double negation (which folds onto
        // the same left spine as the flat conjunction), and `true`.
        (
            "nested",
            parsed(
                "C nested\n{ x=0; y=0; }\n\
                 P0(int *x, int *y) { int r0; int r1; r0 = READ_ONCE(*x); r1 = READ_ONCE(*y); }\n\
                 P1(int *x, int *y) { WRITE_ONCE(*y, 1); WRITE_ONCE(*x, 1); }\n\
                 exists ((not (not (0:r0=1 /\\ 0:r1=0)) /\\ x=1) \\/ \
                 (0:r0=1 /\\ 0:r1=0 /\\ x=1) \\/ (0:r0=1 /\\ 0:r1=0 /\\ x=1))",
            ),
        ),
        (
            "nested-or",
            parsed(
                "C nested-or\n{ x=0; y=0; }\n\
                 P0(int *x, int *y) { int r0; int r1; r0 = READ_ONCE(*x); r1 = READ_ONCE(*y); }\n\
                 P1(int *x, int *y) { WRITE_ONCE(*y, 1); WRITE_ONCE(*x, 1); }\n\
                 forall (not (not (0:r0=1 \\/ 0:r1=0)) \\/ y=1 \\/ (0:r1=0 \\/ 0:r0=1) \\/ \
                 not (y=1 /\\ true) \\/ not (true /\\ y=1) \\/ not (not (not (x=1))) \\/ \
                 true \\/ (true /\\ true))",
            ),
        ),
        // A pointer-init chain (`p` → `q` → `x`) and an unreferenced init.
        (
            "pointer-chain",
            parsed(
                "C pointer-chain\n{ p=&q; q=&x; x=3; junk=7; }\n\
                 P0(int *p, int *q, int *x) { int r0; int r1; \
                 r0 = READ_ONCE(*p); r1 = READ_ONCE(*r0); }\n\
                 P1(int *p, int *q, int *x) { WRITE_ONCE(*x, 4); }\n\
                 exists (0:r0=&x /\\ 0:r1=3)",
            ),
        ),
        // An empty thread.
        (
            "empty-thread",
            parsed(
                "C empty-thread\n{ x=0; }\n\
                 P0(int *x) { }\n\
                 P1(int *x) { WRITE_ONCE(*x, 1); }\n\
                 P2(int *x) { }\n\
                 exists (x=1)",
            ),
        ),
    ];
    for (name, test) in &cases {
        assert_render_matches_reference(name, test);
        for order in rotations(test.threads.len()) {
            let variant = scrambled_names(&permute_threads(test, &order));
            assert_render_matches_reference(&format!("{name} {order:?}"), &variant);
            assert_eq!(canonical_text(&variant), canonical_text(test), "{name} {order:?}");
        }
    }
    let text = |name: &str| canonical_text(&cases.iter().find(|(n, _)| *n == name).unwrap().1);
    assert!(text("lock-register").contains("spin_lock(*q)"), "{}", text("lock-register"));
    assert!(text("lock-register").contains("synchronize_srcu(*d)"), "{}", text("lock-register"));
    assert!(text("absent-thread").contains("5:r3=2"), "{}", text("absent-thread"));
    // The three disjuncts are one conjunction: the disjunction collapses.
    assert!(!text("nested").contains("\\/"), "{}", text("nested"));
    assert!(!text("pointer-chain").contains("=7;"), "{}", text("pointer-chain"));
}

/// The load-bearing soundness property: canonicalization is a semantics-
/// preserving transformation, so checking the canonical form against the
/// real LKMM gives the same verdict *and the same counts* as the
/// original. (The cache only ever checks originals, but this is what
/// justifies sharing one entry between tests with equal canonical forms.)
#[test]
fn canonicalization_preserves_lkmm_verdicts_across_the_library() {
    use lkmm_exec::{check_test, EnumOptions};
    let model = lkmm::Lkmm::new();
    let opts = EnumOptions::default();
    for (name, test) in library() {
        let original = check_test(&model, &test, &opts)
            .unwrap_or_else(|e| panic!("{name}: original failed to enumerate: {e}"));
        let canon = canonicalize(&test);
        let canonical = check_test(&model, &canon, &opts)
            .unwrap_or_else(|e| panic!("{name}: canonical form failed to enumerate: {e}"));
        assert_eq!(original, canonical, "{name}: canonical form changed the LKMM result");
    }
}
