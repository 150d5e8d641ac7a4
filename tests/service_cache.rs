//! End-to-end cache correctness for the verdict store, driven through
//! the facade exactly as `herd-rs --store` drives it: a cold pass over
//! the library computes and persists, a warm pass over a reopened store
//! answers everything from disk with zero candidate enumerations and
//! result-identical outcomes, and a store with a torn or corrupted tail
//! recovers its valid prefix and recomputes only what was lost. The
//! keys themselves are pinned, so a change to the printer, the canonical
//! form or the hashing fails here instead of silently emptying every
//! warm store written before it.

use linux_kernel_memory_model::conformance::{MatrixOptions, ModelId, ModelSet};
use linux_kernel_memory_model::exec::EnumOptions;
use linux_kernel_memory_model::generator::{
    cycles_up_to, default_alphabet, generate, generate_contended,
};
use linux_kernel_memory_model::litmus::{library, parse, Test};
use linux_kernel_memory_model::service::hash::Fnv64;
use linux_kernel_memory_model::service::{
    BatchChecker, MultiBatchChecker, MultiColumn, Provenance, VerdictStore,
};
use linux_kernel_memory_model::ModelChoice;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// A unique temp path per test (concurrent test binaries must not collide).
fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lkmm-service-cache-{}-{tag}.bin", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn warm_library_pass_is_pure_replay_with_identical_results() {
    let path = temp_store("warm");
    let model = ModelChoice::Lkmm.model();

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 0);
        let mut checker = BatchChecker::new(model.as_ref(), store, "it");
        checker.check_library().unwrap()
    };
    assert_eq!(cold.hits, 0);
    assert!(cold.computed > 0);
    assert!(cold.candidates_enumerated > 0);

    // Reopen from disk: everything must replay, nothing may enumerate.
    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(store.recovery().truncated_bytes(), 0);
    assert_eq!(store.len(), cold.computed);
    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let warm = checker.check_library().unwrap();
    assert_eq!(warm.computed, 0);
    assert_eq!(warm.candidates_enumerated, 0);
    assert_eq!(warm.hits, cold.computed + cold.hits);
    assert_eq!(warm.deduped, cold.deduped);
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.key, w.key);
        assert_eq!(c.result(), w.result(), "{}: warm result differs from cold", c.name);
        assert_ne!(w.provenance, Provenance::Computed, "{}: warm pass recomputed", w.name);
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_is_truncated_and_recomputed() {
    let path = temp_store("torn");
    let model = ModelChoice::Lkmm.model();

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        let mut checker = BatchChecker::new(model.as_ref(), store, "it");
        checker.check_library().unwrap()
    };

    // Tear the last record: chop a few bytes off, as a crash mid-append
    // would.
    let file = OpenOptions::new().write(true).open(&path).unwrap();
    let len = file.metadata().unwrap().len();
    file.set_len(len - 5).unwrap();
    drop(file);

    let store = VerdictStore::open(&path).unwrap();
    assert!(store.recovery().truncated_bytes() > 0, "torn tail went unnoticed");
    assert_eq!(store.recovery().records, cold.computed - 1, "more than the tail was lost");
    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let warm = checker.check_library().unwrap();
    assert_eq!(warm.computed, 1, "exactly the torn record should recompute");
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.result(), w.result(), "{}: result changed across recovery", c.name);
    }

    // The recomputed record was appended: a third pass is pure replay.
    // (The previous checker must drop first — it holds the store lock.)
    drop(checker);
    let store = VerdictStore::open(&path).unwrap();
    assert_eq!(store.recovery().truncated_bytes(), 0);
    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let third = checker.check_library().unwrap();
    assert_eq!(third.computed, 0);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_mid_record_keeps_the_valid_prefix() {
    let path = temp_store("corrupt");
    let model = ModelChoice::Lkmm.model();

    let cold = {
        let store = VerdictStore::open(&path).unwrap();
        let mut checker = BatchChecker::new(model.as_ref(), store, "it");
        checker.check_library().unwrap()
    };

    // Flip one byte halfway into the log: the checksum of the record it
    // lands in must fail, and everything from that record on is dropped.
    let mut file = OpenOptions::new().read(true).write(true).open(&path).unwrap();
    let len = file.metadata().unwrap().len();
    let target = len / 2;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(target)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xff;
    file.seek(SeekFrom::Start(target)).unwrap();
    file.write_all(&byte).unwrap();
    drop(file);

    let store = VerdictStore::open(&path).unwrap();
    let recovered = store.recovery().records;
    assert!(recovered > 0, "prefix before the corruption was lost");
    assert!(recovered < cold.computed, "corruption went unnoticed");
    assert!(store.recovery().truncated_bytes() > 0);

    let mut checker = BatchChecker::new(model.as_ref(), store, "it");
    let warm = checker.check_library().unwrap();
    assert_eq!(warm.computed, cold.computed - recovered);
    assert_eq!(warm.hits + warm.deduped + warm.computed, cold.outcomes.len());
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.result(), w.result(), "{}: result changed across recovery", c.name);
    }

    std::fs::remove_file(&path).unwrap();
}

/// The library, every diy cycle up to length 4, and each cycle's
/// contended twin — the inputs the pinned digest covers.
fn pinned_corpus() -> Vec<Test> {
    let mut tests: Vec<Test> = library::all().iter().map(|pt| pt.test()).collect();
    let cycles = cycles_up_to(4, &default_alphabet());
    tests.extend(cycles.iter().map(|c| generate(c).unwrap()));
    tests.extend(cycles.iter().map(|c| generate_contended(c).unwrap()));
    tests
}

/// A campaign's checker: one column per model, salted the way
/// `drive_campaign` salts them under `MatrixOptions::default()`.
fn campaign_checker(set: &ModelSet) -> MultiBatchChecker<'_> {
    let salt = MatrixOptions::default().salt;
    let columns = ModelId::ALL
        .iter()
        .map(|&id| MultiColumn { model: set.get(id), salt: format!("{salt}|col:{}", id.column()) })
        .collect();
    MultiBatchChecker::new(columns, VerdictStore::in_memory()).with_options(EnumOptions::default())
}

/// Every cache key a campaign column or a default `herd-rs --store`
/// derives, and every printed test, hashed into one value. The digest
/// and the explicit keys were computed before the canonical render was
/// rewritten; they must never change without a `CANON_REVISION` bump.
#[test]
fn cache_keys_and_printed_tests_match_the_pinned_digest() {
    let set = ModelSet::standard();
    let multi = campaign_checker(&set);
    // `herd-rs --store` without `--salt`.
    let singles: Vec<BatchChecker<'_>> = ModelId::ALL
        .iter()
        .map(|&id| BatchChecker::new(set.get(id), VerdictStore::in_memory(), ""))
        .collect();
    let corpus = pinned_corpus();
    assert_eq!(corpus.len(), 355);
    let mut h = Fnv64::new();
    for test in &corpus {
        for col in 0..ModelId::ALL.len() {
            h.write(&multi.key_of(col, test).to_le_bytes());
        }
        for single in &singles {
            h.write(&single.key_of(test).to_le_bytes());
        }
        h.write(test.to_litmus_string().as_bytes());
    }
    assert_eq!(h.finish(), 0x80cb_1c62_b12f_fca4, "digest {:#018x}", h.finish());

    let lkmm = ModelId::LkmmNative.index();
    let herd = &singles[lkmm];
    let pinned: [(&str, u128, u128); 2] = [
        (
            "MP",
            0x14e0_fb2c_37f4_f704_e5ff_e412_e91e_cba1,
            0x38ca_5e39_5e63_81f1_0b0e_1048_e676_4380,
        ),
        (
            "SB",
            0x294e_b5a9_b77a_4e01_b170_ecee_1e43_2eb0,
            0x75ee_93e3_00f3_4ab9_e9fc_0bfe_42cf_539d,
        ),
    ];
    for (name, campaign, cli) in pinned {
        let test = library::by_name(name).unwrap().test();
        assert_eq!(multi.key_of(lkmm, &test), campaign, "{name}: campaign lkmm column key");
        assert_eq!(herd.key_of(&test), cli, "{name}: herd-rs --store key");
    }
    // A reparsed print keys like the original.
    let mp = library::by_name("MP").unwrap().test();
    assert_eq!(herd.key_of(&parse(&mp.to_litmus_string()).unwrap()), herd.key_of(&mp));
}
