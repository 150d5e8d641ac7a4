//! Every native model must agree with its cat transcription on every
//! candidate execution — the "formal AND executable" guarantee extended
//! from the LKMM to the whole model tower. The inputs are the paper
//! library (minus its RCU tests, which the hardware transcriptions do not
//! model) and every generated diy cycle up to length 4.

use lkmm_cat::CatModel;
use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
use lkmm_exec::ConsistencyModel;
use lkmm_generator::{cycles_up_to, default_alphabet, generate};
use lkmm_litmus::library;
use lkmm_models::{Armv8, Power, Sc, X86Tso};

fn check_pair(native: &dyn ConsistencyModel, cat_src: &str) {
    let cat = CatModel::parse(cat_src).unwrap();
    let library = library::all().iter().filter(|p| !p.name.starts_with("RCU")).map(|p| p.test());
    let generated = cycles_up_to(4, &default_alphabet()).into_iter().map(|c| generate(&c).unwrap());
    let (mut tests, mut candidates) = (0usize, 0usize);
    for t in library.chain(generated) {
        tests += 1;
        for_each_execution(&t, &EnumOptions::default(), &mut |x| {
            candidates += 1;
            assert_eq!(
                cat.allows(x),
                native.allows(x),
                "{} on {}: cat/native disagree\n{x}",
                native.name(),
                t.name
            );
        })
        .unwrap();
    }
    assert!(tests > 150 && candidates > 600, "only {tests} tests, {candidates} candidates");
}

#[test]
fn sc_native_matches_cat() {
    check_pair(&Sc, lkmm_cat::builtin::SC_CAT);
}

#[test]
fn armv8_native_matches_cat() {
    check_pair(&Armv8, lkmm_cat::builtin::ARMV8_CAT);
}

#[test]
fn power_native_matches_cat() {
    check_pair(&Power, lkmm_cat::builtin::POWER_CAT);
}

#[test]
fn tso_native_matches_cat() {
    check_pair(&X86Tso, lkmm_cat::builtin::X86_TSO_CAT);
}
