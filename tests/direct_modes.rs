//! The bytes of `herd-rs`'s direct modes, pinned: FILE, `--models` and
//! `--library`, each run as a child process of the test profile's
//! binary.
//!
//! Every row runs in one temp directory with relative paths, so no
//! output names a path that changes from run to run. A row's digest is
//! `fnv64` over each run's exit code, stdout and stderr, with the
//! `--store` summary line's wall-clock `N us` masked. A `--store` row
//! runs twice in the same directory, cold then warm, and its digest
//! covers both runs. The directory is removed when the tests pass.

use linux_kernel_memory_model::service::hash::fnv64;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_herd-rs");

/// The litmus files every table reads, by name.
const FILES: &[(&str, &str)] = &[
    (
        "sb.litmus",
        "C SB\n{ x=0; y=0; }\n\
         P0(int *x, int *y) { WRITE_ONCE(*x, 1); int r0; r0 = READ_ONCE(*y); }\n\
         P1(int *x, int *y) { WRITE_ONCE(*y, 1); int r0; r0 = READ_ONCE(*x); }\n\
         exists (0:r0=0 /\\ 1:r0=0)\n",
    ),
    (
        "mp.litmus",
        "C MP+wmb+rmb\n{ x=0; y=0; }\n\
         P0(int *x, int *y) { WRITE_ONCE(*x, 1); smp_wmb(); WRITE_ONCE(*y, 1); }\n\
         P1(int *x, int *y) { int r0; int r1; r0 = READ_ONCE(*y); smp_rmb(); \
         r1 = READ_ONCE(*x); }\n\
         exists (1:r0=1 /\\ 1:r1=0)\n",
    ),
    // Three threads each writing their own value to `x`, then reading it
    // twice: 4 096 pre-executions, enough to split over workers.
    (
        "stress.litmus",
        "C stress\n{ x=0; }\n\
         P0(int *x) { int r0; int r1; WRITE_ONCE(*x, 1); r0 = READ_ONCE(*x); \
         r1 = READ_ONCE(*x); }\n\
         P1(int *x) { int r0; int r1; WRITE_ONCE(*x, 2); r0 = READ_ONCE(*x); \
         r1 = READ_ONCE(*x); }\n\
         P2(int *x) { int r0; int r1; WRITE_ONCE(*x, 3); r0 = READ_ONCE(*x); \
         r1 = READ_ONCE(*x); }\n\
         exists (0:r0=1)\n",
    ),
    // An enumeration error: the read-side section is closed, never opened.
    (
        "unbalanced.litmus",
        "C unbalanced\n{ x=0; }\nP0(int *x) { rcu_read_unlock(); WRITE_ONCE(*x, 1); }\n\
         exists (x=1)\n",
    ),
    ("broken.litmus", "C broken {\n"),
];

/// A scratch directory holding [`FILES`]: removed on drop when the test
/// passes, kept for debugging when it panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("lkmm-direct-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in FILES {
            std::fs::write(dir.join(name), text).unwrap();
        }
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Stderr with the `--store` summary line's `N us` masked.
fn masked(stderr: &str) -> String {
    let mask = |line: &str| match line.strip_suffix(" us").and_then(|l| l.rsplit_once(", ")) {
        Some((head, n)) if n.bytes().all(|b| b.is_ascii_digit()) => format!("{head}, N us"),
        _ => line.to_string(),
    };
    stderr.lines().map(|line| mask(line) + "\n").collect()
}

/// One run of `herd-rs args` in `dir`: exit code, stdout and masked
/// stderr.
fn run(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .env_remove("LKMM_FAULTPOINTS")
        .output()
        .expect("spawn herd-rs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    format!(
        "exit {:?}\n{stdout}--\n{}",
        out.status.code(),
        masked(&stderr)
    )
}

/// Run every row of `table` in a fresh directory and compare each
/// row's digest with its pin; a mismatch names every row that moved,
/// with its output.
fn check_table(tag: &str, table: &[(&[&str], u64)]) {
    let dir = TempDir::new(tag);
    let mut moved = String::new();
    for &(args, pin) in table {
        let passes = if args.contains(&"--store") { 2 } else { 1 };
        let runs: String = (0..passes).map(|_| run(&dir.0, args)).collect();
        let digest = fnv64(runs.as_bytes());
        if digest != pin {
            moved += &format!("{args:?} reads {digest:#018x}, pinned {pin:#018x}:\n{runs}\n");
        }
    }
    assert!(moved.is_empty(), "{moved}");
}

#[test]
fn file_mode_bytes_are_pinned() {
    check_table(
        "file",
        &[
            (&["sb.litmus"], 0xa5e5_3376_7370_7450),
            (&["--model", "lkmm-cat", "sb.litmus"], 0xa5e5_3376_7370_7450),
            (&["--model", "sc", "mp.litmus"], 0x33a7_a672_8b68_1fa0),
            (&["--model", "c11", "mp.litmus"], 0x2650_850e_0540_df0d),
            (&["--jobs", "4", "stress.litmus"], 0x2527_ebe4_8325_baa7),
            (
                &["--model", "sc", "-j", "1", "stress.litmus"],
                0xfbe7_6dc4_3f4c_154a,
            ),
            (&["--early-exit", "sb.litmus"], 0xa5e5_3376_7370_7450),
            (
                &["--early-exit", "--jobs", "4", "stress.litmus"],
                0x7919_56af_aa78_6c63,
            ),
            (&["--states", "sb.litmus"], 0x7284_0882_f5e8_735d),
            (&["--dot", "mp.litmus"], 0xd52e_7868_49df_a514),
            (
                &["--budget-candidates", "1", "sb.litmus"],
                0x958e_0804_82ad_cdd7,
            ),
            (&["--budget-steps", "3", "mp.litmus"], 0x08c1_114d_ac6c_852b),
            (&["unbalanced.litmus"], 0xfe3a_e429_9f56_a0d8),
            (&["missing.litmus"], 0x65ae_61e2_597e_63ff),
            (&["broken.litmus"], 0x7519_2804_7387_1183),
            (
                &["--store", "file.vstore", "sb.litmus"],
                0x1d70_3433_4a87_bd0f,
            ),
            (
                &[
                    "--store",
                    "salted.vstore",
                    "--salt",
                    "v2",
                    "--model",
                    "sc",
                    "mp.litmus",
                ],
                0x9796_2bf8_e91e_a337,
            ),
            (
                &[
                    "--store",
                    "starved.vstore",
                    "--budget-candidates",
                    "1",
                    "sb.litmus",
                ],
                0xfe6a_223f_a066_a013,
            ),
            (
                &["--store", "unbalanced.vstore", "unbalanced.litmus"],
                0x2409_9d5e_bb23_9d85,
            ),
        ],
    );
}

#[test]
fn models_mode_bytes_are_pinned() {
    check_table(
        "models",
        &[
            (
                &[
                    "--models",
                    "lkmm,lkmm-cat,sc,tso,armv8,power,c11",
                    "sb.litmus",
                ],
                0x78fc_5caf_124f_6ada,
            ),
            (
                &[
                    "--models",
                    "lkmm,lkmm-cat,sc,tso,armv8,power,c11",
                    "mp.litmus",
                ],
                0x39ea_677c_fd42_c597,
            ),
            (
                &["--models", "lkmm,sc,c11", "--jobs", "4", "stress.litmus"],
                0x2413_4fb0_7a39_978c,
            ),
            (
                &[
                    "--models",
                    "lkmm,sc",
                    "--budget-candidates",
                    "2",
                    "sb.litmus",
                ],
                0x79d5_290c_9cc4_38f1,
            ),
            (
                &["--models", "sc,tso", "--enum-stats", "sb.litmus"],
                0x1d66_4259_06db_bd2e,
            ),
            (
                &[
                    "--models",
                    "sc,c11",
                    "--budget-candidates",
                    "2",
                    "--enum-stats",
                    "sb.litmus",
                ],
                0x8f1e_42ed_c4e2_6307,
            ),
            (
                &["--models", "sc,sc,tso", "mp.litmus"],
                0x286b_514b_e4e1_e1db,
            ),
            (
                &["--models", "lkmm,sc", "unbalanced.litmus"],
                0xdeaa_23ac_4c47_a1f3,
            ),
        ],
    );
}

#[test]
fn library_mode_bytes_are_pinned() {
    check_table(
        "library",
        &[
            (&["--library"], 0x053c_b8c8_71d4_c08c),
            (&["--library", "--jobs", "4"], 0x053c_b8c8_71d4_c08c),
            (&["--library", "--early-exit"], 0x9ed3_ac00_702a_4704),
            (
                &["--library", "--early-exit", "--jobs", "1"],
                0x9ed3_ac00_702a_4704,
            ),
            (&["--library", "--model", "lkmm-cat"], 0x053c_b8c8_71d4_c08c),
            (&["--library", "--model", "c11"], 0xb90f_fe4c_4bb7_b500),
            (
                &["--library", "--budget-candidates", "5"],
                0xbca2_97de_2b32_38c8,
            ),
            (
                &["--library", "--budget-steps", "50"],
                0x59da_9c72_a657_14cd,
            ),
            (
                &["--library", "--budget-ms", "3600000"],
                0x053c_b8c8_71d4_c08c,
            ),
            (
                &["--library", "--store", "library.vstore"],
                0xe8aa_f166_0db9_4c44,
            ),
            (
                &[
                    "--library",
                    "--store",
                    "starved.vstore",
                    "--budget-candidates",
                    "5",
                ],
                0x3f6a_5e90_2110_eb90,
            ),
            (
                &["--library", "--store", "stats.vstore", "--enum-stats"],
                0x447b_3b09_0e2f_4353,
            ),
            // Without a store: the same counter lines as the cold run above.
            (&["--library", "--enum-stats"], 0x86de_4eed_8b02_4c7c),
            (
                &[
                    "--library",
                    "--store",
                    "salted.vstore",
                    "--model",
                    "sc",
                    "--salt",
                    "x",
                ],
                0x8216_1599_98ad_5df0,
            ),
        ],
    );
}
