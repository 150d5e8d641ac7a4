//! Pinned behaviour of the two interpreters that run litmus programs
//! outside the simulators: the enumerator's per-thread interpreter
//! (`exec::thread`, through every candidate it leads to) and the
//! klitmus host runner.
//!
//! `tests/prune.rs` compares the two witness strategies with each
//! other, so it cannot see a change both share, such as one in
//! `run_thread`. These digests can: each covers every candidate's
//! events, structure, witness and condition verdict, and every test's
//! herd-style state histogram.

use linux_kernel_memory_model::algorithms::{all_programs, FamilyParams};
use linux_kernel_memory_model::exec::enumerate::{try_for_each_execution, EnumOptions};
use linux_kernel_memory_model::exec::model::AllowAll;
use linux_kernel_memory_model::exec::states::collect_states;
use linux_kernel_memory_model::generator::{
    cycles_up_to, default_alphabet, generate, generate_contended,
};
use linux_kernel_memory_model::klitmus::{run_on_host, HostConfig};
use linux_kernel_memory_model::litmus::{library, parse, Test};
use linux_kernel_memory_model::relation::Relation;
use linux_kernel_memory_model::service::hash::Fnv64;
use std::fmt::Write;
use std::ops::ControlFlow;

/// Fold every candidate of `test`, then its state histogram, into `h`;
/// returns the number of candidates.
fn hash_test(test: &Test, h: &mut Fnv64) -> usize {
    let mut line = String::new();
    let mut count = 0;
    let prop = &test.condition.prop;
    let run = try_for_each_execution(test, &EnumOptions::default(), &mut |x| {
        line.clear();
        for e in x.events.iter() {
            let _ = write!(line, "{:?}{:?};", e.thread, e.kind);
        }
        let s = &x.shape;
        for rel in [&s.po, &s.addr, &s.data, &s.ctrl, &s.rmw, &x.rf, &x.co] {
            push_pairs(rel, &mut line);
        }
        let _ = writeln!(line, "{}", x.satisfies_prop(prop));
        h.write(line.as_bytes());
        count += 1;
        ControlFlow::Continue(())
    });
    let states = match (run, collect_states(&AllowAll, test, &EnumOptions::default())) {
        (Ok(_), Ok(summary)) => summary.to_string(),
        (run, states) => format!("{:?} {:?}", run.err(), states.err()),
    };
    h.write(format!("{}\n{states}\n", test.name).as_bytes());
    count
}

fn push_pairs(rel: &Relation, out: &mut String) {
    for (a, b) in rel.iter() {
        let _ = write!(out, "{a}>{b},");
    }
    out.push('|');
}

fn digest(tests: impl IntoIterator<Item = Test>) -> (usize, usize, u64) {
    let mut h = Fnv64::new();
    let (mut tests_seen, mut candidates) = (0, 0);
    for t in tests {
        candidates += hash_test(&t, &mut h);
        tests_seen += 1;
    }
    (tests_seen, candidates, h.finish())
}

/// The paper library and every algorithm program at its default size.
#[test]
fn enumerator_library_and_algorithms_are_pinned() {
    let programs = all_programs(&FamilyParams::default()).unwrap();
    let tests = library::all()
        .iter()
        .map(|pt| pt.test())
        .chain(programs.into_iter().map(|p| p.test));
    let pinned = digest(tests);
    assert_eq!(pinned, (57, 2858, 0x089c_f47c_1785_39a1), "{:#018x}", pinned.2);
}

/// Every diy cycle up to length 5 and every tenth contended twin of
/// them.
#[test]
fn enumerator_cycles_are_pinned() {
    let cycles = cycles_up_to(5, &default_alphabet());
    let tests = cycles
        .iter()
        .map(|c| generate(c).unwrap())
        .chain(cycles.iter().step_by(10).map(|c| generate_contended(c).unwrap()));
    let pinned = digest(tests);
    assert_eq!(pinned, (3948, 51182, 0x0dd7_e53f_0fde_8d46), "{:#018x}", pinned.2);
}

/// Single-thread programs, deterministic even on real threads, that
/// between them use every statement kind the host runner interprets.
const HOST_PROGRAMS: &[&str] = &[
    "C host-pointer-loads\n{ p=&x; x=5; }\n\
     P0(int **p, int *x) { int *r0; int r1; int r2; int r3; int *r4; \
     r0 = READ_ONCE(*p); r1 = READ_ONCE(*r0); r2 = smp_load_acquire(r0); \
     r3 = rcu_dereference(*r0); r4 = rcu_dereference(*p); }\n\
     exists (0:r0=&x /\\ 0:r1=5 /\\ 0:r2=5 /\\ 0:r3=5 /\\ 0:r4=&x)\n",
    "C host-pointer-stores\n{ p=&x; x=0; y=0; }\n\
     P0(int **p, int *x, int *y) { int *r0; int r1; \
     r0 = READ_ONCE(*p); WRITE_ONCE(*r0, 1); r1 = READ_ONCE(*x); \
     smp_store_release(r0, 2); rcu_assign_pointer(*p, &y); WRITE_ONCE(*y, &x); }\n\
     exists (x=2 /\\ p=&y /\\ y=&x /\\ 0:r1=1)\n",
    "C host-xchg\n{ x=0; }\n\
     P0(int *x) { int r0; int r1; int r2; int r3; \
     r0 = xchg(x, 1); r1 = xchg_relaxed(x, 2); r2 = xchg_acquire(x, 3); \
     r3 = xchg_release(x, r2 + 1); }\n\
     exists (0:r0=0 /\\ 0:r1=1 /\\ 0:r2=2 /\\ 0:r3=3 /\\ x=3)\n",
    "C host-cmpxchg\n{ x=1; }\n\
     P0(int *x) { int r0; int r1; int r2; int r3; \
     r0 = cmpxchg(x, 1, 2); r1 = cmpxchg_acquire(x, 1, 3); \
     r2 = cmpxchg_relaxed(x, r0 + 1, 5); r3 = cmpxchg_release(x, 9, 7); }\n\
     exists (0:r0=1 /\\ 0:r1=2 /\\ 0:r2=2 /\\ 0:r3=5 /\\ x=5)\n",
    "C host-atomics\n{ x=0; y=0; }\n\
     P0(int *x, int *y) { int r0; int r1; int r2; int r3; int r4; \
     atomic_add(3, x); atomic_sub(1, x); atomic_or(8, x); atomic_and(11, x); \
     atomic_xor(1, x); r0 = atomic_add_return(2, x); r1 = atomic_fetch_sub(1, x); \
     r2 = atomic_fetch_or_relaxed(16, x); r3 = atomic_xor_return_release(r2, y); \
     r4 = atomic_fetch_and_acquire(6, x); }\n\
     exists (0:r0=13 /\\ 0:r1=13 /\\ 0:r2=12 /\\ 0:r3=12 /\\ 0:r4=28 /\\ x=4 /\\ y=12)\n",
    "C host-branches\n{ x=1; y=0; }\n\
     P0(int *x, int *y) { int r0; int r1; int r2; int r3; int r4; \
     r0 = READ_ONCE(*x); \
     if (r0 == 1) { WRITE_ONCE(*y, 1); if (r0 != 1) { r1 = 5; } else { r1 = 6; } } \
     else { WRITE_ONCE(*y, 2); } \
     if (r0 > 1) { r2 = 1; } else { r2 = (r0 + 3) * 2 - 1; } \
     r3 = !r0; r4 = ((r2 ^ 5) & 6) | ((r0 < 2) + (r0 <= 0) + (r0 >= 1)); }\n\
     exists (0:r1=6 /\\ 0:r2=7 /\\ 0:r3=0 /\\ y=1 /\\ 0:r4=2)\n",
    "C host-fences\n{ x=0; y=0; }\n\
     P0(int *x, int *y) { int r0; \
     WRITE_ONCE(*x, 1); smp_wmb(); smp_mb(); smp_rmb(); smp_read_barrier_depends(); \
     rcu_read_lock(); r0 = READ_ONCE(*x); rcu_read_unlock(); synchronize_rcu(); \
     WRITE_ONCE(*y, r0); }\n\
     exists (y=1)\n",
    "C host-srcu\n{ x=0; }\n\
     P0(srcu_struct *ss, int *x) { int r0; \
     srcu_read_lock(ss); WRITE_ONCE(*x, 1); srcu_read_unlock(ss); synchronize_srcu(ss); \
     r0 = READ_ONCE(*x); }\n\
     exists (0:r0=1 /\\ x=1)\n",
    "C host-spinlock\n{ s=0; x=0; }\n\
     P0(spinlock_t *s, int *x) { int r0; int r1; \
     spin_lock(s); WRITE_ONCE(*x, 1); r0 = READ_ONCE(*s); spin_unlock(s); \
     r1 = READ_ONCE(*s); }\n\
     exists (0:r0=1 /\\ 0:r1=0 /\\ x=1)\n",
    "C host-uninitialised-register\n{ x=0; }\n\
     P0(int *x) { int r0; int r1; r1 = READ_ONCE(*x); if (r1 == 1) { r0 = 1; } \
     WRITE_ONCE(*x, r0); }\n\
     exists (x=0)\n",
    "C host-integer-dereference\n{ x=3; }\n\
     P0(int *x) { int r0; int r1; r0 = READ_ONCE(*x); r1 = READ_ONCE(*r0); }\n\
     exists (0:r1=0)\n",
    "C host-unnamed-register\n{ x=0; }\n\
     P0(int *x) { int r0; r0 = READ_ONCE(*x); if (r0 == 1) { r1 = 2; } }\n\
     exists (0:r0=0 /\\ 0:r1=2 \\/ 0:r7=0 \\/ z=0)\n",
    "C host-assume\n{ x=0; }\n\
     P0(int *x) { int r0; r0 = READ_ONCE(*x); __assume(r0 == 0); }\n\
     exists (0:r0=0)\n",
];

/// The exact `HostStats`, or the error, of every host program.
#[test]
fn host_runner_results_are_pinned() {
    let mut text = String::new();
    for src in HOST_PROGRAMS {
        let test = parse(src).unwrap();
        let result = run_on_host(&test, &HostConfig { iterations: 3 });
        let _ = writeln!(text, "{} {result:?}", test.name);
    }
    let digest = linux_kernel_memory_model::service::hash::fnv64(text.as_bytes());
    assert_eq!(digest, 0x7d31_3af8_7731_c988, "{digest:#018x}\n{text}");
}
