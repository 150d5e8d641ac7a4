//! klitmus-style host runner: execute litmus tests on *this* machine's
//! real hardware with real threads (§5: "running litmus tests as kernel
//! modules was done using our new klitmus tool").
//!
//! Where the paper's klitmus runs tests inside the kernel with kthreads,
//! this runner uses std threads and Rust atomics with the natural mapping
//! of LK primitives:
//!
//! | LK primitive           | host implementation                   |
//! |------------------------|---------------------------------------|
//! | `READ_ONCE`/`WRITE_ONCE` | relaxed atomic load/store           |
//! | acquire / release      | `Ordering::Acquire` / `Release`       |
//! | `smp_rmb` / `smp_wmb`  | `fence(Acquire)` / `fence(Release)`   |
//! | `smp_mb`               | `fence(SeqCst)`                       |
//! | `smp_read_barrier_depends` | no-op (the host is not an Alpha)  |
//! | `xchg*` / `cmpxchg*`   | `swap` / `compare_exchange`           |
//! | RCU primitives         | the real [`lkmm_rcu::Urcu`] runtime   |
//! | `spin_lock`/`spin_unlock` | CAS-acquire loop / store-release   |
//!
//! Each test is lowered once ([`lkmm_exec::lower`]), as the enumerator
//! and the simulators lower it: the interpreter reads registers from
//! slots by id and memory cells by location index, and every `xchg`,
//! `cmpxchg` and arithmetic atomic is one `Rmw` statement. Every
//! iteration lines the threads up on a barrier, runs the bodies
//! concurrently, and records the final registers and memory. The final
//! states are counted by their term values, and each distinct one is
//! checked and rendered once, by the same `Program::holds` and
//! `Program::render` the other interpreters use. Each body's read-side
//! sections must balance, per RCU or SRCU domain, as the enumerator
//! demands: an unbalanced body is an error, never a panic in [`Urcu`]
//! or a grace period that waits forever. The key soundness
//! check — mirrored from Table 5 — is that no LKMM-forbidden outcome is
//! ever observed on real silicon.
//!
//! # Examples
//!
//! ```
//! use lkmm_klitmus::{run_on_host, HostConfig};
//!
//! let sb = lkmm_litmus::library::by_name("SB+mbs").unwrap().test();
//! let stats = run_on_host(&sb, &HostConfig { iterations: 1_000 }).unwrap();
//! assert_eq!(stats.observed, 0); // fenced store buffering never shows
//! ```

use lkmm_exec::lower::{atomic_result, Addr, BlockId, LExpr, LStmt, Node, Program, Term};
use lkmm_exec::{LocId, Val};
use lkmm_litmus::ast::{BinOp, FenceKind, RmwOrder, Test};
use lkmm_rcu::Urcu;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicI64, Ordering};
use std::sync::Barrier;

/// Host-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Number of iterations.
    pub iterations: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig { iterations: 100_000 }
    }
}

/// Aggregated host-run results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostStats {
    /// Iterations whose final state satisfied the condition proposition.
    pub observed: u64,
    /// Total iterations.
    pub total: u64,
    /// Histogram over final states of the condition's terms.
    pub histogram: BTreeMap<String, u64>,
}

/// Host-run failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostError {
    /// A construct with no operational meaning here: `__assume`, or a
    /// grace period inside the thread's own read-side section.
    Unsupported(&'static str),
    /// A register was read before being written (program bug).
    UninitialisedRegister(String),
    /// An integer, or an address outside the test's locations, was
    /// dereferenced (program bug).
    BadPointer,
    /// A thread left a read-side section (RCU or SRCU) it never entered,
    /// or its body ended inside one.
    UnbalancedRcu { thread: usize },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Unsupported(w) => write!(f, "unsupported on host: {w}"),
            HostError::UninitialisedRegister(r) => write!(f, "uninitialised register {r}"),
            HostError::BadPointer => write!(f, "dereferenced a non-pointer value"),
            HostError::UnbalancedRcu { thread } => {
                write!(f, "unbalanced RCU critical section in thread {thread}")
            }
        }
    }
}

impl std::error::Error for HostError {}

/// Pointers are encoded as negative integers so that plain `AtomicI64`
/// cells can hold both (litmus tests only use small non-negative data
/// values).
fn encode(v: Val) -> i64 {
    match v {
        Val::Int(i) => i,
        Val::Loc(l) => -(l.0 as i64) - 1,
    }
}

fn decode_loc(v: i64) -> Option<usize> {
    (v < 0).then(|| (-v - 1) as usize)
}

fn decode(v: i64) -> Val {
    decode_loc(v).map_or(Val::Int(v), |l| Val::Loc(LocId(l)))
}

/// Run `test` on the host.
///
/// # Errors
///
/// See [`HostError`]. A thread whose body fails still meets the others
/// at the end of that iteration, where every thread stops; the error
/// returned is the first in thread order. Nothing waits on a body that
/// stops early: it leaves its read-side sections, so grace periods end,
/// and a thread spinning on a lock, which the failed one may hold, stops.
pub fn run_on_host(test: &Test, config: &HostConfig) -> Result<HostStats, HostError> {
    let prog = Program::lower(test);
    // Reject unsupported constructs up front.
    let mut stmts = prog.threads.iter().flat_map(|code| &code.stmts);
    if stmts.any(|s| matches!(s, LStmt::Assume(_))) {
        return Err(HostError::Unsupported("__assume"));
    }
    let init: Vec<i64> = prog.init.iter().map(|&v| encode(v)).collect();
    let mem: Vec<AtomicI64> = init.iter().map(|&v| AtomicI64::new(v)).collect();
    let n_threads = prog.threads.len();
    let rcu = Urcu::new(n_threads);
    // One independent RCU domain per location doubles as the SRCU
    // implementation (srcu ≙ per-domain userspace RCU).
    let srcu: Vec<Urcu> = (0..prog.locs.len()).map(|_| Urcu::new(n_threads)).collect();
    let start = Barrier::new(n_threads);
    let finish = Barrier::new(n_threads);
    // Set by a thread whose body failed; `finish` orders the store
    // before every thread's load.
    let failed = AtomicBool::new(false);

    /// Per-worker result: its final registers, iteration after
    /// iteration, plus (thread 0 only) the memory snapshot per iteration.
    type WorkerOut = (Vec<Option<i64>>, Vec<Vec<i64>>);

    let joined = std::thread::scope(|scope| -> Result<Vec<WorkerOut>, HostError> {
        let mut handles = Vec::new();
        for tid in 0..n_threads {
            let (prog, mem, rcu, srcu) = (&prog, &mem, &rcu, &srcu);
            let (start, finish, failed, init) = (&start, &finish, &failed, &init);
            handles.push(scope.spawn(move || -> Result<WorkerOut, HostError> {
                let code = &prog.threads[tid];
                let mut finals = Vec::with_capacity(config.iterations as usize * code.names.len());
                let mut snapshots = Vec::new();
                let regs = vec![None; code.names.len()];
                let held = vec![0; 1 + srcu.len()];
                let mut interp = Interp { prog, tid, mem, rcu, srcu, failed, regs, held };
                for _ in 0..config.iterations {
                    // Thread 0 resets memory before releasing the pack;
                    // everyone else is parked on the start barrier.
                    if tid == 0 {
                        for (cell, &v) in mem.iter().zip(init) {
                            cell.store(v, Ordering::Relaxed);
                        }
                    }
                    start.wait();
                    interp.regs.fill(None);
                    interp.held.fill(0);
                    let mut body = interp.run(code.body);
                    if body.is_ok() && interp.held.iter().any(|&depth| depth > 0) {
                        body = Err(Some(HostError::UnbalancedRcu { thread: tid }));
                    }
                    if let Err(error) = &body {
                        if error.is_some() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        interp.leave_sections();
                    }
                    finals.extend_from_slice(&interp.regs);
                    finish.wait();
                    if let Err(Some(error)) = body {
                        return Err(error);
                    }
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    // All bodies are done; snapshot the final memory
                    // before the next iteration's reset.
                    if tid == 0 {
                        snapshots.push(mem.iter().map(|c| c.load(Ordering::Relaxed)).collect());
                    }
                }
                Ok((finals, snapshots))
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })?;

    // Count final states by their term values, then check and render
    // each distinct one once.
    let mut outcomes: HashMap<Vec<Option<Val>>, u64> = HashMap::new();
    for (i, snapshot) in joined[0].1.iter().enumerate() {
        let vals = prog
            .terms
            .iter()
            .map(|term| match *term {
                Term::Reg { thread, reg } => {
                    let regs = prog.threads.get(thread)?.names.len();
                    joined[thread].0[i * regs + reg? as usize].map(decode)
                }
                Term::Loc(loc) => Some(decode(snapshot[loc? as usize])),
            })
            .collect();
        *outcomes.entry(vals).or_insert(0) += 1;
    }
    let mut stats =
        HostStats { observed: 0, total: config.iterations, histogram: BTreeMap::new() };
    for (vals, n) in outcomes {
        if prog.holds(&test.condition.prop, &vals) {
            stats.observed += n;
        }
        *stats.histogram.entry(prog.render(&vals, " ")).or_insert(0) += n;
    }
    Ok(stats)
}

struct Interp<'a> {
    prog: &'a Program,
    tid: usize,
    mem: &'a [AtomicI64],
    rcu: &'a Urcu,
    srcu: &'a [Urcu],
    /// Set by a thread whose body failed.
    failed: &'a AtomicBool,
    /// Register slots, by id.
    regs: Vec<Option<i64>>,
    /// Read-side sections this thread is inside, per domain: RCU, then
    /// the SRCU domain of each location.
    held: Vec<u32>,
}

fn ordering(order: RmwOrder) -> Ordering {
    match order {
        RmwOrder::Relaxed => Ordering::Relaxed,
        RmwOrder::Acquire => Ordering::Acquire,
        RmwOrder::Release => Ordering::Release,
        RmwOrder::Full => Ordering::SeqCst,
    }
}

impl Interp<'_> {
    /// Run a block; `Err(None)` when the body stopped because another
    /// thread failed.
    fn run(&mut self, block: BlockId) -> Result<(), Option<HostError>> {
        let prog = self.prog;
        for stmt in prog.threads[self.tid].block(block) {
            self.step(stmt)?;
        }
        Ok(())
    }

    fn reg(&self, reg: u32) -> Result<i64, HostError> {
        self.regs[reg as usize].ok_or_else(|| {
            let names = &self.prog.threads[self.tid].names;
            HostError::UninitialisedRegister(names[reg as usize].clone())
        })
    }

    fn addr(&self, a: Addr) -> Result<usize, HostError> {
        match a {
            Addr::Loc(l) => Ok(l as usize),
            Addr::Reg(r) => decode_loc(self.reg(r)?)
                .filter(|&l| l < self.mem.len())
                .ok_or(HostError::BadPointer),
        }
    }

    fn eval(&self, e: LExpr) -> Result<i64, HostError> {
        self.eval_node(e.root)
    }

    fn eval_node(&self, node: u32) -> Result<i64, HostError> {
        Ok(match self.prog.exprs[node as usize] {
            Node::Const(c) => c,
            Node::Reg { reg, .. } => self.reg(reg)?,
            Node::Loc(l) => encode(Val::Loc(LocId(l as usize))),
            Node::Not(inner) => i64::from(self.eval_node(inner)? == 0),
            Node::Bin(op, a, b) => {
                let (x, y) = (self.eval_node(a)?, self.eval_node(b)?);
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Xor => x ^ y,
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Eq => i64::from(x == y),
                    BinOp::Ne => i64::from(x != y),
                    BinOp::Lt => i64::from(x < y),
                    BinOp::Le => i64::from(x <= y),
                    BinOp::Gt => i64::from(x > y),
                    BinOp::Ge => i64::from(x >= y),
                }
            }
        })
    }

    /// Leave every read-side section this thread is inside, so that no
    /// grace period waits on a body that stopped inside one.
    fn leave_sections(&self) {
        for domain in std::iter::once(self.rcu).chain(self.srcu) {
            domain.leave_read_sections(self.tid);
        }
    }

    /// One RCU statement (`op` is `RcuLock`, `RcuUnlock` or `SyncRcu`) on
    /// domain `d`: 0 is RCU, `1 + l` the SRCU domain of location `l`.
    fn section(&mut self, d: usize, op: FenceKind) -> Result<(), HostError> {
        let (srcu, tid) = (self.srcu, self.tid);
        let domain = if d == 0 { self.rcu } else { &srcu[d - 1] };
        let held = &mut self.held[d];
        match op {
            FenceKind::RcuLock => {
                *held += 1;
                domain.read_lock(tid);
            }
            FenceKind::RcuUnlock if *held == 0 => {
                return Err(HostError::UnbalancedRcu { thread: tid })
            }
            FenceKind::RcuUnlock => {
                *held -= 1;
                domain.read_unlock(tid);
            }
            _ if *held > 0 => {
                return Err(HostError::Unsupported(
                    "a grace period inside its own read-side section",
                ))
            }
            _ => domain.synchronize_rcu(),
        }
        Ok(())
    }

    fn step(&mut self, stmt: &LStmt) -> Result<(), Option<HostError>> {
        match *stmt {
            LStmt::Load { dst, addr, acquire, .. } => {
                let l = self.addr(addr)?;
                let order = if acquire { Ordering::Acquire } else { Ordering::Relaxed };
                self.regs[dst as usize] = Some(self.mem[l].load(order));
            }
            LStmt::Store { addr, value, release } => {
                let l = self.addr(addr)?;
                let v = self.eval(value)?;
                self.mem[l].store(v, if release { Ordering::Release } else { Ordering::Relaxed });
            }
            LStmt::Fence(kind) => match kind {
                FenceKind::Rmb => fence(Ordering::Acquire),
                FenceKind::Wmb => fence(Ordering::Release),
                FenceKind::Mb => fence(Ordering::SeqCst),
                FenceKind::RbDep => {} // not an Alpha
                FenceKind::RcuLock | FenceKind::RcuUnlock | FenceKind::SyncRcu => {
                    self.section(0, kind)?
                }
            },
            LStmt::Rmw { order, dst, addr, value, expected, compute, dst_new } => {
                let cell = &self.mem[self.addr(addr)?];
                let expected = expected.map(|e| self.eval(e)).transpose()?;
                let v = self.eval(value)?;
                let ord = ordering(order);
                let old = match (expected, compute) {
                    (Some(exp), _) => {
                        let failure =
                            if order == RmwOrder::Release { Ordering::Relaxed } else { ord };
                        match cell.compare_exchange(exp, v, ord, failure) {
                            Ok(o) | Err(o) => o,
                        }
                    }
                    (None, None) => cell.swap(v, ord),
                    (None, Some(BinOp::Sub)) => cell.fetch_sub(v, ord),
                    (None, Some(BinOp::And)) => cell.fetch_and(v, ord),
                    (None, Some(BinOp::Or)) => cell.fetch_or(v, ord),
                    (None, Some(BinOp::Xor)) => cell.fetch_xor(v, ord),
                    (None, Some(_)) => cell.fetch_add(v, ord),
                };
                if let Some(d) = dst {
                    let new = compute.and_then(|op| atomic_result(op, old, v));
                    self.regs[d as usize] = Some(if dst_new { new.unwrap_or(old) } else { old });
                }
            }
            LStmt::Assign { dst, value } => {
                self.regs[dst as usize] = Some(self.eval(value)?);
            }
            LStmt::If { cond, then_, else_ } => {
                self.run(if self.eval(cond)? != 0 { then_ } else { else_ })?;
            }
            LStmt::SrcuLock(domain) => self.section(1 + self.addr(domain)?, FenceKind::RcuLock)?,
            LStmt::SrcuUnlock(domain) => {
                self.section(1 + self.addr(domain)?, FenceKind::RcuUnlock)?
            }
            LStmt::SyncSrcu(domain) => self.section(1 + self.addr(domain)?, FenceKind::SyncRcu)?,
            LStmt::SpinLock(addr) => {
                let l = self.addr(addr)?;
                while self.mem[l]
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    // A failed thread may hold the lock for good.
                    if self.failed.load(Ordering::Relaxed) {
                        return Err(None);
                    }
                    std::hint::spin_loop();
                }
            }
            LStmt::SpinUnlock(addr) => {
                let l = self.addr(addr)?;
                self.mem[l].store(0, Ordering::Release);
            }
            LStmt::Assume(_) => return Err(Some(HostError::Unsupported("__assume"))),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_litmus::library;

    fn run(name: &str, iters: u64) -> HostStats {
        let t = library::by_name(name).unwrap().test();
        run_on_host(&t, &HostConfig { iterations: iters }).unwrap()
    }

    #[test]
    fn fenced_idioms_never_observed_on_host() {
        // Table 5 soundness on real silicon: LKMM-forbidden outcomes must
        // not appear, whatever the host architecture.
        for name in ["SB+mbs", "MP+wmb+rmb", "WRC+po-rel+rmb", "LB+ctrl+mb", "RWC+mbs"] {
            let stats = run(name, 20_000);
            assert_eq!(stats.observed, 0, "{name} observed on the host!");
        }
    }

    #[test]
    fn rcu_guarantee_holds_on_host() {
        // Runs the real Urcu runtime under the litmus harness.
        for name in ["RCU-MP", "RCU-deferred-free"] {
            let stats = run(name, 3_000);
            assert_eq!(stats.observed, 0, "{name} observed on the host!");
        }
    }

    #[test]
    fn histogram_accounts_for_all_iterations() {
        let stats = run("MP", 5_000);
        assert_eq!(stats.histogram.values().sum::<u64>(), 5_000);
        assert_eq!(stats.total, 5_000);
    }

    #[test]
    fn strong_outcomes_appear() {
        // The non-weak outcomes of MP (e.g. r0=1, r1=1 or r0=0) dominate.
        let stats = run("MP", 5_000);
        assert!(stats.histogram.len() >= 2, "{:?}", stats.histogram);
    }

    #[test]
    fn pointer_tests_run() {
        let stats = run("MP+wmb+addr-acq", 5_000);
        assert_eq!(stats.observed, 0, "acquire-protected pointer chase broke");
    }

    #[test]
    fn rejects_assume() {
        let t = lkmm_litmus::parse(
            "C a\n{ x=0; }\nP0(int *x) { int r; r = READ_ONCE(*x); __assume(r == 0); }\n\
             exists (x=0)",
        )
        .unwrap();
        assert!(matches!(
            run_on_host(&t, &HostConfig { iterations: 1 }),
            Err(HostError::Unsupported(_))
        ));
    }
}
