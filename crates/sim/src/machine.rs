//! The parametric operational machine.
//!
//! One machine skeleton covers all five architectures:
//!
//! * threads *issue* statements in program order (no branch speculation —
//!   control dependencies stall issue until the branch inputs are ready);
//! * issued operations sit in a bounded window and *perform* out of order,
//!   subject to per-architecture readiness rules (same-location program
//!   order, dependencies, fences, acquire/release);
//! * on x86 the window is in-order and stores retire into a FIFO *store
//!   buffer* drained asynchronously (TSO);
//! * on Power a performed store is appended to its location's coherence
//!   list and *propagates* to each other thread at an independent random
//!   time, subject to cumulativity constraints carried as per-write
//!   dependency sets (release: everything observed; after `smp_wmb`: own
//!   earlier stores).
//!
//! The machine runs on a test lowered once (`lkmm_exec::lower`): locations
//! and registers are dense indices. Every register write gets a fresh
//! SSA id — the next slot of its thread's SSA vector, which records the
//! source register and, once performed, the value — so a reused register
//! never aliases across loop-free program order. Issuing a store or RMW
//! copies the SSA ids its expressions read into the thread's leaf arena;
//! Power's dependency sets and grace-period snapshots live in arenas of
//! the machine too. `Machine::reset` clears every buffer in place, so
//! the Monte-Carlo runner reuses one machine for all its iterations.
//!
//! `Machine::enabled_actions` lists actions in a fixed order (per
//! thread: issue, window performs oldest first, drain; then Power
//! propagations by thread and location). The runner draws one of them
//! from a seeded stream, so that order is part of every seeded result.

use crate::rng::SplitMix64;
use lkmm_exec::lower::{
    atomic_result, binop, Addr, BlockId, ExprId, LExpr, LStmt, Node, Program, Term, ONE, ZERO,
};
use lkmm_exec::{LocId, Val};
use lkmm_litmus::ast::{BinOp, FenceKind, RmwOrder};
use std::fmt;

/// A simulated architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arch {
    /// In-order + FIFO store buffer (TSO).
    X86,
    /// Out-of-order, multi-copy atomic, native acquire/release.
    Armv8,
    /// Out-of-order, multi-copy atomic, acquire/release via full `dmb`.
    Armv7,
    /// Out-of-order, non-multi-copy-atomic store propagation.
    Power,
    /// DEC Alpha: like Power, but with banked caches — a load may return
    /// a *stale* coherence version unless `smp_read_barrier_depends` (or
    /// a stronger barrier) has synchronised the banks. The only machine
    /// on which a dependent read can bypass its producer's ordering
    /// (§3.2.2: the reason `strong-rrdep` needs the barrier).
    Alpha,
}

impl Arch {
    /// The paper's Table 5 testbeds, in column order.
    pub const ALL: [Arch; 4] = [Arch::Power, Arch::Armv8, Arch::Armv7, Arch::X86];

    /// All simulated architectures including Alpha.
    pub const ALL_WITH_ALPHA: [Arch; 5] =
        [Arch::Power, Arch::Armv8, Arch::Armv7, Arch::X86, Arch::Alpha];

    /// Display name matching the paper's column headers.
    pub fn name(self) -> &'static str {
        match self {
            Arch::X86 => "X86",
            Arch::Armv8 => "ARMv8",
            Arch::Armv7 => "ARMv7",
            Arch::Power => "Power8",
            Arch::Alpha => "Alpha",
        }
    }

    fn in_order(self) -> bool {
        self == Arch::X86
    }

    fn store_buffer(self) -> bool {
        self == Arch::X86
    }

    fn multi_copy_atomic(self) -> bool {
        !matches!(self, Arch::Power | Arch::Alpha)
    }

    fn stale_dependent_reads(self) -> bool {
        self == Arch::Alpha
    }

    /// ARMv7 maps acquire/release to `dmb`-based full fences (§3.2.2).
    fn full_barrier_acq_rel(self) -> bool {
        self == Arch::Armv7
    }
}

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// `__assume` is an axiomatic-modelling construct; the operational
    /// machine does not support it.
    Unsupported(&'static str),
    /// No action is enabled but threads are unfinished (e.g. a grace
    /// period waiting on a never-closed critical section).
    Deadlock,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Unsupported(what) => write!(f, "unsupported in simulation: {what}"),
            MachineError::Deadlock => write!(f, "simulation deadlock"),
        }
    }
}

impl std::error::Error for MachineError {}

/// "No SSA id" / "no position": a register never written, an absent
/// per-location entry.
const NONE: u32 = u32::MAX;

/// An expression as issued: its root node plus where its leaves' SSA
/// ids start in the thread's leaf arena.
#[derive(Clone, Copy, Debug)]
struct Resolved {
    root: ExprId,
    base: u32,
}

/// A range of [`Machine::deps`].
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
}

/// In-window operation. `dst` fields are SSA ids.
#[derive(Clone, Copy, Debug)]
enum Op {
    Load {
        dst: u32,
        loc: u32,
        acquire: bool,
    },
    Store {
        loc: u32,
        value: Resolved,
        release: bool,
    },
    /// Atomic read-modify-write. `expected` of `Some` makes it a
    /// compare-and-swap whose success is decided at perform time;
    /// `must_succeed` additionally delays scheduling until it would
    /// succeed (spin_lock: spin until the lock is free).
    Rmw {
        dst: u32,
        loc: u32,
        value: Resolved,
        expected: Option<Resolved>,
        acquire: bool,
        release: bool,
        must_succeed: bool,
        /// Arithmetic RMW: final value = old `op` eval(value); `dst_new`
        /// selects whether `dst` receives the new value instead of the old.
        compute: Option<BinOp>,
        dst_new: bool,
    },
    Fence(SimFence),
    RcuLock,
    RcuUnlock,
    /// SRCU section markers for one domain (a location index).
    SrcuLock {
        domain: u32,
    },
    SrcuUnlock {
        domain: u32,
    },
    /// Grace-period wait; `domain` of `None` is RCU, `Some(d)` is the
    /// SRCU domain `d`. The epoch snapshot (one epoch per thread, from
    /// [`Machine::snapshots`]) is taken when the op reaches the head of
    /// the window.
    GpWait {
        domain: Option<u32>,
        snapshot: Option<u32>,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimFence {
    Rmb,
    Wmb,
    Mb,
    /// Alpha bank synchronisation (`smp_read_barrier_depends`).
    RbDep,
}

/// What a pending window entry holds back, as bits of [`Entry::class`].
const BLOCKS: u16 = 1; // full barrier, RCU/SRCU marker, grace period; Power lwsync
const ACQUIRE: u16 = 1 << 1;
const RELEASE: u16 = 1 << 2;
const LOADS: u16 = 1 << 3; // load or RMW
const STORES: u16 = 1 << 4; // store or RMW
const RMB_RBDEP: u16 = 1 << 5;
const WMB: u16 = 1 << 6;
const RMB: u16 = 1 << 7;

impl Op {
    fn loc(&self) -> Option<u32> {
        match *self {
            Op::Load { loc, .. } | Op::Store { loc, .. } | Op::Rmw { loc, .. } => Some(loc),
            _ => None,
        }
    }

    fn class(&self, arch: Arch) -> u16 {
        match *self {
            Op::Load { acquire, .. } => LOADS | if acquire { ACQUIRE } else { 0 },
            Op::Store { release, .. } => STORES | if release { RELEASE } else { 0 },
            Op::Rmw { acquire, release, .. } => {
                LOADS
                    | STORES
                    | if acquire { ACQUIRE } else { 0 }
                    | if release { RELEASE } else { 0 }
            }
            Op::Fence(SimFence::Mb)
            | Op::GpWait { .. }
            | Op::RcuLock
            | Op::RcuUnlock
            | Op::SrcuLock { .. }
            | Op::SrcuUnlock { .. } => BLOCKS,
            // On Power, smp_wmb/smp_rmb are both lwsync, which orders all
            // local pairs except store→load visibility — so they block too.
            Op::Fence(SimFence::Wmb) => WMB | if arch == Arch::Power { BLOCKS } else { 0 },
            Op::Fence(SimFence::Rmb) => {
                RMB | RMB_RBDEP | if arch == Arch::Power { BLOCKS } else { 0 }
            }
            Op::Fence(SimFence::RbDep) => RMB_RBDEP,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    op: Op,
    class: u16,
    performed: bool,
}

/// One coherence-ordered write version (Power memory system).
#[derive(Clone, Copy, Debug)]
struct Version {
    val: Val,
    /// Visibility prerequisites: `(loc, pos)` pairs that must already be
    /// visible to a thread before this version may propagate to it.
    deps: Span,
}

/// An SSA register: its source register and, once written, its value.
#[derive(Clone, Copy, Debug)]
struct Slot {
    reg: u32,
    val: Option<Val>,
}

/// A statement cursor: the next statement of a block.
#[derive(Clone, Copy, Debug)]
struct Frame {
    block: BlockId,
    idx: u32,
}

#[derive(Clone, Debug)]
struct ThreadState {
    /// Statement cursor: stack of (block, next index).
    frames: Vec<Frame>,
    window: Vec<Entry>,
    /// Source register → current SSA id (`NONE` until first written).
    rename: Vec<u32>,
    /// SSA registers, by id.
    slots: Vec<Slot>,
    /// SSA ids read by issued expressions (`NONE` for a register never
    /// written when its reader issued).
    leaves: Vec<u32>,
    /// x86 store buffer: FIFO of (loc, val).
    buffer: Vec<(u32, Val)>,
    /// Own latest committed coherence position per location (Power;
    /// `NONE` until the thread writes the location).
    own_latest: Vec<u32>,
    /// Coherence positions snapshotted at the last `smp_wmb` (Power).
    wmb_snapshot: Span,
    /// Alpha: per-location lower bound on the version a load may return
    /// (raised by own accesses and by `smp_read_barrier_depends`/`smp_mb`;
    /// staleness below the *view* is otherwise allowed — banked caches).
    read_floor: Vec<u32>,
}

impl ThreadState {
    fn done(&self) -> bool {
        self.frames.is_empty() && self.window.iter().all(|e| e.performed)
    }

    fn value(&self, ssa: u32) -> Option<Val> {
        self.slots.get(ssa as usize)?.val
    }
}

/// Where an expression's register leaves find their SSA ids.
#[derive(Clone, Copy)]
enum Leaves {
    /// Through the thread's current renaming (statements being issued).
    Now,
    /// In the leaf arena from `base` (operations already issued).
    At(u32),
}

/// The whole machine for one run.
#[derive(Clone)]
pub(crate) struct Machine<'p> {
    prog: &'p Program,
    arch: Arch,
    window_cap: usize,
    threads: Vec<ThreadState>,
    /// MCA global memory.
    mem: Vec<Val>,
    /// Power: coherence version lists per location (index 0 = initial).
    versions: Vec<Vec<Version>>,
    /// Power: every version's and `smp_wmb` snapshot's `(loc, pos)` pairs.
    deps: Vec<(u32, u32)>,
    /// Power: visible version index, `view[thread * locs + loc]`.
    view: Vec<u32>,
    /// RCU bookkeeping.
    nesting: Vec<u64>,
    lock_epoch: Vec<u64>,
    /// Per-thread, per-SRCU-domain nesting and epochs,
    /// `[thread * locs + domain]`; `None` until first touched.
    srcu_nesting: Vec<Option<u64>>,
    srcu_epoch: Vec<Option<u64>>,
    /// Grace-period epoch snapshots, one epoch per thread each.
    snapshots: Vec<u64>,
}

/// An enabled scheduler action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Action {
    Issue(usize),
    /// Perform window op `1` of thread `0`; on Alpha, loads carry the
    /// coherence version the (possibly stale) bank returns.
    Perform(usize, usize, Option<usize>),
    Drain(usize),
    Propagate {
        dst: usize,
        loc: usize,
    },
}

impl<'p> Machine<'p> {
    /// A machine at the initial state of `prog` on `arch`.
    pub(crate) fn new(prog: &'p Program, arch: Arch) -> Machine<'p> {
        let (n, locs) = (prog.threads.len(), prog.locs.len());
        let mut m = Machine {
            prog,
            arch,
            window_cap: if arch == Arch::Armv7 { 4 } else { 8 },
            threads: prog
                .threads
                .iter()
                .map(|code| ThreadState {
                    frames: Vec::new(),
                    window: Vec::new(),
                    rename: vec![NONE; code.regs],
                    slots: Vec::new(),
                    leaves: Vec::new(),
                    buffer: Vec::new(),
                    own_latest: vec![NONE; locs],
                    wmb_snapshot: Span::default(),
                    read_floor: vec![0; locs],
                })
                .collect(),
            mem: prog.init.clone(),
            versions: prog
                .init
                .iter()
                .map(|&val| vec![Version { val, deps: Span::default() }])
                .collect(),
            deps: Vec::new(),
            view: vec![0; n * locs],
            nesting: vec![0; n],
            lock_epoch: vec![0; n],
            srcu_nesting: vec![None; n * locs],
            srcu_epoch: vec![None; n * locs],
            snapshots: Vec::new(),
        };
        m.reset();
        m
    }

    /// Return to the initial state, keeping every buffer's allocation.
    pub(crate) fn reset(&mut self) {
        for (t, code) in self.threads.iter_mut().zip(&self.prog.threads) {
            t.frames.clear();
            t.frames.push(Frame { block: code.body, idx: 0 });
            t.window.clear();
            t.rename.fill(NONE);
            t.slots.clear();
            t.leaves.clear();
            t.buffer.clear();
            t.own_latest.fill(NONE);
            t.wmb_snapshot = Span::default();
            t.read_floor.fill(0);
        }
        self.mem.copy_from_slice(&self.prog.init);
        for v in &mut self.versions {
            v.truncate(1);
        }
        self.deps.clear();
        self.view.fill(0);
        self.nesting.fill(0);
        self.lock_epoch.fill(0);
        self.srcu_nesting.fill(None);
        self.srcu_epoch.fill(None);
        self.snapshots.clear();
    }

    /// Run to completion under the given RNG; `actions` is scratch.
    pub(crate) fn run(
        &mut self,
        rng: &mut SplitMix64,
        actions: &mut Vec<Action>,
    ) -> Result<(), MachineError> {
        loop {
            self.enabled_actions(actions);
            if actions.is_empty() {
                return if self.finished() { Ok(()) } else { Err(MachineError::Deadlock) };
            }
            let a = actions[rng.gen_index(actions.len())];
            self.execute(a)?;
        }
    }

    /// Whether every thread has finished and all buffers drained.
    pub(crate) fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.done() && t.buffer.is_empty())
    }

    /// The final value of each condition term, in `Program::terms` order.
    pub(crate) fn final_values(&self, out: &mut Vec<Option<Val>>) {
        out.clear();
        out.extend(self.prog.terms.iter().map(|term| match *term {
            Term::Reg { thread, reg } => {
                let t = &self.threads[thread];
                t.value(t.rename[reg? as usize])
            }
            Term::Loc(loc) => Some(self.coherence_latest(loc?)),
        }));
    }

    /// Fill `out` with the enabled actions, in the fixed order the
    /// runner's draws index into.
    pub(crate) fn enabled_actions(&mut self, out: &mut Vec<Action>) {
        out.clear();
        for tid in 0..self.threads.len() {
            if self.can_issue(tid) {
                out.push(Action::Issue(tid));
            }
            // Classes and completion of the entries before `i`.
            let mut pending = 0;
            let mut all_done = true;
            for i in 0..self.threads[tid].window.len() {
                let entry = self.threads[tid].window[i];
                if entry.performed {
                    continue;
                }
                if self.op_ready(tid, i, pending, all_done) {
                    match entry.op {
                        Op::Load { loc, .. } if self.arch.stale_dependent_reads() => {
                            // Each coherent-but-possibly-stale bank version
                            // is a distinct schedule.
                            let floor = self.threads[tid].read_floor[loc as usize];
                            for v in floor..=self.view(tid, loc) {
                                out.push(Action::Perform(tid, i, Some(v as usize)));
                            }
                        }
                        _ => out.push(Action::Perform(tid, i, None)),
                    }
                    if self.arch.in_order() {
                        break; // only the oldest ready op on x86
                    }
                }
                pending |= entry.class;
                all_done = false;
            }
            if self.arch.store_buffer() && !self.threads[tid].buffer.is_empty() {
                out.push(Action::Drain(tid));
            }
        }
        if !self.arch.multi_copy_atomic() {
            for dst in 0..self.threads.len() {
                for loc in 0..self.prog.locs.len() {
                    if self.can_propagate(dst, loc) {
                        out.push(Action::Propagate { dst, loc });
                    }
                }
            }
        }
    }

    pub(crate) fn execute(&mut self, a: Action) -> Result<(), MachineError> {
        match a {
            Action::Issue(t) => self.issue(t),
            Action::Perform(t, i, stale) => {
                self.perform(t, i, stale);
                // Trim performed prefix to bound the window scan.
                let window = &mut self.threads[t].window;
                let done = window.iter().take_while(|e| e.performed).count();
                window.drain(..done);
                Ok(())
            }
            Action::Drain(t) => {
                let (loc, val) = self.threads[t].buffer.remove(0);
                self.mem[loc as usize] = val;
                Ok(())
            }
            Action::Propagate { dst, loc } => {
                self.view[dst * self.prog.locs.len() + loc] += 1;
                Ok(())
            }
        }
    }

    fn view(&self, tid: usize, loc: u32) -> u32 {
        self.view[tid * self.prog.locs.len() + loc as usize]
    }

    fn view_of(&self, tid: usize) -> &[u32] {
        let n = self.prog.locs.len();
        &self.view[tid * n..(tid + 1) * n]
    }

    fn can_propagate(&self, dst: usize, loc: usize) -> bool {
        let view = self.view_of(dst);
        let Some(next) = self.versions[loc].get(view[loc] as usize + 1) else {
            return false;
        };
        self.span(next.deps).iter().all(|&(l, p)| view[l as usize] >= p)
    }

    fn span(&self, s: Span) -> &[(u32, u32)] {
        &self.deps[s.start as usize..(s.start + s.len) as usize]
    }

    /// Append every location this thread has observed beyond the initial
    /// write, with its visible position, to the dependency arena.
    fn observed_span(&mut self, tid: usize) -> Span {
        let start = self.deps.len() as u32;
        let n = self.prog.locs.len();
        for l in 0..n {
            let pos = self.view[tid * n + l];
            if pos > 0 {
                self.deps.push((l as u32, pos));
            }
        }
        Span { start, len: self.deps.len() as u32 - start }
    }

    /// Alpha bank synchronisation: later loads see at least the view.
    fn sync_banks(&mut self, tid: usize) {
        let n = self.prog.locs.len();
        let (view, threads) = (&self.view, &mut self.threads);
        threads[tid].read_floor.copy_from_slice(&view[tid * n..(tid + 1) * n]);
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Evaluate an expression; `None` while inputs are pending.
    fn eval(&self, tid: usize, root: ExprId, at: Leaves) -> Option<Val> {
        self.eval_node(&self.threads[tid], root, at)
    }

    fn eval_node(&self, t: &ThreadState, node: ExprId, at: Leaves) -> Option<Val> {
        Some(match self.prog.exprs[node as usize] {
            Node::Const(c) => Val::Int(c),
            Node::Loc(l) => Val::Loc(LocId(l as usize)),
            Node::Reg { reg, leaf } => t.value(match at {
                Leaves::Now => t.rename[reg as usize],
                Leaves::At(base) => t.leaves[(base + leaf) as usize],
            })?,
            Node::Not(inner) => Val::Int(i64::from(!self.eval_node(t, inner, at)?.truthy())),
            Node::Bin(op, a, b) => binop(op, self.eval_node(t, a, at)?, self.eval_node(t, b, at)?)?,
        })
    }

    fn eval_resolved(&self, tid: usize, r: Resolved) -> Option<Val> {
        self.eval(tid, r.root, Leaves::At(r.base))
    }

    /// Record the SSA ids `e`'s leaves read now.
    fn resolve(&mut self, tid: usize, e: LExpr) -> Resolved {
        let t = &mut self.threads[tid];
        let base = t.leaves.len() as u32;
        let regs = &self.prog.leaf_regs[e.leaf_start as usize..(e.leaf_start + e.leaves) as usize];
        t.leaves.extend(regs.iter().map(|&r| t.rename[r as usize]));
        Resolved { root: e.root, base }
    }

    /// Resolve a memory address; `None` while the pointer is pending.
    fn resolve_addr(&self, tid: usize, a: Addr) -> Option<u32> {
        match a {
            Addr::Loc(l) => Some(l),
            Addr::Reg(r) => {
                let t = &self.threads[tid];
                match t.value(t.rename[r as usize])? {
                    Val::Loc(l) => Some(l.0 as u32),
                    Val::Int(_) => None,
                }
            }
        }
    }

    /// The address of a statement being issued.
    fn issued_addr(&self, tid: usize, a: Addr) -> u32 {
        self.resolve_addr(tid, a).expect("can_issue checked the address")
    }

    fn fresh_ssa(&mut self, tid: usize, reg: u32, val: Option<Val>) -> u32 {
        let t = &mut self.threads[tid];
        let ssa = t.slots.len() as u32;
        t.slots.push(Slot { reg, val });
        t.rename[reg as usize] = ssa;
        ssa
    }

    /// The next statement, popping exhausted frames first.
    fn next_stmt(&mut self, tid: usize) -> Option<&'p LStmt> {
        let prog = self.prog;
        let code = &prog.threads[tid];
        let frames = &mut self.threads[tid].frames;
        while let Some(f) = frames.last() {
            if let Some(stmt) = code.stmt(f.block, f.idx) {
                return Some(stmt);
            }
            frames.pop();
        }
        None
    }

    fn can_issue(&mut self, tid: usize) -> bool {
        if self.threads[tid].window.len() >= self.window_cap {
            return false;
        }
        let Some(stmt) = self.next_stmt(tid) else {
            return false;
        };
        match *stmt {
            LStmt::Load { addr, .. }
            | LStmt::Store { addr, .. }
            | LStmt::Rmw { addr, .. }
            | LStmt::SrcuLock(addr)
            | LStmt::SrcuUnlock(addr)
            | LStmt::SyncSrcu(addr)
            | LStmt::SpinLock(addr)
            | LStmt::SpinUnlock(addr) => self.resolve_addr(tid, addr).is_some(),
            LStmt::If { cond: e, .. } | LStmt::Assign { value: e, .. } => {
                self.eval(tid, e.root, Leaves::Now).is_some()
            }
            LStmt::Fence(_) | LStmt::Assume(_) => true,
        }
    }

    fn push_op(&mut self, tid: usize, op: Op) {
        let class = op.class(self.arch);
        self.threads[tid].window.push(Entry { op, class, performed: false });
    }

    fn issue(&mut self, tid: usize) -> Result<(), MachineError> {
        let prog = self.prog;
        let frame = self.threads[tid].frames.last_mut().expect("can_issue checked");
        let stmt = prog.threads[tid].stmt(frame.block, frame.idx).expect("can_issue checked");
        frame.idx += 1;
        match *stmt {
            LStmt::Load { dst, addr, acquire, deref } => {
                let loc = self.issued_addr(tid, addr);
                let dst = self.fresh_ssa(tid, dst, None);
                self.push_op(tid, Op::Load { dst, loc, acquire });
                // Table 4: rcu_dereference carries the Alpha read barrier.
                if deref && self.arch.stale_dependent_reads() {
                    self.push_op(tid, Op::Fence(SimFence::RbDep));
                }
            }
            LStmt::Store { addr, value, release } => {
                let loc = self.issued_addr(tid, addr);
                let value = self.resolve(tid, value);
                self.push_op(tid, Op::Store { loc, value, release });
            }
            LStmt::Fence(kind) => match kind {
                FenceKind::Rmb => self.push_op(tid, Op::Fence(SimFence::Rmb)),
                FenceKind::Wmb => self.push_op(tid, Op::Fence(SimFence::Wmb)),
                FenceKind::Mb => self.push_op(tid, Op::Fence(SimFence::Mb)),
                FenceKind::RbDep => {
                    if self.arch.stale_dependent_reads() {
                        self.push_op(tid, Op::Fence(SimFence::RbDep));
                    }
                    // A no-op on every other architecture (§3.2.2).
                }
                FenceKind::RcuLock => self.push_op(tid, Op::RcuLock),
                FenceKind::RcuUnlock => self.push_op(tid, Op::RcuUnlock),
                FenceKind::SyncRcu => self.grace_period(tid, None),
            },
            LStmt::Rmw { order, dst, addr, value, expected, compute, dst_new } => {
                let loc = self.issued_addr(tid, addr);
                let expected = expected.map(|e| self.resolve(tid, e));
                let value = self.resolve(tid, value);
                let (acquire, release, full) = match order {
                    RmwOrder::Relaxed => (false, false, false),
                    RmwOrder::Acquire => (true, false, false),
                    RmwOrder::Release => (false, true, false),
                    RmwOrder::Full => (false, false, true),
                };
                if full {
                    self.push_op(tid, Op::Fence(SimFence::Mb));
                }
                let reg = dst.unwrap_or_else(|| self.prog.void_reg(tid, loc));
                let dst = self.fresh_ssa(tid, reg, None);
                self.push_op(
                    tid,
                    Op::Rmw {
                        dst,
                        loc,
                        value,
                        expected,
                        acquire,
                        release,
                        must_succeed: false,
                        compute,
                        dst_new,
                    },
                );
                if full {
                    self.push_op(tid, Op::Fence(SimFence::Mb));
                }
            }
            LStmt::SrcuLock(domain) => {
                let domain = self.issued_addr(tid, domain);
                self.push_op(tid, Op::SrcuLock { domain });
            }
            LStmt::SrcuUnlock(domain) => {
                let domain = self.issued_addr(tid, domain);
                self.push_op(tid, Op::SrcuUnlock { domain });
            }
            LStmt::SyncSrcu(domain) => {
                let domain = self.issued_addr(tid, domain);
                self.grace_period(tid, Some(domain));
            }
            LStmt::SpinLock(addr) => {
                let loc = self.issued_addr(tid, addr);
                // Acquire-RMW spinning until it reads 0; modelled by a
                // cmpxchg_acquire(0 → 1) that is only ready when the lock
                // word is free (see op_ready).
                let reg = self.prog.lock_reg(tid, loc);
                let dst = self.fresh_ssa(tid, reg, None);
                let (value, expected) = (self.resolve(tid, ONE), self.resolve(tid, ZERO));
                self.push_op(
                    tid,
                    Op::Rmw {
                        dst,
                        loc,
                        value,
                        expected: Some(expected),
                        acquire: true,
                        release: false,
                        must_succeed: true,
                        compute: None,
                        dst_new: false,
                    },
                );
            }
            LStmt::SpinUnlock(addr) => {
                let loc = self.issued_addr(tid, addr);
                let value = self.resolve(tid, ZERO);
                self.push_op(tid, Op::Store { loc, value, release: true });
            }
            LStmt::Assign { dst, value } => {
                let v = self.eval(tid, value.root, Leaves::Now).expect("can_issue checked");
                self.fresh_ssa(tid, dst, Some(v));
            }
            LStmt::If { cond, then_, else_ } => {
                let c = self.eval(tid, cond.root, Leaves::Now).expect("can_issue checked");
                let block = if c.truthy() { then_ } else { else_ };
                self.threads[tid].frames.push(Frame { block, idx: 0 });
            }
            LStmt::Assume(_) => return Err(MachineError::Unsupported("__assume")),
        }
        Ok(())
    }

    /// `synchronize_rcu` (`domain` of `None`) or `synchronize_srcu`: full
    /// fence, wait for pre-existing readers, full fence.
    fn grace_period(&mut self, tid: usize, domain: Option<u32>) {
        self.push_op(tid, Op::Fence(SimFence::Mb));
        self.push_op(tid, Op::GpWait { domain, snapshot: None });
        self.push_op(tid, Op::Fence(SimFence::Mb));
    }

    // ------------------------------------------------------------------
    // Perform
    // ------------------------------------------------------------------

    /// Is every write this thread has observed visible to all threads?
    /// (Power `sync` condition; trivially true on MCA machines.)
    fn fully_propagated(&self, tid: usize) -> bool {
        if self.arch.multi_copy_atomic() {
            return true;
        }
        let n = self.prog.locs.len();
        (0..n).all(|loc| {
            let mine = self.view[tid * n + loc];
            (0..self.threads.len()).all(|t| self.view[t * n + loc] >= mine)
        })
    }

    /// Whether window entry `i` of `tid` may perform, given the OR of the
    /// classes of the unperformed entries before it (`pending`) and
    /// whether there are none (`all_done`).
    fn op_ready(&self, tid: usize, i: usize, pending: u16, all_done: bool) -> bool {
        let t = &self.threads[tid];
        let entry = &t.window[i];
        if self.arch.in_order() && !all_done {
            return false;
        }
        // Full barriers (and RCU markers) block everything after them;
        // so do earlier unperformed acquire loads.
        if pending & (BLOCKS | ACQUIRE) != 0 {
            return false;
        }
        // ARMv7: acquire/release are dmb-based — a pending *release* also
        // blocks later ops (dmb ; str orders both directions).
        if self.arch.full_barrier_acq_rel() && pending & RELEASE != 0 {
            return false;
        }
        // Same-location program order.
        if let Some(loc) = entry.op.loc() {
            if t.window[..i].iter().any(|e| !e.performed && e.op.loc() == Some(loc)) {
                return false;
            }
        }
        // Stores are irrevocable: they retire only after program-order-
        // earlier loads have completed (no store speculation). This is why
        // none of the paper's machines ever exhibited LB (§5.1).
        if entry.class & STORES != 0 && pending & LOADS != 0 {
            return false;
        }
        match entry.op {
            Op::Load { acquire, .. } => {
                // Loads wait for earlier unperformed Rmb/rb-dep fences.
                // ARMv8's release/acquire are RCsc: LDAR waits for every
                // earlier STLR ([L]; po; [A] in bob). Power's
                // lwsync-based mapping has no such ordering.
                pending & RMB_RBDEP == 0
                    && !(acquire && self.arch != Arch::Power && pending & RELEASE != 0)
            }
            Op::Store { value, release, .. } => {
                // Stores wait for earlier unperformed Wmb fences.
                self.eval_resolved(tid, value).is_some()
                    && (!release || all_done)
                    && pending & WMB == 0
            }
            Op::Rmw { value, expected, release, loc, must_succeed, .. } => {
                if self.eval_resolved(tid, value).is_none() {
                    return false;
                }
                if let Some(exp) = expected {
                    let Some(e) = self.eval_resolved(tid, exp) else {
                        return false;
                    };
                    // spin_lock: only schedulable once the lock word's
                    // globally-latest value lets the acquisition succeed.
                    if must_succeed && self.rmw_current(tid, loc) != e {
                        return false;
                    }
                }
                if release && !all_done {
                    return false;
                }
                // RMWs act on the coherence point: on Power they wait
                // until the location is fully propagated to this thread.
                if !self.arch.multi_copy_atomic()
                    && self.view(tid, loc) as usize != self.versions[loc as usize].len() - 1
                {
                    return false;
                }
                pending & (WMB | RMB) == 0
            }
            Op::Fence(SimFence::RbDep) => pending & LOADS == 0,
            Op::Fence(SimFence::Rmb) => {
                if self.arch == Arch::Power {
                    all_done // lwsync
                } else {
                    pending & LOADS == 0
                }
            }
            Op::Fence(SimFence::Wmb) => {
                if self.arch == Arch::Power {
                    all_done // lwsync
                } else {
                    pending & STORES == 0
                }
            }
            Op::Fence(SimFence::Mb) => {
                all_done
                    && (!self.arch.store_buffer() || t.buffer.is_empty())
                    && self.fully_propagated(tid)
            }
            Op::RcuLock | Op::RcuUnlock | Op::SrcuLock { .. } | Op::SrcuUnlock { .. } => all_done,
            Op::GpWait { domain, snapshot } => {
                if !all_done {
                    return false;
                }
                let Some(base) = snapshot else {
                    // First evaluation: becomes schedulable to take the
                    // snapshot (perform() handles both steps).
                    return true;
                };
                let n = self.prog.locs.len();
                (0..self.threads.len()).all(|t2| {
                    let snap = self.snapshots[base as usize + t2];
                    match domain {
                        None => self.nesting[t2] == 0 || self.lock_epoch[t2] > snap,
                        Some(d) => {
                            let k = t2 * n + d as usize;
                            self.srcu_nesting[k].unwrap_or(0) == 0
                                || self.srcu_epoch[k].unwrap_or(0) > snap
                        }
                    }
                })
            }
        }
    }

    /// The value an RMW would read: the coherence-globally-latest value
    /// (accounting for this thread's own buffered stores on x86).
    fn rmw_current(&self, tid: usize, loc: u32) -> Val {
        if self.arch.store_buffer() {
            if let Some(&(_, v)) = self.threads[tid].buffer.iter().rev().find(|b| b.0 == loc) {
                return v;
            }
            return self.mem[loc as usize];
        }
        self.coherence_latest(loc)
    }

    /// The last value in `loc`'s coherence order.
    fn coherence_latest(&self, loc: u32) -> Val {
        if self.arch.multi_copy_atomic() {
            self.mem[loc as usize]
        } else {
            self.versions[loc as usize].last().expect("version 0 is the initial value").val
        }
    }

    /// The latest coherent value of `loc` visible to `tid`.
    fn coherent_latest(&self, tid: usize, loc: u32) -> Val {
        if self.arch.store_buffer() {
            // Own buffer first (store forwarding), then memory.
            if let Some(&(_, v)) = self.threads[tid].buffer.iter().rev().find(|b| b.0 == loc) {
                return v;
            }
            return self.mem[loc as usize];
        }
        if self.arch.multi_copy_atomic() {
            self.mem[loc as usize]
        } else {
            self.versions[loc as usize][self.view(tid, loc) as usize].val
        }
    }

    /// Append a version of `loc` written by `tid` at the coherence point
    /// and make it visible to `tid`; returns its position.
    fn append_version(&mut self, tid: usize, loc: u32, val: Val, deps: Span) -> u32 {
        let versions = &mut self.versions[loc as usize];
        versions.push(Version { val, deps });
        let pos = (versions.len() - 1) as u32;
        self.view[tid * self.prog.locs.len() + loc as usize] = pos;
        self.threads[tid].own_latest[loc as usize] = pos;
        pos
    }

    fn commit_store(&mut self, tid: usize, loc: u32, val: Val, release: bool) {
        if self.arch.store_buffer() {
            self.threads[tid].buffer.push((loc, val));
            return;
        }
        if self.arch.multi_copy_atomic() {
            self.mem[loc as usize] = val;
            return;
        }
        // Power: append a coherence version with cumulativity deps.
        let deps = if release {
            // A-cumulative: everything this thread has observed.
            self.observed_span(tid)
        } else {
            self.threads[tid].wmb_snapshot
        };
        let pos = self.append_version(tid, loc, val, deps);
        self.threads[tid].read_floor[loc as usize] = pos;
    }

    fn perform(&mut self, tid: usize, i: usize, stale: Option<usize>) {
        match self.threads[tid].window[i].op {
            Op::Load { dst, loc, acquire } => {
                let v = match stale {
                    Some(pos) => {
                        // CoRR: later reads may not go further back.
                        self.threads[tid].read_floor[loc as usize] = pos as u32;
                        self.versions[loc as usize][pos].val
                    }
                    None => self.coherent_latest(tid, loc),
                };
                // Alpha: smp_load_acquire is ld;mb — the mb syncs banks.
                if acquire && self.arch.stale_dependent_reads() {
                    self.sync_banks(tid);
                }
                self.threads[tid].slots[dst as usize].val = Some(v);
            }
            Op::Store { loc, value, release } => {
                let v = self.eval_resolved(tid, value).expect("readiness checked");
                self.commit_store(tid, loc, v, release);
            }
            Op::Rmw { dst, loc, value, expected, compute, dst_new, .. } => {
                // Atomic at the coherence point: read the globally latest
                // value and (conditionally) write in one step. On x86 a
                // LOCK'd operation drains the store buffer first.
                if self.arch.store_buffer() {
                    for (l, bv) in self.threads[tid].buffer.drain(..) {
                        self.mem[l as usize] = bv;
                    }
                }
                let cur = self.coherence_latest(loc);
                let succeed = match expected {
                    None => true,
                    Some(e) => self.eval_resolved(tid, e).expect("readiness checked") == cur,
                };
                // A failing cmpxchg still returns the value it read.
                self.threads[tid].slots[dst as usize].val = Some(cur);
                if succeed {
                    let operand = self.eval_resolved(tid, value).expect("readiness checked");
                    let v = match compute {
                        None => operand,
                        Some(op) => {
                            let (x, y) = (
                                cur.as_int().expect("atomic arithmetic on pointer"),
                                operand.as_int().expect("atomic operand must be int"),
                            );
                            Val::Int(atomic_result(op, x, y).unwrap_or(x))
                        }
                    };
                    if dst_new {
                        self.threads[tid].slots[dst as usize].val = Some(v);
                    }
                    if self.arch.multi_copy_atomic() {
                        self.mem[loc as usize] = v;
                    } else {
                        // Fully-propagated precondition makes this the
                        // coherence-latest position.
                        let deps = self.observed_span(tid);
                        self.append_version(tid, loc, v, deps);
                    }
                }
            }
            Op::Fence(SimFence::Wmb) => {
                // On Power, smp_wmb is lwsync, which is A-cumulative:
                // later stores may not propagate to a thread before
                // everything this thread has *observed* (its own stores
                // and any foreign stores it has read) is visible there.
                self.threads[tid].wmb_snapshot = self.observed_span(tid);
            }
            Op::Fence(SimFence::RbDep) => self.sync_banks(tid),
            Op::Fence(SimFence::Rmb) if self.arch == Arch::Power => {
                // lwsync: same cumulativity as the Wmb case.
                self.threads[tid].wmb_snapshot = self.observed_span(tid);
            }
            Op::Fence(SimFence::Mb | SimFence::Rmb) if self.arch.stale_dependent_reads() => {
                // Alpha mb/rmb also synchronise the banks.
                self.sync_banks(tid);
            }
            Op::Fence(_) => {}
            Op::RcuLock => {
                self.nesting[tid] += 1;
                self.lock_epoch[tid] += 1;
                // On Alpha, participating in the grace-period protocol
                // implies a bank synchronisation (the quiescent-state
                // machinery executes full barriers on every CPU).
                if self.arch.stale_dependent_reads() {
                    self.sync_banks(tid);
                }
            }
            Op::RcuUnlock => {
                self.nesting[tid] = self.nesting[tid].saturating_sub(1);
                if self.arch.stale_dependent_reads() {
                    self.sync_banks(tid);
                }
            }
            Op::SrcuLock { domain } => {
                let k = tid * self.prog.locs.len() + domain as usize;
                *self.srcu_nesting[k].get_or_insert(0) += 1;
                *self.srcu_epoch[k].get_or_insert(0) += 1;
                if self.arch.stale_dependent_reads() {
                    self.sync_banks(tid);
                }
            }
            Op::SrcuUnlock { domain } => {
                let n = self.srcu_nesting[tid * self.prog.locs.len() + domain as usize]
                    .get_or_insert(0);
                *n = n.saturating_sub(1);
                if self.arch.stale_dependent_reads() {
                    self.sync_banks(tid);
                }
            }
            Op::GpWait { domain, snapshot: None } => {
                // First scheduling: take the epoch snapshot; the wait
                // itself happens via op_ready on later turns.
                let base = self.snapshots.len() as u32;
                let n = self.prog.locs.len();
                for t2 in 0..self.threads.len() {
                    let epoch = match domain {
                        None => self.lock_epoch[t2],
                        Some(d) => self.srcu_epoch[t2 * n + d as usize].unwrap_or(0),
                    };
                    self.snapshots.push(epoch);
                }
                if let Op::GpWait { snapshot, .. } = &mut self.threads[tid].window[i].op {
                    *snapshot = Some(base);
                }
                return; // not performed yet
            }
            Op::GpWait { .. } => {}
        }
        self.threads[tid].window[i].performed = true;
    }

    // ------------------------------------------------------------------
    // Memoisation key
    // ------------------------------------------------------------------

    /// Append the state's memoisation key to `out`: two states with equal
    /// keys have identical future behaviour. The key covers each thread's
    /// frames, window, written SSA registers (each with its source
    /// register), store buffer, own latest positions and `smp_wmb`
    /// snapshot, then memory, versions with their dependency sets, views,
    /// and the RCU and SRCU counters. Alpha's read floors are left out.
    pub(crate) fn state_key(&self, out: &mut Vec<u64>) {
        for t in &self.threads {
            out.push(t.frames.len() as u64);
            out.extend(t.frames.iter().flat_map(|f| [u64::from(f.block), u64::from(f.idx)]));
            out.push(t.window.len() as u64);
            for e in &t.window {
                self.op_key(t, &e.op, out);
                out.push(u64::from(e.performed));
            }
            out.push(t.slots.iter().filter(|s| s.val.is_some()).count() as u64);
            for (ssa, slot) in t.slots.iter().enumerate() {
                if let Some(v) = slot.val {
                    out.extend([ssa as u64, u64::from(slot.reg)]);
                    val_key(v, out);
                }
            }
            out.push(t.buffer.len() as u64);
            for &(loc, v) in &t.buffer {
                out.push(u64::from(loc));
                val_key(v, out);
            }
            out.push(t.own_latest.iter().filter(|&&p| p != NONE).count() as u64);
            for (loc, &pos) in t.own_latest.iter().enumerate() {
                if pos != NONE {
                    out.extend([loc as u64, u64::from(pos)]);
                }
            }
            self.span_key(t.wmb_snapshot, out);
        }
        for &v in &self.mem {
            val_key(v, out);
        }
        for versions in &self.versions {
            out.push(versions.len() as u64);
            for v in versions {
                val_key(v.val, out);
                self.span_key(v.deps, out);
            }
        }
        out.extend(self.view.iter().map(|&p| u64::from(p)));
        out.extend(self.nesting.iter().chain(&self.lock_epoch));
        let n = self.prog.locs.len().max(1);
        for (nesting, epochs) in self.srcu_nesting.chunks(n).zip(self.srcu_epoch.chunks(n)) {
            for counters in [nesting, epochs] {
                out.push(counters.iter().flatten().count() as u64);
                for (d, c) in counters.iter().enumerate() {
                    if let Some(c) = c {
                        out.extend([d as u64, *c]);
                    }
                }
            }
        }
    }

    fn span_key(&self, s: Span, out: &mut Vec<u64>) {
        out.push(u64::from(s.len));
        out.extend(self.span(s).iter().flat_map(|&(l, p)| [u64::from(l), u64::from(p)]));
    }

    fn op_key(&self, t: &ThreadState, op: &Op, out: &mut Vec<u64>) {
        let ssa = |ssa: u32| [u64::from(ssa), u64::from(t.slots[ssa as usize].reg)];
        match *op {
            Op::Load { dst, loc, acquire } => {
                out.push(0);
                out.extend(ssa(dst));
                out.extend([u64::from(loc), u64::from(acquire)]);
            }
            Op::Store { loc, value, release } => {
                out.extend([1, u64::from(loc)]);
                self.expr_key(t, value.root, value.base, out);
                out.push(u64::from(release));
            }
            Op::Rmw {
                dst,
                loc,
                value,
                expected,
                acquire,
                release,
                must_succeed,
                compute,
                dst_new,
            } => {
                out.push(2);
                out.extend(ssa(dst));
                out.push(u64::from(loc));
                self.expr_key(t, value.root, value.base, out);
                match expected {
                    None => out.push(0),
                    Some(e) => {
                        out.push(1);
                        self.expr_key(t, e.root, e.base, out);
                    }
                }
                out.extend([
                    u64::from(acquire),
                    u64::from(release),
                    u64::from(must_succeed),
                    compute.map_or(0, |op| op as u64 + 1),
                    u64::from(dst_new),
                ]);
            }
            Op::Fence(f) => out.extend([3, f as u64]),
            Op::RcuLock => out.push(4),
            Op::RcuUnlock => out.push(5),
            Op::SrcuLock { domain } => out.extend([6, u64::from(domain)]),
            Op::SrcuUnlock { domain } => out.extend([7, u64::from(domain)]),
            Op::GpWait { domain, snapshot } => {
                out.extend([8, domain.map_or(0, |d| u64::from(d) + 1)]);
                match snapshot {
                    None => out.push(0),
                    Some(base) => {
                        out.push(1);
                        let n = self.threads.len();
                        out.extend(&self.snapshots[base as usize..base as usize + n]);
                    }
                }
            }
        }
    }

    /// An issued expression by structure, each register leaf as the SSA
    /// id (with its source register) it read, or as its source register
    /// if it had never been written.
    fn expr_key(&self, t: &ThreadState, node: ExprId, base: u32, out: &mut Vec<u64>) {
        match self.prog.exprs[node as usize] {
            Node::Const(c) => out.extend([0, c as u64]),
            Node::Loc(l) => out.extend([1, u64::from(l)]),
            Node::Reg { reg, leaf } => match t.leaves[(base + leaf) as usize] {
                NONE => out.extend([2, u64::from(reg)]),
                ssa => out.extend([3, u64::from(ssa), u64::from(reg)]),
            },
            Node::Bin(op, a, b) => {
                out.extend([4, op as u64]);
                self.expr_key(t, a, base, out);
                self.expr_key(t, b, base, out);
            }
            Node::Not(a) => {
                out.push(5);
                self.expr_key(t, a, base, out);
            }
        }
    }
}

fn val_key(v: Val, out: &mut Vec<u64>) {
    match v {
        Val::Int(i) => out.extend([0, i as u64]),
        Val::Loc(l) => out.extend([1, l.0 as u64]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_properties() {
        assert!(Arch::X86.in_order() && Arch::X86.store_buffer());
        assert!(!Arch::Power.multi_copy_atomic());
        assert!(Arch::Armv8.multi_copy_atomic());
        assert!(Arch::Armv7.full_barrier_acq_rel());
        assert_eq!(Arch::Power.name(), "Power8");
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
        let prog = Program::lower(&sb);
        for arch in Arch::ALL_WITH_ALPHA {
            let mut m = Machine::new(&prog, arch);
            let mut initial = Vec::new();
            m.state_key(&mut initial);
            let mut actions = Vec::new();
            m.run(&mut SplitMix64::seed_from_u64(5), &mut actions).unwrap();
            m.reset();
            let mut again = Vec::new();
            m.state_key(&mut again);
            assert_eq!(initial, again, "{}", arch.name());
        }
    }
}
