//! diy-style systematic litmus-test generation (§5: "we used the diy7
//! tool to systematically generate thousands of tests with cycles of
//! edges of increasing size").
//!
//! A *critical cycle* is a sequence of edges — external communications
//! (`Rfe`, `Fre`, `Coe`) and internal program-order edges adorned with
//! dependencies, fences or acquire/release annotations — that would form
//! a forbidden-or-allowed cycle in an execution. [`generate`] turns a
//! cycle into a litmus test whose `exists` condition observes exactly
//! that cycle; [`cycles_up_to`] enumerates all well-formed cycles up to a
//! length bound (canonicalised up to rotation).
//!
//! # Examples
//!
//! ```
//! use lkmm_generator::{generate, Edge, Extremity, InternalKind};
//! use Extremity::{R, W};
//!
//! // The SB+mbs cycle: W -mb→ R -fre→ W -mb→ R -fre→ (wrap).
//! let cycle = [
//!     Edge::internal(InternalKind::Mb, W, R),
//!     Edge::Fre,
//!     Edge::internal(InternalKind::Mb, W, R),
//!     Edge::Fre,
//! ];
//! let test = generate(&cycle).unwrap();
//! assert_eq!(test.threads.len(), 2);
//! ```

pub mod family;

use lkmm_litmus::ast::{AddrExpr, BinOp, Expr, FenceKind, Stmt, Test, Thread};
use lkmm_litmus::cond::{CondVal, Condition, Prop, Quantifier, StateTerm};
use std::fmt;

/// Event extremity: read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Extremity {
    R,
    W,
}

/// Adornment of an internal (same-thread) edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InternalKind {
    /// Plain program order, no ordering primitive.
    Po,
    /// Control dependency (source must be a read, destination a write).
    Ctrl,
    /// Data dependency (read to write).
    Data,
    /// Address dependency (from a read).
    Addr,
    /// Address dependency plus `smp_read_barrier_depends` (strong-rrdep).
    AddrRbDep,
    /// `smp_rmb` between two reads.
    Rmb,
    /// `smp_wmb` between two writes.
    Wmb,
    /// `smp_mb`.
    Mb,
    /// `synchronize_rcu` used as a strong fence.
    SyncRcu,
    /// Destination write is a `smp_store_release`.
    Release,
    /// Source read is a `smp_load_acquire`.
    Acquire,
}

/// One edge of a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Edge {
    /// External reads-from: a write read by a read on another thread.
    Rfe,
    /// External from-read: a read that misses a write on another thread.
    Fre,
    /// External coherence: two writes to the same location, ordered.
    Coe,
    /// Same-thread edge to a *different* location.
    Internal { kind: InternalKind, src: Extremity, dst: Extremity },
}

impl Edge {
    /// Convenience constructor for internal edges.
    pub fn internal(kind: InternalKind, src: Extremity, dst: Extremity) -> Edge {
        Edge::Internal { kind, src, dst }
    }

    /// Whether the edge crosses threads.
    pub fn is_external(self) -> bool {
        !matches!(self, Edge::Internal { .. })
    }

    /// `(source, destination)` extremities.
    pub fn ends(self) -> (Extremity, Extremity) {
        match self {
            Edge::Rfe => (Extremity::W, Extremity::R),
            Edge::Fre => (Extremity::R, Extremity::W),
            Edge::Coe => (Extremity::W, Extremity::W),
            Edge::Internal { src, dst, .. } => (src, dst),
        }
    }

    /// Parse one diy-style edge name as printed by [`Edge`]'s `Display`
    /// impl: `Rfe`, `Fre`, `Coe`, or `<Kind><src><dst>` like `PodWW`,
    /// `DpAddrRW`, `SyncRW`. Returns `None` for unknown names (including
    /// adornment/extremity combinations that could never print, which
    /// [`validate`] would reject as ill-formed anyway).
    pub fn parse_name(name: &str) -> Option<Edge> {
        match name {
            "Rfe" => return Some(Edge::Rfe),
            "Fre" => return Some(Edge::Fre),
            "Coe" => return Some(Edge::Coe),
            _ => {}
        }
        let (kind_name, ends) = name.split_at(name.len().checked_sub(2)?);
        let kind = match kind_name {
            "Pod" => InternalKind::Po,
            "Ctrl" => InternalKind::Ctrl,
            "DpData" => InternalKind::Data,
            "DpAddr" => InternalKind::Addr,
            "DpAddrRbd" => InternalKind::AddrRbDep,
            "Rmb" => InternalKind::Rmb,
            "Wmb" => InternalKind::Wmb,
            "Mb" => InternalKind::Mb,
            "Sync" => InternalKind::SyncRcu,
            "Rel" => InternalKind::Release,
            "Acq" => InternalKind::Acquire,
            _ => return None,
        };
        let extremity = |c: char| match c {
            'R' => Some(Extremity::R),
            'W' => Some(Extremity::W),
            _ => None,
        };
        let mut chars = ends.chars();
        let src = extremity(chars.next()?)?;
        let dst = extremity(chars.next()?)?;
        let edge = Edge::internal(kind, src, dst);
        edge.well_formed().then_some(edge)
    }

    /// Whether the adornment is compatible with the extremities.
    pub fn well_formed(self) -> bool {
        match self {
            Edge::Rfe | Edge::Fre | Edge::Coe => true,
            Edge::Internal { kind, src, dst } => match kind {
                InternalKind::Po | InternalKind::Mb | InternalKind::SyncRcu => true,
                InternalKind::Ctrl => src == Extremity::R && dst == Extremity::W,
                InternalKind::Data => src == Extremity::R && dst == Extremity::W,
                InternalKind::Addr | InternalKind::AddrRbDep => src == Extremity::R,
                InternalKind::Rmb => src == Extremity::R && dst == Extremity::R,
                InternalKind::Wmb => src == Extremity::W && dst == Extremity::W,
                InternalKind::Release => dst == Extremity::W,
                InternalKind::Acquire => src == Extremity::R,
            },
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edge::Rfe => write!(f, "Rfe"),
            Edge::Fre => write!(f, "Fre"),
            Edge::Coe => write!(f, "Coe"),
            Edge::Internal { kind, src, dst } => {
                let k = match kind {
                    InternalKind::Po => "Pod",
                    InternalKind::Ctrl => "Ctrl",
                    InternalKind::Data => "DpData",
                    InternalKind::Addr => "DpAddr",
                    InternalKind::AddrRbDep => "DpAddrRbd",
                    InternalKind::Rmb => "Rmb",
                    InternalKind::Wmb => "Wmb",
                    InternalKind::Mb => "Mb",
                    InternalKind::SyncRcu => "Sync",
                    InternalKind::Release => "Rel",
                    InternalKind::Acquire => "Acq",
                };
                let e = |x: &Extremity| if *x == Extremity::R { "R" } else { "W" };
                write!(f, "{k}{}{}", e(src), e(dst))
            }
        }
    }
}

/// Generation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenError {
    /// Adjacent edges disagree on the shared event's extremity, or an
    /// edge's adornment is invalid.
    IllFormed,
    /// Fewer than two external edges (no concurrency), or two external
    /// edges are adjacent (not a critical cycle).
    NotCritical,
    /// [`parse_cycle`] met a name that is not a diy edge.
    UnknownEdge(String),
    /// A parameterised program family was asked for a size that cannot
    /// produce a meaningful program (zero threads, zero critical
    /// sections, zero retry depth). The payload names the offending
    /// parameter; callers reject the request instead of silently
    /// generating an empty litmus test.
    Degenerate(&'static str),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::IllFormed => write!(f, "ill-formed cycle"),
            GenError::NotCritical => write!(f, "not a critical cycle"),
            GenError::UnknownEdge(name) => write!(f, "unknown edge `{name}`"),
            GenError::Degenerate(what) => {
                write!(f, "degenerate family parameters: {what}")
            }
        }
    }
}

/// Parse a whitespace-separated cycle specification, e.g.
/// `"PodWW Rfe PodRR Fre"` (the MP shape). The inverse of printing each
/// [`Edge`] with a space between; validity of the *cycle* (adjacency,
/// criticality) is checked by [`validate`]/[`generate`], not here.
///
/// # Errors
///
/// [`GenError::UnknownEdge`] on the first unparseable name.
pub fn parse_cycle(text: &str) -> Result<Vec<Edge>, GenError> {
    text.split_whitespace()
        .map(|name| Edge::parse_name(name).ok_or_else(|| GenError::UnknownEdge(name.to_string())))
        .collect()
}

impl std::error::Error for GenError {}

struct GenEvent {
    thread: usize,
    loc: usize,
    is_write: bool,
    acquire: bool,
    release: bool,
    /// Write value (writes only).
    value: i64,
    /// Expected read value for the condition (reads only).
    expected: Option<i64>,
    /// Register receiving the read value.
    reg: String,
}

/// Check structural validity of a cycle.
pub fn validate(cycle: &[Edge]) -> Result<(), GenError> {
    if cycle.len() < 2 {
        return Err(GenError::IllFormed);
    }
    for e in cycle {
        if !e.well_formed() {
            return Err(GenError::IllFormed);
        }
    }
    let n = cycle.len();
    for i in 0..n {
        let (_, dst) = cycle[i].ends();
        let (src, _) = cycle[(i + 1) % n].ends();
        if dst != src {
            return Err(GenError::IllFormed);
        }
    }
    let externals = cycle.iter().filter(|e| e.is_external()).count();
    if externals < 2 {
        return Err(GenError::NotCritical);
    }
    for i in 0..n {
        if cycle[i].is_external() && cycle[(i + 1) % n].is_external() {
            return Err(GenError::NotCritical);
        }
    }
    // The cycle must close onto thread 0: the last edge must be external.
    if !cycle[n - 1].is_external() {
        return Err(GenError::NotCritical);
    }
    Ok(())
}

/// Generate the litmus test observing `cycle`.
///
/// # Errors
///
/// See [`validate`].
pub fn generate(cycle: &[Edge]) -> Result<Test, GenError> {
    let n_locs = cycle.iter().filter(|e| !e.is_external()).count().max(1);
    generate_with_locs(cycle, n_locs, "", false)
}

/// Generate the *contended* twin of a cycle's litmus test: every event
/// targets the same shared location (the way diy reuses its bounded
/// location pool on long cycles) and every write stores the same value,
/// so a read no longer identifies its writer. Same threads, same
/// adornments — but now program order is program order *to the same
/// location* and reads-from is genuinely ambiguous, so the coherence
/// axioms actually constrain the candidate space: most per-location
/// write permutations are forced and most reads-from choices are doomed
/// partway through. These are the tests where a generate-then-judge
/// enumerator does real wasted work, which makes them both a
/// conformance workload (uniproc/coherence corner cases) and the honest
/// benchmark corpus for enumeration pruning.
///
/// Short cycles produce trivially contended twins (a 4-event cycle has
/// at most two same-location writes), so the twin repeats the cycle's
/// access pattern until another repetition would exceed a fixed budget
/// of [`CONTENTION_EVENTS`] events — the same fixed-resource style as
/// diy's bounded process/location pools. A valid cycle concatenated
/// with itself is still a valid cycle (it closes on itself, so every
/// adjacency including the junction was already checked), and the
/// repetition count is derived, not configurable, so the twin is a pure
/// function of the cycle.
///
/// The test is named after the repeated edge sequence with a `+ctd`
/// suffix.
///
/// # Errors
///
/// See [`validate`].
pub fn generate_contended(cycle: &[Edge]) -> Result<Test, GenError> {
    if cycle.is_empty() {
        return Err(GenError::IllFormed);
    }
    let reps = (CONTENTION_EVENTS / cycle.len()).max(1);
    let repeated: Vec<Edge> = cycle.iter().copied().cycle().take(reps * cycle.len()).collect();
    generate_with_locs(&repeated, 1, "+ctd", true)
}

/// Event budget a contended twin fills by repeating its cycle.
pub const CONTENTION_EVENTS: usize = 8;

fn generate_with_locs(
    cycle: &[Edge],
    n_locs: usize,
    suffix: &str,
    collide_values: bool,
) -> Result<Test, GenError> {
    validate(cycle)?;
    let n = cycle.len();

    // Place events: external edges switch threads, internal edges switch
    // locations.
    let mut events: Vec<GenEvent> = Vec::with_capacity(n);
    let mut thread = 0usize;
    let mut loc = 0usize;
    for (i, edge) in cycle.iter().enumerate() {
        let (src, _) = edge.ends();
        events.push(GenEvent {
            thread,
            loc,
            is_write: src == Extremity::W,
            acquire: matches!(edge, Edge::Internal { kind: InternalKind::Acquire, .. }),
            release: false,
            value: 0,
            expected: None,
            reg: String::new(),
        });
        // The Release adornment marks the *destination* event.
        if let Edge::Internal { kind: InternalKind::Release, .. } =
            cycle[(i + n - 1) % n]
        {
            events[i].release = true;
        }
        if edge.is_external() {
            thread += 1;
        } else {
            loc = (loc + 1) % n_locs;
        }
    }
    // Wrap-around adornments for event 0.
    if let Edge::Internal { kind: InternalKind::Release, .. } = cycle[n - 1] {
        events[0].release = true;
    }

    // Values: writes to each location numbered in cycle order — or all
    // `1` for a contended twin, so reads cannot identify their writer
    // and reads-from stays genuinely ambiguous.
    let mut next_value = vec![0i64; n_locs];
    for ev in events.iter_mut() {
        if ev.is_write {
            next_value[ev.loc] += 1;
            ev.value = if collide_values { 1 } else { next_value[ev.loc] };
        }
    }

    // Read expectations: Rfe in → value of that write; else Fre out →
    // value of the target write's coherence predecessor.
    for i in 0..n {
        if events[i].is_write {
            continue;
        }
        let incoming = cycle[(i + n - 1) % n];
        let outgoing = cycle[i];
        if incoming == Edge::Rfe {
            let w = (i + n - 1) % n;
            events[i].expected = Some(events[w].value);
        } else if outgoing == Edge::Fre {
            let w = (i + 1) % n;
            events[i].expected = Some(events[w].value - 1);
        }
    }

    // Per-thread register numbering.
    let n_threads = thread;
    let mut reg_counter = vec![0usize; n_threads];
    for ev in events.iter_mut() {
        if !ev.is_write {
            ev.reg = format!("r{}", reg_counter[ev.thread]);
            reg_counter[ev.thread] += 1;
        }
    }

    // Emit threads.
    let loc_name = |l: usize| format!("x{l}");
    let name = cycle.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("+");
    let mut test = Test::new(format!("{name}{suffix}"));
    for l in 0..n_locs {
        test.init_int(loc_name(l), 0);
    }
    let mut bodies: Vec<Vec<Stmt>> = vec![Vec::new(); n_threads];
    let mut ptr_counter = 0usize;
    for i in 0..n {
        let ev = &events[i];
        let body = &mut bodies[ev.thread];
        // Dependency/fence adornment of the edge *entering* this event
        // (same thread ⇒ internal edge from the previous event).
        let incoming = cycle[(i + n - 1) % n];
        let mut addr: AddrExpr = AddrExpr::Var(loc_name(ev.loc));
        let mut value_expr = Expr::Const(ev.value);
        let mut ctrl_reg: Option<(String, i64)> = None;
        if let Edge::Internal { kind, .. } = incoming {
            let prev = &events[(i + n - 1) % n];
            match kind {
                InternalKind::Rmb => body.push(Stmt::Fence(FenceKind::Rmb)),
                InternalKind::Wmb => body.push(Stmt::Fence(FenceKind::Wmb)),
                InternalKind::Mb => body.push(Stmt::Fence(FenceKind::Mb)),
                InternalKind::SyncRcu => body.push(Stmt::Fence(FenceKind::SyncRcu)),
                InternalKind::Data => {
                    // value + (r ^ r): a false data dependency.
                    value_expr = Expr::bin(
                        BinOp::Add,
                        Expr::Const(ev.value),
                        Expr::bin(
                            BinOp::Xor,
                            Expr::Reg(prev.reg.clone()),
                            Expr::Reg(prev.reg.clone()),
                        ),
                    );
                }
                InternalKind::Addr | InternalKind::AddrRbDep => {
                    // p = &loc + (r ^ r): a false address dependency.
                    let p = format!("p{ptr_counter}");
                    ptr_counter += 1;
                    body.push(Stmt::Assign {
                        dst: p.clone(),
                        value: Expr::bin(
                            BinOp::Add,
                            Expr::LocRef(loc_name(ev.loc)),
                            Expr::bin(
                                BinOp::Xor,
                                Expr::Reg(prev.reg.clone()),
                                Expr::Reg(prev.reg.clone()),
                            ),
                        ),
                    });
                    if kind == InternalKind::AddrRbDep {
                        body.push(Stmt::Fence(FenceKind::RbDep));
                    }
                    addr = AddrExpr::Reg(p);
                }
                InternalKind::Ctrl => {
                    ctrl_reg = Some((prev.reg.clone(), prev.expected.unwrap_or(0)));
                }
                InternalKind::Po
                | InternalKind::Release
                | InternalKind::Acquire => {}
            }
        }
        let stmt = if ev.is_write {
            if ev.release {
                Stmt::StoreRelease { addr, value: value_expr }
            } else {
                Stmt::WriteOnce { addr, value: value_expr }
            }
        } else if ev.acquire {
            Stmt::LoadAcquire { dst: ev.reg.clone(), addr }
        } else {
            Stmt::ReadOnce { dst: ev.reg.clone(), addr }
        };
        if let Some((creg, cval)) = ctrl_reg {
            body.push(Stmt::If {
                cond: Expr::bin(BinOp::Eq, Expr::Reg(creg), Expr::Const(cval)),
                then_: vec![stmt],
                else_: Vec::new(),
            });
        } else {
            body.push(stmt);
        }
    }
    test.threads = bodies.into_iter().map(Thread::new).collect();

    // Condition: read expectations plus final-value pins for multi-write
    // locations.
    let mut props = Vec::new();
    for ev in &events {
        if let Some(v) = ev.expected {
            props.push(Prop::Eq(
                StateTerm::Reg { thread: ev.thread, reg: ev.reg.clone() },
                CondVal::Int(v),
            ));
        }
    }
    // Final-value pins only make sense when write values are distinct;
    // a contended twin's writes are indistinguishable by value.
    if !collide_values {
        for (l, &last) in next_value.iter().enumerate() {
            if last >= 2 {
                props.push(Prop::Eq(StateTerm::Loc(loc_name(l)), CondVal::Int(last)));
            }
        }
    }
    test.condition = Condition { quantifier: Quantifier::Exists, prop: Prop::all(props) };
    Ok(test)
}

/// The default edge alphabet used by the sweeps.
pub fn default_alphabet() -> Vec<Edge> {
    use Extremity::{R, W};
    let mut out = vec![Edge::Rfe, Edge::Fre, Edge::Coe];
    for src in [R, W] {
        for dst in [R, W] {
            for kind in [
                InternalKind::Po,
                InternalKind::Ctrl,
                InternalKind::Data,
                InternalKind::Addr,
                InternalKind::AddrRbDep,
                InternalKind::Rmb,
                InternalKind::Wmb,
                InternalKind::Mb,
                InternalKind::SyncRcu,
                InternalKind::Release,
                InternalKind::Acquire,
            ] {
                let e = Edge::internal(kind, src, dst);
                if e.well_formed() {
                    out.push(e);
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Enumerate all valid cycles with length in `2..=max_len` over
/// `alphabet`, canonicalised up to rotation (the lexicographically least
/// rotation is kept).
///
/// A depth-first search over `alphabet` order, so the cycles come out in
/// the order corpus indices, checkpoint cursors and simulator seeds rely
/// on. Each prefix costs O(1) unless it closes a cycle: adjacency is
/// checked at push and the external-edge count is carried down, so a
/// prefix is a valid cycle when its wrap-around is adjacent, its last
/// edge is external and its first is not. Subtrees that cannot yield a
/// canonical cycle are never entered: an ill-formed edge anywhere, an
/// external first edge (the closing edge is external too, and two
/// externals may not meet), and an edge `e < stack[0]` after an external
/// edge — the rotation starting at `e` ends in that external edge and is
/// smaller than the cycle whatever completes it.
pub fn cycles_up_to(max_len: usize, alphabet: &[Edge]) -> Vec<Vec<Edge>> {
    fn rec(
        alphabet: &[Edge],
        max_len: usize,
        externals: usize,
        stack: &mut Vec<Edge>,
        out: &mut Vec<Vec<Edge>>,
    ) {
        let (first, last) = (stack[0], stack[stack.len() - 1]);
        if stack.len() >= 2
            && externals >= 2
            && last.is_external()
            && last.ends().1 == first.ends().0
            && is_canonical_rotation(stack)
        {
            out.push(stack.clone());
        }
        if stack.len() == max_len {
            return;
        }
        for &e in alphabet {
            if !e.well_formed() || last.ends().1 != e.ends().0 {
                continue;
            }
            if last.is_external() && (e.is_external() || e < first) {
                continue;
            }
            stack.push(e);
            rec(alphabet, max_len, externals + usize::from(e.is_external()), stack, out);
            stack.pop();
        }
    }
    let mut out = Vec::new();
    if max_len < 2 {
        return out;
    }
    let mut stack: Vec<Edge> = Vec::with_capacity(max_len);
    for &e in alphabet {
        if e.well_formed() && !e.is_external() {
            stack.push(e);
            rec(alphabet, max_len, 0, &mut stack, &mut out);
            stack.pop();
        }
    }
    out
}

/// Is this valid cycle the lexicographically least among its rotations
/// that also end in an external edge? Compares in place.
fn is_canonical_rotation(cycle: &[Edge]) -> bool {
    let n = cycle.len();
    (1..n).filter(|&r| cycle[r - 1].is_external()).all(|r| {
        let rotated = cycle[r..].iter().chain(&cycle[..r]);
        rotated.cmp(cycle.iter()) != std::cmp::Ordering::Less
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use Extremity::{R, W};

    /// The exhaustive search `cycles_up_to` prunes: every adjacent
    /// prefix, fully validated, every rotation built. The reference for
    /// its output and order.
    fn cycles_brute_force(max_len: usize, alphabet: &[Edge]) -> Vec<Vec<Edge>> {
        fn rec(alphabet: &[Edge], max_len: usize, stack: &mut Vec<Edge>, out: &mut Vec<Vec<Edge>>) {
            if stack.len() >= 2 && validate(stack).is_ok() && least_rotation(stack) {
                out.push(stack.clone());
            }
            if stack.len() == max_len {
                return;
            }
            for &e in alphabet {
                if let Some(&last) = stack.last() {
                    if last.ends().1 != e.ends().0 || (last.is_external() && e.is_external()) {
                        continue;
                    }
                }
                stack.push(e);
                rec(alphabet, max_len, stack, out);
                stack.pop();
            }
        }
        fn least_rotation(cycle: &[Edge]) -> bool {
            let n = cycle.len();
            let mut best: Option<Vec<Edge>> = None;
            for r in 0..n {
                if !cycle[(r + n - 1) % n].is_external() {
                    continue;
                }
                let rotated: Vec<Edge> = (0..n).map(|i| cycle[(r + i) % n]).collect();
                if best.as_ref().is_none_or(|b| rotated < *b) {
                    best = Some(rotated);
                }
            }
            best.as_deref() == Some(cycle)
        }
        let mut out = Vec::new();
        rec(alphabet, max_len, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn pruned_enumeration_matches_the_brute_force_in_order() {
        let default = default_alphabet();
        let mut reversed = default.clone();
        reversed.reverse();
        // A duplicate edge (every cycle through it comes out twice, in
        // both searches) and an ill-formed one.
        let odd = vec![
            Edge::internal(InternalKind::Po, W, R),
            Edge::Fre,
            Edge::internal(InternalKind::Wmb, R, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Mb, R, R),
            Edge::internal(InternalKind::Po, W, R),
            Edge::Coe,
            Edge::internal(InternalKind::Data, R, W),
            Edge::internal(InternalKind::Po, W, W),
        ];
        for alphabet in [&default, &reversed, &odd] {
            for max_len in 0..=5 {
                assert_eq!(
                    cycles_up_to(max_len, alphabet),
                    cycles_brute_force(max_len, alphabet),
                    "length {max_len} over {alphabet:?}"
                );
            }
        }
        let odd_cycles = cycles_up_to(5, &odd);
        assert_eq!(odd_cycles.len(), 44);
        assert!(odd_cycles.iter().any(|c| odd_cycles.iter().filter(|d| *d == c).count() == 2));
    }

    #[test]
    fn default_alphabet_has_63_440_cycles_up_to_length_6() {
        assert_eq!(cycles_up_to(6, &default_alphabet()).len(), 63_440);
    }

    #[test]
    fn validates_shapes() {
        // MP cycle: Wx -wmb- Wy, Rfe, Ry -rmb- Rx, Fre.
        let mp = [
            Edge::internal(InternalKind::Wmb, W, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Rmb, R, R),
            Edge::Fre,
        ];
        assert!(validate(&mp).is_ok());
        // Mismatched extremities.
        let bad = [Edge::Rfe, Edge::Rfe];
        assert_eq!(validate(&bad), Err(GenError::IllFormed)); // W→R then W→R mismatch
        let bad2 = [Edge::internal(InternalKind::Po, W, W), Edge::Rfe];
        assert_eq!(validate(&bad2), Err(GenError::IllFormed));
        // Wmb between a read and a write is ill-formed.
        assert!(!Edge::internal(InternalKind::Wmb, R, W).well_formed());
    }

    #[test]
    fn generates_mp_shape() {
        let mp = [
            Edge::internal(InternalKind::Wmb, W, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Rmb, R, R),
            Edge::Fre,
        ];
        let t = generate(&mp).unwrap();
        assert_eq!(t.threads.len(), 2);
        assert_eq!(t.shared_locations().len(), 2);
        // Writer thread: write, wmb, write.
        assert!(matches!(t.threads[0].body[1], Stmt::Fence(FenceKind::Wmb)));
        assert_eq!(t.condition.prop.terms().len(), 2);
    }

    #[test]
    fn generates_dependencies() {
        let lb_data = [
            Edge::internal(InternalKind::Data, R, W),
            Edge::Rfe,
            Edge::internal(InternalKind::Ctrl, R, W),
            Edge::Rfe,
        ];
        let t = generate(&lb_data).unwrap();
        // Thread 1 has the ctrl-wrapped write.
        assert!(t.threads.iter().any(|th| th
            .body
            .iter()
            .any(|s| matches!(s, Stmt::If { .. }))));
        let addr = [
            Edge::internal(InternalKind::Addr, R, R),
            Edge::Fre,
            Edge::internal(InternalKind::Wmb, W, W),
            Edge::Rfe,
        ];
        let t2 = generate(&addr).unwrap();
        assert!(t2.threads.iter().any(|th| th
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Assign { .. }))));
    }

    #[test]
    fn coe_cycles_pin_final_values() {
        // 2+2W: Wx -wmb- Wy, Coe, Wy' -wmb- Wx', Coe.
        let cycle = [
            Edge::internal(InternalKind::Wmb, W, W),
            Edge::Coe,
            Edge::internal(InternalKind::Wmb, W, W),
            Edge::Coe,
        ];
        let t = generate(&cycle).unwrap();
        // Both locations have two writes → two final-value pins.
        assert_eq!(t.condition.prop.terms().len(), 2);
        assert!(t
            .condition
            .prop
            .terms()
            .iter()
            .all(|term| matches!(term, StateTerm::Loc(_))));
    }

    #[test]
    fn enumeration_yields_thousands_and_all_generate() {
        let cycles = cycles_up_to(6, &default_alphabet());
        assert!(cycles.len() > 1_000, "only {} cycles", cycles.len());
        for c in &cycles {
            generate(c).unwrap_or_else(|e| panic!("{c:?}: {e}"));
        }
    }

    #[test]
    fn edge_names_round_trip_through_parse() {
        for edge in default_alphabet() {
            assert_eq!(Edge::parse_name(&edge.to_string()), Some(edge));
        }
        assert_eq!(Edge::parse_name("Rfe"), Some(Edge::Rfe));
        assert_eq!(Edge::parse_name("Bogus"), None);
        assert_eq!(Edge::parse_name("RmbWW"), None, "ill-formed adornment");
        assert_eq!(
            parse_cycle("PodWW Rfe PodRR Fre").unwrap(),
            vec![
                Edge::internal(InternalKind::Po, W, W),
                Edge::Rfe,
                Edge::internal(InternalKind::Po, R, R),
                Edge::Fre,
            ]
        );
        assert_eq!(
            parse_cycle("PodWW Nope"),
            Err(GenError::UnknownEdge("Nope".to_string()))
        );
    }

    #[test]
    fn whole_cycles_round_trip_through_parse_cycle() {
        // Every enumerated cycle survives print → parse_cycle unchanged,
        // so campaign reports can name generated tests by cycle spec.
        for cycle in cycles_up_to(4, &default_alphabet()) {
            let spec =
                cycle.iter().map(Edge::to_string).collect::<Vec<_>>().join(" ");
            assert_eq!(parse_cycle(&spec).as_deref(), Ok(&cycle[..]), "spec `{spec}`");
        }
        // Whitespace variations parse identically.
        assert_eq!(
            parse_cycle("  PodWW   Rfe\tPodRR \n Fre "),
            parse_cycle("PodWW Rfe PodRR Fre"),
        );
        assert_eq!(parse_cycle(""), Ok(vec![]));
    }

    #[test]
    fn unknown_edge_errors_name_the_offending_token() {
        // The *first* bad token is reported, verbatim, in the message.
        let err = parse_cycle("PodWW Frobnicate Rfe Nope").unwrap_err();
        assert_eq!(err, GenError::UnknownEdge("Frobnicate".to_string()));
        assert!(err.to_string().contains("`Frobnicate`"), "{err}");
        // Near-miss spellings are rejected with their own name, not a
        // guess: case matters and adornments must be well-formed.
        for bad in ["podWW", "RFE", "WmbRW", "Pod"] {
            let err = parse_cycle(bad).unwrap_err();
            assert_eq!(err, GenError::UnknownEdge(bad.to_string()));
            assert!(err.to_string().contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn degenerate_parameters_carry_the_offending_knob_in_the_message() {
        // Program families (crates/algorithms) reject zero-sized
        // parameters with this variant; the message must name the knob
        // so a CLI user can tell which of threads/sections/retries was
        // wrong.
        let err = GenError::Degenerate("threads must be at least 1");
        assert_eq!(
            err.to_string(),
            "degenerate family parameters: threads must be at least 1"
        );
        let err = GenError::Degenerate("retry depth must be at least 1");
        assert!(err.to_string().starts_with("degenerate family parameters:"), "{err}");
        assert!(err.to_string().contains("retry depth"), "{err}");
    }

    #[test]
    fn canonicalisation_dedupes_rotations() {
        let cycles = cycles_up_to(4, &[Edge::Rfe, Edge::Fre, Edge::internal(InternalKind::Po, R, W), Edge::internal(InternalKind::Po, R, R), Edge::internal(InternalKind::Po, W, R), Edge::internal(InternalKind::Po, W, W)]);
        // No two cycles are rotations of each other.
        for (i, a) in cycles.iter().enumerate() {
            for b in cycles.iter().skip(i + 1) {
                if a.len() != b.len() {
                    continue;
                }
                let n = a.len();
                for r in 0..n {
                    let rotated: Vec<Edge> = (0..n).map(|k| b[(r + k) % n]).collect();
                    assert_ne!(*a, rotated, "rotational duplicate");
                }
            }
        }
    }
}
