//! Candidate executions and their derived relations.

use crate::event::{Event, EventKind, LocId, SrcuKind, Val};
use crate::lower::{Program, Term};
use lkmm_litmus::cond::Prop;
use lkmm_litmus::FenceKind;
use lkmm_relation::{EventSet, Relation};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One candidate execution of a litmus test: events plus the abstract
/// execution relations (`po`, `addr`, `data`, `ctrl`, `rmw`, in its
/// [`Shape`]) and the execution witness (`rf`, `co`).
///
/// All the derived relations used by cat models are provided as methods
/// (`fr`, `po_loc`, `rfe`, [`Execution::fencerel`], the RCU `crit`
/// matching, …). Events are densely numbered: initialising writes first,
/// then each thread's events in program order.
///
/// The pre-witness part (everything except `rf`/`co`) is shared behind
/// `Arc`s: the lowered program by every candidate of the test, the
/// events and final registers by every candidate of one thread-outcome
/// combination, the shape by every pre-execution of the test with the
/// same value-free structure. Cloning a candidate copies two bitset
/// relations and a handful of reference counts, not the whole event
/// structure.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The lowered test: location names (`LocId(i)` names
    /// `program.locs[i]`), register names and the condition's terms.
    pub program: Arc<Program>,
    /// All events. `events[i].id == i`.
    pub events: Arc<Vec<Event>>,
    /// Number of program threads.
    pub n_threads: usize,
    /// The value-free structure: program order, dependencies, `rmw` and
    /// `po-loc`.
    pub shape: Arc<Shape>,
    /// Reads-from: one write per read.
    pub rf: Relation,
    /// Coherence order: total per location, initialising write first
    /// (stored transitively closed).
    pub co: Relation,
    /// Final register values, per thread, by register id; `None` for a
    /// register the thread never wrote.
    pub final_regs: Arc<Vec<Vec<Option<Val>>>>,
}

/// The value-free structure of a pre-execution. Pre-executions whose
/// events differ only in the values they read and write — the same
/// kinds, annotations, locations and threads, in the same order, with
/// the same dependency edges — share one shape.
///
/// The enumerator interns one shape per distinct structure of a test
/// that a thread meets (see [`crate::enumerate::Cursor`]), and builds its
/// relations once. Every fact that depends only on structure
/// (the static tier of [`crate::FactsCache`], the model sessions' own
/// static caches) is keyed on the identity of this `Arc`
/// (`Arc::ptr_eq`): holding a clone keeps the allocation alive, so the
/// identity cannot be recycled while a cache entry exists.
#[derive(Debug)]
pub struct Shape {
    /// Program order (transitive, per thread).
    pub po: Relation,
    /// Address dependencies (from reads).
    pub addr: Relation,
    /// Data dependencies (from reads to writes).
    pub data: Relation,
    /// Control dependencies (from reads).
    pub ctrl: Relation,
    /// Read-modify-write pairing.
    pub rmw: Relation,
    /// `po ∩ loc`.
    pub po_loc: Relation,
}

impl Execution {
    /// Number of events (the relation universe).
    pub fn universe(&self) -> usize {
        self.events.len()
    }

    /// Look up a location id by name.
    pub fn loc_id(&self, name: &str) -> Option<LocId> {
        self.program.loc(name)
    }

    /// Events selected by a predicate, as a set.
    pub fn events_where(&self, pred: impl Fn(&Event) -> bool) -> EventSet {
        EventSet::from_iter(
            self.universe(),
            self.events.iter().filter(|e| pred(e)).map(|e| e.id),
        )
    }

    /// All reads (`R`).
    pub fn reads(&self) -> EventSet {
        self.events_where(Event::is_read)
    }

    /// All writes including initialising writes (`W`).
    pub fn writes(&self) -> EventSet {
        self.events_where(Event::is_write)
    }

    /// The initialising writes (`IW`).
    pub fn init_writes(&self) -> EventSet {
        self.events_where(Event::is_init)
    }

    /// All memory accesses (`M = R ∪ W`).
    pub fn mem(&self) -> EventSet {
        self.events_where(Event::is_mem)
    }

    /// Fences of one kind.
    pub fn fences(&self, kind: FenceKind) -> EventSet {
        self.events_where(|e| e.is_fence(kind))
    }

    /// Acquire reads.
    pub fn acquires(&self) -> EventSet {
        self.events_where(Event::is_acquire)
    }

    /// Release writes.
    pub fn releases(&self) -> EventSet {
        self.events_where(Event::is_release)
    }

    /// `loc`: pairs of memory accesses to the same location.
    pub fn loc_rel(&self) -> Relation {
        let mut r = Relation::empty(self.universe());
        for a in self.events.iter() {
            for b in self.events.iter() {
                if let (Some(la), Some(lb)) = (a.loc(), b.loc()) {
                    if la == lb {
                        r.insert(a.id, b.id);
                    }
                }
            }
        }
        r
    }

    /// `int`: pairs of events on the same thread (reflexive). Initialising
    /// writes belong to no thread, so they are `int` only with themselves.
    pub fn int_rel(&self) -> Relation {
        let mut r = Relation::identity(self.universe());
        for a in self.events.iter() {
            for b in self.events.iter() {
                if a.thread.is_some() && a.thread == b.thread {
                    r.insert(a.id, b.id);
                }
            }
        }
        r
    }

    /// `ext = ~int`.
    pub fn ext_rel(&self) -> Relation {
        self.int_rel().complement()
    }

    /// From-reads: `fr = rf⁻¹ ; co`.
    pub fn fr(&self) -> Relation {
        self.rf.inverse().seq(&self.co)
    }

    /// Communications: `com = rf ∪ co ∪ fr`.
    pub fn com(&self) -> Relation {
        self.rf.union(&self.co).union(&self.fr())
    }

    /// Program order restricted to same-location accesses (a clone of
    /// the shape's precomputed relation).
    pub fn po_loc(&self) -> Relation {
        self.shape.po_loc.clone()
    }

    /// Internal reads-from.
    pub fn rfi(&self) -> Relation {
        self.rf.intersection(&self.int_rel())
    }

    /// External reads-from.
    pub fn rfe(&self) -> Relation {
        self.rf.intersection(&self.ext_rel())
    }

    /// External coherence.
    pub fn coe(&self) -> Relation {
        self.co.intersection(&self.ext_rel())
    }

    /// External from-reads.
    pub fn fre(&self) -> Relation {
        self.fr().intersection(&self.ext_rel())
    }

    /// `fencerel(kind)`: pairs `(a, b)` with a fence of `kind` between them
    /// in program order (`po ; [F kind] ; po`).
    pub fn fencerel(&self, kind: FenceKind) -> Relation {
        let f = self.fences(kind).as_identity();
        self.shape.po.seq(&f).seq(&self.shape.po)
    }

    /// The paper's `gp` relation (Figure 12):
    /// `(po ∩ (_ × Sync)) ; po?` — pairs separated by a `synchronize_rcu`,
    /// or whose second element is the `synchronize_rcu` itself.
    pub fn gp(&self) -> Relation {
        let sync = self.fences(FenceKind::SyncRcu).as_identity();
        self.shape.po.seq(&sync).seq(&self.shape.po.reflexive())
    }

    /// The `crit` relation: each *outermost* `rcu_read_lock` paired with
    /// its matching `rcu_read_unlock` (paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics if a thread's RCU sections are not properly nested; the
    /// enumerator rejects such programs first.
    pub fn crit(&self) -> Relation {
        let mut r = Relation::empty(self.universe());
        for t in 0..self.n_threads {
            let mut depth = 0usize;
            let mut outermost: Option<usize> = None;
            for e in self.events.iter().filter(|e| e.thread == Some(t)) {
                if e.is_fence(FenceKind::RcuLock) {
                    if depth == 0 {
                        outermost = Some(e.id);
                    }
                    depth += 1;
                } else if e.is_fence(FenceKind::RcuUnlock) {
                    depth = depth.checked_sub(1).expect("unbalanced rcu_read_unlock");
                    if depth == 0 {
                        r.insert(outermost.take().expect("unlock without lock"), e.id);
                    }
                }
            }
            assert_eq!(depth, 0, "unclosed rcu_read_lock in thread {t}");
        }
        r
    }

    /// SRCU domains appearing in this execution, deduplicated.
    pub fn srcu_domains(&self) -> Vec<LocId> {
        let mut out: Vec<LocId> =
            self.events.iter().filter_map(|e| e.srcu().map(|(_, d)| d)).collect();
        out.sort();
        out.dedup();
        out
    }

    /// SRCU events of a kind within one domain.
    pub fn srcu_events(&self, kind: SrcuKind, domain: LocId) -> EventSet {
        self.events_where(|e| e.srcu() == Some((kind, domain)))
    }

    /// `crit` for one SRCU domain: outermost lock/unlock matching, like
    /// [`Execution::crit`] but per domain.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced sections (rejected by the enumerator).
    pub fn srcu_crit(&self, domain: LocId) -> Relation {
        let mut r = Relation::empty(self.universe());
        for t in 0..self.n_threads {
            let mut depth = 0usize;
            let mut outermost: Option<usize> = None;
            for e in self.events.iter().filter(|e| e.thread == Some(t)) {
                match e.srcu() {
                    Some((SrcuKind::Lock, d)) if d == domain => {
                        if depth == 0 {
                            outermost = Some(e.id);
                        }
                        depth += 1;
                    }
                    Some((SrcuKind::Unlock, d)) if d == domain => {
                        depth = depth.checked_sub(1).expect("unbalanced srcu unlock");
                        if depth == 0 {
                            r.insert(outermost.take().expect("lock before unlock"), e.id);
                        }
                    }
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "unclosed srcu_read_lock in thread {t}");
        }
        r
    }

    /// `gp` for one SRCU domain (`(po ∩ (_ × SyncSrcu_d)) ; po?`).
    pub fn srcu_gp(&self, domain: LocId) -> Relation {
        let sync = self.srcu_events(SrcuKind::Sync, domain).as_identity();
        self.shape.po.seq(&sync).seq(&self.shape.po.reflexive())
    }

    /// The final value of each location: the coherence-maximal write.
    pub fn final_values(&self) -> BTreeMap<LocId, Val> {
        let mut out = BTreeMap::new();
        for e in self.events.iter() {
            if let EventKind::Write { loc, val, .. } = e.kind {
                // co-maximal: no other write to loc is co-after e.
                let maximal = !self.co.successors(e.id).any(|_| true);
                if maximal {
                    out.insert(loc, val);
                }
            }
        }
        out
    }

    /// The final value of each of the condition's terms, in
    /// [`Program::terms`] order.
    pub(crate) fn term_values(&self) -> Vec<Option<Val>> {
        let final_value = |loc: u32| {
            self.events.iter().find_map(|e| match e.kind {
                EventKind::Write { loc: l, val, .. }
                    if l.0 == loc as usize && self.co.successors(e.id).next().is_none() =>
                {
                    Some(val)
                }
                _ => None,
            })
        };
        self.program
            .terms
            .iter()
            .map(|term| match *term {
                Term::Reg { thread, reg } => *self.final_regs.get(thread)?.get(reg? as usize)?,
                Term::Loc(loc) => final_value(loc?),
            })
            .collect()
    }

    /// Evaluate the test's final-state proposition against this
    /// execution: `prop` is the condition the program was lowered from
    /// (see [`Program::holds`]).
    pub fn satisfies_prop(&self, prop: &Prop) -> bool {
        self.program.holds(prop, &self.term_values())
    }

    /// Render the execution as a Graphviz `dot` graph (events as nodes,
    /// `po`/`rf`/`co`/dependency edges), for debugging and documentation.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph execution {\n  rankdir=TB;\n");
        for e in self.events.iter() {
            out.push_str(&format!("  e{} [label=\"{}\"];\n", e.id, e));
        }
        let edge_sets: [(&str, &Relation, &str); 5] = [
            ("po", &self.shape.po, "black"),
            ("rf", &self.rf, "red"),
            ("co", &self.co, "blue"),
            ("addr", &self.shape.addr, "darkgreen"),
            ("ctrl", &self.shape.ctrl, "purple"),
        ];
        for (name, rel, colour) in edge_sets {
            for (a, b) in rel.iter() {
                // Show only immediate po edges to keep graphs readable.
                let po = &self.shape.po;
                if name == "po" && po.successors(a).any(|m| po.contains(m, b)) {
                    continue;
                }
                out.push_str(&format!(
                    "  e{a} -> e{b} [label=\"{name}\", color={colour}];\n"
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "execution with {} events:", self.universe())?;
        for e in self.events.iter() {
            writeln!(f, "  {e}")?;
        }
        write!(f, "  rf={:?} co={:?}", self.rf, self.co)
    }
}
