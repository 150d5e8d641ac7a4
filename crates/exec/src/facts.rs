//! Shared, lazily-memoised derived relations for candidate executions.
//!
//! Every consistency model in this workspace is a set of axioms over the
//! same base relations: `fr`, `com`, `po-loc`, `loc`, `int`/`ext`, fence
//! and acquire/release sets, RCU critical sections. Before this layer
//! each checker recomputed those privately per candidate — seven models
//! over one candidate meant seven `fr = rf⁻¹ ; co` sequences and seven
//! `O(n²)` `loc`/`int` rebuilds. [`ExecFacts`] computes each fact at
//! most once per candidate and lends it out by reference, so N models
//! checking the same execution share one copy of everything.
//!
//! The facts split into two tiers, mirroring how executions share their
//! pre-witness structure behind `Arc`s:
//!
//! * [`StaticExecFacts`] — facts that depend only on the value-free
//!   structure of the pre-execution (event kinds and locations, `po`,
//!   dependencies): `loc`, `int`/`ext`, event sets, fence relations,
//!   `gp`, `crit`, SRCU structure. A [`FactsCache`] reuses them across
//!   candidates keyed on the identity of the execution's [`Shape`]
//!   (`Arc::ptr_eq`), exactly like the model sessions' own static
//!   caches, so every pre-execution of a test that differs only in
//!   values shares one tier.
//! * [`ExecFacts`] — the witness-dependent tier (`fr`, `com`, `rfe`,
//!   `fre ; coe`, the shared coherence/atomicity axiom verdicts), fresh
//!   per candidate, borrowing the static tier.
//!
//! Everything is single-threaded by design (`Rc` + `OnceCell`): the
//! pipeline gives each worker its own [`FactsCache`], the same way each
//! worker owns its model sessions.

use crate::event::LocId;
use crate::execution::{Execution, Shape};
use lkmm_litmus::FenceKind;
use lkmm_relation::{acquire_rel, ArenaRel, EventSet, Relation, SharedArena};
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

/// Number of [`FenceKind`] variants (the per-kind fact tables are
/// fixed-size arrays indexed by [`fence_index`]).
const N_FENCE_KINDS: usize = 7;

/// Dense index of a fence kind into the per-kind fact tables.
fn fence_index(kind: FenceKind) -> usize {
    match kind {
        FenceKind::Rmb => 0,
        FenceKind::Wmb => 1,
        FenceKind::Mb => 2,
        FenceKind::RbDep => 3,
        FenceKind::RcuLock => 4,
        FenceKind::RcuUnlock => 5,
        FenceKind::SyncRcu => 6,
    }
}

/// The witness-independent facts of one SRCU domain.
#[derive(Clone, Debug)]
pub struct SrcuDomainFacts {
    /// The domain these facts describe.
    pub domain: LocId,
    /// `gp` for this domain: `(po ∩ (_ × SyncSrcu_d)) ; po?`.
    pub gp: Relation,
    /// Outermost lock/unlock matching for this domain.
    pub crit: Relation,
}

/// Lazily-computed facts shared by every candidate of one shape.
///
/// Each field is computed on first access — through an [`ExecFacts`]
/// borrowing this tier — and memoised for every later candidate and
/// every later model. A fresh instance knows nothing; it fills in from
/// whichever execution first asks, which is sound because every
/// candidate sharing it (see [`FactsCache`]) has the same [`Shape`], and
/// no fact here reads a value.
#[derive(Debug, Default)]
pub struct StaticExecFacts {
    loc_rel: OnceCell<Relation>,
    int: OnceCell<Relation>,
    ext: OnceCell<Relation>,
    reads: OnceCell<EventSet>,
    writes: OnceCell<EventSet>,
    init_writes: OnceCell<EventSet>,
    mem: OnceCell<EventSet>,
    acquires: OnceCell<EventSet>,
    releases: OnceCell<EventSet>,
    fences: [OnceCell<EventSet>; N_FENCE_KINDS],
    fencerels: [OnceCell<Relation>; N_FENCE_KINDS],
    gp: OnceCell<Relation>,
    crit: OnceCell<Relation>,
    srcu: OnceCell<Vec<SrcuDomainFacts>>,
}

/// All derived relations of one candidate execution, computed at most
/// once and borrowed by every checker.
///
/// Construct with [`ExecFacts::new`] for one-off use, or through a
/// [`FactsCache`] to share the static tier across the candidates of a
/// shape. Accessors return references; nothing is recomputed on
/// a second call, whether it comes from the same model or a different
/// one.
#[derive(Debug)]
pub struct ExecFacts<'x> {
    x: &'x Execution,
    statics: Rc<StaticExecFacts>,
    arena: Option<SharedArena>,
    fr: OnceCell<ArenaRel>,
    com: OnceCell<ArenaRel>,
    rfi: OnceCell<ArenaRel>,
    rfe: OnceCell<ArenaRel>,
    coe: OnceCell<ArenaRel>,
    fre: OnceCell<ArenaRel>,
    fre_seq_coe: OnceCell<ArenaRel>,
    sc_per_loc_ok: OnceCell<bool>,
    atomicity_ok: OnceCell<bool>,
}

impl<'x> ExecFacts<'x> {
    /// Facts for `x` with a fresh static tier. Use a [`FactsCache`] when
    /// checking many candidates of one test.
    pub fn new(x: &'x Execution) -> Self {
        Self::with_statics(x, Rc::new(StaticExecFacts::default()), None)
    }

    fn with_statics(
        x: &'x Execution,
        statics: Rc<StaticExecFacts>,
        arena: Option<SharedArena>,
    ) -> Self {
        ExecFacts {
            x,
            statics,
            arena,
            fr: OnceCell::new(),
            com: OnceCell::new(),
            rfi: OnceCell::new(),
            rfe: OnceCell::new(),
            coe: OnceCell::new(),
            fre: OnceCell::new(),
            fre_seq_coe: OnceCell::new(),
            sc_per_loc_ok: OnceCell::new(),
            atomicity_ok: OnceCell::new(),
        }
    }

    /// The execution these facts describe.
    pub fn execution(&self) -> &'x Execution {
        self.x
    }

    /// The arena backing the witness tier, when these facts came from a
    /// [`FactsCache::with_arena`] cache. Checkers thread this into their
    /// own per-candidate relation algebra so the whole evaluation of one
    /// candidate draws from a single per-worker pool.
    pub fn arena(&self) -> Option<&SharedArena> {
        self.arena.as_ref()
    }

    // --- static tier: value-free facts of the shape ---

    /// `loc`: pairs of memory accesses to the same location.
    pub fn loc_rel(&self) -> &Relation {
        self.statics.loc_rel.get_or_init(|| self.x.loc_rel())
    }

    /// `int`: same-thread pairs (reflexive).
    pub fn int_rel(&self) -> &Relation {
        self.statics.int.get_or_init(|| self.x.int_rel())
    }

    /// `ext = ~int`.
    pub fn ext_rel(&self) -> &Relation {
        self.statics.ext.get_or_init(|| self.int_rel().complement())
    }

    /// `po-loc`: program order restricted to same-location accesses
    /// (the shape's precomputed relation, not rebuilt).
    pub fn po_loc(&self) -> &Relation {
        &self.x.shape.po_loc
    }

    /// All reads (`R`).
    pub fn reads(&self) -> &EventSet {
        self.statics.reads.get_or_init(|| self.x.reads())
    }

    /// All writes including initialising writes (`W`).
    pub fn writes(&self) -> &EventSet {
        self.statics.writes.get_or_init(|| self.x.writes())
    }

    /// The initialising writes (`IW`).
    pub fn init_writes(&self) -> &EventSet {
        self.statics.init_writes.get_or_init(|| self.x.init_writes())
    }

    /// All memory accesses (`M = R ∪ W`).
    pub fn mem(&self) -> &EventSet {
        self.statics.mem.get_or_init(|| self.x.mem())
    }

    /// Acquire reads.
    pub fn acquires(&self) -> &EventSet {
        self.statics.acquires.get_or_init(|| self.x.acquires())
    }

    /// Release writes.
    pub fn releases(&self) -> &EventSet {
        self.statics.releases.get_or_init(|| self.x.releases())
    }

    /// Fences of one kind.
    pub fn fences(&self, kind: FenceKind) -> &EventSet {
        self.statics.fences[fence_index(kind)].get_or_init(|| self.x.fences(kind))
    }

    /// `fencerel(kind) = po ; [F kind] ; po`.
    pub fn fencerel(&self, kind: FenceKind) -> &Relation {
        self.statics.fencerels[fence_index(kind)].get_or_init(|| {
            let f = self.fences(kind).as_identity();
            self.x.shape.po.seq(&f).seq(&self.x.shape.po)
        })
    }

    /// The paper's `gp` relation: `(po ∩ (_ × Sync)) ; po?`.
    pub fn gp(&self) -> &Relation {
        self.statics.gp.get_or_init(|| {
            let sync = self.fences(FenceKind::SyncRcu).as_identity();
            self.x.shape.po.seq(&sync).seq(&self.x.shape.po.reflexive())
        })
    }

    /// The `crit` relation: outermost RCU lock/unlock matching.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced RCU sections, like [`Execution::crit`]; the
    /// enumerator rejects such programs first.
    pub fn crit(&self) -> &Relation {
        self.statics.crit.get_or_init(|| self.x.crit())
    }

    /// Per-domain SRCU facts, one entry per domain in
    /// [`Execution::srcu_domains`] order. Empty for SRCU-free programs.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced SRCU sections, like [`Execution::srcu_crit`].
    pub fn srcu(&self) -> &[SrcuDomainFacts] {
        self.statics.srcu.get_or_init(|| {
            self.x
                .srcu_domains()
                .into_iter()
                .map(|domain| SrcuDomainFacts {
                    domain,
                    gp: self.x.srcu_gp(domain),
                    crit: self.x.srcu_crit(domain),
                })
                .collect()
        })
    }

    // --- witness tier: rf/co-dependent facts ---
    //
    // All witness facts are computed with the in-place kernel variants
    // into arena-acquired storage, so a pooled worker derives them
    // allocation-free in steady state; without an arena the handles are
    // plain owned relations and the cost matches the old code.

    /// From-reads: `fr = rf⁻¹ ; co`.
    pub fn fr(&self) -> &Relation {
        self.fr.get_or_init(|| {
            let n = self.x.rf.universe();
            let pool = self.arena.as_ref();
            let mut inv = acquire_rel(pool, n);
            self.x.rf.inverse_into(&mut inv);
            let mut fr = acquire_rel(pool, n);
            inv.seq_into(&self.x.co, &mut fr);
            fr
        })
    }

    /// Communications: `com = rf ∪ co ∪ fr`.
    pub fn com(&self) -> &Relation {
        self.com.get_or_init(|| {
            let mut com = acquire_rel(self.arena.as_ref(), self.x.rf.universe());
            com.copy_from(&self.x.rf);
            com.union_in_place(&self.x.co);
            com.union_in_place(self.fr());
            com
        })
    }

    /// Internal reads-from.
    pub fn rfi(&self) -> &Relation {
        self.rfi.get_or_init(|| {
            let mut rfi = acquire_rel(self.arena.as_ref(), self.x.rf.universe());
            rfi.copy_from(&self.x.rf);
            rfi.intersection_in_place(self.int_rel());
            rfi
        })
    }

    /// External reads-from.
    pub fn rfe(&self) -> &Relation {
        self.rfe.get_or_init(|| {
            let mut rfe = acquire_rel(self.arena.as_ref(), self.x.rf.universe());
            rfe.copy_from(&self.x.rf);
            rfe.intersection_in_place(self.ext_rel());
            rfe
        })
    }

    /// External coherence.
    pub fn coe(&self) -> &Relation {
        self.coe.get_or_init(|| {
            let mut coe = acquire_rel(self.arena.as_ref(), self.x.co.universe());
            coe.copy_from(&self.x.co);
            coe.intersection_in_place(self.ext_rel());
            coe
        })
    }

    /// External from-reads.
    pub fn fre(&self) -> &Relation {
        self.fre.get_or_init(|| {
            let mut fre = acquire_rel(self.arena.as_ref(), self.x.rf.universe());
            fre.copy_from(self.fr());
            fre.intersection_in_place(self.ext_rel());
            fre
        })
    }

    /// `fre ; coe` — the sequence at the heart of every model's RMW
    /// atomicity axiom (`empty(rmw ∩ (fre ; coe))`).
    pub fn fre_seq_coe(&self) -> &Relation {
        self.fre_seq_coe.get_or_init(|| {
            let mut out = acquire_rel(self.arena.as_ref(), self.x.rf.universe());
            self.fre().seq_into(self.coe(), &mut out);
            out
        })
    }

    /// Sequential consistency per variable: `acyclic(po-loc ∪ com)`.
    /// Shared verbatim by the LKMM's Scpv axiom and the TSO / ARMv8 /
    /// Power coherence preludes.
    pub fn sc_per_loc_ok(&self) -> bool {
        *self.sc_per_loc_ok.get_or_init(|| {
            let mut u = acquire_rel(self.arena.as_ref(), self.x.rf.universe());
            u.copy_from(self.po_loc());
            u.union_in_place(self.com());
            u.is_acyclic()
        })
    }

    /// RMW atomicity: `empty(rmw ∩ (fre ; coe))`. Shared by every model
    /// with an atomicity axiom.
    pub fn atomicity_ok(&self) -> bool {
        *self
            .atomicity_ok
            .get_or_init(|| !self.x.shape.rmw.intersects(self.fre_seq_coe()))
    }
}

/// A per-worker cache lending [`ExecFacts`] whose static tier is reused
/// across consecutive candidates of one [`Shape`], keyed on the identity
/// of the execution's shape handle. The held `Arc` keeps the allocation
/// alive, so pointer identity cannot be recycled while the entry exists —
/// the same pattern the model sessions use for their own static caches.
#[derive(Debug, Default)]
pub struct FactsCache {
    statics: Option<(Arc<Shape>, Rc<StaticExecFacts>)>,
    arena: Option<SharedArena>,
    builds: u64,
}

impl FactsCache {
    /// An empty cache. Facts from this cache allocate their witness tier
    /// per candidate — the simple reference behaviour used by
    /// `check_test` and the differential oracles.
    pub fn new() -> Self {
        FactsCache::default()
    }

    /// An empty cache whose facts draw witness-tier storage from
    /// `arena`. The pipeline gives each worker one of these so steady-
    /// state candidate checking recycles relation storage instead of
    /// allocating it.
    pub fn with_arena(arena: SharedArena) -> Self {
        FactsCache { arena: Some(arena), ..FactsCache::default() }
    }

    /// The arena backing this cache's facts, if any.
    pub fn arena(&self) -> Option<&SharedArena> {
        self.arena.as_ref()
    }

    /// How many static tiers this cache has started: one per run of
    /// consecutive candidates sharing a shape.
    pub fn static_builds(&self) -> u64 {
        self.builds
    }

    /// Facts for `x`, reusing the cached static tier when `x` has the
    /// shape of the previous candidate.
    pub fn facts<'x>(&mut self, x: &'x Execution) -> ExecFacts<'x> {
        let hit = self.statics.as_ref().is_some_and(|(shape, _)| Arc::ptr_eq(shape, &x.shape));
        if !hit {
            self.statics = Some((Arc::clone(&x.shape), Rc::new(StaticExecFacts::default())));
            self.builds += 1;
        }
        let statics = Rc::clone(&self.statics.as_ref().expect("cache filled above").1);
        ExecFacts::with_statics(x, statics, self.arena.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate, EnumOptions};
    use crate::event::{Event, EventKind};
    use lkmm_litmus::library;

    fn candidates(name: &str) -> Vec<Execution> {
        let t = library::by_name(name).unwrap().test();
        enumerate(&t, &EnumOptions::default()).unwrap()
    }

    #[test]
    fn facts_match_the_execution_methods() {
        for name in ["SB", "MP+wmb+rmb", "RCU-MP"] {
            for x in candidates(name) {
                let f = ExecFacts::new(&x);
                assert_eq!(f.loc_rel(), &x.loc_rel(), "{name}: loc");
                assert_eq!(f.int_rel(), &x.int_rel(), "{name}: int");
                assert_eq!(f.ext_rel(), &x.ext_rel(), "{name}: ext");
                assert_eq!(f.po_loc(), &x.po_loc(), "{name}: po-loc");
                assert_eq!(f.fr(), &x.fr(), "{name}: fr");
                assert_eq!(f.com(), &x.com(), "{name}: com");
                assert_eq!(f.rfi(), &x.rfi(), "{name}: rfi");
                assert_eq!(f.rfe(), &x.rfe(), "{name}: rfe");
                assert_eq!(f.coe(), &x.coe(), "{name}: coe");
                assert_eq!(f.fre(), &x.fre(), "{name}: fre");
                assert_eq!(f.fre_seq_coe(), &x.fre().seq(&x.coe()), "{name}");
                assert_eq!(f.gp(), &x.gp(), "{name}: gp");
                assert_eq!(f.crit(), &x.crit(), "{name}: crit");
                assert_eq!(f.reads(), &x.reads(), "{name}: R");
                assert_eq!(f.writes(), &x.writes(), "{name}: W");
                assert_eq!(f.mem(), &x.mem(), "{name}: M");
                assert_eq!(f.init_writes(), &x.init_writes(), "{name}: IW");
                assert_eq!(f.acquires(), &x.acquires(), "{name}: Acquire");
                assert_eq!(f.releases(), &x.releases(), "{name}: Release");
                for kind in FENCE_KINDS {
                    assert_eq!(f.fences(kind), &x.fences(kind), "{name}: F[{kind:?}]");
                    assert_eq!(f.fencerel(kind), &x.fencerel(kind), "{name}: {kind:?}");
                }
                assert_eq!(
                    f.sc_per_loc_ok(),
                    x.po_loc().union(&x.com()).is_acyclic(),
                    "{name}: scpv"
                );
                assert_eq!(
                    f.atomicity_ok(),
                    x.shape.rmw.intersection(&x.fre().seq(&x.coe())).is_empty(),
                    "{name}: at"
                );
            }
        }
    }

    #[test]
    fn cache_shares_statics_within_a_pre_execution() {
        let mut cache = FactsCache::new();
        // Two writers, no reads: one pre-execution, two coherence orders.
        let t = lkmm_litmus::parse(
            "C coww\n{ x=0; }\nP0(int *x) { WRITE_ONCE(*x, 1); }\n\
             P1(int *x) { WRITE_ONCE(*x, 2); }\nexists (x=1)",
        )
        .unwrap();
        let xs = enumerate(&t, &EnumOptions::default()).unwrap();
        // Force loc on the first candidate, then confirm the second
        // candidate of the same pre-execution sees it pre-computed.
        let same_pre: Vec<&Execution> = xs
            .iter()
            .filter(|x| Arc::ptr_eq(&x.events, &xs[0].events))
            .collect();
        assert!(same_pre.len() >= 2, "coww pre-execution has several witnesses");
        {
            let f = cache.facts(same_pre[0]);
            let _ = f.loc_rel();
        }
        let statics = Rc::clone(&cache.statics.as_ref().unwrap().1);
        assert!(statics.loc_rel.get().is_some());
        {
            let f = cache.facts(same_pre[1]);
            assert!(Rc::ptr_eq(&f.statics, &statics), "static tier is shared");
        }
        // A different pre-execution gets a fresh tier.
        if let Some(other) = xs.iter().find(|x| !Arc::ptr_eq(&x.events, &xs[0].events)) {
            let f = cache.facts(other);
            assert!(!Rc::ptr_eq(&f.statics, &statics));
        }
    }

    fn parsed(src: &str) -> Vec<Execution> {
        let t = lkmm_litmus::parse(src).unwrap();
        enumerate(&t, &EnumOptions::default()).unwrap()
    }

    /// Some pre-executions take the branch (and write `y`), some do not.
    const BRANCHY: &str = "C branchy\n{ x=0; y=0; }\n\
        P0(int *x, int *y) { int r0; r0 = READ_ONCE(*x); if (r0) { WRITE_ONCE(*y, 1); } }\n\
        P1(int *x, int *y) { int r1; r1 = READ_ONCE(*y); WRITE_ONCE(*x, 1); }\n\
        exists (0:r0=1 /\\ 1:r1=1)";

    /// The write of `z` data-depends on the read of `x` only when the
    /// read returns 1; its events differ only in values either way.
    const DEP_ON_ONE_PATH: &str = "C dep-on-one-path\n{ x=0; z=0; }\n\
        P0(int *x, int *z) { int r0; int r1; r0 = READ_ONCE(*x); \
        if (r0 == 1) { r1 = r0; } else { r1 = 2; } WRITE_ONCE(*z, r1); }\n\
        P1(int *x) { WRITE_ONCE(*x, 1); }\n\
        exists (z=1)";

    /// A candidate's events with their values erased, in order.
    fn value_free_events(x: &Execution) -> Vec<String> {
        x.events
            .iter()
            .map(|e| {
                let kind = match e.kind {
                    EventKind::Read { loc, annot, .. } => format!("R {loc:?} {annot:?}"),
                    EventKind::Write { loc, annot, is_init, .. } => {
                        format!("W {loc:?} {annot:?} {is_init}")
                    }
                    kind => format!("{kind:?}"),
                };
                format!("{:?} {kind}", e.thread)
            })
            .collect()
    }

    /// Every static-tier accessor of `a` equals `b`'s.
    fn assert_same_static_facts(a: &ExecFacts<'_>, b: &ExecFacts<'_>, what: &str) {
        assert_eq!(a.loc_rel(), b.loc_rel(), "{what}: loc");
        assert_eq!(a.int_rel(), b.int_rel(), "{what}: int");
        assert_eq!(a.ext_rel(), b.ext_rel(), "{what}: ext");
        assert_eq!(a.po_loc(), b.po_loc(), "{what}: po-loc");
        assert_eq!(a.reads(), b.reads(), "{what}: R");
        assert_eq!(a.writes(), b.writes(), "{what}: W");
        assert_eq!(a.init_writes(), b.init_writes(), "{what}: IW");
        assert_eq!(a.mem(), b.mem(), "{what}: M");
        assert_eq!(a.acquires(), b.acquires(), "{what}: Acquire");
        assert_eq!(a.releases(), b.releases(), "{what}: Release");
        for kind in FENCE_KINDS {
            assert_eq!(a.fences(kind), b.fences(kind), "{what}: F[{kind:?}]");
            assert_eq!(a.fencerel(kind), b.fencerel(kind), "{what}: {kind:?}");
        }
        assert_eq!(a.gp(), b.gp(), "{what}: gp");
        assert_eq!(a.crit(), b.crit(), "{what}: crit");
        let srcu = |f: &ExecFacts<'_>| {
            f.srcu().iter().map(|d| (d.domain, d.gp.clone(), d.crit.clone())).collect::<Vec<_>>()
        };
        assert_eq!(srcu(a), srcu(b), "{what}: srcu");
    }

    const FENCE_KINDS: [FenceKind; N_FENCE_KINDS] = [
        FenceKind::Rmb,
        FenceKind::Wmb,
        FenceKind::Mb,
        FenceKind::RbDep,
        FenceKind::RcuLock,
        FenceKind::RcuUnlock,
        FenceKind::SyncRcu,
    ];

    #[test]
    fn pre_executions_differing_only_in_values_share_one_static_tier() {
        // MP's four pre-executions read different values, nothing else.
        let xs = candidates("MP");
        let mut pres: Vec<*const Vec<Event>> = xs.iter().map(|x| Arc::as_ptr(&x.events)).collect();
        pres.dedup();
        assert_eq!(pres.len(), 4, "MP has four pre-executions");
        let mut cache = FactsCache::new();
        let first = Rc::clone(&cache.facts(&xs[0]).statics);
        let _ = cache.facts(&xs[0]).loc_rel();
        for x in &xs {
            let f = cache.facts(x);
            assert!(Rc::ptr_eq(&f.statics, &first), "one static tier for every MP candidate");
        }
        assert!(first.loc_rel.get().is_some(), "filled once, seen by every pre-execution");
        assert_eq!(cache.static_builds(), 1);
    }

    #[test]
    fn pre_executions_differing_in_an_event_or_an_edge_get_their_own_tier() {
        for (src, differs) in [
            (BRANCHY, "events"),
            (DEP_ON_ONE_PATH, "data"),
        ] {
            let xs = parsed(src);
            let mut cache = FactsCache::new();
            let mut seen: Vec<(&Execution, Rc<StaticExecFacts>)> = Vec::new();
            let mut distinct = false;
            for x in &xs {
                let statics = Rc::clone(&cache.facts(x).statics);
                if let Some((prev, prev_statics)) = seen.last() {
                    let same = value_free_events(prev) == value_free_events(x)
                        && prev.shape.addr == x.shape.addr
                        && prev.shape.data == x.shape.data
                        && prev.shape.ctrl == x.shape.ctrl
                        && prev.shape.rmw == x.shape.rmw;
                    assert_eq!(Rc::ptr_eq(prev_statics, &statics), same, "{differs}");
                    distinct |= !same;
                    if differs == "data" && !same {
                        assert_eq!(value_free_events(prev), value_free_events(x));
                        assert_ne!(prev.shape.data, x.shape.data);
                    }
                }
                seen.push((x, statics));
            }
            assert!(distinct, "{differs}: consecutive candidates of two shapes");
        }
    }

    #[test]
    fn every_candidates_static_facts_are_its_own() {
        let mut cache = FactsCache::new();
        let library = lkmm_litmus::library::all().iter().flat_map(|pt| {
            enumerate(&pt.test(), &EnumOptions::default()).unwrap()
        });
        let xs: Vec<Execution> =
            library.chain(parsed(BRANCHY)).chain(parsed(DEP_ON_ONE_PATH)).collect();
        for x in &xs {
            assert_same_static_facts(&cache.facts(x), &ExecFacts::new(x), &format!("{x}"));
        }
        assert!(cache.static_builds() < xs.len() as u64);
    }

    #[test]
    fn arena_backed_facts_match_the_allocating_facts() {
        let arena = lkmm_relation::shared_arena();
        let mut pooled = FactsCache::with_arena(Rc::clone(&arena));
        let mut plain = FactsCache::new();
        for x in candidates("MP+wmb+rmb") {
            let p = pooled.facts(&x);
            let f = plain.facts(&x);
            assert!(p.arena().is_some() && f.arena().is_none());
            assert_eq!(p.fr(), f.fr());
            assert_eq!(p.com(), f.com());
            assert_eq!(p.rfi(), f.rfi());
            assert_eq!(p.rfe(), f.rfe());
            assert_eq!(p.coe(), f.coe());
            assert_eq!(p.fre(), f.fre());
            assert_eq!(p.fre_seq_coe(), f.fre_seq_coe());
            assert_eq!(p.sc_per_loc_ok(), f.sc_per_loc_ok());
            assert_eq!(p.atomicity_ok(), f.atomicity_ok());
        }
        assert!(arena.borrow().acquires() > 0, "pooled facts draw from the arena");
        assert!(
            arena.borrow().reuses() > 0,
            "storage released by one candidate serves the next"
        );
    }

    #[test]
    fn srcu_facts_cover_every_domain() {
        let t = lkmm_litmus::parse(
            "C srcu-facts\n{ ss=0; x=0; }\n\
             P0(srcu_struct *ss, int *x) { int r0; srcu_read_lock(ss); \
             r0 = READ_ONCE(*x); srcu_read_unlock(ss); }\n\
             P1(srcu_struct *ss, int *x) { WRITE_ONCE(*x, 1); synchronize_srcu(ss); }\n\
             exists (0:r0=0)",
        )
        .unwrap();
        let xs = enumerate(&t, &EnumOptions::default()).unwrap();
        let x = &xs[0];
        let f = ExecFacts::new(x);
        let domains = x.srcu_domains();
        assert_eq!(f.srcu().len(), domains.len());
        for (facts, &d) in f.srcu().iter().zip(&domains) {
            assert_eq!(facts.domain, d);
            assert_eq!(facts.gp, x.srcu_gp(d));
            assert_eq!(facts.crit, x.srcu_crit(d));
        }
    }
}
