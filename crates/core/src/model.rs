//! The LKMM as a [`ConsistencyModel`]: the four core axioms of Figure 3
//! plus the RCU axiom of Figure 12.

use crate::relations::{
    rcu_path_irreflexive_with, FixpointScratch, LkmmRelations, LkmmStatics,
};
use lkmm_exec::{ConsistencyModel, ExecFacts, Execution, ModelSession, Shape};
use lkmm_relation::Relation;
use std::fmt;
use std::sync::Arc;

/// The axioms of the model (Figure 3 + Figure 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axiom {
    /// `acyclic(po-loc ∪ com)` — sequential consistency per variable.
    Scpv,
    /// `empty(rmw ∩ (fre ; coe))` — RMW atomicity.
    At,
    /// `acyclic(hb)` — happens-before.
    Hb,
    /// `acyclic(pb)` — propagates-before.
    Pb,
    /// `irreflexive(rcu-path)` — the RCU axiom.
    Rcu,
}

impl fmt::Display for Axiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Axiom::Scpv => "Scpv: acyclic(po-loc U com)",
            Axiom::At => "At: empty(rmw & (fre;coe))",
            Axiom::Hb => "Hb: acyclic(hb)",
            Axiom::Pb => "Pb: acyclic(pb)",
            Axiom::Rcu => "Rcu: irreflexive(rcu-path)",
        };
        write!(f, "{s}")
    }
}

/// The Linux-kernel memory model.
///
/// # Examples
///
/// ```
/// use lkmm::Lkmm;
/// use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
///
/// let test = lkmm_litmus::library::by_name("MP+wmb+rmb").unwrap().test();
/// let r = check_test(&Lkmm::new(), &test, &EnumOptions::default()).unwrap();
/// assert_eq!(r.verdict, Verdict::Forbidden); // Figure 2 of the paper
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Lkmm {
    /// Skip the RCU axiom (the pure Figure 3/8 core). Used for ablation.
    pub without_rcu: bool,
}

impl Lkmm {
    /// The full model (core + RCU axiom).
    pub fn new() -> Self {
        Lkmm { without_rcu: false }
    }

    /// The Figure 3 core only, without the RCU axiom of Figure 12.
    pub fn core_only() -> Self {
        Lkmm { without_rcu: true }
    }

    /// The first violated axiom, checked in Figure 3 order, or `None` if
    /// the execution is allowed.
    pub fn violated_axiom(&self, x: &Execution) -> Option<Axiom> {
        let facts = ExecFacts::new(x);
        let statics = LkmmStatics::compute_with_facts(x, &facts);
        let r = LkmmRelations::compute_with_facts(x, &statics, &facts);
        self.violated_axiom_with(&r, &facts)
    }

    /// As [`Lkmm::violated_axiom`], reusing precomputed relations. The
    /// Scpv and At axioms read the shared facts layer directly — the
    /// `acyclic(po-loc ∪ com)` and `empty(rmw ∩ (fre ; coe))` checks are
    /// common to every hardware model, so their verdicts are memoised
    /// once per candidate, not recomputed per model.
    pub fn violated_axiom_with(
        &self,
        r: &LkmmRelations,
        facts: &ExecFacts<'_>,
    ) -> Option<Axiom> {
        if !facts.sc_per_loc_ok() {
            return Some(Axiom::Scpv);
        }
        if !facts.atomicity_ok() {
            return Some(Axiom::At);
        }
        if !r.hb.is_acyclic() {
            return Some(Axiom::Hb);
        }
        if !r.pb.is_acyclic() {
            return Some(Axiom::Pb);
        }
        if !self.without_rcu
            && (!r.rcu_path.is_irreflexive()
                || r.srcu_paths.iter().any(|p| !p.is_irreflexive()))
        {
            return Some(Axiom::Rcu);
        }
        None
    }

    /// The hot-path axiom check: evaluates the same Figure 3/12 axioms
    /// as [`Lkmm::violated_axiom_with`], but builds only the relations
    /// the next axiom needs — stopping at the first violation — and
    /// accumulates every intermediate in place into the caller-held
    /// [`AxiomScratch`]. A checking session reuses one scratch across
    /// all candidates, so the axiom check's steady state performs no
    /// storage round-trips at all — cheaper than even a pool
    /// transaction per intermediate. [`LkmmRelations`] stays the
    /// inspectable reference; this is what checking sessions run per
    /// candidate.
    fn violated_axiom_pooled(
        &self,
        x: &Execution,
        s: &LkmmStatics,
        facts: &ExecFacts<'_>,
        tmp: &mut AxiomScratch,
    ) -> Option<Axiom> {
        if !facts.sc_per_loc_ok() {
            return Some(Axiom::Scpv);
        }
        if !facts.atomicity_ok() {
            return Some(Axiom::At);
        }
        let n = x.universe();
        let rfi = facts.rfi();
        let rfe = facts.rfe();
        let AxiomScratch { t, overwrite, target, rrdep, ppo, cf, prop, hb, pb, link, gp_link, rscs_link, row, fx } =
            tmp;
        // `seq_into` destinations are fully overwritten but must carry
        // the candidate's shape; `copy_from` destinations reshape
        // themselves.
        rrdep.reset(n);
        ppo.reset(n);
        prop.reset(n);
        pb.reset(n);
        link.reset(n);
        gp_link.reset(n);
        rscs_link.reset(n);

        // overwrite = co ∪ fr.
        overwrite.copy_from(&x.co);
        overwrite.union_in_place(facts.fr());
        // The ppo target: to-r ∪ to-w ∪ fence.
        target.copy_from(overwrite);
        target.intersection_in_place(&s.int);
        target.union_in_place(&s.rwdep); // to-w
        s.dep.seq_into(rfi, rrdep);
        rrdep.union_in_place(&x.shape.addr);
        t.copy_from(rrdep); // strong-rrdep = rrdep⁺ ∩ rb-dep
        t.transitive_close_with(row);
        t.intersection_in_place(&s.rb_dep);
        target.union_in_place(t);
        t.copy_from(rfi); // rfi-rel-acq = [Release] ; rfi ; [Acquire]
        t.restrict_domain_in_place(facts.releases());
        t.restrict_range_in_place(facts.acquires());
        target.union_in_place(t);
        target.union_in_place(&s.fence);
        // ppo = rrdep* ; target.
        rrdep.transitive_close_with(row);
        rrdep.reflexive_in_place();
        rrdep.seq_into(target, ppo);

        // cumul-fence = (rfe? ; (strong-fence ∪ po-rel)) ∪ wmb.
        cf.copy_from(&s.strong_fence);
        cf.union_in_place(&s.po_rel);
        rfe.seq_into(cf, t);
        cf.union_in_place(t);
        cf.union_in_place(&s.wmb);
        // prop = (overwrite ∩ ext)? ; cumul-fence* ; rfe?.
        cf.transitive_close_with(row);
        cf.reflexive_in_place();
        overwrite.intersection_in_place(&s.ext);
        overwrite.seq_into(cf, prop);
        prop.union_in_place(cf);
        prop.seq_into(rfe, t);
        prop.union_in_place(t);

        // hb = ((prop \ id) ∩ int) ∪ ppo ∪ rfe.
        hb.copy_from(prop);
        hb.difference_in_place(&s.id);
        hb.intersection_in_place(&s.int);
        hb.union_in_place(ppo);
        hb.union_in_place(rfe);
        if !hb.is_acyclic() {
            return Some(Axiom::Hb);
        }

        // pb = prop ; strong-fence ; hb*.
        hb.transitive_close_with(row);
        hb.reflexive_in_place(); // hb* from here on
        prop.seq_into(&s.strong_fence, t);
        t.seq_into(hb, pb);
        if !pb.is_acyclic() {
            return Some(Axiom::Pb);
        }
        if self.without_rcu {
            return None;
        }

        // link = hb* ; pb* ; prop, then the per-domain RCU fixpoints.
        pb.transitive_close_with(row);
        pb.reflexive_in_place();
        hb.seq_into(pb, t);
        t.seq_into(prop, link);
        s.gp.seq_into(link, gp_link);
        s.rscs.seq_into(link, rscs_link);
        if !rcu_path_irreflexive_with(gp_link, rscs_link, fx) {
            return Some(Axiom::Rcu);
        }
        for (sgp, srscs) in &s.srcu {
            sgp.seq_into(link, gp_link);
            srscs.seq_into(link, rscs_link);
            if !rcu_path_irreflexive_with(gp_link, rscs_link, fx) {
                return Some(Axiom::Rcu);
            }
        }
        None
    }
}

/// Reusable storage for one session's axiom checks: every intermediate
/// relation of [`Lkmm::violated_axiom_pooled`] plus the closure scratch
/// row and the RCU fixpoint's generations. Reshaped per candidate,
/// allocated once per session — the intermediates never escape one
/// check, so they need none of the arena's handle bookkeeping. The
/// shared facts tier still draws from the worker's arena (its storage
/// must live inside each candidate's `ExecFacts`).
#[derive(Debug, Default)]
struct AxiomScratch {
    t: Relation,
    overwrite: Relation,
    target: Relation,
    rrdep: Relation,
    ppo: Relation,
    cf: Relation,
    prop: Relation,
    hb: Relation,
    pb: Relation,
    link: Relation,
    gp_link: Relation,
    rscs_link: Relation,
    row: Vec<u64>,
    fx: FixpointScratch,
}

impl ConsistencyModel for Lkmm {
    fn name(&self) -> &str {
        if self.without_rcu {
            "LKMM-core"
        } else {
            "LKMM"
        }
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        LkmmSession::new(*self).try_allows_with(x, facts).expect("unmetered sessions never stop")
    }

    fn session(&self) -> Option<Box<dyn ModelSession + '_>> {
        Some(Box::new(LkmmSession::new(*self)))
    }
}

/// A stateful checking session for the native LKMM: caches the
/// witness-independent [`LkmmStatics`] across consecutive candidates of
/// one value-free [`Shape`], keyed on the identity of the shape handle
/// (the held `Arc` keeps the allocation alive, so pointer identity cannot
/// be recycled while the cache entry exists), and keeps one
/// [`AxiomScratch`] whose relations are reshaped in place candidate
/// after candidate.
pub struct LkmmSession {
    model: Lkmm,
    cache: Option<(Arc<Shape>, LkmmStatics)>,
    fuel: Option<Arc<lkmm_core::budget::StepFuel>>,
    tmp: AxiomScratch,
}

impl LkmmSession {
    fn new(model: Lkmm) -> Self {
        LkmmSession { model, cache: None, fuel: None, tmp: AxiomScratch::default() }
    }
}

impl ModelSession for LkmmSession {
    /// The native axioms are evaluated by closed-form relation algebra
    /// (no open-ended fixpoints), so the step cost of one candidate is
    /// charged as `1 + |events|` units against the shared tank.
    fn try_allows_with(
        &mut self,
        x: &Execution,
        facts: &ExecFacts<'_>,
    ) -> Result<bool, lkmm_exec::EvalStop> {
        if let Some(fuel) = &self.fuel {
            if !fuel.consume(1 + x.universe() as u64) {
                return Err(lkmm_exec::EvalStop);
            }
        }
        let hit = self.cache.as_ref().is_some_and(|(shape, _)| Arc::ptr_eq(shape, &x.shape));
        if !hit {
            self.cache = Some((Arc::clone(&x.shape), LkmmStatics::compute_with_facts(x, facts)));
        }
        let statics = &self.cache.as_ref().expect("cache filled above").1;
        let allowed =
            self.model.violated_axiom_pooled(x, statics, facts, &mut self.tmp).is_none();
        // `lkmm.misjudge` deliberately inverts verdicts so the conformance
        // oracles can be demonstrated against a broken checker.
        Ok(allowed != lkmm_core::faultpoint::should_fail("lkmm.misjudge"))
    }

    fn install_step_fuel(&mut self, fuel: Arc<lkmm_core::budget::StepFuel>) {
        self.fuel = Some(fuel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::{enumerate, EnumOptions};
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library::{self, Expect};
    use lkmm_litmus::parse;

    #[test]
    fn lkmm_matches_every_paper_verdict() {
        for pt in library::all() {
            let t = pt.test();
            let r = check_test(&Lkmm::new(), &t, &EnumOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", pt.name));
            let expected = match pt.lkmm {
                Expect::Allowed => Verdict::Allowed,
                Expect::Forbidden => Verdict::Forbidden,
            };
            assert_eq!(r.verdict, expected, "{} (paper says {:?})", pt.name, pt.lkmm);
        }
    }

    #[test]
    fn pooled_axiom_check_matches_the_reference_relations() {
        // The session hot path (early-exiting, arena-backed) and the
        // inspectable LkmmRelations build must agree axiom for axiom on
        // every candidate of every library test — with and without a
        // pool attached.
        let model = Lkmm::new();
        let arena = lkmm_relation::shared_arena();
        // One scratch across every candidate of every test, exactly as a
        // session would reuse it — reshaping must never leak state.
        let mut tmp = AxiomScratch::default();
        for pt in library::all() {
            let t = pt.test();
            for x in enumerate(&t, &EnumOptions::default()).unwrap() {
                let mut cache = lkmm_exec::FactsCache::with_arena(arena.clone());
                let facts = cache.facts(&x);
                let statics = LkmmStatics::compute_with_facts(&x, &facts);
                let r = LkmmRelations::compute_with_facts(&x, &statics, &facts);
                assert_eq!(
                    model.violated_axiom_pooled(&x, &statics, &facts, &mut tmp),
                    model.violated_axiom_with(&r, &facts),
                    "{}", pt.name
                );
                let plain = ExecFacts::new(&x);
                let statics2 = LkmmStatics::compute_with_facts(&x, &plain);
                assert_eq!(
                    model.violated_axiom_pooled(&x, &statics2, &plain, &mut tmp),
                    model.violated_axiom_with(&r, &plain),
                    "{} (no pool)", pt.name
                );
            }
        }
        assert!(arena.borrow().reuses() > 0, "the pooled path must recycle storage");
    }

    #[test]
    fn violated_axioms_match_the_paper_walkthroughs() {
        let axiom_of = |name: &str| {
            let t = library::by_name(name).unwrap().test();
            let weak = enumerate(&t, &EnumOptions::default())
                .unwrap()
                .into_iter()
                .find(|x| x.satisfies_prop(&t.condition.prop))
                .unwrap();
            Lkmm::new().violated_axiom(&weak).unwrap()
        };
        assert_eq!(axiom_of("LB+ctrl+mb"), Axiom::Hb); // §3.2.4
        assert_eq!(axiom_of("MP+wmb+rmb"), Axiom::Hb);
        assert_eq!(axiom_of("WRC+po-rel+rmb"), Axiom::Hb); // §3.2.4
        assert_eq!(axiom_of("SB+mbs"), Axiom::Pb); // §3.2.5
        assert_eq!(axiom_of("PeterZ"), Axiom::Pb); // §3.2.5
        assert_eq!(axiom_of("RCU-MP"), Axiom::Rcu); // §4.2
        assert_eq!(axiom_of("RCU-deferred-free"), Axiom::Rcu);
    }

    #[test]
    fn one_tests_shapes_visited_a_b_a_match_fresh_evaluation() {
        // Two shapes of equal universe: P0 runs smp_mb() or smp_wmb()
        // between its write and its read, depending on what it read from
        // z, so statics served across shapes would change verdicts.
        let t = parse(
            "C two-shapes\n{ x=0; y=0; z=0; }\n\
             P0(int *x, int *y, int *z) { int r0; int r1; WRITE_ONCE(*x, 1); \
             r0 = READ_ONCE(*z); if (r0) { smp_mb(); } else { smp_wmb(); } \
             r1 = READ_ONCE(*y); }\n\
             P1(int *x, int *y) { int r2; WRITE_ONCE(*y, 1); smp_mb(); r2 = READ_ONCE(*x); }\n\
             P2(int *z) { WRITE_ONCE(*z, 1); }\n\
             exists (0:r1=0 /\\ 1:r2=0)",
        )
        .unwrap();
        let xs = enumerate(&t, &EnumOptions::default()).unwrap();
        let (a, b): (Vec<&Execution>, Vec<&Execution>) =
            xs.iter().partition(|x| Arc::ptr_eq(&x.shape, &xs[0].shape));
        assert!(b.iter().all(|x| Arc::ptr_eq(&x.shape, &b[0].shape)), "two shapes");
        assert_eq!(a[0].universe(), b[0].universe());
        let model = Lkmm::new();
        let forbids_weak = |xs: &[&Execution]| {
            xs.iter().any(|x| x.satisfies_prop(&t.condition.prop) && !model.allows(x))
        };
        assert_ne!(forbids_weak(&a), forbids_weak(&b), "the fences decide the SB outcome");

        let mut session = model.session().unwrap();
        let mut cache = lkmm_exec::FactsCache::new();
        for x in a.iter().chain(&b).chain(&a) {
            assert_eq!(session.try_allows_with(x, &cache.facts(x)), Ok(model.allows(x)));
        }
    }

    #[test]
    fn core_only_allows_rcu_patterns() {
        let t = library::by_name("RCU-MP").unwrap().test();
        let with = check_test(&Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        let without = check_test(&Lkmm::core_only(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(with.verdict, Verdict::Forbidden);
        assert_eq!(without.verdict, Verdict::Allowed);
    }

    #[test]
    fn synchronize_rcu_acts_as_strong_fence() {
        // §4.2: gp is added to strong-fence, so synchronize_rcu can replace
        // smp_mb — SB with synchronize_rcu on both sides is forbidden.
        let t = parse(
            "C SB+syncs\n{ x=0; y=0; }\n\
             P0(int *x, int *y) { int r0; WRITE_ONCE(*x, 1); synchronize_rcu(); \
             r0 = READ_ONCE(*y); }\n\
             P1(int *x, int *y) { int r0; WRITE_ONCE(*y, 1); synchronize_rcu(); \
             r0 = READ_ONCE(*x); }\n\
             exists (0:r0=0 /\\ 1:r0=0)",
        )
        .unwrap();
        let r = check_test(&Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Forbidden);
    }

    #[test]
    fn atomicity_axiom_forbids_intervening_write() {
        // Two competing full xchg on the same location must serialise: both
        // cannot read the initial value.
        let t = parse(
            "C At\n{ x=0; }\n\
             P0(int *x) { int r0; r0 = xchg(x, 1); }\n\
             P1(int *x) { int r0; r0 = xchg(x, 2); }\n\
             exists (0:r0=0 /\\ 1:r0=0)",
        )
        .unwrap();
        let r = check_test(&Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Forbidden);
        // One of them reading 0 is of course allowed.
        let t2 = parse(
            "C At2\n{ x=0; }\n\
             P0(int *x) { int r0; r0 = xchg(x, 1); }\n\
             P1(int *x) { int r0; r0 = xchg(x, 2); }\n\
             exists (0:r0=0 /\\ 1:r0=1)",
        )
        .unwrap();
        let r2 = check_test(&Lkmm::new(), &t2, &EnumOptions::default()).unwrap();
        assert_eq!(r2.verdict, Verdict::Allowed);
    }

    #[test]
    fn alpha_needs_rb_dep_for_read_read_dependency() {
        // MP with address dependency but no smp_read_barrier_depends: the
        // LKMM respects read-read address deps only with the barrier
        // (strong-rrdep). Without it the outcome is allowed...
        let t = library::by_name("MP+wmb+addr").unwrap().test();
        let r = check_test(&Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Allowed);
        // ...with rcu_dereference (which carries F[rb-dep]) it is forbidden.
        let t2 = parse(
            "C MP+wmb+deref\n{ x=0; y=&z; z=0; w=0; }\n\
             P0(int *x, int **y, int *w) { WRITE_ONCE(*x, 1); smp_wmb(); \
             WRITE_ONCE(*y, &w); }\n\
             P1(int *x, int **y) { int *r1; int r2; int r3; \
             r1 = rcu_dereference(*y); r2 = READ_ONCE(*r1); r3 = READ_ONCE(*x); }\n\
             exists (1:r1=&w /\\ 1:r3=0)",
        )
        .unwrap();
        let r2 = check_test(&Lkmm::new(), &t2, &EnumOptions::default()).unwrap();
        // The rb-dep orders r1->r2 but r3 has no dependency from r1, so the
        // outcome on r3 is still allowed...
        assert_eq!(r2.verdict, Verdict::Allowed);
        // ...whereas the dependent read r2 is ordered: it cannot see stale
        // data through the new pointer.
        let t3 = parse(
            "C MP+wmb+deref2\n{ x=0; y=&z; z=0; w=0; }\n\
             P0(int **y, int *w) { WRITE_ONCE(*w, 1); smp_wmb(); \
             WRITE_ONCE(*y, &w); }\n\
             P1(int **y) { int *r1; int r2; \
             r1 = rcu_dereference(*y); r2 = READ_ONCE(*r1); }\n\
             exists (1:r1=&w /\\ 1:r2=0)",
        )
        .unwrap();
        let r3 = check_test(&Lkmm::new(), &t3, &EnumOptions::default()).unwrap();
        assert_eq!(r3.verdict, Verdict::Forbidden);
        // The plain READ_ONCE pointer chase (no rb-dep) allows it: Alpha.
        let t4 = parse(
            "C MP+wmb+addr3\n{ x=0; y=&z; z=0; w=0; }\n\
             P0(int **y, int *w) { WRITE_ONCE(*w, 1); smp_wmb(); \
             WRITE_ONCE(*y, &w); }\n\
             P1(int **y) { int *r1; int r2; \
             r1 = READ_ONCE(*y); r2 = READ_ONCE(*r1); }\n\
             exists (1:r1=&w /\\ 1:r2=0)",
        )
        .unwrap();
        let r4 = check_test(&Lkmm::new(), &t4, &EnumOptions::default()).unwrap();
        assert_eq!(r4.verdict, Verdict::Allowed);
    }

    #[test]
    fn spinlock_emulation_serialises_critical_sections() {
        // §7: spin_lock ≙ acquire-RMW, spin_unlock ≙ store-release. The At
        // axiom forces the two lock RMWs to serialise, so P1's critical
        // section observes P0's writes atomically: seeing x=1 but y=0 is
        // forbidden.
        let src = |cond: &str| {
            format!(
                "C lock-atomic\n{{ s=0; x=0; y=0; }}\n\
                 P0(spinlock_t *s, int *x, int *y) {{ spin_lock(&s); \
                 WRITE_ONCE(*x, 1); WRITE_ONCE(*y, 1); spin_unlock(&s); }}\n\
                 P1(spinlock_t *s, int *x, int *y) {{ int r0; int r1; spin_lock(&s); \
                 r0 = READ_ONCE(*x); r1 = READ_ONCE(*y); spin_unlock(&s); }}\n\
                 exists ({cond})"
            )
        };
        let torn = parse(&src("1:r0=1 /\\ 1:r1=0")).unwrap();
        let r = check_test(&Lkmm::new(), &torn, &EnumOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Forbidden);
        // Seeing both (P1 after P0) and neither (P1 before P0) are allowed.
        for cond in ["1:r0=1 /\\ 1:r1=1", "1:r0=0 /\\ 1:r1=0"] {
            let t = parse(&src(cond)).unwrap();
            let r = check_test(&Lkmm::new(), &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Allowed, "{cond}");
        }
    }
}
