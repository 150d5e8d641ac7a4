//! Every relation of Figures 8 and 12, computed from a candidate execution.
//!
//! The struct fields follow the paper's names (with `-` mapped to `_`).
//! Keeping each intermediate relation inspectable makes the model easy to
//! debug and lets tests assert the paper's walked examples edge by edge
//! (e.g. "(a, c) ∈ cumul-fence" in Figure 5).

use lkmm_exec::{ExecFacts, Execution};
use lkmm_litmus::FenceKind;
use lkmm_relation::{acquire_rel, ArenaRel, EventSet, Relation, SharedArena};

/// The relations of Figures 8 and 12 that do not depend on the
/// execution witness (`rf`/`co`): fence relations, dependency
/// skeletons, RCU grace-period/read-side-section shapes, and the
/// auxiliary `int`/`ext`/`id` relations and `R`/`W` sets.
///
/// None of them reads a value, so all candidates sharing one value-free
/// [`Shape`](lkmm_exec::Shape) have identical statics: sessions compute
/// this once per shape — keyed on `Arc::ptr_eq` of `Execution::shape` —
/// and reuse it for every witness of every pre-execution of that shape.
/// This removes the `O(n²)` `int`/`loc` rebuilds and the fence
/// `po;[F];po` sequences from the per-candidate hot loop.
#[derive(Clone, Debug)]
pub struct LkmmStatics {
    /// `id`.
    pub id: Relation,
    /// `int`: same-thread pairs.
    pub int: Relation,
    /// `ext = ~int`.
    pub ext: Relation,
    /// `R`.
    pub reads: EventSet,
    /// `W`.
    pub writes: EventSet,
    /// `po-loc`.
    pub po_loc: Relation,
    /// `rmb`.
    pub rmb: Relation,
    /// `wmb`.
    pub wmb: Relation,
    /// `mb`.
    pub mb: Relation,
    /// `rb-dep`.
    pub rb_dep: Relation,
    /// `[Acquire]`.
    pub acquires_id: Relation,
    /// `[Release]`.
    pub releases_id: Relation,
    /// `acq-po`.
    pub acq_po: Relation,
    /// `po-rel`.
    pub po_rel: Relation,
    /// `gp`.
    pub gp: Relation,
    /// `gp` extended with every SRCU domain's grace periods.
    pub gp_strong: Relation,
    /// `dep = addr ∪ data`.
    pub dep: Relation,
    /// `rwdep = (dep ∪ ctrl) ∩ (R × W)`.
    pub rwdep: Relation,
    /// `strong-fence = mb ∪ gp`.
    pub strong_fence: Relation,
    /// `fence`.
    pub fence: Relation,
    /// `rscs = po ; crit⁻¹ ; po?`.
    pub rscs: Relation,
    /// Per-SRCU-domain `(gp_d, rscs_d)` pairs.
    pub srcu: Vec<(Relation, Relation)>,
}

impl LkmmStatics {
    /// Compute the witness-independent relations for `x`'s
    /// pre-execution.
    pub fn compute(x: &Execution) -> Self {
        Self::compute_with_facts(x, &ExecFacts::new(x))
    }

    /// As [`LkmmStatics::compute`], cloning the shared base relations
    /// (`int`, `ext`, `po-loc`, fence pairs, `gp`, `crit`, SRCU
    /// structure) from a facts layer instead of recomputing them — so
    /// several models checking the same pre-execution pay for each base
    /// relation once.
    pub fn compute_with_facts(x: &Execution, facts: &ExecFacts<'_>) -> Self {
        let n = x.universe();
        let id = Relation::identity(n);
        let int = facts.int_rel().clone();
        let ext = facts.ext_rel().clone();
        let reads = facts.reads().clone();
        let writes = facts.writes().clone();
        let po_loc = facts.po_loc().clone();

        let rr = reads.cross(&reads);
        let ww = writes.cross(&writes);
        let rmb = facts.fencerel(FenceKind::Rmb).intersection(&rr);
        let wmb = facts.fencerel(FenceKind::Wmb).intersection(&ww);
        let mb = facts.fencerel(FenceKind::Mb).clone();
        let rb_dep = facts.fencerel(FenceKind::RbDep).intersection(&rr);
        let acquires_id = facts.acquires().as_identity();
        let releases_id = facts.releases().as_identity();
        let acq_po = acquires_id.seq(&x.shape.po);
        let po_rel = x.shape.po.seq(&releases_id);
        let gp = facts.gp().clone();
        // synchronize_srcu provides the same strong-fence ordering as
        // synchronize_rcu (the kernel's documented guarantee); the real
        // linux-kernel.cat likewise puts Sync-srcu into gp.
        let srcu_facts = facts.srcu();
        let gp_strong = srcu_facts.iter().fold(gp.clone(), |mut acc, d| {
            acc.union_in_place(&d.gp);
            acc
        });

        let dep = x.shape.addr.union(&x.shape.data);
        let rwdep = dep.union(&x.shape.ctrl).intersection(&reads.cross(&writes));
        let strong_fence = mb.union(&gp_strong);
        let mut fence = strong_fence.union(&po_rel);
        fence.union_in_place(&wmb);
        fence.union_in_place(&rmb);
        fence.union_in_place(&acq_po);

        let rscs = x.shape.po.seq(&facts.crit().inverse()).seq(&x.shape.po.reflexive());
        let srcu = srcu_facts
            .iter()
            .map(|d| {
                let srscs = x.shape.po.seq(&d.crit.inverse()).seq(&x.shape.po.reflexive());
                (d.gp.clone(), srscs)
            })
            .collect();

        LkmmStatics {
            id,
            int,
            ext,
            reads,
            writes,
            po_loc,
            rmb,
            wmb,
            mb,
            rb_dep,
            acquires_id,
            releases_id,
            acq_po,
            po_rel,
            gp,
            gp_strong,
            dep,
            rwdep,
            strong_fence,
            fence,
            rscs,
            srcu,
        }
    }
}

/// All LKMM relations for one candidate execution.
#[derive(Clone, Debug)]
pub struct LkmmRelations {
    // --- base and auxiliary ---
    /// `fr = rf⁻¹ ; co`.
    pub fr: Relation,
    /// `com = rf ∪ co ∪ fr`.
    pub com: Relation,
    /// `ext = ~int` (auxiliary, reused by the `At` axiom check).
    pub ext: Relation,
    /// `po-loc`.
    pub po_loc: Relation,
    /// `rmb`: read pairs separated by `smp_rmb`.
    pub rmb: Relation,
    /// `wmb`: write pairs separated by `smp_wmb`.
    pub wmb: Relation,
    /// `mb`: pairs separated by `smp_mb`.
    pub mb: Relation,
    /// `rb-dep`: read pairs separated by `smp_read_barrier_depends`.
    pub rb_dep: Relation,
    /// `acq-po`: an acquire followed in program order.
    pub acq_po: Relation,
    /// `po-rel`: program order into a release.
    pub po_rel: Relation,
    /// `rfi-rel-acq`: internal reads-from of a release by an acquire.
    pub rfi_rel_acq: Relation,
    /// `gp`: pairs separated by (or ending at) a `synchronize_rcu`.
    pub gp: Relation,
    // --- Figure 8 ---
    /// `dep = addr ∪ data`.
    pub dep: Relation,
    /// `rwdep = (dep ∪ ctrl) ∩ (R × W)`.
    pub rwdep: Relation,
    /// `overwrite = co ∪ fr`.
    pub overwrite: Relation,
    /// `to-w = rwdep ∪ (overwrite ∩ int)`.
    pub to_w: Relation,
    /// `rrdep = addr ∪ (dep ; rfi)`.
    pub rrdep: Relation,
    /// `strong-rrdep = rrdep⁺ ∩ rb-dep`.
    pub strong_rrdep: Relation,
    /// `to-r = strong-rrdep ∪ rfi-rel-acq`.
    pub to_r: Relation,
    /// `strong-fence = mb ∪ gp` (Figure 12 extends Figure 8's `mb`).
    pub strong_fence: Relation,
    /// `fence = strong-fence ∪ po-rel ∪ wmb ∪ rmb ∪ acq-po`.
    pub fence: Relation,
    /// `ppo = rrdep* ; (to-r ∪ to-w ∪ fence)`.
    pub ppo: Relation,
    /// `cumul-fence = A-cumul(strong-fence ∪ po-rel) ∪ wmb`.
    pub cumul_fence: Relation,
    /// `prop = (overwrite ∩ ext)? ; cumul-fence* ; rfe?`.
    pub prop: Relation,
    /// `hb = ((prop \ id) ∩ int) ∪ ppo ∪ rfe`.
    pub hb: Relation,
    /// `pb = prop ; strong-fence ; hb*`.
    pub pb: Relation,
    // --- Figure 12 (RCU) ---
    /// `rscs = po ; crit⁻¹ ; po?`.
    pub rscs: Relation,
    /// `link = hb* ; pb* ; prop`.
    pub link: Relation,
    /// `gp-link = gp ; link`.
    pub gp_link: Relation,
    /// `rscs-link = rscs ; link`.
    pub rscs_link: Relation,
    /// `rcu-path`: the least fixpoint of the Figure 12 recursion.
    pub rcu_path: Relation,
    /// Per-SRCU-domain `rcu-path` analogues: grace periods and read-side
    /// sections of one domain only order each other (domains are
    /// independent). One entry per domain in `Execution::srcu_domains()`.
    pub srcu_paths: Vec<Relation>,
}

impl LkmmRelations {
    /// Compute every relation for `x`.
    pub fn compute(x: &Execution) -> Self {
        Self::compute_with(x, &LkmmStatics::compute(x))
    }

    /// As [`LkmmRelations::compute`], reusing precomputed
    /// witness-independent relations (see [`LkmmStatics`]). Only the
    /// `rf`/`co`-dependent relations are recomputed here.
    pub fn compute_with(x: &Execution, s: &LkmmStatics) -> Self {
        Self::compute_with_facts(x, s, &ExecFacts::new(x))
    }

    /// As [`LkmmRelations::compute_with`], additionally cloning the
    /// witness-dependent base relations (`fr`, `com`, `rfi`/`rfe`) from
    /// a shared facts layer instead of re-deriving them from `rf`/`co` —
    /// the per-candidate hot path when several models share one
    /// enumeration pass.
    pub fn compute_with_facts(x: &Execution, s: &LkmmStatics, facts: &ExecFacts<'_>) -> Self {
        let rfi = facts.rfi().clone();
        let rfe = facts.rfe().clone();

        let fr = facts.fr().clone();
        let com = facts.com().clone();

        let rfi_rel_acq = s.releases_id.seq(&rfi).seq(&s.acquires_id);

        let overwrite = x.co.union(&fr);
        let to_w = s.rwdep.union(&overwrite.intersection(&s.int));
        let rrdep = x.shape.addr.union(&s.dep.seq(&rfi));
        let strong_rrdep = rrdep.transitive_closure().intersection(&s.rb_dep);
        let to_r = strong_rrdep.union(&rfi_rel_acq);
        let mut ppo_target = to_r.union(&to_w);
        ppo_target.union_in_place(&s.fence);
        let ppo = rrdep.reflexive_transitive_closure().seq(&ppo_target);
        // A-cumul(r) = rfe? ; r
        let a_cumul = |r: &Relation| rfe.reflexive().seq(r);
        let cumul_fence = a_cumul(&s.strong_fence.union(&s.po_rel)).union(&s.wmb);
        let prop = overwrite
            .intersection(&s.ext)
            .reflexive()
            .seq(&cumul_fence.reflexive_transitive_closure())
            .seq(&rfe.reflexive());
        let mut hb = prop.difference(&s.id);
        hb.intersection_in_place(&s.int);
        hb.union_in_place(&ppo);
        hb.union_in_place(&rfe);
        let pb = prop.seq(&s.strong_fence).seq(&hb.reflexive_transitive_closure());

        let link = hb
            .reflexive_transitive_closure()
            .seq(&pb.reflexive_transitive_closure())
            .seq(&prop);
        let gp_link = s.gp.seq(&link);
        let rscs_link = s.rscs.seq(&link);
        let rcu_path = rcu_path_fixpoint(&gp_link, &rscs_link);
        let srcu_paths = s
            .srcu
            .iter()
            .map(|(sgp, srscs)| rcu_path_fixpoint(&sgp.seq(&link), &srscs.seq(&link)))
            .collect();

        LkmmRelations {
            fr,
            com,
            ext: s.ext.clone(),
            po_loc: s.po_loc.clone(),
            rmb: s.rmb.clone(),
            wmb: s.wmb.clone(),
            mb: s.mb.clone(),
            rb_dep: s.rb_dep.clone(),
            acq_po: s.acq_po.clone(),
            po_rel: s.po_rel.clone(),
            rfi_rel_acq,
            gp: s.gp.clone(),
            dep: s.dep.clone(),
            rwdep: s.rwdep.clone(),
            overwrite,
            to_w,
            rrdep,
            strong_rrdep,
            to_r,
            strong_fence: s.strong_fence.clone(),
            fence: s.fence.clone(),
            ppo,
            cumul_fence,
            prop,
            hb,
            pb,
            rscs: s.rscs.clone(),
            link,
            gp_link,
            rscs_link,
            rcu_path,
            srcu_paths,
        }
    }
}

/// Least fixpoint of the Figure 12 recursion:
///
/// ```text
/// rec rcu-path := gp-link ∪ (rcu-path ; rcu-path)
///               ∪ (gp-link ; rscs-link) ∪ (rscs-link ; gp-link)
///               ∪ (gp-link ; rcu-path ; rscs-link)
///               ∪ (rscs-link ; rcu-path ; gp-link)
/// ```
///
/// `rcu-path` pairs events connected by a non-empty sequence of `gp-link`
/// and `rscs-link` edges with at least as many grace periods as critical
/// sections.
pub fn rcu_path_fixpoint(gp_link: &Relation, rscs_link: &Relation) -> Relation {
    rcu_path_fixpoint_with(gp_link, rscs_link, None).take()
}

/// Caller-held scratch for [`rcu_path_irreflexive_with`]: the two
/// fixpoint generations, the loop-invariant base, and two sequence
/// temporaries. A checking session keeps one of these alive across
/// candidates so the RCU axiom's fixpoint performs no storage
/// round-trips at all — not even pool transactions.
#[derive(Debug, Default)]
pub struct FixpointScratch {
    scratch: Relation,
    scratch2: Relation,
    base: Relation,
    cur: Relation,
    next: Relation,
}

/// Whether the Figure 12 `rcu-path` fixpoint is irreflexive, computed
/// entirely in `fx`'s reusable storage (reshaped, never reacquired).
/// This is the hot-path form of [`rcu_path_fixpoint`]: per-candidate
/// checkers only need the verdict, not the relation.
pub fn rcu_path_irreflexive_with(
    gp_link: &Relation,
    rscs_link: &Relation,
    fx: &mut FixpointScratch,
) -> bool {
    let n = gp_link.universe();
    let FixpointScratch { scratch, scratch2, base, cur, next } = fx;
    scratch.reset(n);
    scratch2.reset(n);
    cur.reset(n);
    // The first three union operands are loop-invariant.
    base.copy_from(gp_link);
    gp_link.seq_into(rscs_link, scratch);
    base.union_in_place(scratch);
    rscs_link.seq_into(gp_link, scratch);
    base.union_in_place(scratch);
    loop {
        next.copy_from(base);
        cur.seq_into(cur, scratch);
        next.union_in_place(scratch);
        gp_link.seq_into(cur, scratch);
        scratch.seq_into(rscs_link, scratch2);
        next.union_in_place(scratch2);
        rscs_link.seq_into(cur, scratch);
        scratch.seq_into(gp_link, scratch2);
        next.union_in_place(scratch2);
        if next == cur {
            return cur.is_irreflexive();
        }
        std::mem::swap(cur, next);
    }
}

/// [`rcu_path_fixpoint`] into storage drawn from `pool` (when present):
/// the loop swaps two pooled generations and reuses two scratch
/// relations for the three-way sequences, so a fixpoint round allocates
/// nothing once the pool is warm.
pub fn rcu_path_fixpoint_with(
    gp_link: &Relation,
    rscs_link: &Relation,
    pool: Option<&SharedArena>,
) -> ArenaRel {
    let n = gp_link.universe();
    // The first three union operands are loop-invariant.
    let mut scratch = acquire_rel(pool, n);
    let mut scratch2 = acquire_rel(pool, n);
    let mut base = acquire_rel(pool, n);
    base.copy_from(gp_link);
    gp_link.seq_into(rscs_link, &mut scratch);
    base.union_in_place(&scratch);
    rscs_link.seq_into(gp_link, &mut scratch);
    base.union_in_place(&scratch);
    let mut cur = acquire_rel(pool, n);
    let mut next = acquire_rel(pool, n);
    loop {
        next.copy_from(&base);
        cur.seq_into(&cur, &mut scratch);
        next.union_in_place(&scratch);
        gp_link.seq_into(&cur, &mut scratch);
        scratch.seq_into(rscs_link, &mut scratch2);
        next.union_in_place(&scratch2);
        rscs_link.seq_into(&cur, &mut scratch);
        scratch.seq_into(gp_link, &mut scratch2);
        next.union_in_place(&scratch2);
        if next == cur {
            return cur;
        }
        std::mem::swap(&mut cur, &mut next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::{enumerate, EnumOptions};
    use lkmm_litmus::library;

    /// Find the execution of a library test satisfying its own condition
    /// (the "weak outcome" execution shown in the paper's figure).
    fn weak_execution(name: &str) -> Execution {
        let t = library::by_name(name).unwrap().test();
        enumerate(&t, &EnumOptions::default())
            .unwrap()
            .into_iter()
            .find(|x| x.satisfies_prop(&t.condition.prop))
            .unwrap_or_else(|| panic!("{name}: weak outcome not among candidates"))
    }

    #[test]
    fn figure2_wmb_gives_prop_edge() {
        // In Figure 2, writes a (x=1) and b (y=1) are separated by smp_wmb;
        // (a, b) ∈ prop, and the overwritten read d links to b.
        let x = weak_execution("MP+wmb+rmb");
        let r = LkmmRelations::compute(&x);
        let a = x.events.iter().find(|e| e.thread == Some(0) && e.is_write()).unwrap().id;
        let b = x
            .events
            .iter()
            .filter(|e| e.thread == Some(0) && e.is_write())
            .nth(1)
            .unwrap()
            .id;
        assert!(r.wmb.contains(a, b));
        assert!(r.prop.contains(a, b));
    }

    #[test]
    fn figure4_ctrl_and_mb_are_ppo() {
        let x = weak_execution("LB+ctrl+mb");
        let r = LkmmRelations::compute(&x);
        // T0: read a, ctrl-dependent write b.
        let a = x.events.iter().find(|e| e.thread == Some(0) && e.is_read()).unwrap().id;
        let b = x.events.iter().find(|e| e.thread == Some(0) && e.is_write()).unwrap().id;
        assert!(x.shape.ctrl.contains(a, b));
        assert!(r.ppo.contains(a, b));
        // T1: read c, mb, write d.
        let c = x.events.iter().find(|e| e.thread == Some(1) && e.is_read()).unwrap().id;
        let d = x
            .events
            .iter()
            .find(|e| e.thread == Some(1) && e.is_write() && !e.is_init())
            .unwrap()
            .id;
        assert!(r.mb.contains(c, d));
        assert!(r.ppo.contains(c, d));
        // The full hb cycle of §3.2.4.
        assert!(!r.hb.is_acyclic());
    }

    #[test]
    fn figure5_release_is_a_cumulative() {
        let x = weak_execution("WRC+po-rel+rmb");
        let r = LkmmRelations::compute(&x);
        // a = P0's write of x; c = P1's release write of y.
        let a = x.events.iter().find(|e| e.thread == Some(0) && e.is_write()).unwrap().id;
        let c = x.events.iter().find(|e| e.is_release()).unwrap().id;
        // §3.2.3: (a, c) ∈ A-cumul(po-rel) ⊆ cumul-fence.
        assert!(r.cumul_fence.contains(a, c));
        assert!(!r.hb.is_acyclic());
    }

    #[test]
    fn figure6_pb_cycle() {
        let x = weak_execution("SB+mbs");
        let r = LkmmRelations::compute(&x);
        assert!(r.hb.is_acyclic(), "SB+mbs is a Pb violation, not Hb");
        assert!(!r.pb.is_acyclic());
    }

    #[test]
    fn figure7_peterz_pb_cycle() {
        let x = weak_execution("PeterZ");
        let r = LkmmRelations::compute(&x);
        assert!(!r.pb.is_acyclic());
    }

    #[test]
    fn figure9_rrdep_prefix_extends_ppo() {
        let x = weak_execution("MP+wmb+addr-acq");
        let r = LkmmRelations::compute(&x);
        // c = read of y (pointer), d = acquire via *r1, e = read of x:
        // (c,d) ∈ rrdep (addr), (d,e) ∈ acq-po, so (c,e) ∈ ppo.
        let c = x
            .events
            .iter()
            .find(|e| e.thread == Some(1) && e.is_read() && !e.is_acquire())
            .unwrap()
            .id;
        let d = x.events.iter().find(|e| e.is_acquire()).unwrap().id;
        let xloc = x.loc_id("x").unwrap();
        let e = x
            .events
            .iter()
            .find(|ev| ev.thread == Some(1) && ev.is_read() && ev.loc() == Some(xloc))
            .unwrap()
            .id;
        assert!(r.rrdep.contains(c, d));
        assert!(r.acq_po.contains(d, e));
        assert!(r.ppo.contains(c, e));
        assert!(!r.hb.is_acyclic());
    }

    #[test]
    fn figure10_rcu_path_reflexive() {
        let x = weak_execution("RCU-MP");
        let r = LkmmRelations::compute(&x);
        assert!(!r.rcu_path.is_irreflexive(), "RCU axiom must reject Figure 10");
        // The core axioms alone do not reject it.
        assert!(r.hb.is_acyclic());
        assert!(r.pb.is_acyclic());
    }

    #[test]
    fn rcu_path_fixpoint_counts_gps_vs_rscs() {
        // Hand-built: gp-link 0→1, rscs-link 1→0. One GP, one RSCS in the
        // cycle: rcu-path must contain (0,0) via gp-link;rscs-link.
        let gp_link = Relation::from_pairs(2, [(0, 1)]);
        let rscs_link = Relation::from_pairs(2, [(1, 0)]);
        let p = rcu_path_fixpoint(&gp_link, &rscs_link);
        assert!(p.contains(0, 0));
        // rscs-link alone is never a path: more RSCSes than GPs.
        let p2 = rcu_path_fixpoint(&Relation::empty(2), &rscs_link);
        assert!(p2.is_empty());
    }
}
