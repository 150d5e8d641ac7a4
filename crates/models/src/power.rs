//! IBM Power axiomatic model in the "herding cats" style \[12\] — the
//! formalisation lineage the paper's LKMM grew out of (§1.2: "we
//! axiomatised models of IBM Power \[74, 75\] in cat; we modified this
//! formalisation…").
//!
//! Power is the weakest machine the kernel targets: out-of-order,
//! non-multi-copy-atomic, with the `lwsync`/`sync` fence pair. The model
//! has five axioms:
//!
//! * **SC per location**: `acyclic(po-loc ∪ com)`;
//! * **atomicity**: `empty(rmw ∩ (fre ; coe))`;
//! * **no thin air**: `acyclic(hb)` with `hb = ppo ∪ fences ∪ rfe`;
//! * **observation**: `irreflexive(fre ; prop ; hb*)`;
//! * **propagation**: `acyclic(co ∪ prop)`;
//!
//! where `ppo` is the preserved-program-order fixpoint over the
//! `ii/ic/ci/cc` families (Herding Cats, Fig. 18) and `prop` captures the
//! cumulativity of `lwsync`/`sync`.
//!
//! LK mapping on Power: `smp_mb` → `sync`; `smp_wmb`/`smp_rmb` →
//! `lwsync`; `smp_store_release` → `lwsync; st`; `smp_load_acquire` →
//! `ld; lwsync`-strength ordering. `synchronize_rcu` is treated as
//! `sync` (conservative; grace periods live in `lkmm-sim`).

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution};
use lkmm_litmus::FenceKind;
use lkmm_relation::{acquire_rel, scratch_words, with_scratch, ArenaRel, Relation};

/// The Power axiomatic model.
///
/// # Examples
///
/// ```
/// use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
/// use lkmm_models::Power;
///
/// // WRC without barriers is the signature non-multi-copy-atomic
/// // behaviour: Power allows it (Table 5: 741k observations).
/// let wrc = lkmm_litmus::library::by_name("WRC").unwrap().test();
/// assert_eq!(check_test(&Power, &wrc, &EnumOptions::default()).unwrap().verdict,
///            Verdict::Allowed);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Power;

/// The relations the axioms constrain.
pub struct PowerRelations {
    pub ppo: Relation,
    pub fences: Relation,
    pub hb: Relation,
    pub prop: Relation,
}

/// The pooled counterpart of [`PowerRelations`], carrying `hb*` too so
/// the OBSERVATION axiom never recomputes the closure.
struct PowerRelationsPooled {
    fences: ArenaRel,
    hb: ArenaRel,
    hb_star: ArenaRel,
    prop: ArenaRel,
    ppo: ArenaRel,
}

impl Power {
    /// Compute `ppo`, the fence relations, `hb` and `prop`.
    pub fn relations(x: &Execution) -> PowerRelations {
        Self::relations_with(x, &ExecFacts::new(x))
    }

    /// [`Self::relations`] against a pre-computed facts layer.
    pub fn relations_with(x: &Execution, facts: &ExecFacts<'_>) -> PowerRelations {
        let p = Self::relations_pooled(x, facts);
        PowerRelations {
            ppo: p.ppo.take(),
            fences: p.fences.take(),
            hb: p.hb.take(),
            prop: p.prop.take(),
        }
    }

    /// The relation stack, accumulated in place into storage from the
    /// facts' arena: the `ii/ic/ci/cc` fixpoint swaps two pooled
    /// generations instead of allocating four relations per round, and
    /// every `[S] ; r ; [T]` shape is a pair of row restrictions.
    fn relations_pooled(x: &Execution, facts: &ExecFacts<'_>) -> PowerRelationsPooled {
        let pool = facts.arena();
        let n = x.universe();
        let r = facts.reads();
        let w = facts.writes();
        let m = facts.mem();
        let po = &x.shape.po;
        let po_loc = facts.po_loc();
        let rfi = facts.rfi();
        let rfe = facts.rfe();
        let fre = facts.fre();
        let coe = facts.coe();
        let mut t = acquire_rel(pool, n);
        let mut t2 = acquire_rel(pool, n);

        // --- ppo fixpoint (Herding Cats, Fig. 18) ---
        let mut dp = acquire_rel(pool, n);
        dp.copy_from(&x.shape.addr);
        dp.union_in_place(&x.shape.data);

        // ii0 = dp ∪ rdw ∪ rfi, rdw = po-loc ∩ (fre ; rfe).
        let mut ii0 = acquire_rel(pool, n);
        fre.seq_into(rfe, &mut ii0);
        ii0.intersection_in_place(po_loc);
        ii0.union_in_place(&dp);
        ii0.union_in_place(rfi);
        // detour = po-loc ∩ (coe ; rfe).
        let mut detour = acquire_rel(pool, n);
        coe.seq_into(rfe, &mut detour);
        detour.intersection_in_place(po_loc);
        // On Power, acquire loads compile to ld;ctrl;isync (or stronger):
        // model the acquire ordering as ctrl+isync from the acquire read.
        // ci0 = ctrl ∪ [A] ; po ∪ detour.
        let mut ci0 = acquire_rel(pool, n);
        ci0.copy_from(po);
        ci0.restrict_domain_in_place(facts.acquires());
        ci0.union_in_place(&x.shape.ctrl);
        ci0.union_in_place(&detour);
        // cc0 = dp ∪ po-loc ∪ ctrl ∪ addr ; po.
        let mut cc0 = acquire_rel(pool, n);
        x.shape.addr.seq_into(po, &mut cc0);
        cc0.union_in_place(&dp);
        cc0.union_in_place(po_loc);
        cc0.union_in_place(&x.shape.ctrl);
        // ic0 = ∅ (no separate handle needed — nic starts from ii ∪ cc).

        let mut ii = acquire_rel(pool, n);
        ii.copy_from(&ii0);
        let mut ic = acquire_rel(pool, n);
        let mut ci = acquire_rel(pool, n);
        ci.copy_from(&ci0);
        let mut cc = acquire_rel(pool, n);
        cc.copy_from(&cc0);
        let mut nii = acquire_rel(pool, n);
        let mut nic = acquire_rel(pool, n);
        let mut nci = acquire_rel(pool, n);
        let mut ncc = acquire_rel(pool, n);
        loop {
            nii.copy_from(&ii0);
            nii.union_in_place(&ci);
            ic.seq_into(&ci, &mut t);
            nii.union_in_place(&t);
            ii.seq_into(&ii, &mut t);
            nii.union_in_place(&t);

            nic.copy_from(&ii);
            nic.union_in_place(&cc);
            ic.seq_into(&cc, &mut t);
            nic.union_in_place(&t);
            ii.seq_into(&ic, &mut t);
            nic.union_in_place(&t);

            nci.copy_from(&ci0);
            ci.seq_into(&ii, &mut t);
            nci.union_in_place(&t);
            cc.seq_into(&ci, &mut t);
            nci.union_in_place(&t);

            ncc.copy_from(&cc0);
            ncc.union_in_place(&ci);
            ci.seq_into(&ic, &mut t);
            ncc.union_in_place(&t);
            cc.seq_into(&cc, &mut t);
            ncc.union_in_place(&t);

            let fixed = nii == ii && nic == ic && nci == ci && ncc == cc;
            std::mem::swap(&mut ii, &mut nii);
            std::mem::swap(&mut ic, &mut nic);
            std::mem::swap(&mut ci, &mut nci);
            std::mem::swap(&mut cc, &mut ncc);
            if fixed {
                break;
            }
        }
        // ppo = (ii ∩ R×R) ∪ (ic ∩ R×W).
        let mut ppo = acquire_rel(pool, n);
        ppo.copy_from(&ii);
        ppo.restrict_domain_in_place(r);
        ppo.restrict_range_in_place(r);
        t.copy_from(&ic);
        t.restrict_domain_in_place(r);
        t.restrict_range_in_place(w);
        ppo.union_in_place(&t);

        // --- fences ---
        // sync: smp_mb (and synchronize_rcu, conservatively).
        let mut ffence = acquire_rel(pool, n);
        ffence.copy_from(facts.fencerel(FenceKind::Mb));
        ffence.union_in_place(facts.fencerel(FenceKind::SyncRcu));
        ffence.restrict_domain_in_place(m);
        ffence.restrict_range_in_place(m);
        // lwsync: smp_wmb, smp_rmb, and the release-store / acquire-load
        // mappings; lwsync does not order W→R, so keep
        // lw ∩ (R×M ∪ M×W) = ([R] ; lw ; [M]) ∪ ([M] ; lw ; [W]).
        t.copy_from(facts.fencerel(FenceKind::Wmb));
        t.union_in_place(facts.fencerel(FenceKind::Rmb));
        t2.copy_from(po); // po ; [L]
        t2.restrict_range_in_place(facts.releases());
        t.union_in_place(&t2);
        t2.copy_from(po); // [A] ; po
        t2.restrict_domain_in_place(facts.acquires());
        t.union_in_place(&t2);
        t2.copy_from(&t);
        t2.restrict_domain_in_place(r);
        t2.restrict_range_in_place(m);
        t.restrict_domain_in_place(m);
        t.restrict_range_in_place(w);
        t.union_in_place(&t2);
        let mut fences = acquire_rel(pool, n);
        fences.copy_from(&ffence);
        fences.union_in_place(&t);

        // --- hb, prop ---
        let mut hb = acquire_rel(pool, n);
        hb.copy_from(&ppo);
        hb.union_in_place(&fences);
        hb.union_in_place(rfe);
        let mut hb_star = acquire_rel(pool, n);
        hb_star.copy_from(&hb);
        with_scratch(pool, scratch_words(n), |row| {
            hb_star.transitive_close_with(row);
            hb_star.reflexive_in_place();

            // prop_base = (fences ∪ rfe ; fences) ; hb*.
            rfe.seq_into(&fences, &mut t);
            t.union_in_place(&fences);
            let mut prop_base = acquire_rel(pool, n);
            t.seq_into(&hb_star, &mut prop_base);

            // prop = (W×W ∩ prop_base)
            //      ∪ (com* ; prop_base* ; sync-fence ; hb*).
            let mut prop = acquire_rel(pool, n);
            prop.copy_from(&prop_base);
            prop.restrict_domain_in_place(w);
            prop.restrict_range_in_place(w);
            t.copy_from(&prop_base); // prop_base*
            t.transitive_close_with(row);
            t.reflexive_in_place();
            t2.copy_from(facts.com()); // com*
            t2.transitive_close_with(row);
            t2.reflexive_in_place();
            t2.seq_into(&t, &mut prop_base); // com* ; prop_base*
            prop_base.seq_into(&ffence, &mut t);
            t.seq_into(&hb_star, &mut t2);
            prop.union_in_place(&t2);
            PowerRelationsPooled { fences, hb, hb_star, prop, ppo }
        })
    }
}

impl ConsistencyModel for Power {
    fn name(&self) -> &str {
        "Power"
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        if !facts.sc_per_loc_ok() || !facts.atomicity_ok() {
            return false;
        }
        let rel = Self::relations_pooled(x, facts);
        if !rel.hb.is_acyclic() {
            return false;
        }
        let pool = facts.arena();
        let n = x.universe();
        let mut t = acquire_rel(pool, n);
        let mut t2 = acquire_rel(pool, n);
        // Observation: irreflexive(fre ; prop ; hb*), with hb* carried
        // over from the relation stack instead of re-closed here.
        facts.fre().seq_into(&rel.prop, &mut t);
        t.seq_into(&rel.hb_star, &mut t2);
        if !t2.is_irreflexive() {
            return false;
        }
        // Propagation: acyclic(co ∪ prop).
        t.copy_from(&x.co);
        t.union_in_place(&rel.prop);
        t.is_acyclic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library;

    #[test]
    fn table5_power_shape() {
        // Observed on Power8 in Table 5: WRC (741k), SB (4.4G), MP (57M),
        // PeterZ-No-Synchro (26M), RWC (88M). The fenced rows are
        // architecturally forbidden.
        let expect_allowed =
            ["WRC", "SB", "MP", "PeterZ-No-Synchro", "RWC", "LB", "2+2W", "S", "R"];
        let expect_forbidden = [
            "LB+ctrl+mb",
            "WRC+po-rel+rmb",
            "SB+mbs",
            "MP+wmb+rmb",
            "PeterZ",
            "RWC+mbs",
            "MP+po-rel+acq",
            "LB+datas",
            "R+mbs",
            "Z6.0+mbs",
        ];
        for name in expect_allowed {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&Power, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Allowed, "{name}");
        }
        for name in expect_forbidden {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&Power, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Forbidden, "{name}");
        }
    }

    #[test]
    fn power_allows_non_mca_wrc_but_cumulativity_forbids_the_fenced_one() {
        // WRC+wmb+acq: lwsync on the middle thread is A-cumulative on
        // Power — the famous reason LKMM's wmb is *weaker* than lwsync.
        // Power forbids it; the LKMM allows it (Figure 14).
        let t = library::by_name("WRC+wmb+acq").unwrap().test();
        let p = check_test(&Power, &t, &EnumOptions::default()).unwrap();
        assert_eq!(p.verdict, Verdict::Forbidden, "lwsync is A-cumulative");
        let l = check_test(&lkmm::Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(l.verdict, Verdict::Allowed, "LKMM wmb is not");
    }

    #[test]
    fn power_sits_between_sc_and_lkmm() {
        let model = lkmm::Lkmm::new();
        for pt in library::all().iter().filter(|p| !p.name.starts_with("RCU")) {
            let t = pt.test();
            for_each_execution(&t, &EnumOptions::default(), &mut |x| {
                if crate::Sc.allows(x) {
                    assert!(Power.allows(x), "{}: SC ⊄ Power", pt.name);
                }
                if Power.allows(x) {
                    assert!(model.allows(x), "{}: Power ⊄ LKMM\n{x}", pt.name);
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn z6_cumulativity_subtlety() {
        // Z6.0+mb+po-rel+acq: Power's lwsync-based release is
        // B-cumulative, so the PROPAGATION axiom forbids the pattern —
        // while the LKMM deliberately keeps release/acquire weaker than
        // any current hardware and allows it (the real LKMM also says
        // "Sometimes" for this shape).
        let t = library::by_name("Z6.0+mb+po-rel+acq").unwrap().test();
        let p = check_test(&Power, &t, &EnumOptions::default()).unwrap();
        assert_eq!(p.verdict, Verdict::Forbidden);
        let l = check_test(&lkmm::Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(l.verdict, Verdict::Allowed);
    }
}
