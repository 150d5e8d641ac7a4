//! x86-TSO in the "herding cats" axiomatic style.

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution};
use lkmm_litmus::FenceKind;
use lkmm_relation::{acquire_rel, acquire_set, Relation};

/// x86-TSO: program order is preserved except write→read; a full fence
/// (`smp_mb`, mapped to `mfence`) and LOCK-prefixed RMWs restore it.
///
/// The LK barrier mapping on x86: `smp_mb` → `mfence`; `smp_wmb`,
/// `smp_rmb`, acquire/release → compiler-only (TSO already orders R→R,
/// R→W and W→W, and its stores/loads have release/acquire semantics).
///
/// `synchronize_rcu` is treated as a full fence — which is *weaker* than
/// its real grace-period semantics; RCU litmus tests should be run
/// against the operational simulator (`lkmm-sim`) instead.
///
/// # Examples
///
/// ```
/// use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
/// use lkmm_models::X86Tso;
///
/// // Store buffering is x86's one relaxation...
/// let sb = lkmm_litmus::library::by_name("SB").unwrap().test();
/// assert_eq!(check_test(&X86Tso, &sb, &EnumOptions::default()).unwrap().verdict,
///            Verdict::Allowed);
/// // ...and message passing is not observable.
/// let mp = lkmm_litmus::library::by_name("MP").unwrap().test();
/// assert_eq!(check_test(&X86Tso, &mp, &EnumOptions::default()).unwrap().verdict,
///            Verdict::Forbidden);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct X86Tso;

impl X86Tso {
    /// The TSO global-happens-before relation whose acyclicity defines the
    /// model (beyond per-location coherence and atomicity).
    pub fn ghb(x: &Execution) -> Relation {
        Self::ghb_with(x, &ExecFacts::new(x))
    }

    /// [`Self::ghb`] against a pre-computed facts layer.
    pub fn ghb_with(x: &Execution, facts: &ExecFacts<'_>) -> Relation {
        Self::ghb_pooled(x, facts).take()
    }

    /// The ghb computation itself. Built with the in-place kernels into
    /// storage drawn from the facts' arena (when one is attached): `po ;
    /// [dom(rmw)]` and `[ran(rmw)] ; po` are row maskings, not
    /// relational compositions, and `po \ (W × R)` never materialises
    /// the product. The pooled handle lets the hot path recycle the
    /// storage on drop.
    fn ghb_pooled(x: &Execution, facts: &ExecFacts<'_>) -> lkmm_relation::ArenaRel {
        let pool = facts.arena();
        let n = x.shape.po.universe();
        let mut ghb = acquire_rel(pool, n);
        ghb.copy_from(&x.shape.po);
        ghb.subtract_cross(facts.writes(), facts.reads()); // ppo_tso
        ghb.union_in_place(facts.fencerel(FenceKind::Mb));
        ghb.union_in_place(facts.fencerel(FenceKind::SyncRcu));
        // LOCK-prefixed RMWs behave like full fences around the
        // operation: po ; [dom(rmw)] and [ran(rmw)] ; po.
        let mut ends = acquire_set(pool, n);
        let mut tmp = acquire_rel(pool, n);
        x.shape.rmw.domain_into(&mut ends);
        tmp.copy_from(&x.shape.po);
        tmp.restrict_range_in_place(&ends);
        ghb.union_in_place(&tmp);
        x.shape.rmw.range_into(&mut ends);
        tmp.copy_from(&x.shape.po);
        tmp.restrict_domain_in_place(&ends);
        ghb.union_in_place(&tmp);
        ghb.union_in_place(facts.rfe());
        ghb.union_in_place(&x.co);
        ghb.union_in_place(facts.fr());
        ghb
    }
}

impl ConsistencyModel for X86Tso {
    fn name(&self) -> &str {
        "x86-TSO"
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        // Per-location coherence, then atomicity of RMWs.
        if !facts.sc_per_loc_ok() || !facts.atomicity_ok() {
            return false;
        }
        Self::ghb_pooled(x, facts).is_acyclic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library;

    #[test]
    fn table5_x86_shape() {
        // Observed on x86 in Table 5: SB (765M), PeterZ-No-Synchro (351k),
        // RWC (5.6M). Never observed: LB, WRC, MP, and every fenced test.
        let expect_allowed = ["SB", "PeterZ-No-Synchro", "RWC"];
        let expect_forbidden = ["LB", "WRC", "MP", "SB+mbs", "MP+wmb+rmb", "PeterZ", "RWC+mbs"];
        for name in expect_allowed {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&X86Tso, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Allowed, "{name}");
        }
        for name in expect_forbidden {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&X86Tso, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Forbidden, "{name}");
        }
    }

    #[test]
    fn tso_is_stronger_than_lkmm_and_weaker_than_sc() {
        let lkmm = lkmm::Lkmm::new();
        let sc = crate::Sc;
        for pt in library::all().iter().filter(|t| !t.name.starts_with("RCU")) {
            let t = pt.test();
            for_each_execution(&t, &EnumOptions::default(), &mut |x| {
                if sc.allows(x) {
                    assert!(X86Tso.allows(x), "{}: SC ⊆ TSO violated", pt.name);
                }
                if X86Tso.allows(x) {
                    assert!(lkmm.allows(x), "{}: TSO ⊆ LKMM violated\n{x}", pt.name);
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn native_tso_agrees_with_cat_tso() {
        use lkmm_cat::CatModel;
        let cat = CatModel::parse(lkmm_cat::builtin::X86_TSO_CAT).unwrap();
        for pt in library::all().iter().filter(|t| !t.name.starts_with("RCU")) {
            let t = pt.test();
            for_each_execution(&t, &EnumOptions::default(), &mut |x| {
                assert_eq!(cat.allows(x), X86Tso.allows(x), "{}\n{x}", pt.name);
            })
            .unwrap();
        }
    }
}
