//! ARMv8 AArch64 axiomatic model (simplified from ARM's released cat
//! model — the one the paper §1.2 says made the earlier academic models
//! obsolete and drove a LKMM revision).
//!
//! The model is built around *ordered-before* (`ob`): external
//! observations (`obs`), dependency-ordered-before (`dob`),
//! atomic-ordered-before (`aob`) and barrier-ordered-before (`bob`),
//! required to be acyclic, plus internal per-location coherence and RMW
//! atomicity.
//!
//! The LK barrier mapping on AArch64: `smp_mb` → `dmb ish` (full),
//! `smp_wmb` → `dmb ishst`, `smp_rmb` → `dmb ishld`,
//! `smp_load_acquire` → `LDAR` (acquire, `A`), `smp_store_release` →
//! `STLR` (release, `L`). Dependencies are respected in hardware —
//! including read-read address dependencies, which is why
//! `smp_read_barrier_depends` is a no-op here (only Alpha needs it).
//!
//! `synchronize_rcu` has no hardware meaning; like [`crate::X86Tso`],
//! this model conservatively treats it as a full barrier and RCU litmus
//! tests should use `lkmm-sim`'s operational grace periods instead.

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution};
use lkmm_litmus::FenceKind;
use lkmm_relation::{acquire_rel, acquire_set, ArenaRel, Relation};

/// The simplified ARMv8 axiomatic model.
///
/// # Examples
///
/// ```
/// use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
/// use lkmm_models::Armv8;
///
/// // WRC is observable on ARMv8 (Table 5: 13k/5.2G) via load-load
/// // reordering, even though the architecture is multi-copy atomic.
/// let wrc = lkmm_litmus::library::by_name("WRC").unwrap().test();
/// assert_eq!(check_test(&Armv8, &wrc, &EnumOptions::default()).unwrap().verdict,
///            Verdict::Allowed);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Armv8;

impl Armv8 {
    /// The `ob` (ordered-before) relation whose acyclicity is the
    /// external-visibility requirement.
    pub fn ob(x: &Execution) -> Relation {
        Self::ob_with(x, &ExecFacts::new(x))
    }

    /// [`Self::ob`] against a pre-computed facts layer.
    pub fn ob_with(x: &Execution, facts: &ExecFacts<'_>) -> Relation {
        Self::ob_pooled(x, facts).take()
    }

    /// The `ob` computation itself, accumulated in place into storage
    /// from the facts' arena. Every `[S] ; r ; [T]` shape is a pair of
    /// row restrictions — word-parallel maskings — instead of
    /// identity-relation compositions, and nothing intermediate outlives
    /// the call.
    fn ob_pooled(x: &Execution, facts: &ExecFacts<'_>) -> ArenaRel {
        let pool = facts.arena();
        let n = x.shape.po.universe();
        let po = &x.shape.po;
        let r = facts.reads();
        let w = facts.writes();
        let m = facts.mem();
        let rfi = facts.rfi();
        let mut ob = acquire_rel(pool, n);
        let mut t = acquire_rel(pool, n);

        // obs: external observations.
        ob.copy_from(facts.rfe());
        ob.union_in_place(facts.fre());
        ob.union_in_place(facts.coe());

        // dob: dependency-ordered-before. ARMv8 respects address, data
        // and control(-to-write) dependencies, dependency-into-rfi
        // forwarding, and address-dependency-then-po to a write.
        let mut dep = acquire_rel(pool, n);
        dep.copy_from(&x.shape.addr);
        dep.union_in_place(&x.shape.data);
        ob.union_in_place(&dep);
        t.copy_from(&x.shape.ctrl); // ctrl ∩ (R × W)
        t.restrict_domain_in_place(r);
        t.restrict_range_in_place(w);
        ob.union_in_place(&t);
        dep.seq_into(rfi, &mut t); // dep ; rfi
        ob.union_in_place(&t);
        x.shape.addr.seq_into(po, &mut t); // (addr ; po) ∩ (R × W)
        t.restrict_domain_in_place(r);
        t.restrict_range_in_place(w);
        ob.union_in_place(&t);

        // aob: atomic-ordered-before — rmw ∪ [ran(rmw)] ; rfi ; [A].
        ob.union_in_place(&x.shape.rmw);
        let mut rmw_w = acquire_set(pool, n);
        x.shape.rmw.range_into(&mut rmw_w);
        t.copy_from(rfi);
        t.restrict_domain_in_place(&rmw_w);
        t.restrict_range_in_place(facts.acquires());
        ob.union_in_place(&t);

        // bob: barrier-ordered-before.
        t.copy_from(facts.fencerel(FenceKind::Mb)); // full ∩ (M × M)
        t.union_in_place(facts.fencerel(FenceKind::SyncRcu));
        t.restrict_domain_in_place(m);
        t.restrict_range_in_place(m);
        ob.union_in_place(&t);
        t.copy_from(facts.fencerel(FenceKind::Wmb)); // dmb.st ∩ (W × W)
        t.restrict_domain_in_place(w);
        t.restrict_range_in_place(w);
        ob.union_in_place(&t);
        t.copy_from(facts.fencerel(FenceKind::Rmb)); // dmb.ld ∩ (R × M)
        t.restrict_domain_in_place(r);
        t.restrict_range_in_place(m);
        ob.union_in_place(&t);
        t.copy_from(po); // [A] ; po
        t.restrict_domain_in_place(facts.acquires());
        ob.union_in_place(&t);
        t.copy_from(po); // po ; [L]
        t.restrict_range_in_place(facts.releases());
        ob.union_in_place(&t);
        t.copy_from(po); // [L] ; po ; [A]
        t.restrict_domain_in_place(facts.releases());
        t.restrict_range_in_place(facts.acquires());
        ob.union_in_place(&t);
        ob
    }
}

impl ConsistencyModel for Armv8 {
    fn name(&self) -> &str {
        "ARMv8"
    }

    fn allows(&self, x: &Execution) -> bool {
        self.allows_with(x, &ExecFacts::new(x))
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        // Internal visibility (per-location coherence), then atomicity.
        if !facts.sc_per_loc_ok() || !facts.atomicity_ok() {
            return false;
        }
        // External visibility.
        Self::ob_pooled(x, facts).is_acyclic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::{for_each_execution, EnumOptions};
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library;

    #[test]
    fn table5_armv8_shape() {
        // Observed on ARMv8 in Table 5: WRC (13k), SB (2.4G), MP (104M),
        // PeterZ-No-Synchro (3.6M), RWC (94M). Never observed (and
        // forbidden by the architecture): every fenced/dep-ordered row.
        let expect_allowed = ["WRC", "SB", "MP", "PeterZ-No-Synchro", "RWC", "LB"];
        let expect_forbidden = [
            "LB+ctrl+mb",
            "WRC+po-rel+rmb",
            "SB+mbs",
            "MP+wmb+rmb",
            "PeterZ",
            "RWC+mbs",
            "MP+po-rel+acq",
            "ISA2+po-rel+po-rel+acq",
            "LB+datas",
        ];
        for name in expect_allowed {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&Armv8, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Allowed, "{name}");
        }
        for name in expect_forbidden {
            let t = library::by_name(name).unwrap().test();
            let r = check_test(&Armv8, &t, &EnumOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Forbidden, "{name}");
        }
    }

    #[test]
    fn armv8_respects_plain_address_dependencies() {
        // Unlike the LKMM (which must accommodate Alpha), ARMv8 orders
        // read-read address dependencies without any barrier: a reader
        // chasing a freshly published pointer cannot see stale data.
        let t = lkmm_litmus::parse(
            r"C MP+wmb+addr-chase
{ w=0; y=&z; z=0; }
P0(int *w, int **y) { WRITE_ONCE(*w, 1); smp_wmb(); WRITE_ONCE(*y, &w); }
P1(int **y) { int *r1; int r2; r1 = READ_ONCE(*y); r2 = READ_ONCE(*r1); }
exists (1:r1=&w /\ 1:r2=0)",
        )
        .unwrap();
        let r = check_test(&Armv8, &t, &EnumOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Forbidden);
        // The LKMM allows it without smp_read_barrier_depends — ARMv8 is
        // strictly stronger here (the Alpha accommodation, §3.2.2).
        let l = check_test(&lkmm::Lkmm::new(), &t, &EnumOptions::default()).unwrap();
        assert_eq!(l.verdict, Verdict::Allowed);
    }

    #[test]
    fn armv8_sits_between_sc_and_lkmm() {
        let model = lkmm::Lkmm::new();
        for pt in library::all().iter().filter(|p| !p.name.starts_with("RCU")) {
            let t = pt.test();
            for_each_execution(&t, &EnumOptions::default(), &mut |x| {
                if crate::Sc.allows(x) {
                    assert!(Armv8.allows(x), "{}: SC ⊄ ARMv8", pt.name);
                }
                if Armv8.allows(x) {
                    assert!(model.allows(x), "{}: ARMv8 ⊄ LKMM\n{x}", pt.name);
                }
            })
            .unwrap();
        }
    }
}
