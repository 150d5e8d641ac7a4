//! Original C11 (C++11 §29.3, before the SC-fence strengthening of
//! Batty et al. \[15\]), under the LK→C11 mapping of P0124 \[68\].

use lkmm_exec::{ConsistencyModel, ExecFacts, Execution};
use lkmm_litmus::{ast::Stmt, FenceKind, Test};
use lkmm_relation::{acquire_rel, acquire_set, scratch_words, with_scratch, ArenaRel, Relation};

/// The original C11 model.
///
/// Under the \[68\] mapping, LK events are reinterpreted as: ONCE →
/// relaxed, acquire/release → acquire/release, `smp_rmb` → acquire fence,
/// `smp_wmb` → release fence, `smp_mb` → `seq_cst` fence; dependencies
/// carry no ordering. A `seq_cst` fence is also an acquire and a release
/// fence.
///
/// Axioms:
///
/// * **Coherence** (RC11 formulation): `irreflexive(hb ; eco?)` with
///   `hb = (po ∪ sw)⁺` and `eco = (rf ∪ co ∪ fr)⁺`;
/// * **Atomicity**: `empty(rmw ∩ (fre ; coe))`;
/// * **SC fences** (the *original*, weak rules): there must exist a total
///   order `S` over `seq_cst` fences, consistent with `hb`, such that the
///   fence/read rule (C++11 29.3p6) and fence/write rule (29.3p7) hold.
///   Because the rules only constrain *pairs of fences*, the existential
///   reduces to an acyclicity check on a constraint digraph.
///
/// Simplifications (documented in DESIGN.md): release sequences are
/// truncated at the head (no RMW chains in the mapped tests), `seq_cst`
/// *atomics* never arise from the mapping (rules 29.3p3–p5 are vacuous),
/// and consume is not modelled (`smp_read_barrier_depends` maps to
/// nothing). RCU has no C11 counterpart ("–" in Table 5); see
/// [`OriginalC11::supports`].
///
/// # Examples
///
/// ```
/// use lkmm_exec::{check_test, enumerate::EnumOptions, Verdict};
/// use lkmm_models::OriginalC11;
///
/// // Figure 13: the LKMM forbids RWC+mbs, original C11 allows it.
/// let t = lkmm_litmus::library::by_name("RWC+mbs").unwrap().test();
/// let r = check_test(&OriginalC11, &t, &EnumOptions::default()).unwrap();
/// assert_eq!(r.verdict, Verdict::Allowed);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct OriginalC11;

impl OriginalC11 {
    /// Whether the mapping covers this test: C11 has no RCU primitives.
    pub fn supports(test: &Test) -> bool {
        fn no_rcu(stmts: &[Stmt]) -> bool {
            stmts.iter().all(|s| match s {
                Stmt::Fence(
                    FenceKind::RcuLock | FenceKind::RcuUnlock | FenceKind::SyncRcu,
                ) => false,
                Stmt::If { then_, else_, .. } => no_rcu(then_) && no_rcu(else_),
                _ => true,
            })
        }
        test.threads.iter().all(|t| no_rcu(&t.body))
    }

    /// Why this test is *licensed* to diverge from the LKMM, if it is.
    ///
    /// §5.2 of the paper traces every LKMM/C11 disagreement to a feature
    /// the original C11 model genuinely lacks. This is the conformance
    /// suite's whitelist: a test whose LKMM and C11 verdicts differ is
    /// only acceptable when some statement exercises one of those
    /// features. Returns the first such feature found, or `None` for
    /// plain `READ_ONCE`/`WRITE_ONCE` programs, whose verdicts must
    /// coincide under the \[68\] mapping.
    ///
    /// The licensed features:
    ///
    /// * **dependencies** — C11 relaxed accesses carry no address, data,
    ///   or control ordering (the out-of-thin-air problem, §5.2):
    ///   branches, register computation, registers feeding write values,
    ///   register-addressed accesses, `rcu_dereference`;
    /// * **fences** — the mapping weakens every LK fence (`smp_mb` maps
    ///   to the original 29.3p6/p7 `seq_cst` fence rules, which only
    ///   constrain fence pairs; `smp_rmb`/`smp_wmb` become mere
    ///   acquire/release fences);
    /// * **release/acquire** — C11 release sequences and sw edges are
    ///   not A-cumulative the way LKMM propagation is;
    /// * **RMW primitives** — mapped through the fence/ordering variants
    ///   above, inheriting their weakness.
    pub fn divergence_license(test: &Test) -> Option<&'static str> {
        fn expr_has_reg(e: &lkmm_litmus::Expr) -> bool {
            !e.regs().is_empty()
        }
        fn scan(stmts: &[Stmt]) -> Option<&'static str> {
            use lkmm_litmus::AddrExpr;
            for s in stmts {
                let lic = match s {
                    Stmt::If { .. } => Some("control dependency (C11 orders no dependencies)"),
                    Stmt::Assign { .. } | Stmt::Assume(_) => {
                        Some("register computation (dependency chain)")
                    }
                    Stmt::RcuDereference { .. } => {
                        Some("rcu_dereference address dependency")
                    }
                    Stmt::Fence(
                        FenceKind::Rmb | FenceKind::Wmb | FenceKind::Mb | FenceKind::RbDep
                        | FenceKind::SyncRcu,
                    ) => Some("fence mapped to weaker original-C11 fence"),
                    Stmt::LoadAcquire { .. }
                    | Stmt::StoreRelease { .. }
                    | Stmt::RcuAssignPointer { .. } => {
                        Some("release/acquire (C11 sw is not A-cumulative)")
                    }
                    Stmt::Xchg { .. }
                    | Stmt::CmpXchg { .. }
                    | Stmt::AtomicOp { .. }
                    | Stmt::SpinLock { .. }
                    | Stmt::SpinUnlock { .. } => Some("read-modify-write mapping"),
                    _ => None,
                };
                if lic.is_some() {
                    return lic;
                }
                // Address dependencies: any register-addressed access.
                let addr_reg = match s {
                    Stmt::ReadOnce { addr, .. } | Stmt::WriteOnce { addr, .. } => {
                        matches!(addr, AddrExpr::Reg(_))
                    }
                    _ => false,
                };
                if addr_reg {
                    return Some("address dependency (C11 orders no dependencies)");
                }
                // Data dependencies: a register feeding a write's value.
                if let Stmt::WriteOnce { value, .. } = s {
                    if expr_has_reg(value) {
                        return Some("data dependency (C11 orders no dependencies)");
                    }
                }
            }
            None
        }
        test.threads.iter().find_map(|t| scan(&t.body))
    }

    /// The synchronizes-with relation (C++11 29.3p2 and 29.8p2-4).
    pub fn sw(x: &Execution) -> Relation {
        Self::sw_with(x, &ExecFacts::new(x))
    }

    /// [`Self::sw`] against a pre-computed facts layer.
    pub fn sw_with(x: &Execution, facts: &ExecFacts<'_>) -> Relation {
        Self::sw_pooled(x, facts).take()
    }

    /// The `sw` computation itself, accumulated in place into storage
    /// from the facts' arena. The p2/29.8 rules all have the shape
    /// `[S] ; r ; [T]` (with fence prefixes/suffixes `[F] ; po ; [W]`
    /// and `[R] ; po ; [F]`), so each is a pair of row restrictions
    /// around at most one composition.
    fn sw_pooled(x: &Execution, facts: &ExecFacts<'_>) -> ArenaRel {
        let pool = facts.arena();
        let n = x.universe();
        let rf = &x.rf;
        let po = &x.shape.po;
        // seq_cst fences are both release and acquire fences.
        let mut rel_fence = acquire_set(pool, n);
        let mut acq_fence = acquire_set(pool, n);
        let sc_fence = facts.fences(FenceKind::Mb);
        for e in facts.fences(FenceKind::Wmb).iter().chain(sc_fence.iter()) {
            rel_fence.insert(e);
        }
        for e in facts.fences(FenceKind::Rmb).iter().chain(sc_fence.iter()) {
            acq_fence.insert(e);
        }
        // Fence prefix [rel_fence] ; po ; [W] and suffix [R] ; po ; [acq_fence].
        let mut fpre = acquire_rel(pool, n);
        fpre.copy_from(po);
        fpre.restrict_domain_in_place(&rel_fence);
        fpre.restrict_range_in_place(facts.writes());
        let mut fpost = acquire_rel(pool, n);
        fpost.copy_from(po);
        fpost.restrict_domain_in_place(facts.reads());
        fpost.restrict_range_in_place(&acq_fence);

        let mut t = acquire_rel(pool, n);
        let mut t2 = acquire_rel(pool, n);
        // (1) release store read by acquire load: [L] ; rf ; [A].
        let mut sw = acquire_rel(pool, n);
        sw.copy_from(rf);
        sw.restrict_domain_in_place(facts.releases());
        sw.restrict_range_in_place(facts.acquires());
        // (2) release fence ; store, read by acquire load.
        fpre.seq_into(rf, &mut t);
        t2.copy_from(&t);
        t2.restrict_range_in_place(facts.acquires());
        sw.union_in_place(&t2);
        // (4) release fence ; store … load ; acquire fence (t still
        // holds fpre ; rf).
        t.seq_into(&fpost, &mut t2);
        sw.union_in_place(&t2);
        // (3) release store read by a load ; acquire fence.
        t.copy_from(rf);
        t.restrict_domain_in_place(facts.releases());
        t.seq_into(&fpost, &mut t2);
        sw.union_in_place(&t2);
        sw
    }

    /// `hb = (po ∪ sw)⁺`.
    pub fn hb(x: &Execution) -> Relation {
        Self::hb_with(x, &ExecFacts::new(x))
    }

    /// [`Self::hb`] against a pre-computed facts layer.
    pub fn hb_with(x: &Execution, facts: &ExecFacts<'_>) -> Relation {
        Self::hb_pooled(x, facts).take()
    }

    /// [`Self::hb_with`] into pooled storage.
    fn hb_pooled(x: &Execution, facts: &ExecFacts<'_>) -> ArenaRel {
        let mut hb = Self::sw_pooled(x, facts);
        hb.union_in_place(&x.shape.po);
        with_scratch(facts.arena(), scratch_words(x.universe()), |row| {
            hb.transitive_close_with(row);
        });
        hb
    }

    /// Whether a total order `S` over `seq_cst` fences exists satisfying
    /// the original fence rules, given `hb` and the facts layer.
    fn sc_order_exists(x: &Execution, hb: &Relation, facts: &ExecFacts<'_>) -> bool {
        let fences: Vec<usize> = x
            .events
            .iter()
            .filter(|e| e.is_fence(FenceKind::Mb) || e.is_fence(FenceKind::SyncRcu))
            .map(|e| e.id)
            .collect();
        if fences.len() < 2 {
            return true;
        }
        // (B, A) ∈ fr ∪ co: B observes co-before A. Iterated as a chain
        // rather than materialising the union.
        let bad = || facts.fr().iter().chain(x.co.iter());
        // must_precede(a, b): a must come before b in S.
        let mut must = acquire_rel(facts.arena(), x.universe());
        for &a in &fences {
            for &b in &fences {
                if a == b {
                    continue;
                }
                if hb.contains(a, b) {
                    must.insert(a, b);
                }
                // conflict(b, a): some write A po-before b, some access B
                // po-after a, with (B, A) ∈ fr ∪ co. Then ¬(b <S a), i.e.
                // a must precede b.
                let conflict = bad().any(|(obs, wr)| {
                    x.events[wr].is_write() && x.shape.po.contains(wr, b) && x.shape.po.contains(a, obs)
                });
                if conflict {
                    must.insert(a, b);
                }
            }
        }
        must.is_acyclic()
    }
}

impl ConsistencyModel for OriginalC11 {
    fn name(&self) -> &str {
        "C11"
    }

    fn allows_with(&self, x: &Execution, facts: &ExecFacts<'_>) -> bool {
        let pool = facts.arena();
        let n = x.universe();
        let hb = Self::hb_pooled(x, facts);
        // Coherence: irreflexive(hb ; eco?), split as irreflexive(hb)
        // (the `?` identity part) plus irreflexive(hb ; eco).
        if !hb.is_irreflexive() {
            return false;
        }
        let mut eco = acquire_rel(pool, n);
        eco.copy_from(facts.com());
        with_scratch(pool, scratch_words(n), |row| {
            eco.transitive_close_with(row);
        });
        let mut t = acquire_rel(pool, n);
        hb.seq_into(&eco, &mut t);
        if !t.is_irreflexive() {
            return false;
        }
        // Atomicity.
        if !facts.atomicity_ok() {
            return false;
        }
        Self::sc_order_exists(x, &hb, facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::EnumOptions;
    use lkmm_exec::{check_test, Verdict};
    use lkmm_litmus::library::{self, Expect};

    #[test]
    fn c11_matches_every_table5_verdict() {
        for pt in library::all() {
            let Some(expect) = pt.c11 else { continue };
            let t = pt.test();
            assert!(OriginalC11::supports(&t), "{}", pt.name);
            let r = check_test(&OriginalC11, &t, &EnumOptions::default()).unwrap();
            let expected = match expect {
                Expect::Allowed => Verdict::Allowed,
                Expect::Forbidden => Verdict::Forbidden,
            };
            assert_eq!(r.verdict, expected, "{} (paper C11 column)", pt.name);
        }
    }

    #[test]
    fn rcu_tests_are_unsupported() {
        for name in ["RCU-MP", "RCU-deferred-free"] {
            let t = library::by_name(name).unwrap().test();
            assert!(!OriginalC11::supports(&t));
        }
    }

    #[test]
    fn divergence_set_matches_section_5_2() {
        // The paper highlights exactly these LKMM/C11 divergences among
        // the Table 5 rows (§5.2).
        let diverging: Vec<&str> = library::table5()
            .filter(|pt| pt.c11.is_some() && pt.c11 != Some(pt.lkmm))
            .map(|pt| pt.name)
            .collect();
        assert_eq!(
            diverging,
            vec!["LB+ctrl+mb", "WRC+wmb+acq", "PeterZ", "RWC+mbs"],
        );
        // The extended library adds two more: dependency-based ordering
        // (out-of-thin-air) and A-cumulativity, both absent from C11.
        let extended: Vec<&str> = library::all()
            .iter()
            .filter(|pt| !pt.in_table5 && pt.c11.is_some() && pt.c11 != Some(pt.lkmm))
            .map(|pt| pt.name)
            .collect();
        assert_eq!(extended, vec!["LB+datas", "ISA2+po-rel+po-rel+acq"]);
    }

    #[test]
    fn every_library_divergence_is_licensed() {
        // The conformance whitelist must cover every §5.2 divergence …
        for pt in library::all() {
            let Some(expect) = pt.c11 else { continue };
            if expect == pt.lkmm {
                continue;
            }
            let t = pt.test();
            assert!(
                OriginalC11::divergence_license(&t).is_some(),
                "{} diverges but has no license",
                pt.name
            );
        }
        // … while plain ONCE-only programs get none: the mapping keeps
        // relaxed accesses relaxed, so their verdicts must coincide.
        for name in ["MP", "SB", "2+2W"] {
            let t = library::by_name(name).unwrap().test();
            assert!(
                OriginalC11::divergence_license(&t).is_none(),
                "{name} should not be licensed to diverge"
            );
        }
    }

    #[test]
    fn sw_exists_only_with_synchronisation() {
        use lkmm_exec::enumerate::enumerate;
        let t = library::by_name("MP").unwrap().test();
        for x in enumerate(&t, &EnumOptions::default()).unwrap() {
            assert!(OriginalC11::sw(&x).is_empty(), "relaxed MP has no sw");
        }
        let t2 = library::by_name("WRC+po-rel+rmb").unwrap().test();
        let execs = enumerate(&t2, &EnumOptions::default()).unwrap();
        assert!(execs.iter().any(|x| !OriginalC11::sw(x).is_empty()));
    }
}
