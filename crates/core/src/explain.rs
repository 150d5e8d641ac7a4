//! Paper-style explanations of forbidden executions.
//!
//! §3 of the paper explains each forbidden figure by exhibiting a cycle
//! and naming each edge ("a →ppo→ b →rfe→ c →ppo→ d →rfe→ a" for
//! Figure 4). [`explain_violation`] reconstructs exactly that: the
//! violated axiom, a concrete cycle, and the finest-grained relation name
//! for every edge.

use crate::model::{Axiom, Lkmm};
use crate::relations::LkmmRelations;
use lkmm_exec::Execution;
use lkmm_relation::Relation;
use std::fmt;

/// One labelled edge of a violation cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelledEdge {
    pub from: usize,
    pub to: usize,
    /// The most specific relation containing the edge (e.g. `"wmb"`
    /// rather than `"ppo"`).
    pub label: &'static str,
}

/// A violation: the failing axiom plus a labelled cycle witnessing it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub axiom: Axiom,
    pub cycle: Vec<LabelledEdge>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violates {}; cycle: ", self.axiom)?;
        for (i, e) in self.cycle.iter().enumerate() {
            if i == 0 {
                write!(f, "e{}", e.from)?;
            }
            write!(f, " -{}-> e{}", e.label, e.to)?;
        }
        Ok(())
    }
}

/// Candidate labels, ordered most-specific first, for each axiom's
/// relation. The first label whose relation contains the edge wins.
fn label_edge(
    x: &Execution,
    r: &LkmmRelations,
    axiom: Axiom,
    from: usize,
    to: usize,
) -> &'static str {
    let rfe = x.rfe();
    let fre = r.fr.intersection(&x.ext_rel());
    let coe = x.co.intersection(&x.ext_rel());
    let candidates: Vec<(&'static str, &Relation)> = match axiom {
        Axiom::Scpv => vec![
            ("rf", &x.rf),
            ("co", &x.co),
            ("fr", &r.fr),
            ("po-loc", &r.po_loc),
        ],
        Axiom::At => vec![("rmw", &x.shape.rmw), ("fre", &fre), ("coe", &coe)],
        Axiom::Rcu => vec![("rcu-path", &r.rcu_path)],
        Axiom::Hb | Axiom::Pb => vec![
            // Fine-grained ppo/prop constituents first.
            ("rmb", &r.rmb),
            ("wmb", &r.wmb),
            ("mb", &r.mb),
            ("gp", &r.gp),
            ("rb-dep", &r.rb_dep),
            ("acq-po", &r.acq_po),
            ("po-rel", &r.po_rel),
            ("addr", &x.shape.addr),
            ("data", &x.shape.data),
            ("ctrl", &x.shape.ctrl),
            ("rfi-rel-acq", &r.rfi_rel_acq),
            ("rfe", &rfe),
            ("fre", &fre),
            ("coe", &coe),
            ("overwrite", &r.overwrite),
            ("ppo", &r.ppo),
            ("cumul-fence", &r.cumul_fence),
            ("prop", &r.prop),
            ("hb", &r.hb),
            ("pb", &r.pb),
        ],
    };
    for (name, rel) in candidates {
        if rel.contains(from, to) {
            return name;
        }
    }
    "?"
}

/// The relation whose cycle witnesses each axiom.
fn axiom_relation(x: &Execution, r: &LkmmRelations, axiom: Axiom) -> Relation {
    match axiom {
        Axiom::Scpv => r.po_loc.union(&r.com),
        Axiom::At => {
            // Build the 3-edge cycles r -rmw-> w, r -fre-> w', w' -coe-> w
            // as a relation so find_cycle works uniformly: close rmw
            // backwards (w -> r) with fre;coe (r -> w).
            let fre = r.fr.intersection(&x.ext_rel());
            let coe = x.co.intersection(&x.ext_rel());
            x.shape.rmw.intersection(&fre.seq(&coe)).union(&x.shape.rmw.inverse())
        }
        Axiom::Hb => r.hb.clone(),
        Axiom::Pb => r.pb.clone(),
        Axiom::Rcu => {
            // An rcu-path self-loop; expose it as a 1-cycle.
            let mut rel = Relation::empty(x.universe());
            for i in 0..x.universe() {
                if r.rcu_path.contains(i, i) {
                    rel.insert(i, i);
                }
            }
            rel
        }
    }
}

/// Explain why the LKMM forbids `x`, or `None` if it is allowed.
///
/// # Examples
///
/// ```
/// use lkmm::explain::explain_violation;
/// use lkmm_exec::enumerate::{enumerate, EnumOptions};
///
/// let t = lkmm_litmus::library::by_name("MP+wmb+rmb").unwrap().test();
/// let weak = enumerate(&t, &EnumOptions::default()).unwrap()
///     .into_iter().find(|x| x.satisfies_prop(&t.condition.prop)).unwrap();
/// let v = explain_violation(&weak).unwrap();
/// assert_eq!(v.axiom, lkmm::Axiom::Hb);
/// println!("{v}"); // e.g. "violates Hb: …; cycle: e5 -prop-> e7 -rmb-> e5"
/// ```
pub fn explain_violation(x: &Execution) -> Option<Violation> {
    let facts = lkmm_exec::ExecFacts::new(x);
    let r = LkmmRelations::compute(x);
    let axiom = Lkmm::new().violated_axiom_with(&r, &facts)?;
    let rel = axiom_relation(x, &r, axiom);
    let nodes = rel.find_cycle()?;
    let mut cycle = Vec::with_capacity(nodes.len());
    for (i, &from) in nodes.iter().enumerate() {
        let to = nodes[(i + 1) % nodes.len()];
        cycle.push(LabelledEdge { from, to, label: label_edge(x, &r, axiom, from, to) });
    }
    Some(Violation { axiom, cycle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::enumerate::{enumerate, EnumOptions};
    use lkmm_litmus::library;

    fn weak(name: &str) -> Execution {
        let t = library::by_name(name).unwrap().test();
        enumerate(&t, &EnumOptions::default())
            .unwrap()
            .into_iter()
            .find(|x| x.satisfies_prop(&t.condition.prop))
            .unwrap()
    }

    #[test]
    fn figure4_explanation_matches_the_paper() {
        // §3.2.4: a -ppo-> b -rfe-> c -ppo-> d -rfe-> a (ctrl and mb are
        // the fine labels).
        let v = explain_violation(&weak("LB+ctrl+mb")).unwrap();
        assert_eq!(v.axiom, Axiom::Hb);
        // The canonical walkthrough is the 4-edge ppo/rfe alternation;
        // hb also contains shortcut prop∩int edges, so the witness found
        // may be shorter — but it must be fully labelled and each edge
        // must be a real hb edge.
        assert!(v.cycle.len() >= 2);
        let r = LkmmRelations::compute(&weak("LB+ctrl+mb"));
        for e in &v.cycle {
            assert!(r.hb.contains(e.from, e.to), "{v}");
            assert_ne!(e.label, "?", "{v}");
        }
    }

    #[test]
    fn figure6_is_a_pb_cycle() {
        let v = explain_violation(&weak("SB+mbs")).unwrap();
        assert_eq!(v.axiom, Axiom::Pb);
        assert!(!v.cycle.is_empty());
        assert!(v.to_string().contains("pb") || v.to_string().contains("mb"));
    }

    #[test]
    fn rcu_violations_name_rcu_path() {
        let v = explain_violation(&weak("RCU-MP")).unwrap();
        assert_eq!(v.axiom, Axiom::Rcu);
        assert_eq!(v.cycle.len(), 1);
        assert_eq!(v.cycle[0].label, "rcu-path");
    }

    #[test]
    fn allowed_executions_have_no_explanation() {
        let t = library::by_name("SB").unwrap().test();
        for x in enumerate(&t, &EnumOptions::default()).unwrap() {
            assert!(explain_violation(&x).is_none());
        }
    }

    #[test]
    fn coherence_violations_label_po_loc() {
        let t = lkmm_litmus::parse(
            "C co\n{ x=0; }\nP0(int *x) { int r; WRITE_ONCE(*x, 1); r = READ_ONCE(*x); }\n\
             exists (0:r=0)",
        )
        .unwrap();
        let raw = enumerate(&t, &EnumOptions { prune_scpv: false, ..Default::default() })
            .unwrap();
        let bad = raw.iter().find(|x| x.satisfies_prop(&t.condition.prop)).unwrap();
        let v = explain_violation(bad).unwrap();
        assert_eq!(v.axiom, Axiom::Scpv);
        let labels: Vec<&str> = v.cycle.iter().map(|e| e.label).collect();
        assert!(labels.contains(&"po-loc"), "{labels:?}");
    }

    #[test]
    fn every_forbidden_library_candidate_explains() {
        use lkmm_exec::enumerate::for_each_execution;
        for pt in library::all() {
            let t = pt.test();
            for_each_execution(&t, &EnumOptions::default(), &mut |x| {
                let model = Lkmm::new();
                use lkmm_exec::ConsistencyModel;
                if !model.allows(x) {
                    let v = explain_violation(x).expect("forbidden must explain");
                    assert!(!v.cycle.is_empty());
                    assert!(v.cycle.iter().all(|e| e.label != "?"), "{v}");
                }
            })
            .unwrap();
        }
    }
}
