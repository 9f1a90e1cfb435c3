//! Unit and property tests for the BDD package.

use crate::{Bdd, Manager};

fn assignments(n: u32) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << n)).map(move |bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
}

#[test]
fn constants_are_fixed() {
    assert!(Manager::zero().is_zero());
    assert!(Manager::one().is_one());
    assert!(Manager::zero().is_const());
    assert_ne!(Manager::zero(), Manager::one());
}

#[test]
fn var_and_negation() {
    let mut m = Manager::new();
    let x = m.var(0);
    let nx = m.not(x);
    assert_eq!(m.nvar(0), nx);
    for a in assignments(1) {
        assert_eq!(m.eval(x, &a), a[0]);
        assert_eq!(m.eval(nx, &a), !a[0]);
    }
}

#[test]
fn canonical_handles() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let f1 = m.and(a, b);
    let f2 = m.and(b, a);
    assert_eq!(
        f1, f2,
        "conjunction is canonical regardless of argument order"
    );
    let g1 = m.or(a, b);
    let na = m.not(a);
    let nb = m.not(b);
    let both_zero = m.and(na, nb);
    let g2 = m.not(both_zero);
    assert_eq!(g1, g2, "De Morgan duals share one node");
}

#[test]
fn connective_semantics() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let and = m.and(a, b);
    let or = m.or(a, b);
    let xor = m.xor(a, b);
    let imp = m.implies(a, b);
    let iff = m.iff(a, b);
    let ite = m.ite(a, b, c);
    for asg in assignments(3) {
        let (va, vb, vc) = (asg[0], asg[1], asg[2]);
        assert_eq!(m.eval(and, &asg), va && vb);
        assert_eq!(m.eval(or, &asg), va || vb);
        assert_eq!(m.eval(xor, &asg), va ^ vb);
        assert_eq!(m.eval(imp, &asg), !va || vb);
        assert_eq!(m.eval(iff, &asg), va == vb);
        assert_eq!(m.eval(ite, &asg), if va { vb } else { vc });
    }
}

#[test]
fn restrict_cofactors() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let f = m.xor(a, b);
    let f_a1 = m.restrict(f, 0, true);
    let nb = m.not(b);
    assert_eq!(f_a1, nb);
    let f_a0 = m.restrict(f, 0, false);
    assert_eq!(f_a0, b);
}

#[test]
fn quantification() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let f = m.and(a, b);
    assert_eq!(m.exists(f, &[0]), b);
    assert_eq!(m.forall(f, &[0]), Manager::zero());
    let g = m.or(a, b);
    assert_eq!(m.exists(g, &[0]), Manager::one());
    assert_eq!(m.forall(g, &[0]), b);
    // Quantifying all support variables yields a constant.
    assert_eq!(m.exists(f, &[0, 1]), Manager::one());
    assert_eq!(m.forall(g, &[0, 1]), Manager::zero());
}

#[test]
fn and_exists_matches_composition() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let f = m.or(ab, c);
    let nb = m.not(b);
    let g = m.or(nb, c);
    let direct = {
        let conj = m.and(f, g);
        m.exists(conj, &[1])
    };
    let fused = m.and_exists(f, g, &[1]);
    assert_eq!(direct, fused);
}

#[test]
fn rename_shifts_rails() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(2);
    let f = m.and(a, b);
    let g = m.rename(f, &[0, 2], &[1, 3]);
    let a1 = m.var(1);
    let b1 = m.var(3);
    let expect = m.and(a1, b1);
    assert_eq!(g, expect);
}

#[test]
fn sat_count_small() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let or3 = {
        let t = m.or(a, b);
        m.or(t, c)
    };
    assert_eq!(m.sat_count(or3, 3), 7);
    assert_eq!(m.sat_count(Manager::one(), 3), 8);
    assert_eq!(m.sat_count(Manager::zero(), 3), 0);
}

#[test]
fn support_reports_dependencies() {
    let mut m = Manager::new();
    let a = m.var(0);
    let c = m.var(2);
    let f = m.xor(a, c);
    assert_eq!(m.support(f), vec![0, 2]);
    assert!(m.support(Manager::one()).is_empty());
}

#[test]
fn cube_builder() {
    let mut m = Manager::new();
    let f = m.cube(&[(0, true), (2, false)]);
    for asg in assignments(3) {
        assert_eq!(m.eval(f, &asg), asg[0] && !asg[2]);
    }
}

#[test]
fn size_counts_nodes() {
    let mut m = Manager::new();
    let a = m.var(0);
    assert_eq!(m.size(a), 3); // two terminals + one decision
    assert_eq!(m.size(Manager::one()), 2);
}

#[test]
fn leq_containment() {
    let mut m = Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let ab = m.and(a, b);
    let aorb = m.or(a, b);
    assert!(m.leq(ab, aorb));
    assert!(!m.leq(aorb, ab));
}

/// A fixed workload touching every cached operation: ITE connectives,
/// both quantifiers, the relational product and renaming. Returns every
/// handle it produced.
fn cached_workload(m: &mut Manager) -> Vec<Bdd> {
    let mut out = Vec::new();
    let vars: Vec<Bdd> = (0..12).map(|v| m.var(v)).collect();
    let mut acc = Manager::zero();
    for (i, w) in vars.windows(3).enumerate() {
        let t = m.ite(w[0], w[1], w[2]);
        let x = m.xor(t, vars[(i * 5) % 12]);
        acc = m.or(acc, x);
        let y = m.and(acc, w[1]);
        out.extend([t, x, acc, y]);
    }
    for k in 0..6u32 {
        let set: Vec<u32> = (k..12).step_by(2).collect();
        let e = m.exists(acc, &set);
        let a = m.forall(acc, &set);
        let r = m.and_exists(acc, out[k as usize], &set);
        out.extend([e, a, r]);
    }
    let renamed = m.rename(acc, &[0, 2, 4], &[1, 3, 5]);
    out.push(renamed);
    out
}

#[test]
fn handles_do_not_depend_on_the_computed_table_size() {
    let mut roomy = Manager::new();
    let mut tiny = Manager::with_cache_log2(1);
    let expected = cached_workload(&mut roomy);
    assert_eq!(cached_workload(&mut tiny), expected);
    assert_eq!(tiny.node_count(), roomy.node_count());
    // Repeating the workload (hits in one manager, recomputations in the
    // other) allocates nothing new in either.
    let nodes = roomy.node_count();
    assert_eq!(cached_workload(&mut roomy), expected);
    assert_eq!(cached_workload(&mut tiny), expected);
    assert_eq!((roomy.node_count(), tiny.node_count()), (nodes, nodes));
}

#[test]
fn quantification_sets_never_share_cache_entries() {
    // Every subset of eight variables quantified over the same two roots
    // in a two-slot table: each result must be its own set's.
    let mut m = Manager::with_cache_log2(1);
    let vars: Vec<Bdd> = (0..8).map(|v| m.var(v)).collect();
    let all = m.and_all(vars.iter().copied());
    let any = m.or_all(vars.iter().copied());
    for mask in 1u32..256 {
        let set: Vec<u32> = (0..8).filter(|v| mask >> v & 1 == 1).collect();
        let rest: Vec<Bdd> = (0..8)
            .filter(|v| mask >> v & 1 == 0)
            .map(|v| vars[v as usize])
            .collect();
        let and_rest = m.and_all(rest.iter().copied());
        let or_rest = m.or_all(rest);
        assert_eq!(m.exists(all, &set), and_rest, "∃{set:?}");
        assert_eq!(m.forall(any, &set), or_rest, "∀{set:?}");
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// A tiny expression AST to generate random boolean functions.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(u32),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
    }

    fn expr_strategy(num_vars: u32) -> impl Strategy<Value = Expr> {
        let leaf = (0..num_vars).prop_map(Expr::Var);
        leaf.prop_recursive(4, 48, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            ]
        })
    }

    fn build(m: &mut Manager, e: &Expr) -> Bdd {
        match e {
            Expr::Var(v) => m.var(*v),
            Expr::Not(a) => {
                let x = build(m, a);
                m.not(x)
            }
            Expr::And(a, b) => {
                let x = build(m, a);
                let y = build(m, b);
                m.and(x, y)
            }
            Expr::Or(a, b) => {
                let x = build(m, a);
                let y = build(m, b);
                m.or(x, y)
            }
            Expr::Xor(a, b) => {
                let x = build(m, a);
                let y = build(m, b);
                m.xor(x, y)
            }
        }
    }

    fn eval_expr(e: &Expr, asg: &[bool]) -> bool {
        match e {
            Expr::Var(v) => asg[*v as usize],
            Expr::Not(a) => !eval_expr(a, asg),
            Expr::And(a, b) => eval_expr(a, asg) && eval_expr(b, asg),
            Expr::Or(a, b) => eval_expr(a, asg) || eval_expr(b, asg),
            Expr::Xor(a, b) => eval_expr(a, asg) ^ eval_expr(b, asg),
        }
    }

    const VARS: u32 = 5;

    proptest! {
        #[test]
        fn bdd_matches_truth_table(e in expr_strategy(VARS)) {
            let mut m = Manager::new();
            // Touch all variables so counting is over a fixed universe.
            for v in 0..VARS { m.var(v); }
            let f = build(&mut m, &e);
            let mut count = 0u128;
            for asg in assignments(VARS) {
                let expect = eval_expr(&e, &asg);
                prop_assert_eq!(m.eval(f, &asg), expect);
                if expect { count += 1; }
            }
            prop_assert_eq!(m.sat_count(f, VARS), count);
        }

        #[test]
        fn double_negation_is_identity(e in expr_strategy(VARS)) {
            let mut m = Manager::new();
            let f = build(&mut m, &e);
            let nf = m.not(f);
            let nnf = m.not(nf);
            prop_assert_eq!(f, nnf);
        }

        #[test]
        fn exists_or_of_cofactors(e in expr_strategy(VARS), v in 0..VARS) {
            let mut m = Manager::new();
            let f = build(&mut m, &e);
            let f0 = m.restrict(f, v, false);
            let f1 = m.restrict(f, v, true);
            let or = m.or(f0, f1);
            prop_assert_eq!(m.exists(f, &[v]), or);
            let and = m.and(f0, f1);
            prop_assert_eq!(m.forall(f, &[v]), and);
        }

        #[test]
        fn shannon_expansion(e in expr_strategy(VARS), v in 0..VARS) {
            let mut m = Manager::new();
            let f = build(&mut m, &e);
            let f0 = m.restrict(f, v, false);
            let f1 = m.restrict(f, v, true);
            let x = m.var(v);
            let rebuilt = m.ite(x, f1, f0);
            prop_assert_eq!(f, rebuilt);
        }
    }
}

fn _assert_send_sync() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Manager>();
    assert_sync::<Manager>();
    assert_send::<Bdd>();
    assert_sync::<Bdd>();
}
