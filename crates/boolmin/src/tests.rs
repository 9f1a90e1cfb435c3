//! Unit and property tests for the two-level logic substrate.

use crate::factor::{bound_fanin, factor_cover};
use crate::{minimize_exact, minimize_heuristic, primes_of, Cover, Cube, IncompleteFunction};

fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << n)).map(move |bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
}

#[test]
fn cube_parse_roundtrip() {
    let c = Cube::parse("10-1").unwrap();
    assert_eq!(c.to_string(), "10-1");
    assert_eq!(c.num_vars(), 4);
    assert_eq!(c.literal_count(), 3);
    assert!(Cube::parse("10x").is_err());
}

#[test]
fn cube_cover_relation() {
    let big = Cube::parse("1--").unwrap();
    let small = Cube::parse("1-0").unwrap();
    assert!(big.covers(&small));
    assert!(!small.covers(&big));
    assert!(big.covers(&big));
}

#[test]
fn cube_intersection_and_distance() {
    let a = Cube::parse("1-0").unwrap();
    let b = Cube::parse("11-").unwrap();
    assert_eq!(a.intersect(&b).unwrap().to_string(), "110");
    let c = Cube::parse("0--").unwrap();
    assert!(a.intersect(&c).is_none());
    assert_eq!(a.distance(&c), 1);
    assert_eq!(a.distance(&b), 0);
}

#[test]
fn cube_consensus() {
    let a = Cube::parse("1-1").unwrap();
    let b = Cube::parse("0-1").unwrap();
    // Consensus across var 0: "--1".
    assert_eq!(a.consensus(&b).unwrap().to_string(), "--1");
    let c = Cube::parse("00-").unwrap();
    // distance(a, c) = 2 (vars 0 and 2)? a=1-1, c=00-: var0 conflict only.
    assert_eq!(a.distance(&c), 1);
}

#[test]
fn cube_minterms() {
    let c = Cube::parse("1-").unwrap();
    let ms = c.minterms();
    assert_eq!(ms.len(), 2);
    assert!(ms.contains(&vec![true, false]));
    assert!(ms.contains(&vec![true, true]));
    assert_eq!(c.minterm_count(), 2);
}

#[test]
fn cover_tautology() {
    let t = Cover::parse(2, "1- 0-").unwrap();
    assert!(t.is_tautology());
    let nt = Cover::parse(2, "1- -1").unwrap();
    assert!(!nt.is_tautology());
    assert!(Cover::universe(3).is_tautology());
    assert!(!Cover::empty(3).is_tautology());
}

#[test]
fn cover_complement_small() {
    let f = Cover::parse(2, "11").unwrap();
    let nf = f.complement();
    for asg in assignments(2) {
        assert_eq!(nf.covers_minterm(&asg), !f.covers_minterm(&asg));
    }
    // Complement of a complement is equivalent to the original.
    assert!(nf.complement().equivalent(&f));
}

#[test]
fn cover_subtract() {
    let f = Cover::parse(2, "1-").unwrap();
    let g = Cover::parse(2, "11").unwrap();
    let d = f.subtract(&g);
    for asg in assignments(2) {
        assert_eq!(
            d.covers_minterm(&asg),
            f.covers_minterm(&asg) && !g.covers_minterm(&asg)
        );
    }
}

#[test]
fn cover_containment_checks() {
    let f = Cover::parse(3, "1-- -1-").unwrap();
    assert!(f.covers_cube(&Cube::parse("11-").unwrap()));
    assert!(!f.covers_cube(&Cube::parse("0-0").unwrap()));
    // The cube 110 is covered jointly even though neither cube alone works
    // — straddling case.
    let g = Cover::parse(2, "1- -1").unwrap();
    assert!(g.covers_cube(&Cube::parse("11").unwrap()));
}

#[test]
fn remove_contained_cleans_up() {
    let mut f = Cover::parse(2, "11 1-").unwrap();
    f.remove_contained();
    assert_eq!(f.cubes().len(), 1);
    assert_eq!(f.cubes()[0].to_string(), "1-");
}

#[test]
fn primes_xor() {
    // XOR has exactly two primes: 01 and 10.
    let on = Cover::parse(2, "01 10").unwrap();
    let f = IncompleteFunction::completely_specified(on);
    let primes = primes_of(&f);
    assert_eq!(primes.len(), 2);
}

#[test]
fn primes_with_merge() {
    // on = {00, 01, 11}: primes are 0- and -1.
    let on = Cover::parse(2, "00 01 11").unwrap();
    let f = IncompleteFunction::completely_specified(on);
    let primes = primes_of(&f);
    let strs: Vec<String> = primes.iter().map(ToString::to_string).collect();
    assert!(strs.contains(&"0-".to_owned()));
    assert!(strs.contains(&"-1".to_owned()));
    assert_eq!(primes.len(), 2);
}

#[test]
fn exact_minimisation_uses_dont_cares() {
    // on = {11}, dc = {10}: result should be the single cube "1-".
    let on = Cover::parse(2, "11").unwrap();
    let dc = Cover::parse(2, "10").unwrap();
    let f = IncompleteFunction::new(on, dc);
    let min = minimize_exact(&f);
    assert_eq!(min.cubes().len(), 1);
    assert_eq!(min.cubes()[0].to_string(), "1-");
}

#[test]
fn exact_minimisation_full_adder_carry() {
    // carry(a,b,c) = ab + ac + bc: 3 cubes, 6 literals, already minimal.
    let on = Cover::parse(3, "110 101 011 111").unwrap();
    let f = IncompleteFunction::completely_specified(on);
    let min = minimize_exact(&f);
    assert_eq!(min.cubes().len(), 3);
    assert_eq!(min.literal_count(), 6);
    assert!(f.is_implemented_by(&min));
}

#[test]
fn heuristic_minimisation_sound() {
    let on = Cover::parse(3, "110 101 011 111").unwrap();
    let f = IncompleteFunction::completely_specified(on);
    let min = minimize_heuristic(&f);
    assert!(f.is_implemented_by(&min));
}

#[test]
fn minimize_empty_and_tautology() {
    let empty = IncompleteFunction::completely_specified(Cover::empty(2));
    assert!(minimize_exact(&empty).is_empty());
    let full = IncompleteFunction::completely_specified(Cover::universe(2));
    let m = minimize_exact(&full);
    assert!(m.is_tautology());
    assert_eq!(m.literal_count(), 0);
}

#[test]
fn function_values() {
    let on = Cover::parse(2, "11").unwrap();
    let dc = Cover::parse(2, "01").unwrap();
    let f = IncompleteFunction::new(on, dc);
    assert_eq!(f.value(&[true, true]), Some(true));
    assert_eq!(f.value(&[false, true]), None);
    assert_eq!(f.value(&[false, false]), Some(false));
    let off = f.off_set();
    assert!(off.covers_minterm(&[false, false]));
    assert!(!off.covers_minterm(&[true, true]));
    assert!(!off.covers_minterm(&[false, true]));
}

#[test]
fn factoring_preserves_function() {
    // a b + a c + d
    let f = Cover::parse(4, "11-- 1-1- ---1").unwrap();
    let e = factor_cover(&f);
    for asg in assignments(4) {
        assert_eq!(e.eval(&asg), f.covers_minterm(&asg));
    }
    // a(b + c) + d has 4 literals vs 5 in the SOP.
    assert_eq!(e.literal_count(), 4);
}

#[test]
fn fanin_bounding() {
    let wide = crate::Expr::or((0..7).map(crate::Expr::Var).collect());
    let bounded = bound_fanin(&wide, 2);
    assert!(bounded.max_fanin() <= 2);
    for asg in assignments(7) {
        assert_eq!(bounded.eval(&asg), wide.eval(&asg));
    }
}

#[test]
fn expr_printing() {
    let f = Cover::parse(3, "10- -11").unwrap();
    let names: Vec<String> = ["a", "b", "c"].iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(f.to_expr_string(&names), "a b' + b c");
    let e = crate::Expr::from_cover(&f);
    assert_eq!(e.to_string_named(&names), "a b' + b c");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    const VARS: usize = 4;

    fn cube_strategy() -> impl Strategy<Value = Cube> {
        proptest::collection::vec(0..3u8, VARS).prop_map(|vals| {
            Cube::from_literals(
                vals.into_iter()
                    .map(|v| match v {
                        0 => crate::Literal::Zero,
                        1 => crate::Literal::One,
                        _ => crate::Literal::DontCare,
                    })
                    .collect(),
            )
        })
    }

    fn cover_strategy() -> impl Strategy<Value = Cover> {
        proptest::collection::vec(cube_strategy(), 0..6)
            .prop_map(|cubes| Cover::from_cubes(VARS, cubes))
    }

    proptest! {
        #[test]
        fn complement_is_pointwise_negation(f in cover_strategy()) {
            let nf = f.complement();
            for asg in assignments(VARS) {
                prop_assert_eq!(nf.covers_minterm(&asg), !f.covers_minterm(&asg));
            }
        }

        #[test]
        fn tautology_matches_truth_table(f in cover_strategy()) {
            let brute = assignments(VARS).all(|asg| f.covers_minterm(&asg));
            prop_assert_eq!(f.is_tautology(), brute);
        }

        #[test]
        fn exact_minimisation_implements(f in cover_strategy(), g in cover_strategy()) {
            // Use g \ f as the dc-set so on/dc are disjoint.
            let dc = g.subtract(&f);
            let func = IncompleteFunction::new(f.clone(), dc);
            let min = minimize_exact(&func);
            prop_assert!(func.is_implemented_by(&min));
            // The minimised cover never has more cubes than the on-set
            // needs minterm-wise; sanity: each on-minterm stays covered.
            for asg in assignments(VARS) {
                if f.covers_minterm(&asg) {
                    prop_assert!(min.covers_minterm(&asg));
                }
            }
        }

        #[test]
        fn heuristic_minimisation_implements(f in cover_strategy(), g in cover_strategy()) {
            let dc = g.subtract(&f);
            let func = IncompleteFunction::new(f.clone(), dc);
            let min = minimize_heuristic(&func);
            prop_assert!(func.is_implemented_by(&min));
        }

        #[test]
        fn exact_never_beaten_by_heuristic(f in cover_strategy()) {
            let func = IncompleteFunction::completely_specified(f);
            let exact = minimize_exact(&func);
            let heur = minimize_heuristic(&func);
            prop_assert!(exact.cubes().len() <= heur.cubes().len());
        }

        #[test]
        fn factoring_equivalent(f in cover_strategy()) {
            let e = factor_cover(&f);
            for asg in assignments(VARS) {
                prop_assert_eq!(e.eval(&asg), f.covers_minterm(&asg));
            }
        }

        #[test]
        fn bounded_fanin_equivalent(f in cover_strategy()) {
            let e = factor_cover(&f);
            let b = bound_fanin(&e, 2);
            prop_assert!(b.max_fanin() <= 2);
            for asg in assignments(VARS) {
                prop_assert_eq!(b.eval(&asg), e.eval(&asg));
            }
        }

        #[test]
        fn primes_are_maximal_implicants(f in cover_strategy()) {
            let func = IncompleteFunction::completely_specified(f.clone());
            for p in primes_of(&func) {
                // Implicant: contained in f.
                prop_assert!(f.covers_cube(&p));
                // Maximal: freeing any literal escapes f.
                for (v, _) in p.literals() {
                    let bigger = p.with(v, crate::Literal::DontCare);
                    prop_assert!(!f.covers_cube(&bigger));
                }
            }
        }
    }
}

/// The packed cube against a reference `Vec<Literal>` cube that keeps
/// the literal-per-variable algorithms, at widths on both sides of the
/// word boundaries (32, 64) and past the inline words (65, 100).
mod oracle {
    use std::collections::HashSet;

    use proptest::test_runner::TestRng;

    use crate::{minimize_exact, primes_of, Cover, Cube, IncompleteFunction, Literal};

    const WIDTHS: [usize; 10] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 100];

    /// The reference cube: one `Literal` per variable, derived order.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Ref {
        vals: Vec<Literal>,
    }

    impl Ref {
        fn parse(s: &str) -> Ref {
            Ref {
                vals: s
                    .chars()
                    .map(|ch| match ch {
                        '0' => Literal::Zero,
                        '1' => Literal::One,
                        _ => Literal::DontCare,
                    })
                    .collect(),
            }
        }

        fn cube(&self) -> Cube {
            Cube::from_literals(self.vals.clone())
        }

        fn text(&self) -> String {
            self.vals
                .iter()
                .map(|v| match v {
                    Literal::Zero => '0',
                    Literal::One => '1',
                    Literal::DontCare => '-',
                })
                .collect()
        }

        fn with(&self, var: usize, lit: Literal) -> Ref {
            let mut r = self.clone();
            r.vals[var] = lit;
            r
        }

        fn literal_count(&self) -> usize {
            self.vals.iter().filter(|v| v.is_literal()).count()
        }

        fn literals(&self) -> Vec<(usize, Literal)> {
            self.vals
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_literal())
                .map(|(i, v)| (i, *v))
                .collect()
        }

        fn covers_minterm(&self, assignment: &[bool]) -> bool {
            self.vals.iter().zip(assignment).all(|(v, &b)| match v {
                Literal::Zero => !b,
                Literal::One => b,
                Literal::DontCare => true,
            })
        }

        fn covers(&self, other: &Ref) -> bool {
            self.vals
                .iter()
                .zip(&other.vals)
                .all(|(a, b)| *a == Literal::DontCare || a == b)
        }

        fn intersect(&self, other: &Ref) -> Option<Ref> {
            let mut vals = Vec::new();
            for (a, b) in self.vals.iter().zip(&other.vals) {
                vals.push(match (a, b) {
                    (Literal::DontCare, x) | (x, Literal::DontCare) => *x,
                    (x, y) if x == y => *x,
                    _ => return None,
                });
            }
            Some(Ref { vals })
        }

        fn distance(&self, other: &Ref) -> usize {
            self.vals
                .iter()
                .zip(&other.vals)
                .filter(|(a, b)| a.is_literal() && b.is_literal() && a != b)
                .count()
        }

        fn consensus(&self, other: &Ref) -> Option<Ref> {
            if self.distance(other) != 1 {
                return None;
            }
            let vals = self
                .vals
                .iter()
                .zip(&other.vals)
                .map(|(a, b)| match (a, b) {
                    (Literal::DontCare, x) | (x, Literal::DontCare) => *x,
                    (x, y) if x == y => *x,
                    _ => Literal::DontCare,
                })
                .collect();
            Some(Ref { vals })
        }

        fn supercube(&self, other: &Ref) -> Ref {
            let vals = self
                .vals
                .iter()
                .zip(&other.vals)
                .map(|(a, b)| if a == b { *a } else { Literal::DontCare })
                .collect();
            Ref { vals }
        }

        fn cofactor_literal(&self, var: usize, value: bool) -> Option<Ref> {
            match (self.vals[var], value) {
                (Literal::Zero, true) | (Literal::One, false) => None,
                _ => Some(self.with(var, Literal::DontCare)),
            }
        }

        fn to_expr_string(&self, names: &[String]) -> String {
            let parts: Vec<String> = self
                .literals()
                .into_iter()
                .map(|(i, lit)| {
                    if lit == Literal::One {
                        names[i].clone()
                    } else {
                        format!("{}'", names[i])
                    }
                })
                .collect();
            if parts.is_empty() {
                "1".to_owned()
            } else {
                parts.join(" ")
            }
        }
    }

    // ---- reference cover algorithms (literal by literal) ----

    fn texts(cubes: &[Ref]) -> Vec<String> {
        cubes.iter().map(Ref::text).collect()
    }

    fn packed_texts(cover: &Cover) -> Vec<String> {
        cover.cubes().iter().map(ToString::to_string).collect()
    }

    fn remove_contained(cubes: Vec<Ref>) -> Vec<Ref> {
        let mut kept: Vec<Ref> = Vec::new();
        for c in cubes {
            if kept.iter().any(|k| k.covers(&c)) {
                continue;
            }
            kept.retain(|k| !c.covers(k));
            kept.push(c);
        }
        kept
    }

    fn cofactor(cubes: &[Ref], var: usize, value: bool) -> Vec<Ref> {
        cubes
            .iter()
            .filter_map(|c| c.cofactor_literal(var, value))
            .collect()
    }

    fn most_binate_var(n: usize, cubes: &[Ref]) -> Option<usize> {
        let mut pos = vec![0usize; n];
        let mut neg = vec![0usize; n];
        for c in cubes {
            for (var, lit) in c.literals() {
                if lit == Literal::One {
                    pos[var] += 1;
                } else {
                    neg[var] += 1;
                }
            }
        }
        (0..n)
            .filter(|&v| pos[v] > 0 && neg[v] > 0)
            .max_by_key(|&v| pos[v] + neg[v])
    }

    fn is_tautology(n: usize, cubes: &[Ref]) -> bool {
        if cubes.iter().any(|c| c.literal_count() == 0) {
            return true;
        }
        if cubes.is_empty() {
            return false;
        }
        match most_binate_var(n, cubes) {
            None => false,
            Some(v) => {
                is_tautology(n, &cofactor(cubes, v, false))
                    && is_tautology(n, &cofactor(cubes, v, true))
            }
        }
    }

    fn covers_cube(n: usize, cubes: &[Ref], cube: &Ref) -> bool {
        let mut rest = cubes.to_vec();
        for (var, lit) in cube.literals() {
            rest = cofactor(&rest, var, lit == Literal::One);
        }
        is_tautology(n, &rest)
    }

    fn complement(n: usize, cubes: &[Ref]) -> Vec<Ref> {
        let universe = Ref {
            vals: vec![Literal::DontCare; n],
        };
        if cubes.is_empty() {
            return vec![universe];
        }
        if cubes.iter().any(|c| c.literal_count() == 0) {
            return Vec::new();
        }
        if cubes.len() == 1 {
            return cubes[0]
                .literals()
                .into_iter()
                .map(|(var, lit)| {
                    let flipped = if lit == Literal::Zero {
                        Literal::One
                    } else {
                        Literal::Zero
                    };
                    universe.with(var, flipped)
                })
                .collect();
        }
        let var = most_binate_var(n, cubes).unwrap_or_else(|| {
            cubes
                .iter()
                .flat_map(Ref::literals)
                .next()
                .expect("a literal")
                .0
        });
        let mut out: Vec<Ref> = complement(n, &cofactor(cubes, var, false))
            .into_iter()
            .map(|c| c.with(var, Literal::Zero))
            .collect();
        out.extend(
            complement(n, &cofactor(cubes, var, true))
                .into_iter()
                .map(|c| c.with(var, Literal::One)),
        );
        remove_contained(out)
    }

    fn intersect_covers(a: &[Ref], b: &[Ref]) -> Vec<Ref> {
        let mut out = Vec::new();
        for x in a {
            for y in b {
                if let Some(c) = x.intersect(y) {
                    out.push(c);
                }
            }
        }
        remove_contained(out)
    }

    fn subtract(n: usize, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
        intersect_covers(a, &complement(n, b))
    }

    fn complete_sum(n: usize, cubes: &[Ref]) -> Vec<Ref> {
        if cubes.is_empty() {
            return Vec::new();
        }
        let universe = Ref {
            vals: vec![Literal::DontCare; n],
        };
        if cubes.contains(&universe) {
            return vec![universe];
        }
        let Some(x) = most_binate_var(n, cubes) else {
            return remove_contained(cubes.to_vec());
        };
        let p0 = complete_sum(n, &cofactor(cubes, x, false));
        let p1 = complete_sum(n, &cofactor(cubes, x, true));
        let mut out = Vec::new();
        for p in &p0 {
            for q in &p1 {
                if let Some(c) = p.intersect(q) {
                    out.push(c);
                }
            }
        }
        out.extend(p0.into_iter().map(|p| p.with(x, Literal::Zero)));
        out.extend(p1.into_iter().map(|p| p.with(x, Literal::One)));
        out.sort_by_key(Ref::literal_count);
        let mut kept: Vec<Ref> = Vec::new();
        for c in out {
            if !kept.iter().any(|k| k.covers(&c)) {
                kept.push(c);
            }
        }
        kept
    }

    fn primes(n: usize, on: &[Ref], dc: &[Ref]) -> Vec<Ref> {
        let mut upper = on.to_vec();
        upper.extend_from_slice(dc);
        let mut p = complete_sum(n, &upper);
        p.sort();
        p.dedup();
        p
    }

    fn fragment_rows(rows: Vec<Ref>, primes: &[Ref]) -> Vec<Ref> {
        let mut out = Vec::new();
        let mut work = rows;
        'rows: while let Some(r) = work.pop() {
            for p in primes {
                if p.intersect(&r).is_some() && !p.covers(&r) {
                    let var = (0..r.vals.len())
                        .find(|&v| p.vals[v].is_literal() && !r.vals[v].is_literal())
                        .expect("a straddled variable");
                    work.push(r.with(var, Literal::Zero));
                    work.push(r.with(var, Literal::One));
                    continue 'rows;
                }
            }
            out.push(r);
        }
        let mut seen = HashSet::new();
        out.retain(|c| seen.insert(c.text()));
        out
    }

    /// The exact minimiser's algorithm, over reference cubes.
    fn minimize(n: usize, on: &[Ref], dc: &[Ref]) -> Vec<Ref> {
        if on.is_empty() {
            return Vec::new();
        }
        let primes = primes(n, on, dc);
        let mut rows = Vec::new();
        let mut covered: Vec<Ref> = Vec::new();
        for c in on {
            rows.extend(subtract(n, std::slice::from_ref(c), &covered));
            covered.push(c.clone());
        }
        let rows = fragment_rows(rows, &primes);
        let mut chosen: Vec<usize> = Vec::new();
        let mut uncovered: Vec<usize> = (0..rows.len()).collect();
        loop {
            let essential = uncovered.iter().find_map(|&r| {
                let covering: Vec<usize> = (0..primes.len())
                    .filter(|&j| primes[j].covers(&rows[r]))
                    .collect();
                (covering.len() == 1 && !chosen.contains(&covering[0])).then(|| covering[0])
            });
            let Some(j) = essential else { break };
            chosen.push(j);
            uncovered.retain(|&r| !primes[j].covers(&rows[r]));
        }
        if !uncovered.is_empty() {
            let candidates: Vec<usize> =
                (0..primes.len()).filter(|j| !chosen.contains(j)).collect();
            let mut best: Option<Vec<usize>> = None;
            let mut stack = vec![(Vec::new(), uncovered.clone())];
            while let Some((picked, left)) = stack.pop() {
                if best.as_ref().is_some_and(|b| picked.len() >= b.len()) {
                    continue;
                }
                if left.is_empty() {
                    best = Some(picked);
                    continue;
                }
                let r = left[0];
                for &j in &candidates {
                    if picked.contains(&j) || !primes[j].covers(&rows[r]) {
                        continue;
                    }
                    let mut p2 = picked.clone();
                    p2.push(j);
                    let l2 = left
                        .iter()
                        .copied()
                        .filter(|&rr| !primes[j].covers(&rows[rr]))
                        .collect();
                    stack.push((p2, l2));
                }
            }
            chosen.extend(best.expect("the primes cover the on-set"));
        }
        chosen.sort_unstable();
        chosen.dedup();
        remove_contained(chosen.into_iter().map(|j| primes[j].clone()).collect())
    }

    // ---- random inputs ----

    fn random_literal(rng: &mut TestRng) -> Literal {
        [Literal::Zero, Literal::One, Literal::DontCare][rng.below(3)]
    }

    /// A cube over `n` variables with every field drawn uniformly.
    fn random_cube(rng: &mut TestRng, n: usize) -> Ref {
        Ref {
            vals: (0..n).map(|_| random_literal(rng)).collect(),
        }
    }

    /// A cube close to `a`: a few fields redrawn, so that containment,
    /// intersection and distance 0, 1 and 2 all occur often.
    fn nearby(rng: &mut TestRng, a: &Ref) -> Ref {
        let mut b = a.clone();
        for _ in 0..rng.below(4) {
            if !b.vals.is_empty() {
                let v = rng.below(b.vals.len());
                b.vals[v] = random_literal(rng);
            }
        }
        b
    }

    /// Up to six variables spread over the width, the word boundaries
    /// among them, so that covers over wide spaces stay small but binate.
    fn active_vars(rng: &mut TestRng, n: usize) -> Vec<usize> {
        let mut vars: Vec<usize> = [0, 31, 32, 63, 64, n.saturating_sub(1)]
            .into_iter()
            .filter(|&v| v < n)
            .collect();
        for _ in 0..3 {
            if n > 0 {
                vars.push(rng.below(n));
            }
        }
        vars.sort_unstable();
        vars.dedup();
        while vars.len() > 6 {
            vars.remove(rng.below(vars.len()));
        }
        vars
    }

    /// A cover of up to five cubes constrained only on `vars`.
    fn random_cover(rng: &mut TestRng, n: usize, vars: &[usize]) -> Vec<Ref> {
        (0..rng.below(6))
            .map(|_| {
                let mut c = Ref {
                    vals: vec![Literal::DontCare; n],
                };
                for &v in vars {
                    c.vals[v] = random_literal(rng);
                }
                c
            })
            .collect()
    }

    fn packed(n: usize, cubes: &[Ref]) -> Cover {
        Cover::from_cubes(n, cubes.iter().map(Ref::cube).collect())
    }

    fn text_of(c: Option<&Cube>) -> Option<String> {
        c.map(ToString::to_string)
    }

    fn ref_text(c: Option<&Ref>) -> Option<String> {
        c.map(Ref::text)
    }

    #[test]
    fn cube_operations_match_the_reference() {
        let mut rng = TestRng::from_name("cube_operations_match_the_reference");
        for n in WIDTHS {
            let names: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            assert_eq!(Cube::universe(n).to_string(), "-".repeat(n));
            for _ in 0..200 {
                let ra = random_cube(&mut rng, n);
                let rb = nearby(&mut rng, &ra);
                let (a, b) = (ra.cube(), rb.cube());
                let ctx = format!("n={n} a={} b={}", ra.text(), rb.text());
                // Construction, text and the literal view.
                assert_eq!(a.to_string(), ra.text(), "{ctx}");
                assert_eq!(Cube::parse(&ra.text()), Ok(a.clone()), "{ctx}");
                assert_eq!(format!("{a:?}"), format!("Cube {{ vals: {:?} }}", ra.vals));
                assert_eq!(format!("{a:#?}"), {
                    let r = &ra;
                    format!("{r:#?}").replacen("Ref", "Cube", 1)
                });
                assert_eq!(a.num_vars(), n);
                for v in 0..n {
                    assert_eq!(a.literal(v), ra.vals[v], "{ctx} var {v}");
                }
                assert_eq!(a.literal_count(), ra.literal_count(), "{ctx}");
                assert_eq!(a.literals().collect::<Vec<_>>(), ra.literals(), "{ctx}");
                assert_eq!(a.to_expr_string(&names), ra.to_expr_string(&names));
                // Pairwise operations.
                assert_eq!(a.covers(&b), ra.covers(&rb), "{ctx}");
                assert!(a.covers(&a));
                assert_eq!(
                    text_of(a.intersect(&b).as_ref()),
                    ref_text(ra.intersect(&rb).as_ref()),
                    "{ctx}"
                );
                assert_eq!(a.distance(&b), ra.distance(&rb), "{ctx}");
                assert_eq!(
                    text_of(a.consensus(&b).as_ref()),
                    ref_text(ra.consensus(&rb).as_ref()),
                    "{ctx}"
                );
                assert_eq!(a.supercube(&b).to_string(), ra.supercube(&rb).text());
                assert_eq!(a == b, ra == rb, "{ctx}");
                assert_eq!(a.cmp(&b), ra.cmp(&rb), "{ctx}");
                // Point operations.
                let m: Vec<bool> = (0..n).map(|_| rng.below(2) == 1).collect();
                assert_eq!(Cube::from_minterm(&m), Ref::parse(&bits(&m)).cube());
                assert_eq!(a.covers_minterm(&m), ra.covers_minterm(&m), "{ctx}");
                if n > 0 {
                    let v = rng.below(n);
                    let lit = random_literal(&mut rng);
                    let mut set = a.clone();
                    set.set(v, lit);
                    assert_eq!(set.to_string(), ra.with(v, lit).text(), "{ctx}");
                    assert_eq!(a.with(v, lit), set);
                    for value in [false, true] {
                        assert_eq!(
                            text_of(a.cofactor_literal(v, value).as_ref()),
                            ref_text(ra.cofactor_literal(v, value).as_ref()),
                            "{ctx} var {v}={value}"
                        );
                    }
                }
                let free = n - ra.literal_count();
                if free < 128 {
                    assert_eq!(a.minterm_count(), 1u128 << free, "{ctx}");
                }
            }
        }
    }

    fn bits(m: &[bool]) -> String {
        m.iter().map(|&b| if b { '1' } else { '0' }).collect()
    }

    #[test]
    fn minterms_match_the_reference_on_narrow_free_sets() {
        let mut rng = TestRng::from_name("minterms_match_the_reference_on_narrow_free_sets");
        for n in WIDTHS {
            for _ in 0..20 {
                // At most six free variables.
                let vars = active_vars(&mut rng, n);
                let mut r = Ref {
                    vals: (0..n)
                        .map(|_| [Literal::Zero, Literal::One][rng.below(2)])
                        .collect(),
                };
                for &v in &vars {
                    r.vals[v] = random_literal(&mut rng);
                }
                let mut got: Vec<String> = r.cube().minterms().iter().map(|m| bits(m)).collect();
                got.sort();
                let mut want: Vec<String> = (0..1u32 << vars.len())
                    .map(|k| {
                        let mut m: Vec<bool> = r.vals.iter().map(|v| *v == Literal::One).collect();
                        for (i, &v) in vars.iter().enumerate() {
                            m[v] = k >> i & 1 == 1;
                        }
                        m
                    })
                    .filter(|m| r.covers_minterm(m))
                    .map(|m| bits(&m))
                    .collect();
                want.sort();
                want.dedup();
                assert_eq!(got, want, "n={n} cube={}", r.text());
            }
        }
    }

    #[test]
    fn sorting_gives_the_reference_order() {
        let mut rng = TestRng::from_name("sorting_gives_the_reference_order");
        let mut refs: Vec<Ref> = Vec::new();
        for n in WIDTHS {
            for _ in 0..40 {
                let r = random_cube(&mut rng, n);
                refs.push(nearby(&mut rng, &r));
                refs.push(r);
            }
        }
        // Proper prefixes of each other: the shorter sorts first.
        let long = random_cube(&mut rng, 100);
        for n in WIDTHS {
            refs.push(Ref {
                vals: long.vals[..n].to_vec(),
            });
        }
        let mut cubes: Vec<Cube> = refs.iter().map(Ref::cube).collect();
        refs.sort();
        cubes.sort();
        assert_eq!(
            cubes.iter().map(ToString::to_string).collect::<Vec<_>>(),
            texts(&refs)
        );
        let distinct: HashSet<Cube> = cubes.iter().cloned().collect();
        let distinct_refs: HashSet<Ref> = refs.iter().cloned().collect();
        assert_eq!(distinct.len(), distinct_refs.len());
    }

    #[test]
    fn cover_operations_match_the_reference() {
        let mut rng = TestRng::from_name("cover_operations_match_the_reference");
        for n in WIDTHS {
            for _ in 0..60 {
                let vars = active_vars(&mut rng, n);
                let rf = random_cover(&mut rng, n, &vars);
                let f = packed(n, &rf);
                let ctx = format!("n={n} f={:?}", texts(&rf));
                assert_eq!(f.most_binate_var(), most_binate_var(n, &rf), "{ctx}");
                assert_eq!(f.is_tautology(), is_tautology(n, &rf), "{ctx}");
                assert_eq!(packed_texts(&f.complement()), texts(&complement(n, &rf)));
                let mut contained = f.clone();
                contained.remove_contained();
                assert_eq!(
                    packed_texts(&contained),
                    texts(&remove_contained(rf.clone()))
                );
                let probe = random_cover(&mut rng, n, &vars);
                for (c, rc) in packed(n, &probe).cubes().iter().zip(&probe) {
                    assert_eq!(f.covers_cube(c), covers_cube(n, &rf, rc), "{ctx}");
                    for (var, value) in [(vars.first(), false), (vars.last(), true)] {
                        if let Some(&var) = var {
                            assert_eq!(
                                packed_texts(&f.cofactor_literal(var, value)),
                                texts(&cofactor(&rf, var, value))
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exact_minimisation_matches_the_reference() {
        let mut rng = TestRng::from_name("exact_minimisation_matches_the_reference");
        for n in WIDTHS {
            for _ in 0..30 {
                let vars = active_vars(&mut rng, n);
                let ron = random_cover(&mut rng, n, &vars);
                let rg = random_cover(&mut rng, n, &vars);
                let rdc = subtract(n, &rg, &ron);
                let (on, g) = (packed(n, &ron), packed(n, &rg));
                let dc = g.subtract(&on);
                assert_eq!(packed_texts(&dc), texts(&rdc), "n={n}");
                let f = IncompleteFunction::new(on, dc);
                let ctx = format!("n={n} on={:?} dc={:?}", texts(&ron), texts(&rdc));
                let primes_now: Vec<String> =
                    primes_of(&f).iter().map(ToString::to_string).collect();
                assert_eq!(primes_now, texts(&primes(n, &ron, &rdc)), "{ctx}");
                assert_eq!(
                    packed_texts(&minimize_exact(&f)),
                    texts(&minimize(n, &ron, &rdc)),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than u128::MAX minterms")]
    fn minterm_count_refuses_128_free_variables() {
        let _ = Cube::universe(130).minterm_count();
    }

    #[test]
    fn minterm_count_reaches_127_free_variables() {
        assert_eq!(Cube::universe(127).minterm_count(), 1u128 << 127);
    }

    #[test]
    #[should_panic(expected = "more than u64::MAX minterms")]
    fn minterms_refuses_64_free_variables() {
        let _ = Cube::universe(64).minterms();
    }
}
