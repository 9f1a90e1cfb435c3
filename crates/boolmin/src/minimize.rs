//! Two-level minimisation: exact (Quine–McCluskey + branch-and-bound
//! covering) and heuristic (espresso-style expand/irredundant).

use std::cell::Cell;
use std::collections::HashSet;

use crate::cover::Cover;
use crate::cube::{Cube, Literal};
use crate::function::IncompleteFunction;

thread_local! {
    /// Primes generated on this thread since start (or last snapshot
    /// delta). Thread-local so concurrent flows (one flow per thread)
    /// never observe each other's work; the synthesis stage of a single
    /// flow always runs on one thread, so deltas taken around it are
    /// exact and thread-count-invariant.
    static PRIMES_GENERATED: Cell<u64> = const { Cell::new(0) };
}

/// Total prime implicants generated on the current thread. Callers take
/// a delta around a unit of work: the difference is a deterministic
/// operation counter for that work.
#[must_use]
pub fn primes_generated() -> u64 {
    PRIMES_GENERATED.with(Cell::get)
}

/// All prime implicants of `on ∪ dc`, by recursive complete-sum
/// computation (Shannon expansion on the most binate variable, unate
/// covers terminate as their absorbed selves).
///
/// A prime implicant is a maximal cube contained in on ∪ dc. The prime
/// set of a function is canonical, so the result — deterministic,
/// sorted — is identical to what the previous iterated-consensus
/// closure produced; the recursion merely avoids that closure's
/// quadratic passes over combinatorially many intermediate cubes, which
/// made near-tautological upper bounds (the resubstitution don't-care
/// sets over extended variable spaces) take minutes instead of
/// milliseconds.
#[must_use]
pub fn primes_of(f: &IncompleteFunction) -> Vec<Cube> {
    let mut primes = complete_sum(&f.upper_bound());
    primes.sort();
    primes.dedup();
    PRIMES_GENERATED.with(|c| c.set(c.get() + primes.len() as u64));
    primes
}

/// The complete sum (set of all primes) of a cover, recursively.
fn complete_sum(cover: &Cover) -> Vec<Cube> {
    let n = cover.num_vars();
    if cover.cubes().is_empty() {
        return Vec::new();
    }
    let universe = Cube::universe(n);
    if cover.cubes().contains(&universe) {
        return vec![universe];
    }
    // A unate cover has no consensus terms, so by Quine's complete-sum
    // theorem its absorbed cubes already are all its primes. (This also
    // covers unate tautologies: a tautological unate cover must contain
    // the universe cube, handled above.)
    let Some(x) = cover.most_binate_var() else {
        let mut c = cover.clone();
        c.remove_contained();
        return c.cubes().to_vec();
    };
    let p0 = complete_sum(&cover.cofactor_literal(x, false));
    let p1 = complete_sum(&cover.cofactor_literal(x, true));
    // Merge: x'·P0 ∪ x·P1 plus every consensus on x (the pairwise
    // intersections), then absorb.
    let mut out: Vec<Cube> = Vec::with_capacity(p0.len() + p1.len());
    for p in &p0 {
        for q in &p1 {
            if let Some(c) = p.intersect(q) {
                out.push(c);
            }
        }
    }
    for p in p0 {
        out.push(p.with(x, Literal::Zero));
    }
    for p in p1 {
        out.push(p.with(x, Literal::One));
    }
    absorb(out)
}

/// Removes duplicate and strictly contained cubes.
fn absorb(mut cubes: Vec<Cube>) -> Vec<Cube> {
    // Wider cubes (fewer literals) first: a cube can only be absorbed
    // by one at least as wide, so one forward pass suffices.
    cubes.sort_by_key(Cube::literal_count);
    let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
    for c in cubes {
        if !kept.iter().any(|k| k.covers(&c)) {
            kept.push(c);
        }
    }
    kept
}

/// Exact two-level minimisation of an incompletely specified function.
///
/// Generates all primes of on ∪ dc, then solves the covering problem over
/// the on-set cubes with essential-prime extraction followed by
/// branch-and-bound (minimising cube count, tie-broken by literal count).
///
/// Complexity is exponential in the worst case; intended for controller-
/// sized functions (≲ 16 variables, small on-sets). Use
/// [`minimize_heuristic`] beyond that.
#[must_use]
pub fn minimize_exact(f: &IncompleteFunction) -> Cover {
    let n = f.num_vars();
    if f.on_set().is_empty() {
        return Cover::empty(n);
    }
    let primes = primes_of(f);
    // Covering matrix: rows = on-set "care" chunks. We use the on-set cubes
    // fragmented against primes: element (i,j) = prime j covers row cube i.
    // To keep rows exact we fragment the on-set into disjoint cubes first.
    let rows = disjoint_cover(f.on_set());
    let covers_row = |p: &Cube, row: &Cube| p.covers(row);
    // For correctness rows must each be covered entirely by a single prime
    // — guaranteed because rows are fragments of on-cubes and primes are
    // maximal implicants, but a row could straddle primes. Fragment rows
    // further against primes where needed.
    let rows = fragment_rows(rows, &primes);
    let mut chosen: Vec<usize> = Vec::new();
    let mut uncovered: Vec<usize> = (0..rows.len()).collect();

    // Essential primes: a row covered by exactly one prime forces it.
    loop {
        let mut essential: Option<usize> = None;
        for &r in &uncovered {
            let covering: Vec<usize> = primes
                .iter()
                .enumerate()
                .filter(|(_, p)| covers_row(p, &rows[r]))
                .map(|(j, _)| j)
                .collect();
            if covering.len() == 1 && !chosen.contains(&covering[0]) {
                essential = Some(covering[0]);
                break;
            }
        }
        match essential {
            Some(j) => {
                chosen.push(j);
                uncovered.retain(|&r| !covers_row(&primes[j], &rows[r]));
            }
            None => break,
        }
    }

    if !uncovered.is_empty() {
        // Branch and bound over the remaining rows.
        let candidates: Vec<usize> = (0..primes.len()).filter(|j| !chosen.contains(j)).collect();
        let mut best: Option<Vec<usize>> = None;
        let mut stack: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), uncovered.clone())];
        while let Some((picked, left)) = stack.pop() {
            if let Some(b) = &best {
                if picked.len() >= b.len() {
                    continue;
                }
            }
            if left.is_empty() {
                best = Some(picked);
                continue;
            }
            // Branch on the first uncovered row: try each prime covering it.
            let r = left[0];
            for &j in &candidates {
                if picked.contains(&j) || !covers_row(&primes[j], &rows[r]) {
                    continue;
                }
                let mut p2 = picked.clone();
                p2.push(j);
                let l2: Vec<usize> = left
                    .iter()
                    .copied()
                    .filter(|&rr| !covers_row(&primes[j], &rows[rr]))
                    .collect();
                stack.push((p2, l2));
            }
        }
        if let Some(extra) = best {
            chosen.extend(extra);
        } else {
            // Fall back: cover each leftover row with any covering prime.
            for &r in &uncovered {
                if let Some((j, _)) = primes
                    .iter()
                    .enumerate()
                    .find(|(_, p)| covers_row(p, &rows[r]))
                {
                    if !chosen.contains(&j) {
                        chosen.push(j);
                    }
                }
            }
        }
    }

    chosen.sort_unstable();
    chosen.dedup();
    let mut out = Cover::from_cubes(n, chosen.into_iter().map(|j| primes[j].clone()).collect());
    out.remove_contained();
    debug_assert!(
        f.is_implemented_by(&out),
        "exact minimisation must implement f"
    );
    out
}

/// Heuristic (espresso-style) minimisation: EXPAND each on-cube against the
/// off-set, then make the result IRREDUNDANT. Much faster than
/// [`minimize_exact`] for larger functions, at the cost of optimality.
#[must_use]
pub fn minimize_heuristic(f: &IncompleteFunction) -> Cover {
    let n = f.num_vars();
    if f.on_set().is_empty() {
        return Cover::empty(n);
    }
    let off = f.off_set();
    // EXPAND: raise each literal to don't-care while staying off the
    // off-set; greedy, literal order by frequency (most shared first).
    let mut expanded: Vec<Cube> = Vec::new();
    for cube in f.on_set().cubes() {
        let mut c = cube.clone();
        let lits: Vec<usize> = c.literals().map(|(v, _)| v).collect();
        for v in lits {
            let candidate = c.with(v, Literal::DontCare);
            if !intersects_cover(&candidate, &off) {
                c = candidate;
            }
        }
        expanded.push(c);
    }
    let mut cover = Cover::from_cubes(n, expanded);
    cover.remove_contained();

    // IRREDUNDANT: drop cubes whose on-part is covered by the rest ∪ dc.
    let cubes: Vec<Cube> = cover.cubes().to_vec();
    let mut kept: Vec<Cube> = cubes.clone();
    for c in &cubes {
        let rest: Vec<Cube> = kept.iter().filter(|k| *k != c).cloned().collect();
        if rest.is_empty() {
            continue;
        }
        let rest_cover = Cover::from_cubes(n, rest.clone()).union(f.dc_set());
        if rest_cover.covers_cube(c) {
            kept = rest;
        }
    }
    let out = Cover::from_cubes(n, kept);
    debug_assert!(
        f.is_implemented_by(&out),
        "heuristic minimisation must implement f"
    );
    out
}

fn intersects_cover(cube: &Cube, cover: &Cover) -> bool {
    cover.cubes().iter().any(|c| c.intersects(cube))
}

/// Rewrites a cover as a union of pairwise-disjoint cubes.
fn disjoint_cover(cover: &Cover) -> Vec<Cube> {
    let n = cover.num_vars();
    let mut out: Vec<Cube> = Vec::new();
    let mut covered = Cover::empty(n);
    for c in cover.cubes() {
        // c \ covered as disjoint pieces.
        let piece = Cover::from_cubes(n, vec![c.clone()]).subtract(&covered);
        for p in piece.cubes() {
            out.push(p.clone());
        }
        covered.push(c.clone());
    }
    out
}

/// Splits rows until each row is, for every prime, either fully covered by
/// it or disjoint from it. This makes the covering matrix exact: a set of
/// primes covers the on-set iff every row is fully covered by some chosen
/// prime, so essential-prime extraction and branch-and-bound are sound.
fn fragment_rows(rows: Vec<Cube>, primes: &[Cube]) -> Vec<Cube> {
    let mut out = Vec::new();
    let mut work = rows;
    'rows: while let Some(r) = work.pop() {
        for p in primes {
            if p.intersects(&r) && !p.covers(&r) {
                // p straddles r: split r on a variable constrained in p but
                // free in r. Such a variable exists because the cubes
                // intersect (no conflicting literals) yet p does not cover r.
                let var = r
                    .first_var_free_but_constrained_in(p)
                    .expect("straddling prime constrains a variable free in the row");
                work.push(r.with(var, Literal::Zero));
                work.push(r.with(var, Literal::One));
                continue 'rows;
            }
        }
        out.push(r);
    }
    // Deduplicate: identical fragments can arise from overlapping on-cubes.
    let mut seen: HashSet<Cube> = HashSet::with_capacity(out.len());
    out.retain(|c| seen.insert(c.clone()));
    out
}
