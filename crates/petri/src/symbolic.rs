//! BDD-based symbolic traversal of safe nets (§2.2).
//!
//! *"Symbolic BDD-based traversal of a reachability graph allows its
//! implicit representation which is generally much more compact than an
//! explicit enumeration of states... starting from the initial marking by
//! iterative application of the transition function the characteristic
//! function of the reachability set is calculated until the fixed point is
//! reached."*
//!
//! Encoding: one current-state variable and one next-state variable per
//! place, interleaved (`place i` ↦ current `2i`, next `2i+1`) — the
//! classic ordering that keeps transition relations small.

use bdd::{Bdd, Manager, VarId};

use crate::invariant::{place_invariants, PlaceInvariant};
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId};

/// Result of a symbolic reachability run.
#[derive(Debug)]
pub struct SymbolicReachability {
    /// The BDD manager holding the characteristic function.
    pub manager: Manager,
    /// Characteristic function of the reachable markings, over the
    /// current-state variables.
    pub reached: Bdd,
    /// Number of reachable markings.
    pub num_markings: u128,
    /// Number of image-computation iterations until the fixed point.
    pub iterations: usize,
}

fn cur_var(p: PlaceId) -> VarId {
    2 * p.0
}

fn next_var(p: PlaceId) -> VarId {
    2 * p.0 + 1
}

/// Computes the reachability set of a safe net symbolically.
///
/// Builds one transition relation per net transition (enabling conjunction
/// over the preset, token moves, frame condition for untouched places) and
/// iterates image computation to a fixed point.
///
/// The net must be safe; markings that would exceed one token per place
/// cannot be represented and simply do not occur in safe nets (firing a
/// transition with a marked output place that stays marked is excluded by
/// the frame/enabling encoding — callers should validate safeness
/// explicitly with the explicit checker when in doubt).
#[must_use]
pub fn symbolic_reachability(net: &PetriNet) -> SymbolicReachability {
    symbolic_reachability_bounded(net, u128::MAX).expect("unbounded call cannot hit the limit")
}

/// [`symbolic_reachability`] with a marking-count limit checked after
/// every image iteration, so state-exploding nets abort mid-traversal
/// instead of paying the full fixed point (mirrors the explicit
/// builder's mid-BFS cutoff).
///
/// # Errors
///
/// [`crate::reach::ReachError::StateLimit`] when the reached set exceeds
/// `max_markings` at any iteration.
pub fn symbolic_reachability_bounded(
    net: &PetriNet,
    max_markings: u128,
) -> Result<SymbolicReachability, crate::reach::ReachError> {
    let mut manager = Manager::new();
    let m = &mut manager;
    // Touch all variables to fix the universe.
    for p in net.places() {
        m.var(cur_var(p));
        m.var(next_var(p));
    }
    let cur_vars: Vec<VarId> = net.places().map(cur_var).collect();
    let next_vars: Vec<VarId> = net.places().map(next_var).collect();

    // Transition relations.
    let mut relations: Vec<Bdd> = Vec::with_capacity(net.num_transitions());
    for t in net.transitions() {
        let mut rel = Manager::one();
        let pre = net.preset(t);
        let post = net.postset(t);
        for p in net.places() {
            let in_pre = pre.contains(&p);
            let in_post = post.contains(&p);
            let c = m.var(cur_var(p));
            let n = m.var(next_var(p));
            let clause = match (in_pre, in_post) {
                // Consumed only: was 1, becomes 0.
                (true, false) => {
                    let nn = m.not(n);
                    m.and(c, nn)
                }
                // Produced only: becomes 1; safeness requires it was 0.
                (false, true) => {
                    let nc = m.not(c);
                    m.and(nc, n)
                }
                // Self-loop: stays 1.
                (true, true) => m.and(c, n),
                // Untouched: frame condition.
                (false, false) => m.iff(c, n),
            };
            rel = m.and(rel, clause);
        }
        relations.push(rel);
    }

    // Initial marking.
    let m0 = net.initial_marking();
    let literals: Vec<(VarId, bool)> = net
        .places()
        .map(|p| (cur_var(p), m0.is_marked(p)))
        .collect();
    let init = m.cube(&literals);

    // Fixed point.
    let mut reached = init;
    let mut frontier = init;
    let mut iterations = 0usize;
    let count_markings = |m: &mut Manager, reached: Bdd| {
        // Count over current variables only: quantify out next vars first.
        let only_cur = m.exists(reached, &next_vars);
        let total = m.sat_count(only_cur, m.var_count());
        total >> next_vars.len()
    };
    while !frontier.is_zero() {
        iterations += 1;
        let mut image_next = Manager::zero();
        for &rel in &relations {
            let img = m.and_exists(frontier, rel, &cur_vars);
            image_next = m.or(image_next, img);
        }
        let image = m.rename(image_next, &next_vars, &cur_vars);
        frontier = m.diff(image, reached);
        reached = m.or(reached, frontier);
        if max_markings < u128::MAX && count_markings(&mut *m, reached) > max_markings {
            let limit = usize::try_from(max_markings).unwrap_or(usize::MAX);
            return Err(crate::reach::ReachError::StateLimit(limit));
        }
    }

    let num_markings = count_markings(&mut *m, reached);
    Ok(SymbolicReachability {
        manager,
        reached,
        num_markings,
        iterations,
    })
}

/// Symbolic safeness check over an already-computed reachability set.
///
/// The symbolic transition encoding *excludes* token-accumulating firings
/// (a produced place must have been empty), so on an unsafe net
/// [`symbolic_reachability`] silently computes only the safe fragment.
/// This check closes the gap: it looks for a reached marking that enables
/// a transition while one of its pure output places is already marked —
/// the firing that would put two tokens on that place. Along any real
/// firing sequence the marking *before* the first unsafe firing lies in
/// the safe fragment, so an unsafe net always yields a witness.
///
/// Returns the offending (two-token) successor marking, mirroring the
/// explicit checker's bound-violation report.
#[must_use]
pub fn unsafe_witness(net: &PetriNet, sym: &mut SymbolicReachability) -> Option<Marking> {
    let reached = sym.reached;
    for t in net.transitions() {
        let pre = net.preset(t).to_vec();
        let post = net.postset(t).to_vec();
        let m = &mut sym.manager;
        let mut enabled = reached;
        for &p in &pre {
            let v = m.var(cur_var(p));
            enabled = m.and(enabled, v);
        }
        for &p in &post {
            if pre.contains(&p) {
                continue;
            }
            let pv = m.var(cur_var(p));
            let clash = m.and(enabled, pv);
            if clash.is_zero() {
                continue;
            }
            let asg = m
                .any_sat(clash, m.var_count())
                .expect("non-zero BDD is satisfiable");
            let counts: Vec<u32> = net
                .places()
                .map(|q| u32::from(asg[cur_var(q) as usize]))
                .collect();
            let before = Marking::from_counts(counts);
            let after = net
                .fire(&before, t)
                .expect("witness enables the transition");
            return Some(after);
        }
    }
    None
}

/// The invariant-based *upper approximation* of the reachability set
/// (§2.2: *"a conjunction of any set of invariants gives an upper
/// approximation of the reachability set, which is useful for conservative
/// verification"*).
///
/// Returns the characteristic BDD over current-state variables and the
/// number of markings it admits.
#[must_use]
pub fn invariant_approximation(net: &PetriNet) -> (Manager, Bdd, u128) {
    let invariants = place_invariants(net);
    let mut m = Manager::new();
    for p in net.places() {
        m.var(cur_var(p));
    }
    let mut approx = Manager::one();
    for inv in &invariants {
        let constraint = token_sum_equals(&mut m, net, inv);
        approx = m.and(approx, constraint);
    }
    // Count over place variables only (universe has only cur vars here,
    // spaced every 2; normalise by quantifying nothing — vars 2i+1 were
    // never created, so var_count is 2·n−1; count over all and divide).
    let count = count_over_places(&m, net, approx);
    (m, approx, count)
}

/// Number of satisfying place-assignments of `f` (ignoring gaps in the
/// variable numbering).
#[must_use]
pub fn count_over_places(m: &Manager, net: &PetriNet, f: Bdd) -> u128 {
    let total = m.sat_count(f, m.var_count());
    let used: u32 = u32::try_from(net.num_places()).expect("place count fits u32");
    // var_count counts the dense range [0, max_var]; place vars are the
    // even ones. Divide out the unused odd slots.
    let unused = m.var_count() - used;
    total >> unused
}

/// Builds the constraint `Σ_{p ∈ support} m(p) = k` over the current-state
/// variables, for a binary-weight invariant; for general weights builds the
/// weighted equality by dynamic programming over partial sums.
fn token_sum_equals(m: &mut Manager, net: &PetriNet, inv: &PlaceInvariant) -> Bdd {
    let support: Vec<(PlaceId, u64)> = net
        .places()
        .filter(|p| inv.weights[p.index()] > 0)
        .map(|p| (p, inv.weights[p.index()]))
        .collect();
    let target = inv.token_count;
    // dp over (index, partial sum) → BDD for "rest sums to target−partial".
    fn rec(
        m: &mut Manager,
        support: &[(PlaceId, u64)],
        idx: usize,
        partial: u64,
        target: u64,
        memo: &mut std::collections::HashMap<(usize, u64), Bdd>,
    ) -> Bdd {
        if partial > target {
            return Manager::zero();
        }
        if idx == support.len() {
            return Manager::constant(partial == target);
        }
        if let Some(&b) = memo.get(&(idx, partial)) {
            return b;
        }
        let (p, w) = support[idx];
        let v = m.var(cur_var(p));
        let with = rec(m, support, idx + 1, partial + w, target, memo);
        let without = rec(m, support, idx + 1, partial, target, memo);
        let r = m.ite(v, with, without);
        memo.insert((idx, partial), r);
        r
    }
    let mut memo = std::collections::HashMap::new();
    rec(m, &support, 0, 0, target, &mut memo)
}

/// Verifies that the invariant approximation contains the exact reachable
/// set, and reports both counts (`(exact, approx)`), for ablation A3.
#[must_use]
pub fn compare_exact_vs_approximation(net: &PetriNet) -> (u128, u128, bool) {
    let exact = symbolic_reachability(net);
    let (am, approx, approx_count) = invariant_approximation(net);
    // Containment is validated through explicit reachability: every
    // explicitly reachable marking must satisfy the approximation.
    let contained = match crate::reach::ReachabilityGraph::build(net) {
        Ok(rg) => rg.markings().iter().all(|mk| {
            let mut asg = vec![false; am.var_count() as usize];
            for p in net.places() {
                if mk.is_marked(p) {
                    asg[cur_var(p) as usize] = true;
                }
            }
            am.eval(approx, &asg)
        }),
        Err(_) => false,
    };
    (exact.num_markings, approx_count, contained)
}
