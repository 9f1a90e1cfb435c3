//! BDD-based symbolic traversal of safe nets (§2.2).
//!
//! *"Symbolic BDD-based traversal of a reachability graph allows its
//! implicit representation which is generally much more compact than an
//! explicit enumeration of states... starting from the initial marking by
//! iterative application of the transition function the characteristic
//! function of the reachability set is calculated until the fixed point is
//! reached."*
//!
//! Encoding: one variable per place (`place i` ↦ variable `i`), current
//! state only. A transition's image is computed locally, on its own
//! support, by the kernel of Pastor, Roig, Cortadella and Badia (*Petri
//! net analysis using boolean manipulation*, 1994): for a safe net,
//!
//! ```text
//! image_t(S) = post_t ∧ ∃ support(t) . (S ∧ pre_t)
//! ```
//!
//! where `pre_t` is the cube "preset marked, pure postset empty",
//! `post_t` the cube "postset marked, pure preset empty" and `support(t)`
//! the places the transition touches. No next-state variables, no frame
//! condition for untouched places and no renaming back: the places
//! outside `support(t)` pass through the quantification unchanged. A
//! caller may hang one extra variable on each transition (an STG's
//! signal, toggled by its edge — see [`TransitionImage::new`]).

use bdd::{Bdd, Manager, VarId};

use crate::invariant::{place_invariants, PlaceInvariant};
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::reach::ReachError;

/// Result of a symbolic reachability run.
#[derive(Debug)]
pub struct SymbolicReachability {
    /// The BDD manager holding the characteristic function.
    pub manager: Manager,
    /// Characteristic function of the reachable markings, over the
    /// place variables.
    pub reached: Bdd,
    /// Number of reachable markings.
    pub num_markings: u128,
    /// Number of image-computation iterations until the fixed point.
    pub iterations: usize,
}

fn cur_var(p: PlaceId) -> VarId {
    p.0
}

/// One transition's image operands: the cubes `pre` and `post` and the
/// variables they fix (see the module docs).
#[derive(Debug, Clone)]
pub struct TransitionImage {
    pre: Bdd,
    post: Bdd,
    support: Vec<VarId>,
}

impl TransitionImage {
    /// The image operands of `t`, with `place_var[p]` the variable of
    /// place `p`. `extra = Some((v, after))` adds a variable the firing
    /// drives from `!after` to `after`: firing requires `v = !after` and
    /// leaves `v = after`.
    pub fn new(
        m: &mut Manager,
        net: &PetriNet,
        t: TransitionId,
        place_var: &[VarId],
        extra: Option<(VarId, bool)>,
    ) -> Self {
        let (preset, postset) = (net.preset(t), net.postset(t));
        let mut pre = Vec::new();
        let mut post = Vec::new();
        for &p in preset {
            pre.push((place_var[p.index()], true));
            post.push((place_var[p.index()], postset.contains(&p)));
        }
        for &p in postset.iter().filter(|p| !preset.contains(p)) {
            pre.push((place_var[p.index()], false));
            post.push((place_var[p.index()], true));
        }
        if let Some((v, after)) = extra {
            pre.push((v, !after));
            post.push((v, after));
        }
        TransitionImage {
            pre: m.cube(&pre),
            post: m.cube(&post),
            support: pre.iter().map(|&(v, _)| v).collect(),
        }
    }

    /// The successors of `set` through this transition:
    /// `post ∧ ∃support . (set ∧ pre)`.
    pub(crate) fn apply(&self, m: &mut Manager, set: Bdd) -> Bdd {
        let enabled = m.and_exists(set, self.pre, &self.support);
        m.and(enabled, self.post)
    }
}

/// The successors of `set` through any of `images`.
pub(crate) fn image(m: &mut Manager, images: &[TransitionImage], set: Bdd) -> Bdd {
    let mut out = Manager::zero();
    for t in images {
        let img = t.apply(m, set);
        out = m.or(out, img);
    }
    out
}

/// Breadth-first fixed point from `init` under `images`: returns the
/// reached set and the number of image iterations. `visit(m, reached,
/// frontier)` runs on the initial set and after every iteration; an
/// error from it stops the traversal and is returned.
///
/// # Errors
///
/// Whatever `visit` returns.
pub fn fixed_point<E>(
    m: &mut Manager,
    images: &[TransitionImage],
    init: Bdd,
    mut visit: impl FnMut(&mut Manager, Bdd, Bdd) -> Result<(), E>,
) -> Result<(Bdd, usize), E> {
    let (mut reached, mut frontier) = (init, init);
    visit(m, reached, frontier)?;
    let mut iterations = 0usize;
    while !frontier.is_zero() {
        iterations += 1;
        let img = image(m, images, frontier);
        frontier = m.diff(img, reached);
        reached = m.or(reached, frontier);
        visit(m, reached, frontier)?;
    }
    Ok((reached, iterations))
}

/// The image operands of every transition of `net` over the place
/// variables `place_var`, with no extra variable.
pub fn place_images(m: &mut Manager, net: &PetriNet, place_var: &[VarId]) -> Vec<TransitionImage> {
    net.transitions()
        .map(|t| TransitionImage::new(m, net, t, place_var, None))
        .collect()
}

/// The cube of the initial marking over `place_var`.
pub fn initial_cube(m: &mut Manager, net: &PetriNet, place_var: &[VarId]) -> Bdd {
    let m0 = net.initial_marking();
    let literals: Vec<(VarId, bool)> = net
        .places()
        .map(|p| (place_var[p.index()], m0.is_marked(p)))
        .collect();
    m.cube(&literals)
}

/// Computes the reachability set of a safe net symbolically: the
/// [`fixed_point`] of the [`TransitionImage`] kernel from the initial
/// marking.
///
/// The net must be safe; the kernel never fires onto a marked pure
/// output place, so on an unsafe net this computes only the safe
/// fragment — [`unsafe_witness`] on the result decides safeness.
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
/// [`ReachError::StateLimit`] when the reached set exceeds
/// `max_markings` at any iteration.
pub fn symbolic_reachability_bounded(
    net: &PetriNet,
    max_markings: u128,
) -> Result<SymbolicReachability, ReachError> {
    let mut manager = Manager::new();
    let m = &mut manager;
    let place_var: Vec<VarId> = net.places().map(cur_var).collect();
    for &v in &place_var {
        m.var(v);
    }
    let num_vars = m.var_count();
    let images = place_images(m, net, &place_var);
    let init = initial_cube(m, net, &place_var);
    let (reached, iterations) = fixed_point(m, &images, init, |m, reached, _| {
        if max_markings < u128::MAX && m.sat_count(reached, num_vars) > max_markings {
            let limit = usize::try_from(max_markings).unwrap_or(usize::MAX);
            return Err(ReachError::StateLimit(limit));
        }
        Ok(())
    })?;
    let num_markings = m.sat_count(reached, num_vars);
    Ok(SymbolicReachability {
        manager,
        reached,
        num_markings,
        iterations,
    })
}

/// Symbolic safeness check over a reachability set computed with the
/// kernel, whose place variables are `place_var` (ascending in place
/// order; other variables of `reached` are ignored).
///
/// The kernel *excludes* token-accumulating firings, so on an unsafe net
/// the fixed point silently computes only the safe fragment. This check
/// closes the gap: it looks for a reached marking that enables a
/// transition while one of its pure output places is already marked —
/// the firing that would put two tokens on that place. Along any real
/// firing sequence the marking *before* the first unsafe firing lies in
/// the safe fragment, so an unsafe net always yields a witness.
///
/// Returns the offending (two-token) successor of the first such
/// marking ([`first_marking`]) for the first such transition, mirroring
/// the explicit checker's bound-violation report.
pub fn unsafe_witness(
    m: &mut Manager,
    net: &PetriNet,
    reached: Bdd,
    place_var: &[VarId],
) -> Option<Marking> {
    for t in net.transitions() {
        let pre = net.preset(t);
        let mut enabled = reached;
        for &p in pre {
            let v = m.var(place_var[p.index()]);
            enabled = m.and(enabled, v);
        }
        if enabled.is_zero() {
            continue;
        }
        for &p in net.postset(t).iter().filter(|p| !pre.contains(p)) {
            let pv = m.var(place_var[p.index()]);
            let clash = m.and(enabled, pv);
            if clash.is_zero() {
                continue;
            }
            let before = first_marking(m, clash, place_var);
            return Some(
                net.fire(&before, t)
                    .expect("witness enables the transition"),
            );
        }
    }
    None
}

/// The marking on the first satisfying path of a non-empty set, taking
/// the 0-branch wherever it is satisfiable: places off the path are
/// empty, variables outside `place_var` (ascending in place order) are
/// skipped. On a set over the place variables only this is the set's
/// lexicographically least marking. O(path) — never expands don't-cares.
///
/// # Panics
///
/// Panics if `f` is the empty set.
#[must_use]
pub fn first_marking(m: &Manager, f: Bdd, place_var: &[VarId]) -> Marking {
    assert!(!f.is_zero(), "no satisfying marking in an empty set");
    let mut counts = vec![0u32; place_var.len()];
    let mut cur = f;
    while let Some(v) = m.root_var(cur) {
        let (lo, hi) = (m.low(cur), m.high(cur));
        if lo.is_zero() {
            if let Ok(pos) = place_var.binary_search(&v) {
                counts[pos] = 1;
            }
            cur = hi;
        } else {
            cur = lo;
        }
    }
    Marking::from_counts(counts)
}

/// The invariant-based *upper approximation* of the reachability set
/// (§2.2: *"a conjunction of any set of invariants gives an upper
/// approximation of the reachability set, which is useful for conservative
/// verification"*).
///
/// Returns the characteristic BDD over the place variables and the
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
    let count = m.sat_count(approx, m.var_count());
    (m, approx, count)
}

/// Builds the constraint `Σ_{p ∈ support} m(p) = k` over the place
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
