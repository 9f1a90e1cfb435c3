//! State-encoding analysis: USC and CSC (§2.1, §3.1).
//!
//! *"Completeness of state encoding \[checks\] that there are no conflicts in
//! definition of Boolean functions for each non-input signal."* Two states
//! conflict if they carry the same binary code; the conflict matters for
//! implementability (CSC) when the states disagree on the excitation of
//! some non-input signal.
//!
//! The *verdict* queries ([`has_usc`], [`has_csc`],
//! [`csc_conflict_pair_count`]) are phrased over the set-level
//! [`StateSpace`] API — marking counts, code projections, excitation
//! regions — so the resident-BDD backend answers them without enumerating
//! states. Only the witness-producing [`encoding_conflicts`] /
//! [`csc_conflicts`] materialise state indices, and only for the codes
//! that are actually duplicated.

use crate::model::{SignalEdge, SignalId, Stg};
use crate::state_graph::{code_bit, StateGraph};
use crate::state_space::{StateSet, StateSpace};

/// A pair of states with identical binary codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingConflict {
    /// The two state indices (ascending).
    pub states: (usize, usize),
    /// The shared binary code.
    pub code: Vec<bool>,
    /// Non-input signals whose excitation differs between the two states —
    /// empty for harmless USC conflicts, non-empty for CSC conflicts.
    pub conflicting_signals: Vec<SignalId>,
}

impl EncodingConflict {
    /// `true` if this conflict violates *Complete State Coding*.
    #[must_use]
    pub fn is_csc(&self) -> bool {
        !self.conflicting_signals.is_empty()
    }
}

/// All pairs of states with equal codes (*Unique State Coding* violations),
/// annotated with the non-input signals whose excitation disagrees.
///
/// This is the witness extractor: per-state decode happens only for the
/// states of genuinely duplicated codes. For verdicts and counts use
/// [`has_usc`] / [`has_csc`] / [`csc_conflict_pair_count`], which never
/// materialise states.
#[must_use]
pub fn encoding_conflicts<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> Vec<EncodingConflict> {
    let non_inputs = stg.non_input_signals();
    let mut out = Vec::new();
    for (code, states) in sg.duplicate_code_classes() {
        for (a_idx, &a) in states.iter().enumerate() {
            for &b in &states[a_idx + 1..] {
                let conflicting_signals: Vec<SignalId> = non_inputs
                    .iter()
                    .copied()
                    .filter(|&s| excitation_of(stg, sg, a, s) != excitation_of(stg, sg, b, s))
                    .collect();
                out.push(EncodingConflict {
                    states: (a, b),
                    code: code.clone(),
                    conflicting_signals,
                });
            }
        }
    }
    out
}

fn excitation_of<S: StateSpace + ?Sized>(
    stg: &Stg,
    sg: &S,
    state: usize,
    s: SignalId,
) -> Option<SignalEdge> {
    sg.excitations(stg, state)
        .into_iter()
        .find(|&(_, sig, _)| sig == s)
        .map(|(_, _, e)| e)
}

/// `true` if the STG has *Unique State Coding*: no two states share a
/// code — equivalently, the number of distinct codes equals the number of
/// states (a pure counting query: two BDD counts on the resident
/// backend).
#[must_use]
pub fn has_usc<S: StateSpace + ?Sized>(_stg: &Stg, sg: &S) -> bool {
    sg.distinct_code_count() == sg.marking_count()
}

/// The three excitation classes of one signal: rising-excited,
/// falling-excited and unexcited states.
fn excitation_classes<S: StateSpace + ?Sized>(stg: &Stg, sg: &S, s: SignalId) -> [StateSet; 3] {
    let rise = sg.excitation_region(stg, s, SignalEdge::Rise);
    let fall = sg.excitation_region(stg, s, SignalEdge::Fall);
    let excited = sg.set_union(&rise, &fall);
    let none = sg.set_minus(&sg.all_states(), &excited);
    [rise, fall, none]
}

/// `true` if the STG has *Complete State Coding*: states sharing a code
/// agree on all non-input excitations (§3.1 — the property logic
/// synthesis requires).
///
/// Set-level formulation: a CSC conflict exists iff, for some non-input
/// signal, two of its three excitation classes (rising / falling /
/// unexcited) contain states with a common code.
#[must_use]
pub fn has_csc<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> bool {
    if let Some(sg) = sg.as_state_graph() {
        return shared_code_groups(stg, sg)
            .iter()
            .all(|groups| groups.len() == 1);
    }
    if has_usc(stg, sg) {
        return true;
    }
    for s in stg.non_input_signals() {
        let [rise, fall, none] = excitation_classes(stg, sg, s);
        if sg.sets_share_code(&rise, &fall)
            || sg.sets_share_code(&rise, &none)
            || sg.sets_share_code(&fall, &none)
        {
            return false;
        }
    }
    true
}

/// Number of CSC-violating state pairs: same-code pairs disagreeing on
/// some non-input excitation.
///
/// Counted per duplicated code by refining its state set against the
/// excitation classes of every non-input signal: pairs inside one
/// refined part agree everywhere, so `C(total, 2) − Σ C(part, 2)` is the
/// conflict count — set counts only, witnesses are never materialised.
/// An explicit graph finds the same parts with one sort of its states.
#[must_use]
pub fn csc_conflict_pair_count<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> usize {
    if let Some(sg) = sg.as_state_graph() {
        let pairs_of = |n: usize| n * n.saturating_sub(1) / 2;
        return shared_code_groups(stg, sg)
            .iter()
            .map(|groups| {
                let agreeing: usize = groups.iter().map(|&g| pairs_of(g)).sum();
                pairs_of(groups.iter().sum()) - agreeing
            })
            .sum();
    }
    if has_usc(stg, sg) {
        return 0;
    }
    let non_inputs = stg.non_input_signals();
    let classes: Vec<[StateSet; 3]> = non_inputs
        .iter()
        .map(|&s| excitation_classes(stg, sg, s))
        .collect();
    let pairs_of = |n: u128| n * n.saturating_sub(1) / 2;
    let mut conflicts = 0u128;
    // Codes come from the projection and only the duplicated ones are
    // refined — states stay symbolic.
    for code in sg.set_codes(&sg.all_states()) {
        let set = sg.states_with_code_set(&code);
        let total = sg.set_count(&set);
        if total < 2 {
            continue;
        }
        // Refine the code's states by excitation profile.
        let mut parts = vec![set];
        for class3 in &classes {
            let mut next = Vec::with_capacity(parts.len());
            for part in &parts {
                if sg.set_count(part) < 2 {
                    next.push(part.clone());
                    continue;
                }
                for class in class3 {
                    let piece = sg.set_intersect(part, class);
                    if !sg.set_is_empty(&piece) {
                        next.push(piece);
                    }
                }
            }
            parts = next;
        }
        let agreeing: u128 = parts.iter().map(|p| pairs_of(sg.set_count(p))).sum();
        conflicts += pairs_of(total) - agreeing;
    }
    usize::try_from(conflicts).expect("conflict pair count fits usize")
}

/// For every code two or more states of an explicit graph share, the
/// sizes of its states' groups by excited non-input signals.
///
/// Codes are consistent along arcs (a [`StateGraph`] invariant), so a
/// signal excited in a state has the edge its code allows: states with one
/// code agree on every non-input excitation exactly when they excite the
/// same non-input signals. One sort of the states by (stored code words,
/// excited-signal words) finds every group, where hashing each state's
/// code and excitation profile used to (the CSC sweeps ask this of every
/// candidate).
fn shared_code_groups(stg: &Stg, sg: &StateGraph) -> Vec<Vec<usize>> {
    let words = sg.code_words(0).len();
    let ts = sg.ts();
    // Per state: `words` code words, then `words` excited-signal words.
    let mut keys = vec![0u64; sg.num_states() * 2 * words];
    for (i, key) in keys.chunks_mut(2 * words).enumerate() {
        key[..words].copy_from_slice(sg.code_words(i));
        for (&t, _) in ts.successors(i) {
            if let Some(l) = stg.label(t) {
                if stg.signal_kind(l.signal).is_non_input() {
                    let (w, bit) = code_bit(l.signal.index());
                    key[words + w] |= bit;
                }
            }
        }
    }
    let key = |i: usize| &keys[i * 2 * words..(i + 1) * 2 * words];
    let mut order: Vec<usize> = (0..sg.num_states()).collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    order
        .chunk_by(|&a, &b| key(a)[..words] == key(b)[..words])
        .filter(|class| class.len() > 1)
        .map(|class| {
            class
                .chunk_by(|&a, &b| key(a) == key(b))
                .map(<[usize]>::len)
                .collect()
        })
        .collect()
}

/// Only the CSC-violating conflicts (witness-producing; see
/// [`encoding_conflicts`]).
#[must_use]
pub fn csc_conflicts<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> Vec<EncodingConflict> {
    encoding_conflicts(stg, sg)
        .into_iter()
        .filter(EncodingConflict::is_csc)
        .collect()
}
