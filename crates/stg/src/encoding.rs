//! State-encoding analysis: USC and CSC (§2.1, §3.1).
//!
//! *"Completeness of state encoding \[checks\] that there are no conflicts in
//! definition of Boolean functions for each non-input signal."* Two states
//! conflict if they carry the same binary code; the conflict matters for
//! implementability (CSC) when the states disagree on the excitation of
//! some non-input signal.
//!
//! These functions answer on the explicit [`StateGraph`]: the verdicts
//! ([`has_usc`], [`has_csc`], [`csc_conflict_pair_count`]) sort or group
//! the states by code once, and the witness lists ([`encoding_conflicts`],
//! [`csc_conflicts`]) pair up the states of each duplicated code. The
//! resident-BDD engine answers the same questions on its own sets (see
//! [`crate::SymbolicSetSpace`]).

use petri::TransitionId;

use crate::model::{SignalEdge, SignalId, Stg};
use crate::state_graph::{code_bit, StateGraph};

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
/// This is the witness extractor. For verdicts and counts use
/// [`has_usc`] / [`has_csc`] / [`csc_conflict_pair_count`].
#[must_use]
pub fn encoding_conflicts(stg: &Stg, sg: &StateGraph) -> Vec<EncodingConflict> {
    let classes = sg
        .code_classes()
        .filter(|states| states.len() > 1)
        .map(|states| (sg.code(states[0]), states.to_vec()));
    conflicts_in_classes(stg, classes, |i| sg.excitations(stg, i))
}

/// Pairs up the states of each duplicated code class, in class order,
/// annotating each pair with the non-input signals whose excitation
/// differs. `excitations(i)` lists the `(transition, signal, edge)`
/// triples enabled in state `i`; both engines share this pairing.
pub(crate) fn conflicts_in_classes(
    stg: &Stg,
    classes: impl IntoIterator<Item = (Vec<bool>, Vec<usize>)>,
    excitations: impl Fn(usize) -> Vec<(TransitionId, SignalId, SignalEdge)>,
) -> Vec<EncodingConflict> {
    let non_inputs = stg.non_input_signals();
    let mut out = Vec::new();
    for (code, states) in classes {
        // Each state's excitation of every non-input signal.
        let profiles: Vec<Vec<Option<SignalEdge>>> = states
            .iter()
            .map(|&i| {
                let excited = excitations(i);
                non_inputs
                    .iter()
                    .map(|&s| {
                        excited
                            .iter()
                            .find(|&&(_, sig, _)| sig == s)
                            .map(|&(_, _, e)| e)
                    })
                    .collect()
            })
            .collect();
        for (a_idx, &a) in states.iter().enumerate() {
            for (b_idx, &b) in states.iter().enumerate().skip(a_idx + 1) {
                let conflicting_signals: Vec<SignalId> = non_inputs
                    .iter()
                    .zip(profiles[a_idx].iter().zip(&profiles[b_idx]))
                    .filter(|(_, (ea, eb))| ea != eb)
                    .map(|(&s, _)| s)
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

/// `true` if the STG has *Unique State Coding*: no two states share a
/// code — equivalently, the number of distinct codes equals the number of
/// states.
#[must_use]
pub fn has_usc(_stg: &Stg, sg: &StateGraph) -> bool {
    sg.code_classes().count() == sg.num_states()
}

/// `true` if the STG has *Complete State Coding*: states sharing a code
/// agree on all non-input excitations (§3.1 — the property logic
/// synthesis requires).
#[must_use]
pub fn has_csc(stg: &Stg, sg: &StateGraph) -> bool {
    shared_code_groups(stg, sg)
        .iter()
        .all(|groups| groups.len() == 1)
}

/// Number of CSC-violating state pairs: same-code pairs disagreeing on
/// some non-input excitation. One sort groups each shared code's states
/// by their excited non-input signals; pairs inside one group agree
/// everywhere, so each shared code adds `C(total, 2) − Σ C(group, 2)`.
#[must_use]
pub fn csc_conflict_pair_count(stg: &Stg, sg: &StateGraph) -> usize {
    let pairs_of = |n: usize| n * n.saturating_sub(1) / 2;
    shared_code_groups(stg, sg)
        .iter()
        .map(|groups| {
            let agreeing: usize = groups.iter().map(|&g| pairs_of(g)).sum();
            pairs_of(groups.iter().sum()) - agreeing
        })
        .sum()
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
pub fn csc_conflicts(stg: &Stg, sg: &StateGraph) -> Vec<EncodingConflict> {
    encoding_conflicts(stg, sg)
        .into_iter()
        .filter(EncodingConflict::is_csc)
        .collect()
}
