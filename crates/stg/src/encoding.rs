//! State-encoding analysis: USC and CSC (§2.1, §3.1).
//!
//! *"Completeness of state encoding \[checks\] that there are no conflicts in
//! definition of Boolean functions for each non-input signal."* Two states
//! conflict if they carry the same binary code; the conflict matters for
//! implementability (CSC) when the states disagree on the excitation of
//! some non-input signal.
//!
//! These functions answer on the explicit [`StateGraph`]. [`has_usc`]
//! counts the distinct codes of the graph's code index. [`has_csc`] and
//! [`csc_conflict_pair_count`] share one kernel: a packed key per state
//! (code words, then excited non-input signals, one `u128` for codes of
//! up to 64 signals), sorted once, with both verdicts read off its runs.
//! The witness lists ([`encoding_conflicts`], [`csc_conflicts`]) pair up
//! the states of each duplicated code. The resident-BDD engine answers
//! the same questions on its own sets (see [`crate::SymbolicSetSpace`]).

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
    conflict_pairs(stg, sg, true) == 0
}

/// Number of CSC-violating state pairs: same-code pairs disagreeing on
/// some non-input excitation.
#[must_use]
pub fn csc_conflict_pair_count(stg: &Stg, sg: &StateGraph) -> usize {
    conflict_pairs(stg, sg, false)
}

/// The conflict kernel behind [`has_csc`] and [`csc_conflict_pair_count`]:
/// the number of CSC-violating pairs, or, with `first_only`, a non-zero
/// number as soon as one shared code has any.
///
/// Codes are consistent along arcs (a [`StateGraph`] invariant), so a
/// signal excited in a state has the edge its code allows: states with
/// one code agree on every non-input excitation exactly when they excite
/// the same non-input signals. Each state becomes one key, its code words
/// followed by its excited-non-input words, and one sort of the keys puts
/// equal codes into runs and, inside them, equal keys into sub-runs: a
/// shared code adds `C(run, 2) − Σ C(sub-run, 2)`. Codes of at most 64
/// signals make `u128` keys; wider codes use the same algorithm over
/// word vectors.
fn conflict_pairs(stg: &Stg, sg: &StateGraph, first_only: bool) -> usize {
    let words = sg.code_words(0).len();
    let ts = sg.ts();
    // The code word and bit each transition excites: zero for inputs and
    // dummies.
    let excites: Vec<(usize, u64)> = stg
        .net()
        .transitions()
        .map(|t| match stg.label(t) {
            Some(l) if stg.signal_kind(l.signal).is_non_input() => code_bit(l.signal.index()),
            _ => (0, 0),
        })
        .collect();
    let states = 0..sg.num_states();
    if words == 1 {
        let keys = states.map(|i| {
            let excited = ts
                .successors(i)
                .fold(0, |acc, (&t, _)| acc | excites[t.index()].1);
            u128::from(sg.code_words(i)[0]) << 64 | u128::from(excited)
        });
        count_in_runs(keys.collect(), |a, b| a >> 64 == b >> 64, first_only)
    } else {
        let keys = states.map(|i| {
            let mut key = sg.code_words(i).to_vec();
            key.resize(2 * words, 0);
            for (&t, _) in ts.successors(i) {
                let (w, bit) = excites[t.index()];
                key[words + w] |= bit;
            }
            key
        });
        count_in_runs(keys.collect(), |a, b| a[..words] == b[..words], first_only)
    }
}

/// Sorts `keys` and sums, over each run of keys with the same code, the
/// pairs whose keys differ (see `conflict_pairs`).
fn count_in_runs<K: Ord>(
    mut keys: Vec<K>,
    same_code: impl Fn(&K, &K) -> bool,
    first_only: bool,
) -> usize {
    let pairs_of = |n: usize| n * n.saturating_sub(1) / 2;
    keys.sort_unstable();
    let mut total = 0;
    for run in keys.chunk_by(same_code).filter(|run| run.len() > 1) {
        let agreeing: usize = run.chunk_by(K::eq).map(|g| pairs_of(g.len())).sum();
        total += pairs_of(run.len()) - agreeing;
        if first_only && total > 0 {
            break;
        }
    }
    total
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
