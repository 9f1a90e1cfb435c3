//! Persistency analysis (§2.1).
//!
//! *"Persistency of the STG \[verifies\] that (a) no non-input signal
//! transition can be disabled by another signal transition and (b) no
//! input signal transition can be disabled by a non-input signal
//! transition. The former ensures that no short glitches, known as hazards,
//! can appear at the gate outputs, while the latter ensures that no hazards
//! can occur at inputs of the device."*

use petri::TransitionId;

use crate::model::{SignalKind, Stg};
use crate::state_graph::StateGraph;
use crate::state_space::StateSpace;

/// Classification of a disabling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A non-input transition was disabled — a potential output hazard.
    NonInputDisabled,
    /// An input transition was disabled by a non-input one — a potential
    /// hazard at the device inputs.
    InputDisabledByNonInput,
    /// An input disabled another input: allowed (environment choice /
    /// arbitration, §1.5), reported for information only.
    InputChoice,
}

/// One disabling occurrence in the state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistencyViolation {
    /// State where both transitions were enabled.
    pub state: usize,
    /// The transition that got disabled.
    pub disabled: TransitionId,
    /// The transition whose firing disabled it.
    pub by: TransitionId,
    /// Severity classification.
    pub kind: ViolationKind,
}

/// Scans the state graph for all disabling situations.
///
/// Dummy (unlabelled) transitions are treated as non-input: disabling
/// internal sequencing is just as hazardous as disabling an output.
#[must_use]
pub fn persistency_violations(stg: &Stg, sg: &StateGraph) -> Vec<PersistencyViolation> {
    let mut out = Vec::new();
    for s in 0..sg.num_states() {
        let enabled: Vec<TransitionId> = sg.ts().enabled_labels(s);
        for &t in &enabled {
            for &u in &enabled {
                if t == u {
                    continue;
                }
                let Some(next) = sg.successor(s, u) else {
                    continue;
                };
                if sg.successor(next, t).is_some() {
                    continue; // t still enabled: persistent w.r.t. u
                }
                let kind = classify(stg, t, u);
                out.push(PersistencyViolation {
                    state: s,
                    disabled: t,
                    by: u,
                    kind,
                });
            }
        }
    }
    out
}

fn classify(stg: &Stg, disabled: TransitionId, by: TransitionId) -> ViolationKind {
    let disabled_kind = stg.label(disabled).map(|l| stg.signal_kind(l.signal));
    let by_kind = stg.label(by).map(|l| stg.signal_kind(l.signal));
    let disabled_is_input = disabled_kind == Some(SignalKind::Input);
    let by_is_input = by_kind == Some(SignalKind::Input);
    if !disabled_is_input {
        ViolationKind::NonInputDisabled
    } else if by_is_input {
        ViolationKind::InputChoice
    } else {
        ViolationKind::InputDisabledByNonInput
    }
}

/// `true` if the STG is persistent in the paper's sense: the only
/// disabling events are input-versus-input choices.
///
/// An explicit graph is scanned state by state, stopping at the first
/// blocking disabling (the CSC sweeps ask this of every candidate; most
/// fail early). Other backends never enumerate states: each
/// blocking-classified transition pair is refuted by one set-level
/// disabling query, with an early exit on the first violation.
#[must_use]
pub fn is_persistent<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> bool {
    let Some(sg) = sg.as_state_graph() else {
        return blocking_pairs(stg).all(|(t, u)| sg.disabling_count(t, u) == 0);
    };
    let ts = sg.ts();
    let mut enabled: Vec<(TransitionId, usize)> = Vec::new();
    for s in 0..sg.num_states() {
        enabled.clear();
        enabled.extend(ts.successors(s).map(|(&t, to)| (t, to)));
        for &(u, next) in &enabled {
            for &(t, _) in &enabled {
                if t != u
                    && sg.successor(next, t).is_none()
                    && classify(stg, t, u) != ViolationKind::InputChoice
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Number of blocking disabling occurrences (`(state, disabled, by)`
/// triples), the count [`blocking_violations`] would enumerate — but
/// phrased per transition pair so set-level backends answer it by
/// counting, never by materialising states.
#[must_use]
pub fn blocking_violation_count<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> usize {
    if let Some(sg) = sg.as_state_graph() {
        return blocking_violations(stg, sg).len();
    }
    let total: u128 = blocking_pairs(stg)
        .map(|(t, u)| sg.disabling_count(t, u))
        .sum();
    usize::try_from(total).expect("violation count fits usize")
}

/// The ordered transition pairs whose disabling would block
/// implementability (everything but input-disables-input).
fn blocking_pairs(stg: &Stg) -> impl Iterator<Item = (TransitionId, TransitionId)> + '_ {
    let transitions: Vec<TransitionId> = stg.net().transitions().collect();
    let pairs: Vec<(TransitionId, TransitionId)> = transitions
        .iter()
        .flat_map(|&t| transitions.iter().map(move |&u| (t, u)))
        .filter(|&(t, u)| t != u && classify(stg, t, u) != ViolationKind::InputChoice)
        .collect();
    pairs.into_iter()
}

/// The subset of violations that block implementability (everything except
/// input choices).
#[must_use]
pub fn blocking_violations(stg: &Stg, sg: &StateGraph) -> Vec<PersistencyViolation> {
    persistency_violations(stg, sg)
        .into_iter()
        .filter(|v| v.kind != ViolationKind::InputChoice)
        .collect()
}
