//! Excitation and quiescent regions (§3.2).
//!
//! *"Given a signal z, we can classify the states of the SG into four sets:
//! positive and negative excitation regions (ER(z+) and ER(z−)) and
//! positive and negative quiescent regions (QR(z+) and QR(z−))."*
//!
//! Two granularities are provided: [`signal_region_sets`] keeps the four
//! regions as backend-owned [`StateSet`] handles (cube intersections on
//! the resident-BDD backend — nothing is enumerated), and
//! [`signal_regions`] materialises them into index lists for consumers
//! that genuinely walk states.

use stg::{SignalEdge, SignalId, StateSet, StateSpace, Stg};

/// The four-region classification of the state graph for one signal, as
/// set handles owned by the queried state space.
#[derive(Debug, Clone)]
pub struct SignalRegionSets {
    /// The signal.
    pub signal: SignalId,
    /// States where `z = 0` and `z+` is enabled (`0*`).
    pub er_plus: StateSet,
    /// States where `z = 1` and `z−` is enabled (`1*`).
    pub er_minus: StateSet,
    /// Stable-1 states.
    pub qr_plus: StateSet,
    /// Stable-0 states.
    pub qr_minus: StateSet,
}

impl SignalRegionSets {
    /// The on-set of the next-state function: `ER(z+) ∪ QR(z+)`.
    #[must_use]
    pub fn on_set<S: StateSpace + ?Sized>(&self, sg: &S) -> StateSet {
        sg.set_union(&self.er_plus, &self.qr_plus)
    }

    /// The off-set of the next-state function: `ER(z−) ∪ QR(z−)`.
    #[must_use]
    pub fn off_set<S: StateSpace + ?Sized>(&self, sg: &S) -> StateSet {
        sg.set_union(&self.er_minus, &self.qr_minus)
    }
}

/// The four regions of `signal` as set handles: excitation regions are
/// the signal's enabled-edge sets, quiescent regions the rest of each
/// value class. On the resident-BDD backend these are four cube
/// intersections over the characteristic function.
#[must_use]
pub fn signal_region_sets<S: StateSpace + ?Sized>(
    stg: &Stg,
    sg: &S,
    signal: SignalId,
) -> SignalRegionSets {
    let er_plus_exc = sg.excitation_region(stg, signal, SignalEdge::Rise);
    let er_minus_exc = sg.excitation_region(stg, signal, SignalEdge::Fall);
    let on = sg.value_region(signal, true);
    let off = sg.value_region(signal, false);
    // A consistent space only excites z+ at value 0 (and z− at 1), but
    // intersecting keeps the classification exact on any input.
    let er_plus = sg.set_intersect(&er_plus_exc, &off);
    let er_minus = sg.set_intersect(&er_minus_exc, &on);
    let qr_plus = sg.set_minus(&on, &er_minus);
    let qr_minus = sg.set_minus(&off, &er_plus);
    SignalRegionSets {
        signal,
        er_plus,
        er_minus,
        qr_plus,
        qr_minus,
    }
}

/// The four-region classification of the state graph for one signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalRegions {
    /// The signal.
    pub signal: SignalId,
    /// States where `z = 0` and `z+` is enabled (`0*`).
    pub er_plus: Vec<usize>,
    /// States where `z = 1` and `z−` is enabled (`1*`).
    pub er_minus: Vec<usize>,
    /// Stable-1 states.
    pub qr_plus: Vec<usize>,
    /// Stable-0 states.
    pub qr_minus: Vec<usize>,
}

impl SignalRegions {
    /// The region of a particular state, as `(value, excited)`.
    #[must_use]
    pub fn classify_state(&self, state: usize) -> (bool, bool) {
        if self.er_plus.contains(&state) {
            (false, true)
        } else if self.er_minus.contains(&state) {
            (true, true)
        } else if self.qr_plus.contains(&state) {
            (true, false)
        } else {
            (false, false)
        }
    }

    /// States where the next-state function is 1: `ER(z+) ∪ QR(z+)`.
    #[must_use]
    pub fn on_states(&self) -> Vec<usize> {
        let mut v = self.er_plus.clone();
        v.extend(&self.qr_plus);
        v.sort_unstable();
        v
    }

    /// States where the next-state function is 0: `ER(z−) ∪ QR(z−)`.
    #[must_use]
    pub fn off_states(&self) -> Vec<usize> {
        let mut v = self.er_minus.clone();
        v.extend(&self.qr_minus);
        v.sort_unstable();
        v
    }
}

/// Computes the four regions of `signal` over the state graph, as
/// materialised index lists (ascending).
#[must_use]
pub fn signal_regions<S: StateSpace + ?Sized>(
    stg: &Stg,
    sg: &S,
    signal: SignalId,
) -> SignalRegions {
    let Some(sg) = sg.as_state_graph() else {
        let sets = signal_region_sets(stg, sg, signal);
        return SignalRegions {
            signal,
            er_plus: sg.set_states(&sets.er_plus, usize::MAX),
            er_minus: sg.set_states(&sets.er_minus, usize::MAX),
            qr_plus: sg.set_states(&sets.qr_plus, usize::MAX),
            qr_minus: sg.set_states(&sets.qr_minus, usize::MAX),
        };
    };
    // An explicit graph: one classification pass.
    let mut r = SignalRegions {
        signal,
        er_plus: Vec::new(),
        er_minus: Vec::new(),
        qr_plus: Vec::new(),
        qr_minus: Vec::new(),
    };
    for s in 0..sg.num_states() {
        let value = sg.value(s, signal);
        let excited_edge = sg
            .excitations(stg, s)
            .into_iter()
            .find(|&(_, sig, _)| sig == signal)
            .map(|(_, _, e)| e);
        match (value, excited_edge) {
            (false, Some(SignalEdge::Rise)) => r.er_plus.push(s),
            (true, Some(SignalEdge::Fall)) => r.er_minus.push(s),
            (true, _) => r.qr_plus.push(s),
            (false, _) => r.qr_minus.push(s),
        }
    }
    r
}

/// Regions for every non-input signal, in signal order.
#[must_use]
pub fn all_output_regions<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> Vec<SignalRegions> {
    stg.non_input_signals()
        .into_iter()
        .map(|s| signal_regions(stg, sg, s))
        .collect()
}
