//! Excitation and quiescent regions (§3.2).
//!
//! *"Given a signal z, we can classify the states of the SG into four sets:
//! positive and negative excitation regions (ER(z+) and ER(z−)) and
//! positive and negative quiescent regions (QR(z+) and QR(z−))."*
//!
//! The classification walks every state of an explicit
//! [`StateGraph`] once, testing the signal's value bit and its labelled
//! arcs.

use stg::{SignalEdge, SignalId, StateGraph, Stg};

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

/// Computes the four regions of `signal` over the state graph in one
/// classification pass, as index lists (ascending).
#[must_use]
pub fn signal_regions(stg: &Stg, sg: &StateGraph, signal: SignalId) -> SignalRegions {
    let mut r = SignalRegions {
        signal,
        er_plus: Vec::new(),
        er_minus: Vec::new(),
        qr_plus: Vec::new(),
        qr_minus: Vec::new(),
    };
    for s in 0..sg.num_states() {
        let (mut rise, mut fall) = (false, false);
        for (&t, _) in sg.ts().successors(s) {
            match stg.label(t) {
                Some(l) if l.signal == signal && l.edge == SignalEdge::Rise => rise = true,
                Some(l) if l.signal == signal => fall = true,
                _ => {}
            }
        }
        // A consistent graph only excites z+ at value 0 (and z− at 1);
        // testing the value as well keeps the classification exact.
        match (sg.value(s, signal), rise, fall) {
            (false, true, _) => r.er_plus.push(s),
            (true, _, true) => r.er_minus.push(s),
            (true, ..) => r.qr_plus.push(s),
            (false, ..) => r.qr_minus.push(s),
        }
    }
    r
}
