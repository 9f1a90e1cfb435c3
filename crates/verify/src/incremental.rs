//! Incremental re-verification for the decomposed repair loop.
//!
//! The Fig. 9 flow verifies *variants* of one circuit over and over:
//! the naive decomposition, the resubstituted repair, the final probe
//! of whichever variant won, and — across the CSC candidate loop —
//! each candidate's own sequence of variants. The monolithic checker
//! treats every call as a cold start. [`IncrementalVerifier`] memoises
//! the three parts of that work that survive from one call to the
//! next, keyed by content digests ([`stg::canon::keyed_digest`] over
//! the specification plus [`synth::Netlist::canonical_text`]):
//!
//! * **whole-circuit verdicts** — re-verifying a byte-identical circuit
//!   (the pipeline's final probe of an already-probed variant, warm
//!   service traffic) returns the cached report without exploring
//!   anything;
//! * **the spec side of the composition** — the engine's spec tracker
//!   (interned markings plus each spec state's sorted enabled arcs) depends only on the specification, so one tracker
//!   per spec serves every circuit variant: re-verification after a
//!   gate change re-explores the composed product but never re-derives
//!   the token game;
//! * **settled-internal fixed points** — the initial composed state
//!   settles the internal (`mapN`) nets to their combinational fixed
//!   point, which depends only on the internal gates; resubstitution
//!   rewrites output gates and keeps the internals, so the repair's
//!   re-verification reuses the memoised settle.
//!
//! An earlier design verified each output *cone* separately under a
//! spec-driven environment (classic assume–guarantee). That is
//! deliberately **not** what this module does: the spec-driven
//! environment over-approximates the other gates and rejects exactly
//! the multiple-acknowledgment repairs (Fig. 9a) this flow exists to
//! certify — the environment no longer waits for the internal nets
//! whose acknowledgment makes the repair hazard-free. The memoisation
//! above is sound instead: every report is byte-identical to the
//! monolithic engine's (`tests/verify_parity.rs` asserts it), so
//! [`crate::VerifyOptions::incremental`] never changes flow output,
//! only the work done to produce it.

use std::collections::HashMap;

use stg::canon::{keyed_digest, Digest};
use stg::{StateSpace, Stg};
use synth::{NetId, Netlist};

use crate::circuit::VerificationReport;
use crate::engine::{explore, settle_initial, unsettled_report, SpecTracker, VerifyOptions};

/// Cache counters of one [`IncrementalVerifier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Whole-circuit verdicts served from the report cache.
    pub full_hits: usize,
    /// Whole-circuit verifications actually explored.
    pub full_misses: usize,
    /// Settled-internal initial fixed points served from the cache.
    pub settle_hits: usize,
    /// Settled-internal initial fixed points computed.
    pub settle_misses: usize,
    /// Verifications that reused an existing spec tracker.
    pub tracker_reuses: usize,
}

/// A memoising re-verifier. Keep one instance alive across the
/// verify/resubstitute/candidate loop; create a fresh one per flow run
/// (entries are content-addressed, so sharing wider is safe but
/// unbounded).
#[derive(Debug, Default)]
pub struct IncrementalVerifier {
    fulls: HashMap<Digest, VerificationReport>,
    settles: HashMap<Digest, Option<Vec<bool>>>,
    trackers: HashMap<Digest, SpecTracker>,
    stats: IncrementalStats,
}

impl IncrementalVerifier {
    /// A verifier with empty caches.
    #[must_use]
    pub fn new() -> Self {
        IncrementalVerifier::default()
    }

    /// Cache counters so far.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Verifies `netlist` against `stg`, reusing every memoised
    /// artifact that still applies. Same contract — and byte-identical
    /// reports — as [`crate::verify_with`].
    ///
    /// # Panics
    ///
    /// See [`crate::verify_circuit`].
    pub fn verify<S: StateSpace + ?Sized>(
        &mut self,
        stg: &Stg,
        sg: &S,
        netlist: &Netlist,
        signal_nets: &[NetId],
        options: &VerifyOptions,
    ) -> VerificationReport {
        assert!(signal_nets.len() >= stg.num_signals());
        let bound = options.bound.to_string();
        let binding = signal_binding(netlist, stg, signal_nets);

        // Whole-circuit verdict.
        let circuit_text = netlist.canonical_text() + &binding;
        let full_key = keyed_digest(stg, &["verify-full", &bound, &circuit_text]);
        if let Some(report) = self.fulls.get(&full_key) {
            self.stats.full_hits += 1;
            return report.clone();
        }
        self.stats.full_misses += 1;

        // Settled-internal fixed point: keyed by the internal gates,
        // the net-id layout (the settled vector is indexed by net id)
        // and the signal binding — but *not* the output gates' logic,
        // so output-gate rewrites (resubstitution keeps the layout and
        // the internals) hit.
        let layout: String = (0..netlist.num_nets())
            .map(|n| format!("{}\n", netlist.net_name(NetId::from_index(n))))
            .collect();
        let settle_key = keyed_digest(
            stg,
            &[
                "verify-settle",
                &layout,
                &internals_text(netlist, stg, signal_nets),
                &binding,
            ],
        );
        let init = match self.settles.get(&settle_key) {
            Some(init) => {
                self.stats.settle_hits += 1;
                init.clone()
            }
            None => {
                self.stats.settle_misses += 1;
                let init = settle_initial(stg, sg, netlist, signal_nets);
                self.settles.insert(settle_key, init.clone());
                init
            }
        };
        let Some(init) = init else {
            let report = unsettled_report();
            self.fulls.insert(full_key, report.clone());
            return report;
        };

        // Spec tracker: one per (spec, backend) — the spec side of the
        // composition is derived once per flow, not once per circuit
        // variant.
        let tracker_key = keyed_digest(stg, &["verify-tracker", sg.backend().name()]);
        let tracker = match self.trackers.entry(tracker_key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.stats.tracker_reuses += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SpecTracker::new(sg.initial_marking()))
            }
        };

        let report = explore(stg, netlist, signal_nets, options, tracker, init);
        self.fulls.insert(full_key, report.clone());
        report
    }
}

/// The signal → net binding, canonically.
fn signal_binding(netlist: &Netlist, stg: &Stg, signal_nets: &[NetId]) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for s in stg.signals() {
        let _ = writeln!(
            text,
            "signal {} -> {}",
            stg.signal_name(s),
            netlist.net_name(signal_nets[s.index()])
        );
    }
    text
}

/// Canonical text of the *internal* (non-signal-driving) gates — the
/// part of the circuit the settled-initial fixed point depends on.
fn internals_text(netlist: &Netlist, stg: &Stg, signal_nets: &[NetId]) -> String {
    use std::fmt::Write as _;
    let is_signal_net = {
        let mut v = vec![false; netlist.num_nets()];
        for s in stg.signals() {
            v[signal_nets[s.index()].index()] = true;
        }
        v
    };
    let mut text = String::new();
    for gate in netlist.gates() {
        if is_signal_net[gate.output.index()] {
            continue;
        }
        let inputs: Vec<&str> = gate.inputs.iter().map(|n| netlist.net_name(*n)).collect();
        let _ = writeln!(
            text,
            "{} = {}({})",
            netlist.net_name(gate.output),
            gate.kind.name(),
            inputs.join(",")
        );
        if let synth::GateKind::Complex(e) = &gate.kind {
            let _ = writeln!(text, "  expr {e:?}");
        }
    }
    text
}
