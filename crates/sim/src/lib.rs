//! Event-driven gate-level simulation with delay models and glitch
//! monitors (§3.3's hazard discussion, and the latency/throughput side of
//! §2.1's performance analysis).
//!
//! The simulator runs a [`synth::Netlist`] against the environment defined
//! by an STG specification: enabled input transitions fire after a random
//! environment delay; each gate switches a random delay after becoming
//! excited (inertial model — a gate de-excited before its scheduled switch
//! cancels the event and the monitor records a **glitch**, §3.3's hazard).
//!
//! # Example
//!
//! ```
//! use stg::{examples, StateGraph};
//! use synth::complex_gate::synthesize_complex_gates;
//! use sim::{SimConfig, Simulator};
//!
//! let spec = examples::vme_read_csc();
//! let sg = StateGraph::build(&spec)?;
//! let circuit = synthesize_complex_gates(&spec, &sg)?;
//! let nets: Vec<_> = spec.signals().map(|s| circuit.signal_net(s)).collect();
//! let mut sim = Simulator::new(&spec, &sg, circuit.netlist().clone(), nets, SimConfig::default());
//! let stats = sim.run(10_000.0);
//! assert_eq!(stats.glitches, 0, "speed-independent circuits never glitch");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stg::{SignalKind, StateGraph, Stg};
use synth::{NetId, Netlist};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Gate delay range `[min, max)` sampled uniformly per switching event.
    pub gate_delay: (f64, f64),
    /// Environment delay range for input transitions.
    pub env_delay: (f64, f64),
    /// RNG seed (simulations are reproducible).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            gate_delay: (1.0, 2.0),
            env_delay: (3.0, 8.0),
            seed: 0xD1_CE,
        }
    }
}

/// Aggregate results of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Simulated time at the end of the run.
    pub time: f64,
    /// Total gate output switches.
    pub gate_switches: u64,
    /// Total environment (input) transitions fired.
    pub input_firings: u64,
    /// Glitches: scheduled gate switches cancelled by de-excitation.
    pub glitches: u64,
    /// Completed specification cycles (returns to the initial spec state).
    pub cycles: u64,
    /// Average cycle time (time / cycles), if any cycle completed.
    pub avg_cycle_time: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PendingKind {
    Gate { gate: usize, value: bool },
    Input { transition: petri::TransitionId },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    time: f64,
    serial: u64,
    kind: PendingKind,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time (BinaryHeap is a max-heap; reverse), tie-broken
        // by insertion order for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.serial.cmp(&self.serial))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event-driven simulator.
#[derive(Debug)]
pub struct Simulator<'a> {
    stg: &'a Stg,
    sg: &'a StateGraph,
    netlist: Netlist,
    signal_nets: Vec<NetId>,
    config: SimConfig,
    values: Vec<bool>,
    spec_state: usize,
    queue: BinaryHeap<Pending>,
    /// Per-gate pending switch (serial number), for inertial cancellation.
    gate_pending: Vec<Option<u64>>,
    /// Pending input event serials keyed by transition index.
    input_pending: Vec<Option<u64>>,
    serial: u64,
    time: f64,
    rng: StdRng,
    stats: SimStats,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with the circuit initialised to the state
    /// graph's initial code (internal nets settled).
    ///
    /// # Panics
    ///
    /// Panics if `signal_nets` is shorter than the STG's signal count or
    /// internal nets oscillate at time 0.
    #[must_use]
    pub fn new(
        stg: &'a Stg,
        sg: &'a StateGraph,
        netlist: Netlist,
        signal_nets: Vec<NetId>,
        config: SimConfig,
    ) -> Self {
        assert!(signal_nets.len() >= stg.num_signals());
        let mut values = vec![false; netlist.num_nets()];
        for s in stg.signals() {
            values[signal_nets[s.index()].index()] = sg.value(0, s);
        }
        // Settle internal (non-signal) nets.
        let signal_net_set: Vec<NetId> = signal_nets.clone();
        for round in 0..=netlist.num_gates() {
            let mut changed = false;
            for g in 0..netlist.num_gates() {
                let out = netlist.gates()[g].output;
                if !signal_net_set.contains(&out) {
                    let nv = netlist.next_value(&values, g);
                    if values[out.index()] != nv {
                        values[out.index()] = nv;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            assert!(
                round < netlist.num_gates(),
                "internal nets oscillate at time 0"
            );
        }
        let num_gates = netlist.num_gates();
        let num_transitions = stg.net().num_transitions();
        let rng = StdRng::seed_from_u64(config.seed);
        let mut sim = Simulator {
            stg,
            sg,
            netlist,
            signal_nets,
            config,
            values,
            spec_state: 0,
            queue: BinaryHeap::new(),
            gate_pending: vec![None; num_gates],
            input_pending: vec![None; num_transitions],
            serial: 0,
            time: 0.0,
            rng,
            stats: SimStats::default(),
        };
        sim.reschedule();
        sim
    }

    fn sample(&mut self, range: (f64, f64)) -> f64 {
        if range.1 <= range.0 {
            range.0
        } else {
            self.rng.random_range(range.0..range.1)
        }
    }

    /// Aligns the pending-event sets with the current state: schedules
    /// newly excited gates and newly enabled inputs, cancels de-excited
    /// gates (counting glitches) and disabled inputs.
    fn reschedule(&mut self) {
        // Gates.
        for g in 0..self.netlist.num_gates() {
            let excited = self.netlist.gate_excited(&self.values, g);
            match (excited, self.gate_pending[g]) {
                (true, None) => {
                    let delay = self.sample(self.config.gate_delay);
                    self.serial += 1;
                    self.gate_pending[g] = Some(self.serial);
                    let value = self.netlist.next_value(&self.values, g);
                    self.queue.push(Pending {
                        time: self.time + delay,
                        serial: self.serial,
                        kind: PendingKind::Gate { gate: g, value },
                    });
                }
                (false, Some(_)) => {
                    // Inertial cancellation: the pulse was shorter than the
                    // gate delay — a glitch.
                    self.gate_pending[g] = None;
                    self.stats.glitches += 1;
                }
                _ => {}
            }
        }
        // Inputs.
        let enabled: Vec<petri::TransitionId> = self
            .sg
            .excitations(self.stg, self.spec_state)
            .into_iter()
            .filter(|&(_, sig, _)| self.stg.signal_kind(sig) == SignalKind::Input)
            .map(|(t, _, _)| t)
            .collect();
        for t in 0..self.input_pending.len() {
            let tid = petri::TransitionId::from_index(t);
            let is_enabled = enabled.contains(&tid);
            match (is_enabled, self.input_pending[t]) {
                (true, None) => {
                    let delay = self.sample(self.config.env_delay);
                    self.serial += 1;
                    self.input_pending[t] = Some(self.serial);
                    self.queue.push(Pending {
                        time: self.time + delay,
                        serial: self.serial,
                        kind: PendingKind::Input { transition: tid },
                    });
                }
                (false, Some(_)) => {
                    self.input_pending[t] = None;
                }
                _ => {}
            }
        }
    }

    /// Runs until simulated time `horizon` (or the event queue drains).
    pub fn run(&mut self, horizon: f64) -> SimStats {
        while let Some(ev) = self.queue.pop() {
            if ev.time > horizon {
                break;
            }
            match ev.kind {
                PendingKind::Gate { gate, value } => {
                    if self.gate_pending[gate] != Some(ev.serial) {
                        continue; // cancelled or superseded
                    }
                    self.gate_pending[gate] = None;
                    self.time = ev.time;
                    let out = self.netlist.gates()[gate].output;
                    self.values[out.index()] = value;
                    self.stats.gate_switches += 1;
                    // Track the spec if this is a specification signal.
                    if let Some(sig) = self.signal_of(out) {
                        self.advance_spec(sig, value);
                    }
                    self.reschedule();
                }
                PendingKind::Input { transition } => {
                    let idx = transition.index();
                    if self.input_pending[idx] != Some(ev.serial) {
                        continue;
                    }
                    self.input_pending[idx] = None;
                    self.time = ev.time;
                    let label = self.stg.label(transition).expect("inputs are labelled");
                    let net = self.signal_nets[label.signal.index()];
                    self.values[net.index()] = label.edge.value_after();
                    self.stats.input_firings += 1;
                    let next = self
                        .sg
                        .successor(self.spec_state, transition)
                        .expect("scheduled inputs are enabled");
                    self.set_spec_state(next);
                    self.reschedule();
                }
            }
        }
        self.stats.time = self.time;
        self.stats.avg_cycle_time = if self.stats.cycles > 0 {
            Some(self.time / self.stats.cycles as f64)
        } else {
            None
        };
        self.stats.clone()
    }

    fn signal_of(&self, net: NetId) -> Option<stg::SignalId> {
        self.stg
            .signals()
            .find(|&s| self.signal_nets[s.index()] == net)
    }

    fn advance_spec(&mut self, sig: stg::SignalId, new_value: bool) {
        let arc = self
            .sg
            .excitations(self.stg, self.spec_state)
            .into_iter()
            .find(|&(_, s, e)| s == sig && e.value_after() == new_value);
        if let Some((t, _, _)) = arc {
            let next = self.sg.successor(self.spec_state, t).expect("enabled");
            self.set_spec_state(next);
        }
        // An output the spec does not allow is a conformance bug; the
        // verifier reports those — the simulator just keeps running with
        // the spec state frozen, which shows up as missing cycles.
    }

    fn set_spec_state(&mut self, next: usize) {
        if next == 0 && self.spec_state != 0 {
            self.stats.cycles += 1;
        }
        self.spec_state = next;
    }

    /// Current simulated time.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current net values.
    #[must_use]
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::examples::{toggle, vme_read_csc};
    use synth::complex_gate::synthesize_complex_gates;
    use synth::decompose::{decompose, resubstitute};

    fn run_circuit(stg: &Stg, horizon: f64) -> SimStats {
        let sg = StateGraph::build(stg).unwrap();
        let circuit = synthesize_complex_gates(stg, &sg).unwrap();
        let nets: Vec<NetId> = stg.signals().map(|s| circuit.signal_net(s)).collect();
        let mut sim = Simulator::new(
            stg,
            &sg,
            circuit.netlist().clone(),
            nets,
            SimConfig::default(),
        );
        sim.run(horizon)
    }

    #[test]
    fn toggle_cycles_without_glitches() {
        let stats = run_circuit(&toggle(), 1_000.0);
        assert_eq!(stats.glitches, 0);
        assert!(stats.cycles > 10, "cycles: {}", stats.cycles);
        assert!(stats.avg_cycle_time.is_some());
    }

    #[test]
    fn vme_complex_gate_runs_clean() {
        let stats = run_circuit(&vme_read_csc(), 5_000.0);
        assert_eq!(stats.glitches, 0, "speed-independent circuit glitched");
        assert!(stats.cycles > 10);
    }

    #[test]
    fn hazardous_decomposition_glitches_under_adverse_delays() {
        // The naive (Fig. 9b-shaped) decomposition has an unacknowledged
        // map transition; with a slow map gate the pulse gets swallowed —
        // the monitor must record glitches.
        let stg = vme_read_csc();
        let sg = StateGraph::build(&stg).unwrap();
        let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
        let dec = decompose(&stg, &circuit, 2);
        let nets: Vec<NetId> = stg.signals().map(|s| dec.signal_net(s)).collect();
        let config = SimConfig {
            gate_delay: (1.0, 8.0),
            env_delay: (1.0, 2.0),
            seed: 7,
        };
        let mut sim = Simulator::new(&stg, &sg, dec.netlist().clone(), nets, config);
        let stats = sim.run(20_000.0);
        assert!(stats.glitches > 0, "expected glitches: {stats:?}");
    }

    #[test]
    fn resubstituted_decomposition_is_clean_in_simulation() {
        let stg = vme_read_csc();
        let sg = StateGraph::build(&stg).unwrap();
        let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
        let dec = decompose(&stg, &circuit, 2);
        let resub = resubstitute(&stg, &sg, &dec);
        let nets: Vec<NetId> = stg.signals().map(|s| resub.signal_net(s)).collect();
        let config = SimConfig {
            gate_delay: (1.0, 8.0),
            env_delay: (1.0, 2.0),
            seed: 7,
        };
        let mut sim = Simulator::new(&stg, &sg, resub.netlist().clone(), nets, config);
        let stats = sim.run(20_000.0);
        assert_eq!(stats.glitches, 0, "{stats:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let stg = toggle();
        let sg = StateGraph::build(&stg).unwrap();
        let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
        let nets: Vec<NetId> = stg.signals().map(|s| circuit.signal_net(s)).collect();
        let run = || {
            let mut sim = Simulator::new(
                &stg,
                &sg,
                circuit.netlist().clone(),
                nets.clone(),
                SimConfig {
                    seed: 42,
                    ..SimConfig::default()
                },
            );
            sim.run(500.0)
        };
        assert_eq!(run(), run());
    }
}
