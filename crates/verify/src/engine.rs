//! The composed-space verification engine.
//!
//! One breadth-first core explores the Muller-model composition of a
//! gate netlist with its STG environment over a *packed* state
//! representation — bit-packed net values plus the specification's
//! [`StateGraph`] state index. The specification side is read straight
//! from the graph: a composed state's spec moves are the arcs of its
//! graph state, which every [`StateGraph`] lists in transition-id order,
//! starting from the graph's initial state. (The code half needs no
//! storage of its own: along every composed path the values of the
//! signal nets *are* the spec code, by the consistency invariant.)
//!
//! Events are enumerated in transition-id order, so reports and
//! `states_explored` are deterministic; `tests/verify_parity.rs` pins
//! them against the seed's explicit state-graph walk.

use std::collections::{HashMap, VecDeque};

use petri::TransitionId;
use stg::{SignalId, SignalKind, StateGraph, Stg};
use synth::{NetId, Netlist};

use crate::circuit::{HazardWitness, VerificationReport, Violation, WitnessState};

/// The default composed-state limit of [`VerifyOptions`] (the seed's
/// hard-coded `500_000`, now configurable per run through
/// [`VerifyOptions::bound`] and salted into the flow's result-cache
/// key).
pub const DEFAULT_VERIFY_BOUND: usize = 500_000;

/// Configuration of one verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Composed-state limit; hitting it reports
    /// [`Violation::StateLimit`] (and the pipeline additionally emits a
    /// bounded-verification `FlowEvent`, so an inconclusive bounded run
    /// is never conflated with a real failure).
    pub bound: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            bound: DEFAULT_VERIFY_BOUND,
        }
    }
}

impl VerifyOptions {
    /// This configuration with a different bound.
    #[must_use]
    pub fn with_bound(mut self, bound: usize) -> Self {
        self.bound = bound;
        self
    }
}

/// Verifies a netlist against its STG specification by exhaustive
/// exploration of the composed state space of `netlist` and `sg`, the
/// specification's state graph.
///
/// `signal_nets[i]` must be the net carrying signal `i` of the STG;
/// non-input signals must be gate outputs, inputs must be primary inputs.
/// Additional nets (decomposition internals) are unconstrained by the
/// spec but participate in the semimodularity check.
///
/// The initial composed state takes the signal nets from the graph's
/// initial code and settles the internal nets to their combinational
/// fixed point; a circuit whose internals oscillate there is reported
/// as [`Violation::UnsettledInitialState`].
///
/// # Panics
///
/// Panics if `signal_nets` is shorter than the STG's signal count.
#[must_use]
pub fn verify_with(
    stg: &Stg,
    sg: &StateGraph,
    netlist: &Netlist,
    signal_nets: &[NetId],
    options: &VerifyOptions,
) -> VerificationReport {
    assert!(signal_nets.len() >= stg.num_signals());
    // Reverse map: which net carries which signal.
    let mut net_signal: Vec<Option<SignalId>> = vec![None; netlist.num_nets()];
    for s in stg.signals() {
        net_signal[signal_nets[s.index()].index()] = Some(s);
    }
    let mut init = vec![false; netlist.num_nets()];
    let initial_values = sg.initial_values();
    for s in stg.signals() {
        init[signal_nets[s.index()].index()] = initial_values[s.index()];
    }
    if !settle_internals(netlist, &net_signal, &mut init) {
        return VerificationReport {
            hazards: Vec::new(),
            violations: vec![Violation::UnsettledInitialState],
            states_explored: 0,
        };
    }
    explore(stg, sg, netlist, signal_nets, &net_signal, options, init)
}

/// A hazard recorded during exploration, before dedup and witness
/// decoding.
struct RawHazard {
    state: u32,
    gate: u32,
    cause: Cause,
}

/// The event that disabled a hazard's gate; rendered as text only once
/// per distinct cause, after exploration.
#[derive(Clone, Copy)]
enum Cause {
    /// An environment (input) transition occurred.
    Input(TransitionId),
    /// The gate with this index switched.
    Gate(u32),
}

impl Cause {
    /// A dense index over all possible causes: the transitions, then the
    /// gates.
    fn index(self, num_transitions: usize) -> usize {
        match self {
            Cause::Input(t) => t.index(),
            Cause::Gate(g) => num_transitions + g as usize,
        }
    }

    /// The report's `caused_by` text.
    fn text(self, stg: &Stg, netlist: &Netlist) -> String {
        match self {
            Cause::Input(t) => format!("input {}", stg.label_string(t)),
            Cause::Gate(g) => format!(
                "gate {}",
                netlist.net_name(netlist.gates()[g as usize].output)
            ),
        }
    }
}

/// The rank of each key in sorted order, equal keys sharing a rank, so
/// sorting by rank sorts by key.
fn ranks(keys: &[&str]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&i| keys[i]);
    let mut rank = vec![0u32; keys.len()];
    for (k, &i) in order.iter().enumerate() {
        rank[i] = match k.checked_sub(1).map(|p| order[p]) {
            Some(prev) if keys[prev] == keys[i] => rank[prev],
            _ => k as u32,
        };
    }
    rank
}

/// A violation recorded during exploration, before witness decoding.
enum RawViolation {
    UnexpectedOutput { signal: String, state: u32 },
    OutputStuck { state: u32, expected: Vec<String> },
    StateLimit(usize),
}

/// One composed exploration from the settled initial state.
/// Spec-driven (environment) events are the input-signal transitions;
/// every other signal must be driven by a gate of `netlist`.
fn explore(
    stg: &Stg,
    sg: &StateGraph,
    netlist: &Netlist,
    signal_nets: &[NetId],
    net_signal: &[Option<SignalId>],
    options: &VerifyOptions,
    init: Vec<bool>,
) -> VerificationReport {
    let mut hazards: Vec<RawHazard> = Vec::new();
    let mut violations: Vec<RawViolation> = Vec::new();
    let env: Vec<bool> = stg
        .signals()
        .map(|s| stg.signal_kind(s) == SignalKind::Input)
        .collect();

    let mut arena = StateArena::new(netlist.num_nets());
    let start = arena.intern(sg.ts().initial(), &init);
    debug_assert_eq!(start, 0);
    let mut queue: VecDeque<u32> = VecDeque::new();
    queue.push_back(0);

    'bfs: while let Some(si) = queue.pop_front() {
        let (spec, values) = arena.unpack(si);
        // The spec state's `(transition, successor)` arcs, in
        // transition-id order.
        let arcs = || sg.ts().successors(spec);
        let excited = netlist.excited_gates(&values);

        // Conformance: stability vs expected (gate-tracked) activity.
        if excited.is_empty() {
            let expected: Vec<String> = arcs()
                .filter_map(|(&t, _)| {
                    stg.label(t)
                        .filter(|l| !env[l.signal.index()])
                        .map(|_| stg.label_string(t))
                })
                .collect();
            if !expected.is_empty() {
                violations.push(RawViolation::OutputStuck {
                    state: si,
                    expected,
                });
            }
        }

        // Semimodularity for one applied event: every gate excited
        // before it (other than the one that switched) must stay excited.
        let check_hazards =
            |hazards: &mut Vec<RawHazard>, switched: Option<usize>, next: &[bool], cause: Cause| {
                for &g in &excited {
                    if Some(g) == switched {
                        continue;
                    }
                    if !netlist.gate_excited(next, g) {
                        hazards.push(RawHazard {
                            state: si,
                            gate: g as u32,
                            cause,
                        });
                    }
                }
            };

        // Environment events first, then gates — both in id order, so
        // states are discovered in a deterministic order.
        for (&t, succ) in arcs() {
            let Some(label) = stg.label(t) else { continue };
            if !env[label.signal.index()] {
                continue;
            }
            let mut next = values.clone();
            next[signal_nets[label.signal.index()].index()] = label.edge.value_after();
            check_hazards(&mut hazards, None, &next, Cause::Input(t));
            if !enqueue(
                &mut arena,
                &mut queue,
                &mut violations,
                succ,
                &next,
                options.bound,
            ) {
                break 'bfs;
            }
        }
        for &g in &excited {
            let out = netlist.gates()[g].output;
            let new_value = !values[out.index()];
            let mut next = values.clone();
            next[out.index()] = new_value;
            let next_spec = match net_signal[out.index()] {
                None => spec,
                Some(sig) => {
                    // The spec must allow this edge here (first matching
                    // transition in id order).
                    let arc = arcs().find(|&(&t, _)| {
                        stg.label(t)
                            .is_some_and(|l| l.signal == sig && l.edge.value_after() == new_value)
                    });
                    match arc {
                        Some((_, succ)) => succ,
                        None => {
                            violations.push(RawViolation::UnexpectedOutput {
                                signal: netlist.net_name(out).to_owned(),
                                state: si,
                            });
                            continue;
                        }
                    }
                }
            };
            check_hazards(&mut hazards, Some(g), &next, Cause::Gate(g as u32));
            if !enqueue(
                &mut arena,
                &mut queue,
                &mut violations,
                next_spec,
                &next,
                options.bound,
            ) {
                break 'bfs;
            }
        }
    }

    // Deduplicate hazards by (gate, cause text) — the first
    // (lowest-state) witness of each class survives — then decode
    // witnesses once per surviving entry. Hazards sort by (gate name,
    // cause text, state); each distinct gate and cause is rendered once
    // and replaced by its rank in that text order.
    let gate_name = |g: usize| netlist.net_name(netlist.gates()[g].output);
    let gate_rank = ranks(&(0..netlist.num_gates()).map(gate_name).collect::<Vec<_>>());
    let num_transitions = stg.net().num_transitions();
    let mut texts: Vec<Option<String>> = vec![None; num_transitions + netlist.num_gates()];
    for h in &hazards {
        texts[h.cause.index(num_transitions)].get_or_insert_with(|| h.cause.text(stg, netlist));
    }
    // Causes that never occurred rank as "", below every rendered text.
    let text_rank = ranks(
        &texts
            .iter()
            .map(|t| t.as_deref().unwrap_or(""))
            .collect::<Vec<_>>(),
    );
    let cause_rank = |c: Cause| text_rank[c.index(num_transitions)];
    hazards.sort_by_key(|h| (gate_rank[h.gate as usize], cause_rank(h.cause), h.state));
    hazards.dedup_by(|a, b| a.gate == b.gate && cause_rank(a.cause) == cause_rank(b.cause));
    let witness = |state: u32| arena.witness(stg, netlist, signal_nets, state);
    VerificationReport {
        hazards: hazards
            .into_iter()
            .map(|h| HazardWitness {
                state: h.state as usize,
                gate_output: gate_name(h.gate as usize).to_owned(),
                caused_by: texts[h.cause.index(num_transitions)]
                    .clone()
                    .expect("every recorded cause is rendered"),
                witness: witness(h.state),
            })
            .collect(),
        violations: violations
            .into_iter()
            .map(|v| match v {
                RawViolation::UnexpectedOutput { signal, state } => Violation::UnexpectedOutput {
                    signal,
                    state: state as usize,
                    witness: witness(state),
                },
                RawViolation::OutputStuck { state, expected } => Violation::OutputStuck {
                    state: state as usize,
                    expected,
                    witness: witness(state),
                },
                RawViolation::StateLimit(n) => Violation::StateLimit(n),
            })
            .collect(),
        states_explored: arena.len(),
    }
}

/// Interns and enqueues a successor; `false` when the bound was hit
/// (the caller stops exploring and reports what it has).
fn enqueue(
    arena: &mut StateArena,
    queue: &mut VecDeque<u32>,
    violations: &mut Vec<RawViolation>,
    spec: usize,
    values: &[bool],
    bound: usize,
) -> bool {
    match arena.intern_bounded(spec, values, bound) {
        Ok(Some(idx)) => {
            queue.push_back(idx);
            true
        }
        Ok(None) => true,
        Err(()) => {
            violations.push(RawViolation::StateLimit(bound));
            false
        }
    }
}

/// Settles all internal (non-signal) nets; `false` if they oscillate.
fn settle_internals(
    netlist: &Netlist,
    net_signal: &[Option<SignalId>],
    values: &mut [bool],
) -> bool {
    for _ in 0..=netlist.num_gates() {
        let mut changed = false;
        for g in 0..netlist.num_gates() {
            let out = netlist.gates()[g].output;
            if net_signal[out.index()].is_none() {
                let nv = netlist.next_value(values, g);
                if values[out.index()] != nv {
                    values[out.index()] = nv;
                    changed = true;
                }
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Packed composed-state arena
// ---------------------------------------------------------------------

/// Interned composed states: each state is one boxed `[u64]` of
/// `1 + ⌈nets/64⌉` words — the spec's graph state followed by the
/// bit-packed net values. No per-state `Vec<bool>` survives the exploration.
struct StateArena {
    num_nets: usize,
    words: usize,
    index: HashMap<Box<[u64]>, u32>,
    states: Vec<Box<[u64]>>,
}

impl StateArena {
    fn new(num_nets: usize) -> Self {
        StateArena {
            num_nets,
            words: num_nets.div_ceil(64),
            index: HashMap::new(),
            states: Vec::new(),
        }
    }

    fn key(&self, spec: usize, values: &[bool]) -> Box<[u64]> {
        let mut key = vec![0u64; 1 + self.words];
        key[0] = spec as u64;
        for (i, &v) in values.iter().enumerate() {
            if v {
                key[1 + i / 64] |= 1u64 << (i % 64);
            }
        }
        key.into_boxed_slice()
    }

    /// Interns the (always fresh) start state.
    fn intern(&mut self, spec: usize, values: &[bool]) -> u32 {
        self.intern_bounded(spec, values, usize::MAX)
            .expect("no bound")
            .expect("start state is fresh")
    }

    /// Interns a state unless it is already known, building (and
    /// hashing) the packed key exactly once: `Ok(Some(idx))` for a new
    /// state, `Ok(None)` for a known one, `Err(())` when interning
    /// would exceed `bound`.
    fn intern_bounded(
        &mut self,
        spec: usize,
        values: &[bool],
        bound: usize,
    ) -> Result<Option<u32>, ()> {
        let key = self.key(spec, values);
        if self.index.contains_key(&key) {
            return Ok(None);
        }
        if self.states.len() >= bound {
            return Err(());
        }
        let idx = u32::try_from(self.states.len()).expect("composed space fits u32");
        self.index.insert(key.clone(), idx);
        self.states.push(key);
        Ok(Some(idx))
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    /// The spec's graph state and unpacked net values of state `i`.
    fn unpack(&self, i: u32) -> (usize, Vec<bool>) {
        let key = &self.states[i as usize];
        let spec = key[0] as usize;
        let mut values = Vec::with_capacity(self.num_nets);
        for n in 0..self.num_nets {
            values.push(key[1 + n / 64] >> (n % 64) & 1 == 1);
        }
        (spec, values)
    }

    /// Decodes state `i` into a reportable witness: every net's value
    /// plus the spec-signal code (the projection of the net values onto
    /// the signal nets — identical to the spec code by the consistency
    /// invariant, so no backend decode is needed).
    fn witness(&self, stg: &Stg, netlist: &Netlist, signal_nets: &[NetId], i: u32) -> WitnessState {
        let (_, values) = self.unpack(i);
        let nets = (0..netlist.num_nets())
            .map(|n| (netlist.net_name(NetId::from_index(n)).to_owned(), values[n]))
            .collect();
        let spec_code = stg
            .signals()
            .map(|s| {
                if values[signal_nets[s.index()].index()] {
                    '1'
                } else {
                    '0'
                }
            })
            .collect();
        WitnessState { nets, spec_code }
    }
}
