//! Complex-gate synthesis (§3.2): one atomic gate per non-input signal.
//!
//! *"A well known result in the theory of asynchronous circuits is that any
//! circuit implementing the next-state function of each signal with only
//! one atomic complex gate is speed independent."*

use boolmin::Expr;
use stg::{SignalId, StateGraph, Stg};

use crate::netlist::{GateKind, NetId, Netlist};
use crate::nextstate::{all_equations, Equation, SynthesisError};

/// A synthesised speed-independent circuit: equations plus the
/// corresponding netlist of atomic complex gates (with feedback where the
/// function depends on the implemented signal itself).
#[derive(Debug, Clone)]
pub struct ComplexGateCircuit {
    equations: Vec<Equation>,
    netlist: Netlist,
    /// Net of each signal (indexed by signal id).
    signal_nets: Vec<NetId>,
}

impl ComplexGateCircuit {
    /// The minimised equations, in signal order.
    #[must_use]
    pub fn equations(&self) -> &[Equation] {
        &self.equations
    }

    /// The equation for `signal`, if it is a non-input.
    #[must_use]
    pub fn equation(&self, signal: SignalId) -> Option<&Equation> {
        self.equations.iter().find(|e| e.signal == signal)
    }

    /// The netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The net carrying `signal`.
    #[must_use]
    pub fn signal_net(&self, signal: SignalId) -> NetId {
        self.signal_nets[signal.index()]
    }

    /// Renders all equations with signal names, one per line.
    #[must_use]
    pub fn display_equations(&self, stg: &Stg) -> String {
        self.equations
            .iter()
            .map(|e| e.display(stg))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Synthesises the complex-gate implementation of an STG whose state graph
/// satisfies CSC.
///
/// # Errors
///
/// Propagates [`SynthesisError::CscConflict`] when the state graph is not
/// CSC — resolve conflicts first (see [`crate::csc`]).
pub fn synthesize_complex_gates(
    stg: &Stg,
    sg: &StateGraph,
) -> Result<ComplexGateCircuit, SynthesisError> {
    let equations = all_equations(stg, sg)?;
    let mut netlist = Netlist::new();
    // Nets: one per signal, inputs first (declared as primary), non-inputs
    // get gates in a second pass so feedback works.
    let mut signal_nets: Vec<Option<NetId>> = vec![None; stg.num_signals()];
    for s in stg.signals() {
        if !stg.signal_kind(s).is_non_input() {
            signal_nets[s.index()] = Some(netlist.add_input(stg.signal_name(s)));
        }
    }
    // Pre-allocate output nets by adding gates in two phases is not
    // possible (a gate needs its input nets); instead declare non-input
    // nets as inputs of a *builder* pass, then rebuild. Simpler: compute
    // the support order and create gates with placeholder inputs resolved
    // by name at the end. We avoid that complexity by creating all
    // non-input nets as gates whose inputs may include nets created later:
    // NetIds are dense and predictable, so reserve them first.
    //
    // Reserve: create each non-input gate with empty inputs, patch after.
    // `Netlist` has no patching API by design; instead synthesise in
    // topological-free form: create gates in signal order, but reference
    // input nets by pre-computed ids. To know ids up front, create the
    // non-input nets as primary inputs in a scratch netlist first is
    // overkill — the net id layout below is: inputs in declaration order,
    // then one net per non-input in signal order.
    let num_inputs = signal_nets.iter().filter(|n| n.is_some()).count();
    let mut next_id = num_inputs as u32;
    for s in stg.signals() {
        if stg.signal_kind(s).is_non_input() {
            signal_nets[s.index()] = Some(crate::netlist::NetId(next_id));
            next_id += 1;
        }
    }
    let resolved: Vec<NetId> = signal_nets
        .iter()
        .map(|n| n.expect("every signal got a net"))
        .collect();
    for eq in &equations {
        // Gate inputs: the support signals of the cover, in signal order.
        let support: Vec<usize> = (0..stg.num_signals())
            .filter(|&v| {
                eq.cover
                    .cubes()
                    .iter()
                    .any(|c| c.literal(v) != boolmin::Literal::DontCare)
            })
            .collect();
        // Remap the cover expression onto input positions.
        let expr = remap_expr(&Expr::from_cover(&eq.cover), &support);
        let inputs: Vec<NetId> = support.iter().map(|&v| resolved[v]).collect();
        let out = netlist.add_gate(stg.signal_name(eq.signal), GateKind::Complex(expr), inputs);
        debug_assert_eq!(out, resolved[eq.signal.index()], "net id layout must match");
    }
    Ok(ComplexGateCircuit {
        equations,
        netlist,
        signal_nets: resolved,
    })
}

/// Rewrites expression variables (signal indices) into positions of the
/// `support` list.
fn remap_expr(e: &Expr, support: &[usize]) -> Expr {
    match e {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(v) => {
            let pos = support
                .iter()
                .position(|&s| s == *v)
                .expect("support covers all used variables");
            Expr::Var(pos)
        }
        Expr::Not(inner) => Expr::not(remap_expr(inner, support)),
        Expr::And(parts) => Expr::and(parts.iter().map(|p| remap_expr(p, support)).collect()),
        Expr::Or(parts) => Expr::or(parts.iter().map(|p| remap_expr(p, support)).collect()),
    }
}

/// Checks that a circuit's stable points agree with the SG: in every state
/// of the SG, each gate's next value equals the signal's next-state
/// function value (1 on `ER+∪QR+`). A quick sanity check used by tests;
/// full speed-independence is the `verify` crate's job.
#[must_use]
pub fn circuit_matches_sg(stg: &Stg, sg: &StateGraph, circuit: &ComplexGateCircuit) -> bool {
    for s in 0..sg.num_states() {
        // Net values = signal values (net ids are a permutation of
        // signals; build the value vector by net index).
        let mut values = vec![false; circuit.netlist().num_nets()];
        for sig in stg.signals() {
            values[circuit.signal_net(sig).index()] = sg.value(s, sig);
        }
        for eq in circuit.equations() {
            let g = circuit
                .netlist()
                .driver_of(circuit.signal_net(eq.signal))
                .expect("non-input signals are driven");
            let expect = {
                let regions = crate::regions::signal_regions(stg, sg, eq.signal);
                regions.on_states().contains(&s)
            };
            if circuit.netlist().next_value(&values, g) != expect {
                return false;
            }
        }
    }
    true
}
