//! Logic decomposition into bounded fan-in gates (§3.3–3.4, Fig. 9).
//!
//! Complex gates may be *"too complex to be mapped into one gate available
//! in the library"*. Decomposition breaks each next-state function into
//! small gates connected by new internal nets; whether the result is
//! hazard-free depends on every internal transition being *acknowledged*
//! by some other gate (the `map0` discussion of Fig. 9) — that check is
//! the `verify` crate's speed-independence analysis, run on the candidate
//! netlists produced here.

use std::collections::HashMap;

use boolmin::factor::{bound_fanin, factor_cover};
use boolmin::Expr;
use stg::{SignalId, StateGraph, Stg};

use crate::complex_gate::ComplexGateCircuit;
use crate::netlist::{GateKind, NetId, Netlist};

/// A decomposed circuit: bounded fan-in netlist plus the mapping from
/// signals to nets.
#[derive(Debug, Clone)]
pub struct DecomposedCircuit {
    netlist: Netlist,
    signal_nets: Vec<NetId>,
    /// Names of the internal nets introduced by decomposition
    /// (`map0`, `map1`, …).
    pub new_nets: Vec<String>,
}

impl DecomposedCircuit {
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
}

/// Decomposes a complex-gate circuit into gates of fan-in at most
/// `max_fanin`, introducing `mapN` internal nets for shared subfunctions.
///
/// Identical subexpressions over identical inputs are shared between
/// signals — the *multiple acknowledgment* opportunity Fig. 9a exploits
/// (`map0` feeds both `csc0` and `D`).
///
/// # Panics
///
/// Panics if `max_fanin < 2`.
#[must_use]
pub fn decompose(stg: &Stg, circuit: &ComplexGateCircuit, max_fanin: usize) -> DecomposedCircuit {
    assert!(max_fanin >= 2);
    let mut netlist = Netlist::new();
    let mut signal_nets: Vec<Option<NetId>> = vec![None; stg.num_signals()];
    for s in stg.signals() {
        if !stg.signal_kind(s).is_non_input() {
            signal_nets[s.index()] = Some(netlist.add_input(stg.signal_name(s)));
        }
    }
    // Outputs may feed back into their own or each other's logic, so their
    // net ids must exist before gates that reference them are emitted. We
    // build gate *descriptions* first (operating on signal indices), then
    // emit in an order where ids are pre-reserved.
    //
    // Description tree per signal: factored, fan-in bounded expression
    // over signal indices.
    let mut exprs: Vec<(SignalId, Expr)> = Vec::new();
    for eq in circuit.equations() {
        let factored = factor_cover(&eq.cover);
        exprs.push((eq.signal, bound_fanin(&factored, max_fanin)));
    }
    // Pass 1: count internal gates. Each non-leaf operator node becomes a
    // gate; the root gate drives the signal net. Shared subtrees (same
    // shape over the same signal variables) are emitted once.
    let mut share: HashMap<String, usize> = HashMap::new(); // key -> gate slot
    let mut internal_gates: Vec<(String, Expr)> = Vec::new(); // (key, expr over signals)
    for (_, e) in &exprs {
        plan_gates(e, &mut share, &mut internal_gates, true);
    }
    // Net id layout: [inputs][internal mapN gates][signal outputs].
    let num_inputs = netlist.num_nets();
    let first_output = num_inputs + internal_gates.len();
    for (i, eq) in circuit.equations().iter().enumerate() {
        signal_nets[eq.signal.index()] = Some(crate::netlist::NetId((first_output + i) as u32));
    }
    let internal_net_of = |slot: usize| crate::netlist::NetId((num_inputs + slot) as u32);
    // Pass 2: emit internal gates (they may reference signal outputs and
    // other internal nets — ids are all reserved).
    let mut new_nets = Vec::new();
    let resolve_child = |child: &Expr,
                         share: &HashMap<String, usize>,
                         signal_nets: &[Option<NetId>]|
     -> Option<(NetId, bool)> {
        // Returns (net, negated?) when the child is a wire-able leaf.
        match child {
            Expr::Var(v) => Some((signal_nets[*v].expect("net"), false)),
            Expr::Not(inner) => match &**inner {
                Expr::Var(v) => Some((signal_nets[*v].expect("net"), true)),
                _ => {
                    let key = expr_key(child);
                    share.get(&key).map(|&slot| (internal_net_of(slot), false))
                }
            },
            _ => {
                let key = expr_key(child);
                share.get(&key).map(|&slot| (internal_net_of(slot), false))
            }
        }
    };
    for (slot, (key, expr)) in internal_gates.iter().enumerate() {
        let name = format!("map{slot}");
        new_nets.push(name.clone());
        let (gate_expr, inputs) =
            gate_from_children(expr, &share, &signal_nets, &resolve_child, slot);
        let out = netlist.add_gate(name, GateKind::Complex(gate_expr), inputs);
        debug_assert_eq!(out, internal_net_of(slot), "layout mismatch for {key}");
    }
    // Pass 3: emit the root gates driving the signals.
    for (signal, e) in &exprs {
        let (gate_expr, inputs) =
            gate_from_children(e, &share, &signal_nets, &resolve_child, usize::MAX);
        let out = netlist.add_gate(
            stg.signal_name(*signal),
            GateKind::Complex(gate_expr),
            inputs,
        );
        debug_assert_eq!(out, signal_nets[signal.index()].expect("reserved"));
    }
    DecomposedCircuit {
        netlist,
        signal_nets: signal_nets
            .into_iter()
            .map(|n| n.expect("assigned"))
            .collect(),
        new_nets,
    }
}

/// Registers every non-root operator subtree as an internal gate slot
/// (shared by key).
fn plan_gates(
    e: &Expr,
    share: &mut HashMap<String, usize>,
    gates: &mut Vec<(String, Expr)>,
    is_root: bool,
) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Not(inner) => {
            if matches!(**inner, Expr::Var(_)) {
                return; // negated literal: folded into the consuming gate
            }
            plan_gates(inner, share, gates, false);
            if !is_root {
                register(e, share, gates);
            }
        }
        Expr::And(parts) | Expr::Or(parts) => {
            for p in parts {
                plan_gates(p, share, gates, false);
            }
            if !is_root {
                register(e, share, gates);
            }
        }
    }
}

fn register(e: &Expr, share: &mut HashMap<String, usize>, gates: &mut Vec<(String, Expr)>) {
    let key = expr_key(e);
    if !share.contains_key(&key) {
        share.insert(key.clone(), gates.len());
        gates.push((key, e.clone()));
    }
}

/// Serialises an expression over signal indices into a canonical share key.
fn expr_key(e: &Expr) -> String {
    match e {
        Expr::Const(b) => format!("c{}", u8::from(*b)),
        Expr::Var(v) => format!("v{v}"),
        Expr::Not(i) => format!("!({})", expr_key(i)),
        Expr::And(p) => {
            let mut keys: Vec<String> = p.iter().map(expr_key).collect();
            keys.sort();
            format!("&({})", keys.join(","))
        }
        Expr::Or(p) => {
            let mut keys: Vec<String> = p.iter().map(expr_key).collect();
            keys.sort();
            format!("|({})", keys.join(","))
        }
    }
}

/// Builds the shallow gate expression for `e`: children become input pins
/// (internal nets or signal nets), negated literals fold into the pin
/// expression.
fn gate_from_children(
    e: &Expr,
    share: &HashMap<String, usize>,
    signal_nets: &[Option<NetId>],
    resolve_child: &impl Fn(&Expr, &HashMap<String, usize>, &[Option<NetId>]) -> Option<(NetId, bool)>,
    _slot: usize,
) -> (Expr, Vec<NetId>) {
    let mut inputs: Vec<NetId> = Vec::new();
    let pin = |net: NetId, negated: bool, inputs: &mut Vec<NetId>| -> Expr {
        let pos = match inputs.iter().position(|&n| n == net) {
            Some(p) => p,
            None => {
                inputs.push(net);
                inputs.len() - 1
            }
        };
        if negated {
            Expr::not(Expr::Var(pos))
        } else {
            Expr::Var(pos)
        }
    };
    let children: Vec<Expr> = match e {
        Expr::And(parts) | Expr::Or(parts) => parts.clone(),
        Expr::Not(inner) => vec![(**inner).clone()],
        other => vec![other.clone()],
    };
    let mut pins = Vec::with_capacity(children.len());
    for child in &children {
        let (net, neg) = resolve_child(child, share, signal_nets)
            .expect("all operator subtrees were planned as gates");
        pins.push(pin(net, neg, &mut inputs));
    }
    let gate_expr = match e {
        Expr::And(_) => Expr::and(pins),
        Expr::Or(_) => Expr::or(pins),
        Expr::Not(_) => Expr::not(pins.pop().expect("single child")),
        _ => pins.pop().expect("single child"),
    };
    (gate_expr, inputs)
}

/// Resubstitution (§3.4: *"using candidates for decomposition extracted by
/// algebraic factorization and Boolean relations"* + *"hazard-free signal
/// insertion with multiple acknowledgment"*): re-expresses every output
/// gate over the extended variable set *signals ∪ internal nets*, with
/// don't-cares from unreachable extended codes.
///
/// Because an internal net like `map0 = csc0 + LDTACK'` dominates the
/// literals it replaces, extended primes absorb the original ones and the
/// minimiser lands on the multiply-acknowledged solution of Fig. 9a
/// (`D = LDTACK·map0` instead of `D = LDTACK·csc0`).
#[must_use]
pub fn resubstitute(stg: &Stg, sg: &StateGraph, dec: &DecomposedCircuit) -> DecomposedCircuit {
    use boolmin::{minimize_exact, Cover, Cube, IncompleteFunction};

    let netlist = dec.netlist();
    let num_signals = stg.num_signals();
    // Extended variables: signals first, then internal (non-signal) nets.
    let signal_net_set: Vec<NetId> = stg.signals().map(|s| dec.signal_net(s)).collect();
    let internal_nets: Vec<NetId> = (0..netlist.num_nets())
        .map(|i| crate::netlist::NetId(i as u32))
        .filter(|n| !signal_net_set.contains(n))
        .collect();
    let num_ext = num_signals + internal_nets.len();

    // Extended code per SG state: settle internal nets combinationally.
    // Internal-net membership is a bitmask and the fixed point stops at
    // the first unchanged sweep (the settled-internal computation is the
    // inner loop of the whole repair path — it runs once per SG state).
    let is_internal = {
        let mut mask = vec![false; netlist.num_nets()];
        for n in &internal_nets {
            mask[n.index()] = true;
        }
        mask
    };
    let extended_code = |state: usize| -> Vec<bool> {
        let mut values = vec![false; netlist.num_nets()];
        for s in stg.signals() {
            values[dec.signal_net(s).index()] = sg.value(state, s);
        }
        for _ in 0..netlist.num_gates() + 1 {
            let mut changed = false;
            for g in 0..netlist.num_gates() {
                let out = netlist.gates()[g].output;
                if is_internal[out.index()] {
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
        }
        let mut code: Vec<bool> = stg
            .signals()
            .map(|s| values[dec.signal_net(s).index()])
            .collect();
        for n in &internal_nets {
            code.push(values[n.index()]);
        }
        code
    };
    let ext_codes: Vec<Vec<bool>> = (0..sg.num_states()).map(extended_code).collect();

    // Re-derive each output cover over the extended space.
    let mut new_covers: Vec<(SignalId, Cover)> = Vec::new();
    for sig in stg.non_input_signals() {
        let regions = crate::regions::signal_regions(stg, sg, sig);
        let on_states = regions.on_states();
        let mut on = Cover::from_cubes(
            num_ext,
            on_states
                .iter()
                .map(|&s| Cube::from_minterm(&ext_codes[s]))
                .collect(),
        );
        on.remove_contained();
        let mut off = Cover::from_cubes(
            num_ext,
            regions
                .off_states()
                .iter()
                .map(|&s| Cube::from_minterm(&ext_codes[s]))
                .collect(),
        );
        off.remove_contained();
        let dc = on.union(&off).complement();
        let f = IncompleteFunction::new(on, dc);
        new_covers.push((sig, minimize_exact(&f)));
    }

    // Rebuild the netlist: inputs, internal gates unchanged, output gates
    // use the new covers (over signal and internal nets).
    let mut out = Netlist::new();
    let mut signal_nets: Vec<Option<NetId>> = vec![None; num_signals];
    for s in stg.signals() {
        if !stg.signal_kind(s).is_non_input() {
            signal_nets[s.index()] = Some(out.add_input(stg.signal_name(s)));
        }
    }
    let num_inputs = out.num_nets();
    // Layout: [inputs][internal gates][output gates] — same as decompose.
    let internal_base = num_inputs;
    let output_base = internal_base + internal_nets.len();
    let mut net_map: Vec<Option<NetId>> = vec![None; netlist.num_nets()];
    for (k, n) in internal_nets.iter().enumerate() {
        net_map[n.index()] = Some(crate::netlist::NetId((internal_base + k) as u32));
    }
    for (k, sig) in stg.non_input_signals().iter().enumerate() {
        let nid = crate::netlist::NetId((output_base + k) as u32);
        signal_nets[sig.index()] = Some(nid);
        net_map[dec.signal_net(*sig).index()] = Some(nid);
    }
    for s in stg.signals() {
        if !stg.signal_kind(s).is_non_input() {
            net_map[dec.signal_net(s).index()] = signal_nets[s.index()];
        }
    }
    // Ext var -> new net id.
    let ext_net = |v: usize| -> NetId {
        if v < num_signals {
            signal_nets[v].expect("signal mapped")
        } else {
            crate::netlist::NetId((internal_base + (v - num_signals)) as u32)
        }
    };
    // Emit internal gates with remapped inputs.
    let mut new_nets = Vec::new();
    for (k, n) in internal_nets.iter().enumerate() {
        let g = netlist.driver_of(*n).expect("internal nets are driven");
        let gate = &netlist.gates()[g];
        let inputs: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|i| net_map[i.index()].expect("all nets mapped"))
            .collect();
        let name = format!("map{k}");
        new_nets.push(name.clone());
        let nid = out.add_gate(name, gate.kind.clone(), inputs);
        debug_assert_eq!(nid.index(), internal_base + k);
    }
    // Emit output gates from the new covers.
    for (sig, cover) in &new_covers {
        let support: Vec<usize> = (0..num_ext)
            .filter(|&v| {
                cover
                    .cubes()
                    .iter()
                    .any(|c| c.literal(v) != boolmin::Literal::DontCare)
            })
            .collect();
        let expr = {
            let raw = Expr::from_cover(cover);
            remap_to_positions(&raw, &support)
        };
        let inputs: Vec<NetId> = support.iter().map(|&v| ext_net(v)).collect();
        let nid = out.add_gate(stg.signal_name(*sig), GateKind::Complex(expr), inputs);
        debug_assert_eq!(nid, signal_nets[sig.index()].expect("reserved"));
    }
    DecomposedCircuit {
        netlist: out,
        signal_nets: signal_nets
            .into_iter()
            .map(|n| n.expect("assigned"))
            .collect(),
        new_nets,
    }
}

fn remap_to_positions(e: &Expr, support: &[usize]) -> Expr {
    match e {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(v) => Expr::Var(support.iter().position(|&s| s == *v).expect("in support")),
        Expr::Not(i) => Expr::not(remap_to_positions(i, support)),
        Expr::And(p) => Expr::and(p.iter().map(|x| remap_to_positions(x, support)).collect()),
        Expr::Or(p) => Expr::or(p.iter().map(|x| remap_to_positions(x, support)).collect()),
    }
}
