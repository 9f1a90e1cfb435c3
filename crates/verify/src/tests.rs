//! Verification tests: Fig. 8 circuits accepted, Fig. 9b-style
//! decompositions rejected.

use boolmin::Expr;
use stg::examples::{toggle, vme_read_csc};
use stg::StateGraph;
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::latch_arch::{synthesize_latch_circuit, LatchStyle};
use synth::{GateKind, NetId, Netlist};

use crate::{verify_with, VerifyOptions};

fn signal_nets_of<C>(
    stg: &stg::Stg,
    net_of: impl Fn(stg::SignalId) -> NetId,
    _c: &C,
) -> Vec<NetId> {
    stg.signals().map(net_of).collect()
}

#[test]
fn complex_gate_vme_is_speed_independent() {
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let nets = signal_nets_of(&stg, |s| circuit.signal_net(s), &circuit);
    let report = verify_with(
        &stg,
        &sg,
        circuit.netlist(),
        &nets,
        &VerifyOptions::default(),
    );
    assert!(report.is_speed_independent(), "{}", report.summary());
}

#[test]
fn latch_architectures_are_speed_independent() {
    // Fig. 8: both the C-element and the RS-latch implementations are
    // hazard-free — certified per §3.4 by (a) the strict Muller-model
    // check on the atomic equivalent and (b) the monotonous-cover
    // condition on the set/reset networks.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    for style in [LatchStyle::CElement, LatchStyle::RsLatch] {
        let circ = synthesize_latch_circuit(&stg, &sg, style).unwrap();
        let (atomic, nets) = circ.atomic_netlist(&stg);
        let report = verify_with(&stg, &sg, &atomic, &nets, &VerifyOptions::default());
        assert!(
            report.is_speed_independent(),
            "style {style:?}: {}",
            report.summary()
        );
        let violations = synth::latch_arch::monotonic_violations(&stg, &sg, &circ.covers);
        assert!(violations.is_empty(), "style {style:?}: {violations:?}");
    }
}

#[test]
fn naive_decomposition_is_hazardous_fig9b() {
    // The naive two-input decomposition keeps D = LDTACK·csc0 and uses
    // map0 = csc0 + LDTACK' only inside csc0 — the paper's Fig. 9b shape.
    // map0's falling edge is never acknowledged: hazard.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let dec = decompose(&stg, &circuit, 2);
    let nets = signal_nets_of(&stg, |s| dec.signal_net(s), &dec);
    let report = verify_with(&stg, &sg, dec.netlist(), &nets, &VerifyOptions::default());
    assert!(
        !report.hazards.is_empty(),
        "expected a hazard: {}",
        report.summary()
    );
    assert!(report
        .hazards
        .iter()
        .any(|h| h.gate_output.starts_with("map")));
}

#[test]
fn resubstituted_decomposition_is_speed_independent_fig9a() {
    // Resubstitution rewrites D = LDTACK·map0, giving map0 the multiple
    // acknowledgment of Fig. 9a; the checker accepts it.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let dec = decompose(&stg, &circuit, 2);
    let resub = resubstitute(&stg, &sg, &dec);
    let nets = signal_nets_of(&stg, |s| resub.signal_net(s), &resub);
    let report = verify_with(&stg, &sg, resub.netlist(), &nets, &VerifyOptions::default());
    assert!(report.is_speed_independent(), "{}", report.summary());
    // The D gate now reads map0.
    let d_net = resub.signal_net(stg.signal_by_name("D").unwrap());
    let d_gate = resub.netlist().driver_of(d_net).unwrap();
    let input_names: Vec<&str> = resub.netlist().gates()[d_gate]
        .inputs
        .iter()
        .map(|n| resub.netlist().net_name(*n))
        .collect();
    assert!(
        input_names.iter().any(|n| n.starts_with("map")),
        "D should be fed by the shared map net: {input_names:?}"
    );
}

#[test]
fn wrong_gate_is_rejected() {
    // Implement toggle's x with an inverter instead of a buffer: the
    // circuit immediately produces x+ when the spec does not allow it.
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let not = Expr::not(Expr::Var(0));
    let x = n.add_gate("x", GateKind::Complex(not), vec![a]);
    let report = verify_with(&stg, &sg, &n, &[a, x], &VerifyOptions::default());
    assert!(!report.is_speed_independent());
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, crate::Violation::UnexpectedOutput { .. })));
}

#[test]
fn stuck_circuit_is_rejected() {
    // Implement x as constant 0: the spec expects x+ after a+, but the
    // circuit never produces it.
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let x = n.add_gate("x", GateKind::Complex(Expr::Const(false)), vec![]);
    let report = verify_with(&stg, &sg, &n, &[a, x], &VerifyOptions::default());
    assert!(!report.is_speed_independent());
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, crate::Violation::OutputStuck { .. })));
}

#[test]
fn correct_toggle_accepted() {
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let nets: Vec<NetId> = stg.signals().map(|s| circuit.signal_net(s)).collect();
    let report = verify_with(
        &stg,
        &sg,
        circuit.netlist(),
        &nets,
        &VerifyOptions::default(),
    );
    assert!(report.is_speed_independent(), "{}", report.summary());
}

// ---------------------------------------------------------------------
// The verification engine under explicit options
// ---------------------------------------------------------------------

/// `netlist` verified on the state graph of `stg`, twice: the engine is
/// deterministic, so both runs must report byte-for-byte the same.
fn verified_twice(
    stg: &stg::Stg,
    netlist: &Netlist,
    nets: &[NetId],
    options: &VerifyOptions,
) -> crate::VerificationReport {
    let sg = StateGraph::build(stg).unwrap();
    let report = verify_with(stg, &sg, netlist, nets, options);
    assert_eq!(verify_with(stg, &sg, netlist, nets, options), report);
    report
}

#[test]
fn strategies_explore_identically_on_passing_and_failing_circuits() {
    // Passing: the complex-gate VME circuit. Failing: its naive
    // decomposition (Fig. 9b). Reports — hazards, violations, decoded
    // witnesses, states_explored — must be byte-for-byte reproducible.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let nets = signal_nets_of(&stg, |s| circuit.signal_net(s), &circuit);
    let options = VerifyOptions::default();
    let report = verified_twice(&stg, circuit.netlist(), &nets, &options);
    assert!(report.is_speed_independent());
    assert_eq!(
        report,
        verify_with(
            &stg,
            &sg,
            circuit.netlist(),
            &nets,
            &VerifyOptions::default()
        ),
        "default options"
    );

    let dec = decompose(&stg, &circuit, 2);
    let dnets = signal_nets_of(&stg, |s| dec.signal_net(s), &dec);
    let report = verified_twice(&stg, dec.netlist(), &dnets, &options);
    assert!(!report.is_speed_independent());
}

#[test]
fn bound_hit_is_reported_identically_by_both_strategies() {
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let nets = signal_nets_of(&stg, |s| circuit.signal_net(s), &circuit);
    let options = VerifyOptions::default().with_bound(5);
    let report = verified_twice(&stg, circuit.netlist(), &nets, &options);
    assert!(report.hit_state_limit(), "bound must be hit");
    assert_eq!(report.states_explored, 5);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, crate::Violation::StateLimit(5))));
}

#[test]
fn witnesses_decode_the_offending_state() {
    // The inverter-for-buffer circuit produces x+ when the spec does
    // not allow it; the violation must carry the decoded composed state
    // instead of an opaque index.
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let not = Expr::not(Expr::Var(0));
    let x = n.add_gate("x", GateKind::Complex(not), vec![a]);
    let report = verify_with(&stg, &sg, &n, &[a, x], &VerifyOptions::default());
    let witness = report
        .violations
        .iter()
        .find_map(|v| match v {
            crate::Violation::UnexpectedOutput { witness, .. } => Some(witness),
            _ => None,
        })
        .expect("unexpected-output violation");
    assert_eq!(witness.nets.len(), 2, "one entry per net");
    assert_eq!(witness.nets[0].0, "a");
    assert_eq!(witness.nets[1].0, "x");
    assert_eq!(witness.spec_code.len(), stg.num_signals());
    // Display is self-contained (code + net values).
    let text = report.violations[0].to_string();
    assert!(text.contains("code"), "{text}");
    assert!(text.contains("a="), "{text}");
}
