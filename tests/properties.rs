//! Cross-crate property tests: the whole pipeline holds its invariants on
//! randomly generated specifications.

use proptest::prelude::*;
use stg::{SignalEdge, SignalKind, StateGraph, Stg, StgBuilder};

/// Builds a random "handshake chain" STG: `k` signals, each responding to
/// the previous one, closed into a consistent cycle. Always a live, safe
/// marked graph; input/output roles vary with the seed.
fn handshake_chain(k: usize, roles: &[bool]) -> Stg {
    let mut b = StgBuilder::new("chain");
    let sigs: Vec<_> = (0..k)
        .map(|i| {
            let kind = if roles[i % roles.len()] {
                SignalKind::Input
            } else {
                SignalKind::Output
            };
            b.add_signal(format!("s{i}"), kind)
        })
        .collect();
    let rises: Vec<_> = sigs
        .iter()
        .map(|&s| b.add_edge(s, SignalEdge::Rise))
        .collect();
    let falls: Vec<_> = sigs
        .iter()
        .map(|&s| b.add_edge(s, SignalEdge::Fall))
        .collect();
    // s0+ -> s1+ -> ... -> sk-1+ -> s0- -> s1- -> ... -> sk-1- -> s0+
    for i in 0..k - 1 {
        b.connect(rises[i], rises[i + 1]);
        b.connect(falls[i], falls[i + 1]);
    }
    b.connect(rises[k - 1], falls[0]);
    let p = b.connect(falls[k - 1], rises[0]);
    b.mark_place(p, 1);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chains_are_consistent_and_synthesisable(
        k in 2usize..6,
        roles in proptest::collection::vec(any::<bool>(), 1..4),
    ) {
        // Ensure at least one output exists, else there is nothing to do.
        let mut roles = roles;
        roles.push(false);
        let spec = handshake_chain(k, &roles);
        let sg = StateGraph::build(&spec).unwrap();
        // A sequential cycle over 2k edges has exactly 2k states.
        prop_assert_eq!(sg.num_states(), 2 * k);
        let report = stg::properties::check_implementability(&spec, stg::Backend::Explicit);
        prop_assert!(report.bounded && report.consistent);
        if report.is_implementable() {
            let circuit = synth::complex_gate::synthesize_complex_gates(&spec, &sg).unwrap();
            let nets: Vec<synth::NetId> =
                spec.signals().map(|s| circuit.signal_net(s)).collect();
            let v = verify::verify_circuit(&spec, &sg, circuit.netlist(), &nets);
            prop_assert!(v.is_speed_independent(), "{}", v.summary());
        }
    }

    #[test]
    fn g_format_roundtrip_preserves_behaviour(
        k in 2usize..6,
        roles in proptest::collection::vec(any::<bool>(), 1..4),
    ) {
        let spec = handshake_chain(k, &roles);
        let text = stg::parse::write_g(&spec);
        let parsed = stg::parse::parse_g(&text).unwrap();
        let sg1 = StateGraph::build(&spec).unwrap();
        let sg2 = StateGraph::build(&parsed).unwrap();
        prop_assert_eq!(sg1.num_states(), sg2.num_states());
        let t1 = sg1.ts().map_labels(|&t| spec.label_string(t));
        let t2 = sg2.ts().map_labels(|&t| parsed.label_string(t));
        prop_assert!(t1.trace_equivalent(&t2));
    }

    #[test]
    fn regions_roundtrip_on_chains(k in 2usize..5) {
        let spec = handshake_chain(k, &[false]);
        let sg = StateGraph::build(&spec).unwrap();
        let ts = sg.ts().map_labels(|&t| spec.label_string(t));
        let extracted = regions::synthesize_net(&ts).unwrap();
        prop_assert!(extracted.trace_equivalent);
    }

    #[test]
    fn simulation_of_synthesised_chains_never_glitches(
        k in 2usize..5,
        seed in 0u64..50,
    ) {
        let spec = handshake_chain(k, &[true, false]);
        let sg = StateGraph::build(&spec).unwrap();
        let report = stg::properties::check_implementability(&spec, stg::Backend::Explicit);
        prop_assume!(report.is_implementable());
        let circuit = synth::complex_gate::synthesize_complex_gates(&spec, &sg).unwrap();
        let nets: Vec<synth::NetId> = spec.signals().map(|s| circuit.signal_net(s)).collect();
        let config = sim::SimConfig { seed, ..sim::SimConfig::default() };
        let mut simulator =
            sim::Simulator::new(&spec, &sg, circuit.netlist().clone(), nets, config);
        let stats = simulator.run(2_000.0);
        prop_assert_eq!(stats.glitches, 0);
    }
}
