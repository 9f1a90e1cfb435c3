//! Unit tests for the synthesis crate, anchored to §3 of the paper.

use stg::examples::{toggle, vme_read, vme_read_csc};
use stg::StateGraph;

use crate::complex_gate::{circuit_matches_sg, synthesize_complex_gates};
use crate::csc::{
    concurrency_reduction_sweep, insertion_sweep, resolve_mixed_sweep, SweepOptions,
    MIXED_MAX_STEPS,
};
use crate::decompose::decompose;
use crate::latch_arch::{
    monotonic_violations, set_reset_covers, synthesize_latch_circuit, LatchStyle,
};
use crate::library::{map_to_library, Library};
use crate::netlist::{GateKind, Netlist};
use crate::nextstate::{all_equations, derive_function, equation_exact, SynthesisError};
use crate::regions::signal_regions;

fn vme_csc_sg() -> (stg::Stg, StateGraph) {
    let s = vme_read_csc();
    let sg = StateGraph::build(&s).unwrap();
    (s, sg)
}

#[test]
fn regions_partition_the_state_graph() {
    let (stg, sg) = vme_csc_sg();
    for s in stg.non_input_signals() {
        let r = signal_regions(&stg, &sg, s);
        let total = r.er_plus.len() + r.er_minus.len() + r.qr_plus.len() + r.qr_minus.len();
        assert_eq!(total, sg.num_states(), "regions partition states");
    }
}

#[test]
fn next_state_function_lds_matches_paper_table() {
    // §3.2's table gives f_LDS at several states of Fig. 7's SG.
    let (stg, sg) = vme_csc_sg();
    let lds = stg.signal_by_name("LDS").unwrap();
    let f = derive_function(&stg, &sg, lds).unwrap();
    // Signal order: DSr, DTACK, LDTACK, LDS, D, csc0.
    // State 100001 (DSr high, csc0 high): ER(LDS+) => f = 1.
    assert_eq!(
        f.value(&[true, false, false, false, false, true]),
        Some(true)
    );
    // State 101111: QR(LDS+) => 1.
    assert_eq!(f.value(&[true, false, true, true, true, true]), Some(true));
    // State 101100 (LDS high, csc0 low): ER(LDS-) => 0.
    assert_eq!(
        f.value(&[true, false, true, true, false, false]),
        Some(false)
    );
    // State 000000: QR(LDS-) => 0.
    assert_eq!(
        f.value(&[false, false, false, false, false, false]),
        Some(false)
    );
}

#[test]
fn equations_match_section_3_2() {
    // D = LDTACK csc0; LDS = D + csc0; DTACK = D;
    // csc0 = DSr (csc0 + LDTACK').
    let (stg, sg) = vme_csc_sg();
    let names = stg.signal_names();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let get = |n: &str| {
        let sig = stg.signal_by_name(n).unwrap();
        circuit.equation(sig).unwrap().cover.to_expr_string(&names)
    };
    assert_eq!(get("D"), "LDTACK csc0");
    assert_eq!(get("DTACK"), "D");
    assert_eq!(get("LDS"), "D + csc0");
    // csc0 = DSr csc0 + DSr LDTACK' (the factored form of the paper).
    let csc0 = get("csc0");
    assert!(
        csc0 == "DSr csc0 + DSr LDTACK'" || csc0 == "DSr LDTACK' + DSr csc0",
        "csc0 = {csc0}"
    );
}

#[test]
fn complex_gate_circuit_is_consistent_with_sg() {
    let (stg, sg) = vme_csc_sg();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    assert!(circuit_matches_sg(&stg, &sg, &circuit));
    // Three output gates + one internal gate.
    assert_eq!(circuit.netlist().num_gates(), 4);
}

#[test]
fn synthesis_rejects_csc_conflicts() {
    let stg = vme_read();
    let sg = StateGraph::build(&stg).unwrap();
    let lds = stg.signal_by_name("LDS").unwrap();
    match equation_exact(&stg, &sg, lds) {
        Err(SynthesisError::CscConflict { code, .. }) => assert_eq!(code, "10110"),
        other => panic!("expected CSC conflict, got {other:?}"),
    }
}

#[test]
fn csc_insertion_fixes_vme_read() {
    let stg = vme_read();
    let sweep = insertion_sweep(
        &stg,
        &SweepOptions::default(),
        &StateGraph::build(&stg).expect("base builds"),
    );
    let res = sweep
        .candidates
        .into_iter()
        .next()
        .expect("a single csc signal suffices");
    let sg = StateGraph::build(&res.stg).unwrap();
    assert!(stg::encoding::has_csc(&res.stg, &sg));
    assert_eq!(res.num_states, 16, "Fig. 7's SG has 16 states");
    // The whole flow must now synthesise.
    let circuit = synthesize_complex_gates(&res.stg, &sg).unwrap();
    assert!(circuit_matches_sg(&res.stg, &sg, &circuit));
}

#[test]
fn concurrency_reduction_fixes_vme_read() {
    // §2.1: "signal transition DTACK- can be delayed until LDS- fires".
    let stg = vme_read();
    let res = concurrency_reduction_sweep(
        &stg,
        &SweepOptions::default(),
        &StateGraph::build(&stg).expect("base builds"),
    )
    .candidates
    .pop()
    .expect("a reduction exists");
    let sg = StateGraph::build(&res.stg).unwrap();
    assert!(stg::encoding::has_csc(&res.stg, &sg));
    assert!(res.num_states < 14, "reduction removes states");
    assert!(
        res.description.contains("DTACK-") || res.description.contains("LDS-"),
        "unexpected reduction: {}",
        res.description
    );
}

#[test]
fn csc_resolution_on_already_clean_stg_is_identity() {
    let stg = vme_read_csc();
    let sweep = resolve_mixed_sweep(
        &stg,
        0,
        &SweepOptions::default(),
        &StateGraph::build(&stg).expect("base builds"),
    );
    assert_eq!(sweep.stats.grid, 0, "no move grid was swept");
    let [res] = &sweep.candidates[..] else {
        panic!("a clean spec resolves without a step");
    };
    assert!(res.description.contains("already holds"));
    assert_eq!(res.num_states, 16);
    assert_eq!(res.space.num_states(), 16, "space carried");
}

#[test]
fn latch_architectures_build_for_vme() {
    let (stg, sg) = vme_csc_sg();
    for style in [LatchStyle::CElement, LatchStyle::RsLatch] {
        let circ = synthesize_latch_circuit(&stg, &sg, style).unwrap();
        assert_eq!(circ.covers.len(), 4); // DTACK, LDS, D, csc0
                                          // Latches exist for every non-input signal.
        let latches = circ
            .netlist()
            .gates()
            .iter()
            .filter(|g| !matches!(g.kind, GateKind::Complex(_)))
            .count();
        assert_eq!(latches, 4);
        let violations = monotonic_violations(&stg, &sg, &circ.covers);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

#[test]
fn set_reset_covers_of_csc0() {
    // From csc0 = DSr(csc0 + LDTACK'): set = DSr LDTACK', reset = DSr'.
    let (stg, sg) = vme_csc_sg();
    let names = stg.signal_names();
    let csc0 = stg.signal_by_name("csc0").unwrap();
    let c = set_reset_covers(&stg, &sg, csc0).unwrap();
    assert_eq!(c.set.to_expr_string(&names), "DSr LDTACK'");
    assert_eq!(c.reset.to_expr_string(&names), "DSr'");
}

#[test]
fn toggle_synthesis_end_to_end() {
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    // x follows a: the equation is x = a.
    let names = stg.signal_names();
    assert_eq!(circuit.equations()[0].cover.to_expr_string(&names), "a");
}

#[test]
fn decomposition_bounds_fanin_and_shares_gates() {
    let (stg, sg) = vme_csc_sg();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let dec = decompose(&stg, &circuit, 2);
    assert!(dec.netlist().max_fanin() <= 2);
    // Fig. 9a introduces one shared internal net (map0) for this control.
    assert!(!dec.new_nets.is_empty());
    // Functional check: in every SG state, gate stable values must agree
    // with the complex-gate circuit when internal nets are settled — the
    // stable next-value of each output gate must match the equation value.
    for s in 0..sg.num_states() {
        let mut values = vec![false; dec.netlist().num_nets()];
        for sig in stg.signals() {
            values[dec.signal_net(sig).index()] = sg.value(s, sig);
        }
        // Settle internal nets (they are combinational over signals).
        for _ in 0..dec.netlist().num_gates() {
            for g in 0..dec.netlist().num_gates() {
                let out = dec.netlist().gates()[g].output;
                if stg.signals().all(|sig| dec.signal_net(sig) != out) {
                    values[out.index()] = dec.netlist().next_value(&values, g);
                }
            }
        }
        for eq in circuit.equations() {
            let g = dec.netlist().driver_of(dec.signal_net(eq.signal)).unwrap();
            let expect = eq.cover.covers_minterm(&sg.code(s));
            assert_eq!(
                dec.netlist().next_value(&values, g),
                expect,
                "signal {} at state {s}",
                stg.signal_name(eq.signal)
            );
        }
    }
}

#[test]
fn library_mapping_two_input() {
    let (stg, sg) = vme_csc_sg();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let dec = decompose(&stg, &circuit, 2);
    let lib = Library::two_input();
    let mapping = map_to_library(dec.netlist(), &lib).expect("decomposed netlist maps");
    assert_eq!(mapping.num_cells(), dec.netlist().num_gates());
    assert!(mapping.area() > 0);
}

#[test]
fn library_rejects_wide_gates() {
    let (stg, sg) = vme_csc_sg();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    // The undedecomposed csc0 gate has fan-in 3.
    let lib = Library::two_input();
    let result = map_to_library(circuit.netlist(), &lib);
    assert!(result.is_err(), "complex gates exceed a 2-input library");
    // The standard library takes the complex gates directly.
    let std_lib = Library::standard();
    assert!(map_to_library(circuit.netlist(), &std_lib).is_ok());
}

#[test]
fn netlist_eval_c_element_and_sr() {
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_gate("c", GateKind::CElement, vec![a, b]);
    let q = n.add_gate("q", GateKind::SrLatch, vec![a, b]);
    // C: rises only when both high, holds otherwise.
    let mut v = vec![true, true, false, false];
    assert!(n.next_value(&v, 0));
    v = vec![true, false, true, false];
    assert!(n.next_value(&v, 0), "C holds 1 while inputs differ");
    v = vec![false, false, true, false];
    assert!(!n.next_value(&v, 0), "C falls when both low");
    // SR (reset dominant): set wins only without reset.
    v = vec![true, false, false, false];
    assert!(n.next_value(&v, 1));
    v = vec![true, true, false, true];
    assert!(!n.next_value(&v, 1), "reset dominates");
    let _ = (c, q);
}

#[test]
fn all_equations_cover_every_non_input() {
    let (stg, sg) = vme_csc_sg();
    let eqs = all_equations(&stg, &sg).unwrap();
    assert_eq!(eqs.len(), stg.non_input_signals().len());
}

#[test]
fn mixed_resolution_handles_choice_spec() {
    // The READ+WRITE controller (Fig. 5) needs a concurrency reduction
    // plus a state signal; the mixed sweep finds both greedily.
    let spec = stg::examples::vme_read_write();
    let r = resolve_mixed_sweep(
        &spec,
        MIXED_MAX_STEPS,
        &SweepOptions::default(),
        &StateGraph::build(&spec).expect("base builds"),
    )
    .candidates
    .pop()
    .expect("mixed strategy resolves Fig. 5");
    let sg = StateGraph::build(&r.stg).unwrap();
    assert!(stg::encoding::has_csc(&r.stg, &sg));
    assert!(
        r.description.contains(';'),
        "two steps expected: {}",
        r.description
    );
}

#[test]
fn mixed_resolution_identity_on_clean_spec() {
    let spec = vme_read_csc();
    let r = resolve_mixed_sweep(
        &spec,
        3,
        &SweepOptions::default(),
        &StateGraph::build(&spec).expect("base builds"),
    )
    .candidates
    .pop()
    .unwrap();
    assert!(r.description.contains("already holds"));
}

#[test]
fn insertion_sweep_candidates_are_ranked_and_valid() {
    let spec = vme_read();
    let candidates = insertion_sweep(
        &spec,
        &SweepOptions::default(),
        &StateGraph::build(&spec).expect("base builds"),
    )
    .candidates;
    assert!(candidates.len() >= 2, "both polarities of csc0 exist");
    // Best-first by state count.
    for w in candidates.windows(2) {
        assert!(w[0].num_states <= w[1].num_states);
    }
    // Every candidate actually has CSC.
    for c in candidates.iter().take(4) {
        let sg = StateGraph::build(&c.stg).unwrap();
        assert!(stg::encoding::has_csc(&c.stg, &sg), "{}", c.description);
    }
}

#[test]
fn atomic_netlist_matches_latch_semantics() {
    // In every SG state the atomic gate's next value equals the latch
    // next value computed from the set/reset networks.
    let (stg, sg) = vme_csc_sg();
    for style in [LatchStyle::CElement, LatchStyle::RsLatch] {
        let circ = synthesize_latch_circuit(&stg, &sg, style).unwrap();
        let (atomic, nets) = circ.atomic_netlist(&stg);
        for s in 0..sg.num_states() {
            let mut values = vec![false; atomic.num_nets()];
            for sig in stg.signals() {
                values[nets[sig.index()].index()] = sg.value(s, sig);
            }
            for c in &circ.covers {
                let g = atomic.driver_of(nets[c.signal.index()]).unwrap();
                let code = &sg.code(s);
                let set = c.set.covers_minterm(code);
                let reset = c.reset.covers_minterm(code);
                let q = sg.value(s, c.signal);
                let expect = set || (q && !reset);
                assert_eq!(
                    atomic.next_value(&values, g),
                    expect,
                    "{} at s{s}",
                    stg.signal_name(c.signal)
                );
            }
        }
    }
}
