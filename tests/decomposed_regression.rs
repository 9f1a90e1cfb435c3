//! Regression baseline for the decomposed-micropipeline failure the
//! ROADMAP tracks: fan-in-bounded decomposition of micropipeline
//! controllers fails verification on every CSC candidate — the naive
//! decomposition is hazardous and resubstitution does not repair it.
//! The Boolean-relation decomposition work of a later PR must move
//! these exact numbers; until then they are pinned here, including the
//! per-gate hazard attribution the witness-decoding engine reports.

use asyncsynth::{Architecture, FlowEvent, PipelineError, Synthesis};
use stg::examples::micropipeline;
use stg::StateGraph;
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::NetId;
use verify::verify_circuit;

/// The `(de-excited gate, causing event)` classes of the repaired
/// (resubstituted) two-stage micropipeline's verification failure.
const RESUB_HAZARDS: [(&str, &str); 7] = [
    ("a0", "gate map1"),
    ("a0", "gate map4"),
    ("csc0", "gate map4"),
    ("map0", "gate a0"),
    ("map0", "input r0-"),
    ("map1", "gate a1"),
    ("map1", "gate map0"),
];

#[test]
fn decomposed_micropipeline2_failure_is_pinned() {
    let err = Synthesis::new(micropipeline(2))
        .architecture(Architecture::Decomposed)
        .run()
        .expect_err("decomposed micropipeline(2) must still fail verification");
    let PipelineError::CandidatesExhausted { last, events } = err else {
        panic!("expected the candidate loop to exhaust");
    };
    let PipelineError::VerificationFailed(report) = *last else {
        panic!("expected a verification failure, got {last}");
    };
    assert!(
        !report.hit_state_limit(),
        "a real failure, not a bounded run"
    );
    assert_eq!(report.states_explored, 188, "composed states of the repair");
    assert_eq!(report.violations.len(), 64);
    let hazards: Vec<(String, String)> = report
        .hazards
        .iter()
        .map(|h| (h.gate_output.clone(), h.caused_by.clone()))
        .collect();
    let pinned: Vec<(String, String)> = RESUB_HAZARDS
        .iter()
        .map(|&(g, c)| (g.to_owned(), c.to_owned()))
        .collect();
    assert_eq!(
        hazards, pinned,
        "hazard classes moved — update the baseline"
    );
    // Witnesses are decoded: every hazard names the map nets' values.
    for h in &report.hazards {
        assert!(
            h.witness.nets.iter().any(|(n, _)| n.starts_with("map")),
            "witness must expose the internal nets: {:?}",
            h.witness
        );
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::CandidateRejected { .. })),
        "the rejection must be on record"
    );
}

#[test]
fn naive_decomposition_baseline_is_pinned() {
    // The pre-repair numbers, for the same later-PR comparison: the
    // naive two-input decomposition of the (CSC-resolved) controller.
    let spec = micropipeline(2);
    let resolved = Synthesis::new(spec)
        .architecture(Architecture::Decomposed)
        .check()
        .unwrap()
        .resolve_csc()
        .unwrap();
    assert_eq!(resolved.candidates().len(), 1, "one mixed CSC candidate");
    let cand_spec = resolved.candidates()[0].spec.clone();
    let sg = StateGraph::build(&cand_spec).unwrap();
    let circuit = synthesize_complex_gates(&cand_spec, &sg).unwrap();
    let naive = decompose(&cand_spec, &circuit, 2);
    let nets: Vec<NetId> = cand_spec.signals().map(|s| naive.signal_net(s)).collect();
    let report = verify_circuit(&cand_spec, &sg, naive.netlist(), &nets);
    assert_eq!(report.states_explored, 276);
    assert_eq!(report.hazards.len(), 7);
    assert_eq!(report.violations.len(), 76);

    // And resubstitution, today, does not repair it.
    let resub = resubstitute(&cand_spec, &sg, &naive);
    let rnets: Vec<NetId> = cand_spec.signals().map(|s| resub.signal_net(s)).collect();
    let repaired = verify_circuit(&cand_spec, &sg, resub.netlist(), &rnets);
    assert!(
        !repaired.is_speed_independent(),
        "if this starts passing, the ROADMAP decomposition item is done: {}",
        repaired.summary()
    );
}
