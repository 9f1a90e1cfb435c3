//! End-to-end integration tests on the paper's running example: the
//! staged pipeline reproduces Figs. 3–9 of the DAC'98 tutorial.

use asyncsynth::{
    run_batch, Architecture, Backend, CscStrategy, FlowEvent, Synthesis, SynthesisOptions,
    Verification,
};
use stg::examples::{vme_read, vme_read_csc, vme_read_write};
use stg::StateGraph;

#[test]
fn pipeline_resolves_csc_and_verifies_complex_gates() {
    let result = Synthesis::new(vme_read()).run().expect("pipeline succeeds");
    assert!(result.verification.passed());
    assert!(result.transformation.is_some(), "Fig. 3 needs a csc signal");
    assert_eq!(result.num_states(), 16, "Fig. 7's SG");
    assert!(result.report.is_implementable());
    // §3.2 equations, up to the inserted signal's name and polarity.
    assert!(result.equations_text.contains("DTACK = D"));
    assert!(result.equations_text.contains("LDS = D + csc0"));
    assert!(result.equations_text.contains("D = LDTACK csc0"));
}

#[test]
fn staged_api_exposes_intermediate_artifacts() {
    let checked = Synthesis::new(vme_read()).check().expect("properties hold");
    assert_eq!(checked.state_space().num_states(), 14, "Fig. 4's SG");
    assert!(!checked.report().complete_state_coding, "Fig. 3 lacks CSC");
    assert_eq!(checked.report().csc_conflict_pairs, 1);

    let resolved = checked.resolve_csc().expect("candidates exist");
    assert!(
        resolved.candidates().len() > 1,
        "several acceptable insertions (signal and complement)"
    );
    assert!(resolved
        .candidates()
        .iter()
        .all(|c| c.transformation.is_some()));

    let synthesized = resolved.synthesize().expect("synthesis succeeds");
    assert!(synthesized.equations_text().contains("DTACK = D"));
    assert!(synthesized.mapping().is_some());

    let verified = synthesized.verify().expect("verification passes");
    assert!(verified.verification.passed());
    // The event log covers every stage.
    let events = verified.events();
    assert!(events
        .iter()
        .any(|e| matches!(e, FlowEvent::PropertiesChecked { .. })));
    assert!(events.iter().any(|e| matches!(e, FlowEvent::CscApplied(_))));
    assert!(events
        .iter()
        .any(|e| matches!(e, FlowEvent::VerificationPassed { .. })));
}

#[test]
fn pipeline_all_architectures_verify() {
    for arch in [
        Architecture::ComplexGate,
        Architecture::CElement,
        Architecture::RsLatch,
        Architecture::Decomposed,
    ] {
        let result = Synthesis::new(vme_read())
            .architecture(arch)
            .run()
            .unwrap_or_else(|e| panic!("{arch:?} failed: {e}"));
        assert!(result.verification.passed(), "{arch:?} not verified");
        if arch == Architecture::Decomposed {
            assert!(result.circuit.netlist().max_fanin() <= 2, "{arch:?} fan-in");
        }
    }
}

#[test]
fn pipeline_with_concurrency_reduction_strategy() {
    let result = Synthesis::new(vme_read())
        .csc(CscStrategy::ConcurrencyReduction)
        .run()
        .expect("reduction works for the READ cycle");
    assert!(result.verification.passed());
    // Concurrency reduction removes states rather than adding a signal.
    assert!(result.num_states() < 14);
    assert_eq!(result.spec.num_signals(), 5, "no new signal added");
}

#[test]
fn pipeline_fail_strategy_errors_on_csc_conflict() {
    assert!(Synthesis::new(vme_read())
        .csc(CscStrategy::Fail)
        .run()
        .is_err());
}

#[test]
fn pipeline_on_already_clean_spec_is_direct() {
    let result = Synthesis::new(vme_read_csc()).run().expect("clean spec");
    assert!(result.transformation.is_none());
    assert!(result.verification.passed());
}

#[test]
fn skipped_verification_is_distinguishable_from_failed() {
    let result = Synthesis::new(vme_read_csc())
        .skip_verification(true)
        .run()
        .expect("clean spec");
    assert!(matches!(result.verification, Verification::Skipped));
    assert!(!result.verification.passed());
    assert!(result.verification.report().is_none());
    assert!(result
        .events()
        .iter()
        .any(|e| matches!(e, FlowEvent::VerificationSkipped)));
}

#[test]
fn read_write_controller_pipeline() {
    // The full Fig. 5 controller: bigger state space, input choice, CSC
    // conflicts resolved automatically.
    let result = Synthesis::new(vme_read_write()).run();
    match result {
        Ok(r) => {
            assert!(r.verification.passed());
            assert!(r.report.complete_state_coding);
        }
        Err(e) => panic!("read+write flow failed: {e}"),
    }
}

#[test]
fn mapping_reported_for_standard_library() {
    let result = Synthesis::new(vme_read()).run().unwrap();
    let mapping = result
        .mapping
        .expect("complex gates fit the standard library");
    assert_eq!(mapping.num_cells(), result.circuit.netlist().num_gates());
}

#[test]
fn run_batch_synthesizes_many_specs_concurrently() {
    let specs = [vme_read(), vme_read_csc(), vme_read_write(), vme_read()];
    let results = run_batch(&specs, &SynthesisOptions::default());
    assert_eq!(results.len(), specs.len(), "one result per spec, in order");
    for (spec, result) in specs.iter().zip(&results) {
        let r = result
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
        assert!(r.verification.passed(), "{} not verified", spec.name());
    }
    // Identical specs give identical artifacts regardless of scheduling.
    assert_eq!(
        results[0].as_ref().unwrap().equations_text,
        results[3].as_ref().unwrap().equations_text
    );
}

#[test]
fn run_batch_reports_per_spec_failures() {
    // An unresolvable request (CSC conflict + Fail strategy) fails its
    // slot without poisoning the rest of the batch.
    let specs = [vme_read(), vme_read_csc()];
    let options = SynthesisOptions {
        csc: CscStrategy::Fail,
        ..SynthesisOptions::default()
    };
    let results = run_batch(&specs, &options);
    assert!(results[0].is_err(), "Fig. 3 has a CSC conflict");
    assert!(results[1].is_ok(), "Fig. 7 is clean");
}

#[test]
fn state_graph_codes_match_paper_initial_state() {
    let spec = vme_read();
    let sg = StateGraph::build(&spec).unwrap();
    // <DSr, DTACK, LDTACK, LDS, D> = 00000 with DSr excited.
    assert_eq!(sg.plain_code_string(0), "00000");
}

#[test]
fn backend_is_threaded_through_every_stage() {
    // The backend picks the check engine only. Past the check the flow
    // runs on one explicit state graph, built without a second
    // `StateSpaceBuilt` event: the resident check's space is the one
    // space the flow reports, whether CSC already holds (vme-read-csc)
    // or has to be resolved (vme-read).
    for spec in [vme_read_csc(), vme_read()] {
        let name = spec.name().to_owned();
        let result = Synthesis::new(spec)
            .backend(Backend::SymbolicSet)
            .run()
            .expect("symbolic-set pipeline succeeds");
        assert!(result.verification.passed());
        let built: Vec<Backend> = result
            .events()
            .iter()
            .filter_map(|e| match e {
                FlowEvent::StateSpaceBuilt { backend, .. } => Some(*backend),
                _ => None,
            })
            .collect();
        assert_eq!(built, [Backend::SymbolicSet], "{name}");
        assert_eq!(
            asyncsynth::flow_metrics(result.events()).get("spaces_built"),
            Some(1),
            "{name}"
        );
        assert_eq!(
            result.state_space().num_states(),
            result.report.num_states,
            "{name}"
        );
    }
}
