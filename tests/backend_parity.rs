//! Backend parity: the explicit and resident-BDD state-space engines
//! must be observationally identical through every pipeline stage — same implementability verdicts, same state counts,
//! same synthesised equations — on all three VME-bus controllers of the
//! paper plus the two-stage micropipeline.

use asyncsynth::{Backend, Synthesis};
use stg::examples::{micropipeline, vme_read, vme_read_csc, vme_read_write};
use stg::properties::check_implementability;
use stg::{StateGraph, StateSpace, Stg};

fn specs() -> Vec<(&'static str, Stg)> {
    vec![
        ("vme_read", vme_read()),
        ("vme_read_csc", vme_read_csc()),
        ("vme_read_write", vme_read_write()),
        ("micropipeline2", micropipeline(2)),
    ]
}

#[test]
fn implementability_verdicts_agree() {
    for (name, spec) in specs() {
        let explicit = check_implementability(&spec, Backend::Explicit);
        let symbolic = check_implementability(&spec, Backend::SymbolicSet);
        assert_eq!(
            explicit.is_implementable(),
            symbolic.is_implementable(),
            "{name}: implementability verdict"
        );
        assert_eq!(explicit.bounded, symbolic.bounded, "{name}: bounded");
        assert_eq!(
            explicit.consistent, symbolic.consistent,
            "{name}: consistent"
        );
        assert_eq!(
            explicit.unique_state_coding, symbolic.unique_state_coding,
            "{name}: USC"
        );
        assert_eq!(
            explicit.complete_state_coding, symbolic.complete_state_coding,
            "{name}: CSC"
        );
        assert_eq!(
            explicit.csc_conflict_pairs, symbolic.csc_conflict_pairs,
            "{name}: CSC conflict pairs"
        );
        assert_eq!(
            explicit.persistent, symbolic.persistent,
            "{name}: persistent"
        );
        assert_eq!(
            explicit.deadlock_free, symbolic.deadlock_free,
            "{name}: deadlock-free"
        );
        assert_eq!(
            explicit.num_states, symbolic.num_states,
            "{name}: state count"
        );
    }
}

#[test]
fn state_spaces_carry_identical_codes() {
    for (name, spec) in specs() {
        let explicit = StateGraph::build(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let resident =
            stg::SymbolicSetSpace::build(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            resident.num_markings(),
            StateSpace::num_states(&explicit) as u128,
            "{name}: resident marking count"
        );
        let mut resident_codes: Vec<String> = (0..StateSpace::num_states(&resident))
            .map(|i| StateSpace::plain_code_string(&resident, i))
            .collect();
        resident_codes.sort();
        assert_eq!(
            resident.stats().num_markings,
            StateSpace::num_states(&explicit) as u128,
            "{name}: BDD marking count"
        );
        let mut explicit_codes: Vec<String> = (0..StateSpace::num_states(&explicit))
            .map(|i| StateSpace::plain_code_string(&explicit, i))
            .collect();
        explicit_codes.sort();
        assert_eq!(
            explicit_codes, resident_codes,
            "{name}: resident code multiset"
        );
        // Initial state parity, not just the multiset.
        assert_eq!(
            StateSpace::plain_code_string(&explicit, 0),
            StateSpace::plain_code_string(&resident, 0),
            "{name}: resident initial code"
        );
    }
}

#[test]
fn synthesised_equations_agree() {
    for (name, spec) in specs() {
        let explicit = Synthesis::new(spec.clone())
            .backend(Backend::Explicit)
            .run()
            .unwrap_or_else(|e| panic!("{name} (explicit): {e}"));
        let symbolic = Synthesis::new(spec.clone())
            .backend(Backend::SymbolicSet)
            .run()
            .unwrap_or_else(|e| panic!("{name} (symbolic-set): {e}"));
        assert_eq!(
            explicit.equations_text, symbolic.equations_text,
            "{name}: equations"
        );
        assert_eq!(
            explicit.num_states(),
            symbolic.num_states(),
            "{name}: final state count"
        );
        assert_eq!(
            explicit
                .transformation
                .as_ref()
                .map(|t| t.description.clone()),
            symbolic.transformation.map(|t| t.description),
            "{name}: csc transformation"
        );
        assert!(explicit.verification.passed() && symbolic.verification.passed());
    }
}

#[test]
fn unsafe_nets_fail_boundedness_on_both_backends() {
    // Producing into an already-marked place: firing x+ puts a second
    // token on q, so the net is not safe.
    let mut b = stg::StgBuilder::new("unsafe");
    let x = b.add_signal("x", stg::SignalKind::Output);
    let xp = b.add_edge(x, stg::SignalEdge::Rise);
    let xm = b.add_edge(x, stg::SignalEdge::Fall);
    let p = b.add_place("p", 1);
    let q = b.add_place("q", 1);
    b.arc_pt(p, xp);
    b.arc_tp(xp, q);
    b.arc_pt(q, xm);
    b.arc_tp(xm, p);
    let spec = b.build();
    let explicit = check_implementability(&spec, Backend::Explicit);
    let resident = check_implementability(&spec, Backend::SymbolicSet);
    assert!(!explicit.bounded, "explicit backend flags the unsafe net");
    assert!(!resident.bounded, "resident backend flags the unsafe net");
}
