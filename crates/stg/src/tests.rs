//! Unit tests for the STG layer, anchored to the paper's figures.

use petri::classify;

use crate::encoding::{csc_conflicts, encoding_conflicts, has_csc, has_usc};
use crate::examples::{micropipeline, toggle, vme_read, vme_read_csc, vme_read_write};
use crate::model::{SignalEdge, SignalKind, StgBuilder};
use crate::parse::{parse_g, write_g};
use crate::persistency::{is_persistent, persistency_violations, ViolationKind};
use crate::properties::check_implementability;
use crate::state_graph::{StateGraph, StgError};
use crate::state_space::Backend;
use crate::waveform::{canonical_cycle, render_waveforms};

#[test]
fn vme_read_structure_fig3() {
    let stg = vme_read();
    assert_eq!(stg.num_signals(), 5);
    // Fig. 3 is a marked graph: no choice.
    let class = classify::classify(stg.net());
    assert!(class.marked_graph);
    assert!(class.free_choice);
    assert_eq!(stg.net().num_transitions(), 10);
}

#[test]
fn vme_read_state_graph_fig4() {
    let stg = vme_read();
    let sg = StateGraph::build(&stg).unwrap();
    // Fig. 4: the RG/SG of the READ cycle has 14 states.
    assert_eq!(sg.num_states(), 14);
    // Initial state: all signals low, DSr excited: "0*0000" in the paper's
    // <DSr,DTACK,LDTACK,LDS,D> order.
    assert_eq!(sg.plain_code_string(0), "00000");
    assert!(sg.code_string(&stg, 0).starts_with("0*"));
    // Consistency and determinism hold.
    assert!(sg.ts().is_deterministic());
}

#[test]
fn vme_read_csc_conflict_code_10110() {
    let stg = vme_read();
    let sg = StateGraph::build(&stg).unwrap();
    // §2.1: the two underlined conflict states share code 10110 in
    // <DSr,DTACK,LDTACK,LDS,D> order, with different LDS/D excitation.
    let conflicts = csc_conflicts(&stg, &sg);
    assert_eq!(conflicts.len(), 1, "exactly one CSC conflict pair");
    let c = &conflicts[0];
    let code: String = c.code.iter().map(|&b| if b { '1' } else { '0' }).collect();
    assert_eq!(code, "10110");
    let names: Vec<&str> = c
        .conflicting_signals
        .iter()
        .map(|&s| stg.signal_name(s))
        .collect();
    assert!(names.contains(&"LDS"), "LDS excitation differs: {names:?}");
    assert!(!has_usc(&stg, &sg));
    assert!(!has_csc(&stg, &sg));
}

#[test]
fn vme_read_is_persistent_but_lacks_csc() {
    let stg = vme_read();
    let report = check_implementability(&stg, Backend::Explicit);
    assert!(report.bounded);
    assert!(report.consistent);
    assert!(report.persistent, "Fig. 3 is a marked graph: no disabling");
    assert!(!report.complete_state_coding);
    assert!(!report.is_implementable());
    assert!(report.deadlock_free);
}

#[test]
fn vme_read_csc_fig7() {
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    // Fig. 7: inserting csc0 yields 16 states and restores CSC.
    assert_eq!(sg.num_states(), 16);
    assert!(has_csc(&stg, &sg));
    let report = check_implementability(&stg, Backend::Explicit);
    assert!(report.is_implementable(), "{report}");
}

#[test]
fn vme_read_write_fig5() {
    let stg = vme_read_write();
    let sg = StateGraph::build(&stg).unwrap();
    assert!(sg.num_states() > 14, "read+write explores both branches");
    // Choice places p0 and p3 exist (§1.5).
    let choices = classify::choice_places(stg.net());
    assert_eq!(choices.len(), 2);
    // The DSr+/DSw+ conflict is an input choice: persistency violations
    // exist but all are InputChoice.
    let violations = persistency_violations(&stg, &sg);
    assert!(violations
        .iter()
        .any(|v| v.kind == ViolationKind::InputChoice));
    assert!(is_persistent(&stg, &sg), "input choice is allowed");
    // Consistent and bounded.
    let report = check_implementability(&stg, Backend::Explicit);
    assert!(report.bounded && report.consistent, "{report}");
}

#[test]
fn toggle_is_fully_implementable() {
    let report = check_implementability(&toggle(), Backend::Explicit);
    assert!(report.is_implementable(), "{report}");
    assert_eq!(report.num_states, 4);
}

#[test]
fn micropipeline_scales_and_stays_consistent() {
    for n in 1..4 {
        let stg = micropipeline(n);
        let sg = StateGraph::build(&stg).unwrap();
        assert!(sg.num_states() >= 4, "n={n}");
        assert!(sg.ts().deadlocks().is_empty(), "n={n}");
    }
}

#[test]
fn inconsistent_stg_detected() {
    // a+ followed by a+ again: inconsistent.
    let mut b = StgBuilder::new("bad");
    let a = b.add_signal("a", SignalKind::Input);
    let a1 = b.add_edge(a, SignalEdge::Rise);
    let a2 = b.add_edge(a, SignalEdge::Rise);
    b.connect(a1, a2);
    let p = b.connect(a2, a1);
    b.mark_place(p, 1);
    let stg = b.build();
    match StateGraph::build(&stg) {
        Err(StgError::InconsistentEdge { .. }) => {}
        other => panic!("expected inconsistency, got {other:?}"),
    }
}

#[test]
fn explicit_initial_values_respected() {
    let mut b = StgBuilder::new("init");
    let a = b.add_signal("a", SignalKind::Input);
    let a_m = b.add_edge(a, SignalEdge::Fall);
    let a_p = b.add_edge(a, SignalEdge::Rise);
    b.connect(a_m, a_p);
    let p = b.connect(a_p, a_m);
    b.mark_place(p, 1);
    b.set_initial_values(vec![true]);
    let stg = b.build();
    let sg = StateGraph::build(&stg).unwrap();
    assert!(sg.value(0, a));
}

#[test]
fn initial_value_inference_from_falling_edge() {
    // Same net, no explicit values: first edge is a-, so a starts at 1.
    let mut b = StgBuilder::new("init");
    let a = b.add_signal("a", SignalKind::Input);
    let a_m = b.add_edge(a, SignalEdge::Fall);
    let a_p = b.add_edge(a, SignalEdge::Rise);
    b.connect(a_m, a_p);
    let p = b.connect(a_p, a_m);
    b.mark_place(p, 1);
    let stg = b.build();
    let sg = StateGraph::build(&stg).unwrap();
    assert!(sg.value(0, a));
}

#[test]
fn parse_g_roundtrip_vme() {
    let stg = vme_read();
    let text = write_g(&stg);
    let parsed = parse_g(&text).unwrap();
    assert_eq!(parsed.num_signals(), stg.num_signals());
    assert_eq!(parsed.net().num_transitions(), stg.net().num_transitions());
    // Equivalent behaviour: same state-graph size and properties.
    let sg1 = StateGraph::build(&stg).unwrap();
    let sg2 = StateGraph::build(&parsed).unwrap();
    assert_eq!(sg1.num_states(), sg2.num_states());
    // Trace equivalence over label strings.
    let t1 = sg1.ts().map_labels(|&t| stg.label_string(t));
    let t2 = sg2.ts().map_labels(|&t| parsed.label_string(t));
    assert!(t1.trace_equivalent(&t2));
}

#[test]
fn parse_g_explicit_places_and_choice() {
    let text = "\
.model choice
.inputs a b
.outputs x
.graph
p0 a+ b+
a+ x+/1
b+ x+/2
x+/1 a-
x+/2 b-
a- x-/1
b- x-/2
x-/1 p0
x-/2 p0
.marking { p0 }
.end
";
    let stg = parse_g(text).unwrap();
    assert_eq!(stg.num_signals(), 3);
    let sg = StateGraph::build(&stg).unwrap();
    assert!(sg.num_states() >= 4);
}

#[test]
fn parse_g_instances() {
    let text = "\
.model inst
.inputs a
.outputs x
.graph
a+ x+/1
x+/1 a-
a- x-/1
x-/1 a+
.marking { <x-/1,a+> }
.end
";
    let stg = parse_g(text).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    assert_eq!(sg.num_states(), 4);
}

#[test]
fn parse_g_errors() {
    assert!(
        parse_g(".model x\n.graph\nfoo+ bar+\n.end\n").is_err(),
        "undeclared signal"
    );
    assert!(
        parse_g(".model x\n.inputs a\n.end\n").is_err(),
        "missing graph"
    );
    let bad_marking = ".model x\n.inputs a\n.graph\na+ a-\na- a+\n.marking { nosuch }\n.end\n";
    assert!(parse_g(bad_marking).is_err());
}

#[test]
fn waveforms_render_read_cycle() {
    let stg = vme_read();
    let sg = StateGraph::build(&stg).unwrap();
    let cycle = canonical_cycle(&sg, 32);
    assert_eq!(cycle.len(), 10, "one full READ cycle fires all 10 edges");
    let wave = render_waveforms(&stg, &sg, &cycle);
    // Five rows, one per signal.
    assert_eq!(wave.lines().count(), 5);
    // DSr rises then falls within the cycle.
    let dsr_row = wave.lines().find(|l| l.contains("DSr")).unwrap();
    assert!(dsr_row.contains("/~") && dsr_row.contains("\\_"));
}

#[test]
fn encoding_conflicts_listing_is_deterministic() {
    let stg = vme_read();
    let sg = StateGraph::build(&stg).unwrap();
    let a = encoding_conflicts(&stg, &sg);
    let b = encoding_conflicts(&stg, &sg);
    assert_eq!(a, b);
}

#[test]
fn label_strings() {
    let stg = vme_read_write();
    // Doubled signals print instances: there must be a "D+/2" somewhere.
    let labels: Vec<String> = stg
        .net()
        .transitions()
        .map(|t| stg.label_string(t))
        .collect();
    assert!(labels.iter().any(|l| l == "D+/2"), "{labels:?}");
    assert!(labels.iter().any(|l| l == "D+"), "{labels:?}");
}

#[test]
fn write_g_parse_g_roundtrip_read_write() {
    // The choice-rich Fig. 5 spec survives serialisation.
    let stg = vme_read_write();
    let text = write_g(&stg);
    let parsed = parse_g(&text).unwrap();
    let sg1 = StateGraph::build(&stg).unwrap();
    let sg2 = StateGraph::build(&parsed).unwrap();
    assert_eq!(sg1.num_states(), sg2.num_states());
    let t1 = sg1.ts().map_labels(|&t| stg.label_string(t));
    let t2 = sg2.ts().map_labels(|&t| parsed.label_string(t));
    assert!(t1.trace_equivalent(&t2));
}

#[test]
fn dummy_transitions_parse_and_run() {
    let text = "\
.model dummies
.inputs a
.outputs x
.dummy tau
.graph
a+ tau
tau x+
x+ a-
a- x-
x- a+
.marking { <x-,a+> }
.end
";
    let stg = parse_g(text).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    // 4 signal edges + 1 dummy = 5 states in the cycle.
    assert_eq!(sg.num_states(), 5);
    // The dummy does not change any code.
    let report = check_implementability(&stg, Backend::Explicit);
    assert!(report.consistent);
}

#[test]
fn excitations_and_regions_of_initial_state() {
    let stg = vme_read();
    let sg = StateGraph::build(&stg).unwrap();
    let exc = sg.excitations(&stg, 0);
    assert_eq!(exc.len(), 1);
    let (_, sig, edge) = exc[0];
    assert_eq!(stg.signal_name(sig), "DSr");
    assert_eq!(edge, crate::SignalEdge::Rise);
}

mod state_space_backends {
    use super::*;
    use crate::state_space::StateSpace;
    use crate::symbolic_set::SymbolicSetSpace;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("explicit".parse::<Backend>().unwrap(), Backend::Explicit);
        assert_eq!(
            "symbolic-set".parse::<Backend>().unwrap(),
            Backend::SymbolicSet
        );
        assert!("bdd".parse::<Backend>().is_err());
        assert_eq!(Backend::SymbolicSet.to_string(), "symbolic-set");
        assert_eq!(Backend::default(), Backend::Explicit);
        // The retired decoding backend's name is rejected with the list
        // of the names that remain.
        let err = "symbolic".parse::<Backend>().unwrap_err();
        assert!(
            err.contains("\"explicit\"") && err.contains("\"symbolic-set\""),
            "{err}"
        );
    }

    #[test]
    fn symbolic_space_matches_explicit_on_the_paper_examples() {
        for spec in [
            vme_read(),
            vme_read_csc(),
            vme_read_write(),
            micropipeline(2),
        ] {
            let explicit = StateGraph::build(&spec).unwrap();
            let symbolic = SymbolicSetSpace::build(&spec).unwrap();
            assert_eq!(symbolic.num_states(), explicit.num_states());
            assert_eq!(symbolic.stats().num_markings, explicit.num_states() as u128);
            // Same initial state and code multiset.
            assert_eq!(explicit.code(0), symbolic.decode_code(0));
            let mut a: Vec<Vec<bool>> = (0..explicit.num_states())
                .map(|i| explicit.code(i))
                .collect();
            let mut b: Vec<Vec<bool>> = (0..symbolic.num_states())
                .map(|i| symbolic.decode_code(i))
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn property_checks_are_backend_independent() {
        for spec in [vme_read(), vme_read_csc(), vme_read_write()] {
            let explicit = Backend::Explicit.build(&spec).unwrap();
            let symbolic = Backend::SymbolicSet.build(&spec).unwrap();
            assert_eq!(
                explicit.csc_conflicts(&spec).len(),
                symbolic.csc_conflicts(&spec).len()
            );
            let (e, s) = (explicit.report(&spec), symbolic.report(&spec));
            assert_eq!(e.persistent, s.persistent);
            assert_eq!(e.unique_state_coding, s.unique_state_coding);
            let sg = StateGraph::build(&spec).unwrap();
            let resident = SymbolicSetSpace::build(&spec).unwrap();
            assert_eq!(is_persistent(&spec, &sg), resident.is_persistent(&spec));
            assert_eq!(has_usc(&spec, &sg), resident.has_usc());
            assert_eq!(has_csc(&spec, &sg), resident.has_csc(&spec));
        }
    }

    #[test]
    fn symbolic_space_respects_the_state_limit() {
        let spec = micropipeline(3); // 500 states
        assert!(matches!(
            SymbolicSetSpace::build_bounded(&spec, 100),
            Err(StgError::Reach(petri::reach::ReachError::StateLimit(100)))
        ));
        assert!(SymbolicSetSpace::build_bounded(&spec, 500).is_ok());
    }

    #[test]
    fn symbolic_space_detects_unsafe_nets() {
        // x+ produces into an already-marked place: not safe.
        let mut b = StgBuilder::new("unsafe");
        let x = b.add_signal("x", SignalKind::Output);
        let xp = b.add_edge(x, SignalEdge::Rise);
        let xm = b.add_edge(x, SignalEdge::Fall);
        let p = b.add_place("p", 1);
        let q = b.add_place("q", 1);
        b.arc_pt(p, xp);
        b.arc_tp(xp, q);
        b.arc_pt(q, xm);
        b.arc_tp(xm, p);
        let spec = b.build();
        assert!(matches!(
            StateGraph::build(&spec),
            Err(StgError::Reach(petri::reach::ReachError::BoundExceeded(_)))
        ));
        assert!(matches!(
            SymbolicSetSpace::build(&spec),
            Err(StgError::Reach(petri::reach::ReachError::BoundExceeded(_)))
        ));
    }

    /// `P_K(f)` by brute force: every ordered pair of satisfying
    /// assignments over `vars` that agrees on the key variables.
    fn brute_force_pairs(m: &bdd::Manager, f: bdd::Bdd, vars: &[(bdd::VarId, bool)]) -> u128 {
        let width = vars.iter().map(|&(v, _)| v as usize + 1).max().unwrap_or(0);
        let models: Vec<u32> = (0..1u32 << vars.len())
            .filter(|&bits| {
                let mut assignment = vec![false; width];
                for (i, &(v, _)) in vars.iter().enumerate() {
                    assignment[v as usize] = bits >> i & 1 == 1;
                }
                m.eval(f, &assignment)
            })
            .collect();
        let key_mask: u32 = (vars.iter().enumerate())
            .filter(|(_, &(_, key))| key)
            .map(|(i, _)| 1 << i)
            .sum();
        let mut pairs = 0;
        for &a in &models {
            pairs += models.iter().filter(|&&b| (a ^ b) & key_mask == 0).count() as u128;
        }
        pairs
    }

    #[test]
    fn agreeing_pair_count_matches_brute_force() {
        use crate::symbolic_set::agreeing_pair_count;
        let mut m = bdd::Manager::new();

        // Constants: no pairs of the empty function; every pair that
        // agrees on the keys for the constant one (2 per key variable,
        // 4 per free one).
        let universe = [(0, true), (1, false), (2, false)];
        assert_eq!(agreeing_pair_count(&m, bdd::Manager::zero(), &universe), 0);
        assert_eq!(agreeing_pair_count(&m, bdd::Manager::one(), &universe), 32);
        assert_eq!(agreeing_pair_count(&m, bdd::Manager::one(), &[]), 1);

        // Variables 1 (key) and 3 (free) lie in the universe but outside
        // the support, so both sides of every pair skip them.
        let (x0, x2, x4) = (m.var(0), m.var(2), m.var(4));
        let a = m.and(x0, x2);
        let f = m.or(a, x4);
        let universe = [(0, false), (1, true), (2, true), (3, false), (4, true)];
        assert_eq!(
            agreeing_pair_count(&m, f, &universe),
            brute_force_pairs(&m, f, &universe)
        );

        // Variable 2 is tested on one branch of variable 0 only, so the
        // pair (x0 = 0, x0 = 1) meets it on one side alone.
        let nx0 = m.not(x0);
        let left = m.and(nx0, x4);
        let f = m.or(a, left);
        for keys in 0..8u32 {
            let universe: Vec<(bdd::VarId, bool)> = [0, 2, 4]
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, keys >> i & 1 == 1))
                .collect();
            assert_eq!(
                agreeing_pair_count(&m, f, &universe),
                brute_force_pairs(&m, f, &universe),
                "keys {keys:03b}"
            );
        }

        // Random functions over up to 10 variables with random key flags
        // (a fixed-seed xorshift, so the cases are reproducible).
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..200 {
            let width = 1 + (next() % 10) as usize;
            let universe: Vec<(bdd::VarId, bool)> = (0..width)
                .map(|i| (i as bdd::VarId, next() % 2 == 0))
                .collect();
            // A sum of random cubes over a random subset of the universe.
            let mut f = bdd::Manager::zero();
            for _ in 0..1 + next() % 6 {
                let mut cube = bdd::Manager::one();
                for &(v, _) in &universe {
                    let roll = next() % 3;
                    if roll < 2 {
                        let literal = m.literal(v, roll == 0);
                        cube = m.and(cube, literal);
                    }
                }
                f = m.or(f, cube);
            }
            assert_eq!(
                agreeing_pair_count(&m, f, &universe),
                brute_force_pairs(&m, f, &universe),
                "case {case}"
            );
        }
    }
}

mod canon {
    use std::str::FromStr;

    use crate::canon::{canonical_text, digest_bytes, keyed_digest, stg_digest, Digest};
    use crate::examples::{toggle, vme_read, vme_read_csc, vme_read_write};
    use crate::model::{SignalEdge, SignalKind, StgBuilder};
    use crate::parse::{parse_g, write_g};

    #[test]
    fn sha256_known_answers() {
        assert_eq!(
            digest_bytes(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            digest_bytes(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Multi-block message (> 64 bytes) exercises the buffering path.
        let long = [b'a'; 200];
        let mut split = crate::canon::Sha256::new();
        split.update(&long[..3]);
        split.update(&long[3..70]);
        split.update(&long[70..]);
        assert_eq!(split.finish(), digest_bytes(&long));
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = stg_digest(&toggle());
        let parsed = Digest::from_str(&d.to_hex()).expect("hex parses");
        assert_eq!(parsed, d);
        assert!(Digest::from_str("xyz").is_err());
    }

    #[test]
    fn round_trip_through_g_format_preserves_digest() {
        for spec in [vme_read(), vme_read_csc(), vme_read_write(), toggle()] {
            let reparsed = parse_g(&write_g(&spec)).expect("write_g output parses");
            assert_eq!(
                canonical_text(&spec),
                canonical_text(&reparsed),
                "canonical text of {} survives serialise → parse",
                spec.name()
            );
            assert_eq!(stg_digest(&spec), stg_digest(&reparsed));
        }
    }

    /// Two builds of the same toggle circuit with places, transitions and
    /// signals inserted in different orders.
    fn toggle_variants() -> (crate::Stg, crate::Stg) {
        let first = {
            let mut b = StgBuilder::new("t");
            let a = b.add_signal("a", SignalKind::Input);
            let x = b.add_signal("x", SignalKind::Output);
            let ap = b.add_edge(a, SignalEdge::Rise);
            let xp = b.add_edge(x, SignalEdge::Rise);
            let am = b.add_edge(a, SignalEdge::Fall);
            let xm = b.add_edge(x, SignalEdge::Fall);
            b.connect(ap, xp);
            b.connect(xp, am);
            b.connect(am, xm);
            let p = b.connect(xm, ap);
            b.mark_place(p, 1);
            b.build()
        };
        let second = {
            let mut b = StgBuilder::new("t");
            let x = b.add_signal("x", SignalKind::Output);
            let a = b.add_signal("a", SignalKind::Input);
            let xm = b.add_edge(x, SignalEdge::Fall);
            let am = b.add_edge(a, SignalEdge::Fall);
            let xp = b.add_edge(x, SignalEdge::Rise);
            let ap = b.add_edge(a, SignalEdge::Rise);
            let p = b.connect(xm, ap);
            b.mark_place(p, 1);
            b.connect(am, xm);
            b.connect(xp, am);
            b.connect(ap, xp);
            b.build()
        };
        (first, second)
    }

    #[test]
    fn digest_stable_under_insertion_reordering() {
        let (first, second) = toggle_variants();
        assert_eq!(canonical_text(&first), canonical_text(&second));
        assert_eq!(stg_digest(&first), stg_digest(&second));
    }

    #[test]
    fn digest_differs_on_semantic_edits() {
        let base = toggle();
        let base_digest = stg_digest(&base);

        // Different marking.
        let remarked = {
            let mut b = toggle().into_builder();
            let extra = b.add_place("extra", 1);
            let t = b.net().transitions().next().expect("has transitions");
            b.arc_pt(extra, t);
            b.build()
        };
        assert_ne!(
            stg_digest(&remarked),
            base_digest,
            "extra place changes hash"
        );

        // Different signal kind (input vs output is a semantic difference).
        let text = write_g(&base);
        let flipped = text.replace(".inputs a", ".outputs a");
        if flipped != text {
            let respec = parse_g(&flipped).expect("still parses");
            assert_ne!(stg_digest(&respec), base_digest, "signal kind changes hash");
        }

        // Different model name.
        let renamed =
            parse_g(&text.replace(&format!(".model {}", base.name()), ".model other-name"))
                .expect("renamed spec parses");
        assert_ne!(stg_digest(&renamed), base_digest, "model name changes hash");
    }

    #[test]
    fn keyed_digest_separates_configurations() {
        let spec = vme_read();
        let plain = stg_digest(&spec);
        let a = keyed_digest(&spec, &["explicit", "complex"]);
        let b = keyed_digest(&spec, &["symbolic", "complex"]);
        assert_ne!(plain, a);
        assert_ne!(a, b);
        // Length-prefixing means concatenation cannot collide.
        assert_ne!(
            keyed_digest(&spec, &["ab", "c"]),
            keyed_digest(&spec, &["a", "bc"])
        );
        assert_eq!(a, keyed_digest(&spec, &["explicit", "complex"]));
    }
}
