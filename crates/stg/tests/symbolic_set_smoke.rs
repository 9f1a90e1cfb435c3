use stg::{examples, Backend, SignalEdge, StateGraph, SymbolicSetSpace};

#[test]
fn smoke_vme_read() {
    let spec = examples::vme_read();
    let explicit = Backend::Explicit.build(&spec).unwrap();
    let symbolic = Backend::SymbolicSet.build(&spec).unwrap();
    assert_eq!(symbolic.num_states(), explicit.num_states());
    assert_eq!(symbolic.duplication_excess(), explicit.duplication_excess());
    let graph = StateGraph::build(&spec).unwrap();
    let set = SymbolicSetSpace::build(&spec).unwrap();
    assert_eq!(set.num_markings(), 14);
    assert_eq!(set.initial_values(), graph.initial_values());
    assert_eq!(set.initial_marking(), graph.marking(0));
    // The BDD decoder against an independent reference: every index
    // decodes to a (marking, code) pair of the explicit graph, each pair
    // exactly once, and index 0 is the initial state on both.
    let mut decoded: Vec<(petri::Marking, Vec<bool>)> = (0..graph.num_states())
        .map(|i| (set.decode_marking(i), set.decode_code(i)))
        .collect();
    let mut reference: Vec<(petri::Marking, Vec<bool>)> = (0..graph.num_states())
        .map(|i| (graph.marking(i), graph.code(i)))
        .collect();
    assert_eq!(decoded[0], reference[0], "initial state");
    decoded.sort();
    reference.sort();
    assert_eq!(decoded, reference, "decoded states");
    for s in spec.signals() {
        for value in [false, true] {
            let sym = (0..graph.num_states())
                .filter(|&i| set.decode_code(i)[s.index()] == value)
                .count();
            let exp = (0..graph.num_states())
                .filter(|&i| graph.value(i, s) == value)
                .count();
            assert_eq!(sym, exp, "value region {s:?}={value}");
        }
        let [rise, fall, _] = set.excitation_classes(&spec, s);
        for (edge, region) in [(SignalEdge::Rise, rise), (SignalEdge::Fall, fall)] {
            let exp = (0..graph.num_states())
                .filter(|&i| {
                    graph
                        .excitations(&spec, i)
                        .iter()
                        .any(|&(_, sig, e)| sig == s && e == edge)
                })
                .count();
            assert_eq!(
                set.set_count(region),
                exp as u128,
                "excitation region {s:?}{edge}"
            );
        }
    }
    assert_eq!(set.has_deadlock(), graph.has_deadlock());
    // The duplicated codes: the same on both, found through each
    // engine's code index.
    let mut ec: Vec<Vec<bool>> = (0..graph.num_states())
        .map(|i| graph.code(i))
        .filter(|code| graph.states_with_code(code).len() > 1)
        .collect();
    ec.sort();
    ec.dedup();
    let sc: Vec<Vec<bool>> = set
        .set_codes(set.all_states())
        .into_iter()
        .filter(|code| set.set_count(set.states_with_code_set(code)) > 1)
        .collect();
    assert_eq!(ec, sc);
}
