use stg::{examples, Backend};

#[test]
fn smoke_vme_read() {
    let spec = examples::vme_read();
    let explicit = Backend::Explicit.build(&spec).unwrap();
    let set = Backend::SymbolicSet.build(&spec).unwrap();
    assert_eq!(set.num_states(), explicit.num_states());
    assert_eq!(set.marking_count(), 14);
    assert_eq!(set.initial_values(), explicit.initial_values());
    let mut a: Vec<String> = (0..explicit.num_states())
        .map(|i| explicit.plain_code_string(i))
        .collect();
    let mut b: Vec<String> = (0..set.num_states())
        .map(|i| set.plain_code_string(i))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    // The BDD decoder against an independent reference: every index
    // decodes to a (marking, code) pair of the explicit graph, each pair
    // exactly once, and index 0 is the initial state on both.
    let graph = explicit.as_state_graph().expect("explicit backend");
    let mut decoded: Vec<(petri::Marking, Vec<bool>)> = (0..set.num_states())
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
            let count = |space: &dyn stg::StateSpace| {
                (0..space.num_states())
                    .filter(|&i| space.value(i, s) == value)
                    .count()
            };
            assert_eq!(
                count(&*set),
                count(&*explicit),
                "value region {s:?}={value}"
            );
        }
        for edge in [stg::SignalEdge::Rise, stg::SignalEdge::Fall] {
            let sym = set.set_count(&set.excitation_region(&spec, s, edge));
            let exp = explicit.set_count(&explicit.excitation_region(&spec, s, edge));
            assert_eq!(sym, exp, "excitation region {s:?}{edge}");
        }
    }
    assert_eq!(set.has_deadlock(), explicit.has_deadlock());
    assert_eq!(set.distinct_code_count(), explicit.distinct_code_count());
    let mut ec: Vec<Vec<bool>> = explicit
        .duplicate_code_classes()
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    let mut sc: Vec<Vec<bool>> = set
        .duplicate_code_classes()
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    ec.sort();
    sc.sort();
    assert_eq!(ec, sc);
}
