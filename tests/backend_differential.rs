//! The differential property-test harness: random safe STGs are run
//! through both state-space backends — explicit breadth-first
//! ([`stg::StateGraph`]) and resident-BDD ([`stg::SymbolicSetSpace`]) —
//! and every observable
//! artifact of the check stage is required to agree: state counts,
//! initial states, code sets, excitation-region partitions, USC/CSC
//! verdicts and conflict-pair counts, conflict witnesses, persistency and
//! deadlock-freedom. The resident engine's set queries are its own typed
//! methods; the explicit side of each comparison is a small oracle over
//! the state graph in this file. (Past the
//! check both backends synthesise from one explicit graph;
//! `symbolic_ledger_parity` pins the resulting equations.) Error paths are
//! differential too: bound-exceeded, unsafe-net and inconsistency
//! failures must produce the same `StgError` variants symbolically as
//! explicitly.
//!
//! The case count honours `PROPTEST_CASES` (default 32 — the CI
//! `backend-differential` job raises it); generation is deterministic
//! per test, so failures reproduce without a persistence file.

use proptest::prelude::*;
use stg::{
    Backend, SignalEdge, SignalId, SignalKind, StateGraph, StateSpace, Stg, StgBuilder, StgError,
    SymbolicSetSpace,
};

use corpus::generators;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const BACKENDS: [Backend; 2] = [Backend::Explicit, Backend::SymbolicSet];

// ---------------------------------------------------------------------
// Spec generators — the corpus families (`crates/corpus`), which
// superseded this file's original three hand-rolled builders
// ---------------------------------------------------------------------

/// The combinatorial scale family: the signal-labelled token ring
/// (`C(2·half, k)` states on a linear net).
fn token_ring(half: usize, k: usize) -> Stg {
    stg::examples::token_ring(half, k)
}

/// One strategy drawing from the corpus: parameterised generator
/// families (chains, dispatchers, rings, arbiters, selector trees,
/// counters, parallelisers) plus the fixed corpus specs by index — so
/// every family the ledger pins is also cross-checked across backends.
fn any_spec() -> impl Strategy<Value = Stg> {
    let fixed = corpus::all_specs();
    let fixed_len = fixed.len();
    prop_oneof![
        (2usize..6, proptest::collection::vec(any::<bool>(), 1..4)).prop_map(|(k, mut roles)| {
            roles.push(false);
            generators::handshake_chain(k, &roles)
        }),
        (1usize..4, any::<bool>()).prop_map(|(b, inputs)| generators::dispatcher(b, inputs)),
        (2usize..5, 1usize..5).prop_map(|(half, k)| token_ring(half, k.min(2 * half))),
        (2usize..5).prop_map(generators::arbiter),
        (1usize..4).prop_map(generators::selector_tree),
        (1usize..5).prop_map(generators::ripple_counter),
        (2usize..5, any::<bool>()).prop_map(|(n, shared)| generators::paralleliser(n, shared)),
        (0..fixed_len).prop_map(move |i| fixed[i].1.clone()),
    ]
}

fn build_all(spec: &Stg) -> Vec<Box<dyn StateSpace>> {
    BACKENDS
        .iter()
        .map(|b| {
            b.build(spec)
                .unwrap_or_else(|e| panic!("{} build failed on {}: {e}", b, spec.name()))
        })
        .collect()
}

/// Both engines' spaces of `spec`, typed.
fn build_both(spec: &Stg) -> (StateGraph, SymbolicSetSpace) {
    let graph = StateGraph::build(spec)
        .unwrap_or_else(|e| panic!("explicit build failed on {}: {e}", spec.name()));
    let symbolic = SymbolicSetSpace::build(spec)
        .unwrap_or_else(|e| panic!("symbolic-set build failed on {}: {e}", spec.name()));
    (graph, symbolic)
}

/// The explicit oracle of [`SymbolicSetSpace::excitation_classes`]: the
/// states of `sg` where a rising edge of `signal` is enabled, where a
/// falling edge is, and the rest.
fn excitation_partition(spec: &Stg, sg: &StateGraph, signal: SignalId) -> [Vec<usize>; 3] {
    let mut parts: [Vec<usize>; 3] = Default::default();
    for i in 0..sg.num_states() {
        let edges: Vec<SignalEdge> = sg
            .excitations(spec, i)
            .into_iter()
            .filter(|&(_, s, _)| s == signal)
            .map(|(_, _, e)| e)
            .collect();
        if edges.contains(&SignalEdge::Rise) {
            parts[0].push(i);
        }
        if edges.contains(&SignalEdge::Fall) {
            parts[1].push(i);
        }
        if edges.is_empty() {
            parts[2].push(i);
        }
    }
    parts
}

/// The explicit oracle of [`SymbolicSetSpace::set_codes`]: the distinct
/// codes of some states of `sg`, sorted.
fn codes_of(sg: &StateGraph, states: &[usize]) -> Vec<Vec<bool>> {
    let mut codes: Vec<Vec<bool>> = states.iter().map(|&i| sg.code(i)).collect();
    codes.sort();
    codes.dedup();
    codes
}

fn code_string(code: &[bool]) -> String {
    code.iter().map(|&x| if x { '1' } else { '0' }).collect()
}

// ---------------------------------------------------------------------
// Agreement properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// State counts, initial states and code multisets agree.
    #[test]
    fn state_counts_and_codes_agree(spec in any_spec()) {
        let spaces = build_all(&spec);
        prop_assert_eq!(spaces[1].num_states(), spaces[0].num_states());
        let (graph, symbolic) = build_both(&spec);
        prop_assert_eq!(symbolic.num_markings(), graph.num_states() as u128);
        // The initial state the verification engine anchors on: the
        // flow hands it the explicit graph whichever engine checked, so
        // the resident space must start from the same marking and code.
        prop_assert_eq!(symbolic.initial_marking(), graph.marking(0), "initial marking");
        prop_assert_eq!(symbolic.initial_values(), graph.initial_values());
        prop_assert_eq!(symbolic.decode_code(0), graph.code(0), "initial code");
        let mut expected: Vec<Vec<bool>> = (0..graph.num_states()).map(|i| graph.code(i)).collect();
        expected.sort();
        let mut got: Vec<Vec<bool>> =
            (0..graph.num_states()).map(|i| symbolic.decode_code(i)).collect();
        got.sort();
        prop_assert_eq!(&got, &expected, "code multiset");
    }

    /// The excitation-region partition of every signal agrees: same
    /// sizes, same code sets, and the regions partition the space.
    #[test]
    fn region_partitions_agree(spec in any_spec()) {
        let (graph, symbolic) = build_both(&spec);
        for signal in spec.signals() {
            let expected = excitation_partition(&spec, &graph, signal);
            let parts = symbolic.excitation_classes(&spec, signal);
            let mut total = 0u128;
            for (states, &part) in expected.iter().zip(&parts) {
                prop_assert_eq!(symbolic.set_count(part), states.len() as u128);
                prop_assert_eq!(symbolic.set_codes(part), codes_of(&graph, states));
                total += symbolic.set_count(part);
            }
            prop_assert_eq!(total, symbolic.num_markings(), "regions partition the space");
        }
    }

    /// The whole implementability report agrees: USC/CSC verdicts,
    /// conflict-pair counts, persistency, deadlock-freedom.
    #[test]
    fn implementability_reports_agree(spec in any_spec()) {
        let spaces = build_all(&spec);
        let reference = stg::properties::report_from_sg(&spec, &*spaces[0]);
        for s in &spaces[1..] {
            let report = stg::properties::report_from_sg(&spec, &**s);
            prop_assert_eq!(report.num_states, reference.num_states);
            prop_assert_eq!(report.unique_state_coding, reference.unique_state_coding);
            prop_assert_eq!(report.complete_state_coding, reference.complete_state_coding);
            prop_assert_eq!(report.csc_conflict_pairs, reference.csc_conflict_pairs);
            prop_assert_eq!(report.persistent, reference.persistent);
            prop_assert_eq!(report.persistency_violations, reference.persistency_violations);
            prop_assert_eq!(report.deadlock_free, reference.deadlock_free);
        }
    }

    /// CSC conflict *witnesses* agree as code classes, the duplication
    /// excess agrees, and the resident `states_with_code` index returns
    /// the explicit graph's counts.
    #[test]
    fn conflict_witnesses_and_code_index_agree(spec in any_spec()) {
        let spaces = build_all(&spec);
        let witness_codes = |space: &dyn StateSpace| {
            let mut codes: Vec<String> = space
                .csc_conflicts(&spec)
                .into_iter()
                .map(|c| code_string(&c.code))
                .collect();
            codes.sort();
            codes
        };
        let reference = witness_codes(&*spaces[0]);
        for s in &spaces[1..] {
            prop_assert_eq!(&witness_codes(&**s), &reference, "conflict code classes ({})", s.backend());
            prop_assert_eq!(s.duplication_excess(), spaces[0].duplication_excess());
        }
        let (graph, symbolic) = build_both(&spec);
        for i in 0..graph.num_states() {
            let code = graph.code(i);
            let expected = graph.states_with_code(&code).len();
            prop_assert_eq!(symbolic.states_with_code(&code).len(), expected);
            prop_assert_eq!(symbolic.set_count(symbolic.states_with_code_set(&code)), expected as u128);
        }
    }
}

// ---------------------------------------------------------------------
// Error paths: same `StgError` variants on every backend
// ---------------------------------------------------------------------

fn build_errors(spec: &Stg, bound: usize) -> Vec<StgError> {
    BACKENDS
        .iter()
        .map(|b| {
            b.build_bounded(spec, bound)
                .err()
                .unwrap_or_else(|| panic!("{b} unexpectedly built {}", spec.name()))
        })
        .collect()
}

#[test]
fn state_limit_errors_agree() {
    // 70 states > 16: every backend must cut off mid-traversal.
    let spec = token_ring(4, 4);
    for e in build_errors(&spec, 16) {
        assert!(
            matches!(e, StgError::Reach(petri::reach::ReachError::StateLimit(16))),
            "expected StateLimit(16), got {e:?}"
        );
    }
    // Both backends bound the same quantity, exactly: every corpus spec
    // builds on both at `bound = num_states` and fails on both at one
    // state fewer. This is why a spec that passes the flow's check on
    // either backend always has the explicit base graph the CSC sweeps
    // derive from (`Checked::resolve_csc`'s refusal never fires after a
    // successful check).
    for (family, spec) in corpus::all_specs() {
        let n = Backend::Explicit
            .build(&spec)
            .unwrap_or_else(|e| panic!("{family}/{}: builds: {e}", spec.name()))
            .num_states();
        for backend in BACKENDS {
            let space = backend
                .build_bounded(&spec, n)
                .unwrap_or_else(|e| panic!("{family}/{}: {backend} at {n}: {e}", spec.name()));
            assert_eq!(space.num_states(), n, "{family}/{}: {backend}", spec.name());
        }
        for e in build_errors(&spec, n - 1) {
            assert!(
                matches!(e, StgError::Reach(petri::reach::ReachError::StateLimit(b)) if b == n - 1),
                "{family}/{}: expected StateLimit({}), got {e:?}",
                spec.name(),
                n - 1
            );
        }
    }
}

#[test]
fn unsafe_net_errors_agree() {
    // Firing x+ puts a second token on q: not safe.
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
    for e in build_errors(&spec, 1_000) {
        assert!(
            matches!(
                e,
                StgError::Reach(petri::reach::ReachError::BoundExceeded(_))
            ),
            "expected BoundExceeded, got {e:?}"
        );
    }
}

#[test]
fn inconsistent_edge_errors_agree() {
    // a+ → b+ → a+ cycle: the second a+ fires from value 1.
    let mut b = StgBuilder::new("inconsistent-edge");
    let a = b.add_signal("a", SignalKind::Output);
    let x = b.add_signal("b", SignalKind::Output);
    let a1 = b.add_edge(a, SignalEdge::Rise);
    let b1 = b.add_edge(x, SignalEdge::Rise);
    let a2 = b.add_edge(a, SignalEdge::Rise);
    b.connect(a1, b1);
    b.connect(b1, a2);
    let p = b.connect(a2, a1);
    b.mark_place(p, 1);
    let spec = b.build();
    let errors = build_errors(&spec, 1_000);
    for e in &errors {
        assert!(
            matches!(e, StgError::InconsistentEdge { .. }),
            "expected InconsistentEdge, got {e:?}"
        );
    }
    // The symbolic witness, state index included, is pinned exactly.
    assert_eq!(
        errors[1],
        StgError::InconsistentEdge {
            transition: "a+/2".to_owned(),
            state: 1
        }
    );
}

#[test]
fn inconsistent_code_errors_agree() {
    // One-shot choice whose branches disagree on x at the merge place:
    // the merge marking is reached with x = 1 and x = 0. No edge ever
    // fires from a wrong value, so this must surface as the
    // InconsistentCode variant on every backend.
    let mut b = StgBuilder::new("inconsistent-code");
    let x = b.add_signal("x", SignalKind::Output);
    let xp = b.add_edge(x, SignalEdge::Rise);
    let skip = b.add_dummy("skip");
    let choice = b.add_place("choice", 1);
    let merge = b.add_place("merge", 0);
    b.arc_pt(choice, xp);
    b.arc_pt(choice, skip);
    b.arc_tp(xp, merge);
    b.arc_tp(skip, merge);
    let spec = b.build();
    let errors = build_errors(&spec, 1_000);
    for e in &errors {
        assert!(
            matches!(e, StgError::InconsistentCode { .. }),
            "expected InconsistentCode, got {e:?}"
        );
    }
    assert_eq!(errors[1], StgError::InconsistentCode { state: 1 });
}

/// A spec whose signal `a` is inconsistent in its initial state (`a+`
/// and `a-` both enabled), with the rest of the net spliced in by `rest`.
fn inconsistent_at_start(name: &str, rest: impl FnOnce(&mut StgBuilder)) -> Stg {
    let mut b = StgBuilder::new(name);
    let a = b.add_signal("a", SignalKind::Output);
    let rise = b.add_edge(a, SignalEdge::Rise);
    let fall = b.add_edge(a, SignalEdge::Fall);
    for t in [rise, fall] {
        let before = b.add_place(format!("before-{t:?}"), 1);
        let after = b.add_place(format!("after-{t:?}"), 0);
        b.arc_pt(before, t);
        b.arc_tp(t, after);
    }
    rest(&mut b);
    b.build()
}

#[test]
fn unsafe_and_inconsistent_reports_the_bound() {
    // A dummy chain three firings deep ends on an already-marked place.
    let spec = inconsistent_at_start("unsafe-inconsistent", |b| {
        let places: Vec<_> = (0..4)
            .map(|i| b.add_place(format!("s{i}"), u32::from(i == 0 || i == 3)))
            .collect();
        for (i, w) in places.windows(2).enumerate() {
            let d = b.add_dummy(format!("d{i}"));
            b.arc_pt(w[0], d);
            b.arc_tp(d, w[1]);
        }
    });
    for e in build_errors(&spec, 1_000) {
        assert!(
            matches!(
                e,
                StgError::Reach(petri::reach::ReachError::BoundExceeded(_))
            ),
            "expected BoundExceeded, got {e:?}"
        );
    }
}

#[test]
fn over_limit_and_inconsistent_reports_the_limit() {
    // Four independent dummy toggles: 16 × 4 markings, far past 8.
    let spec = inconsistent_at_start("over-limit-inconsistent", |b| {
        for i in 0..4 {
            let on = b.add_place(format!("on{i}"), 1);
            let off = b.add_place(format!("off{i}"), 0);
            let (d, e) = (b.add_dummy(format!("d{i}")), b.add_dummy(format!("e{i}")));
            b.arc_pt(on, d);
            b.arc_tp(d, off);
            b.arc_pt(off, e);
            b.arc_tp(e, on);
        }
    });
    for e in build_errors(&spec, 8) {
        assert!(
            matches!(e, StgError::Reach(petri::reach::ReachError::StateLimit(8))),
            "expected StateLimit(8), got {e:?}"
        );
    }
    // Within the limit the inconsistency itself is reported.
    for e in build_errors(&spec, 1_000) {
        assert!(
            matches!(e, StgError::InconsistentEdge { .. }),
            "expected InconsistentEdge, got {e:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Scale parity: the benchmark's analysis specs
// ---------------------------------------------------------------------

/// The six large specs of the `analysis-scale` benchmark render
/// byte-equal check reports on both backends, at their closed-form state
/// counts (`C(2·half, k)` and `4·5ⁿ`).
#[test]
fn scale_reports_agree() {
    let mut specs: Vec<(Stg, Option<usize>)> =
        [(6, 6, 924), (7, 5, 2002), (8, 4, 1820), (9, 9, 48_620)]
            .into_iter()
            .map(|(half, k, states)| (token_ring(half, k), Some(states)))
            .collect();
    specs.push((stg::examples::micropipeline(4), Some(4 * 625)));
    specs.push((stg::examples::micropipeline(5), Some(4 * 3125)));
    specs.push((generators::paralleliser(6, false), None));
    for (spec, states) in specs {
        let reports: Vec<String> = BACKENDS
            .iter()
            .map(|&backend| {
                let options = asyncsynth::SynthesisOptions {
                    backend,
                    ..Default::default()
                };
                let report =
                    match asyncsynth::Synthesis::with_options(spec.clone(), options).check() {
                        Ok(checked) => checked.report().clone(),
                        Err(asyncsynth::PipelineError::NotImplementable(report)) => *report,
                        Err(e) => panic!("{} on {backend}: {e}", spec.name()),
                    };
                if let Some(n) = states {
                    assert_eq!(report.num_states, n, "{} on {backend}", spec.name());
                }
                asyncsynth::summary::report_to_json(&report).render()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "{}", spec.name());
    }
}

// ---------------------------------------------------------------------
// The scale probe: a ≥ 10⁶-state build that never decodes
// ---------------------------------------------------------------------

/// `Backend::SymbolicSet` builds a `C(24,12)` ≈ 2.7 M-state token ring
/// and answers implementability queries and the full check-stage report
/// while the observer counter proves that no state was ever decoded. (The explicit backend cannot
/// even represent this space within the default bound.)
#[test]
fn million_state_build_stays_symbolic() {
    let spec = token_ring(12, 12);
    let space = SymbolicSetSpace::build_bounded(&spec, 5_000_000)
        .expect("resident-BDD build of the 2.7M-state ring");
    assert_eq!(
        space.num_markings(),
        2_704_156,
        "C(24,12) reachable markings"
    );
    assert!(space.num_markings() >= 1_000_000);
    assert_eq!(StateSpace::num_states(&space) as u128, space.num_markings());
    assert_eq!(
        space.set_count(space.all_states()),
        space.num_markings(),
        "set-level count of the full space"
    );
    assert!(
        space.duplication_excess() >= space.num_markings() - (1 << spec.num_signals()),
        "at most 2^signals distinct codes"
    );

    // Set-level implementability queries at full scale.
    assert!(!space.has_usc(), "2^12 codes < 2.7M states");
    assert!(!space.has_csc(&spec));
    assert!(space.is_persistent(&spec), "marked-graph ring");
    assert!(!space.has_deadlock());
    for signal in spec.signals().take(3) {
        let total: u128 = space
            .excitation_classes(&spec, signal)
            .into_iter()
            .map(|part| space.set_count(part))
            .sum();
        assert_eq!(total, space.num_markings(), "regions partition the space");
    }

    // The full check-stage report, CSC conflict pairs included, counted
    // over the whole space at once.
    let report = space.report(&spec);
    assert_eq!(report.num_states, 2_704_156);
    assert_eq!(report.csc_conflict_pairs, 1_019_193_182);

    // The memory probe: everything above ran without decoding a single
    // state.
    assert_eq!(space.decoded_states(), 0, "no per-state decode happened");

    // Witness decode still works — and stays bounded: one block.
    let code = space.decode_code(1_000_000);
    assert_eq!(code.len(), spec.num_signals());
    assert!(space.decoded_states() > 0);
    assert!(
        space.decoded_states() <= 512,
        "one LRU block, not the space"
    );
}

/// Cache keys shard per backend: a result computed by one engine is
/// never served to another (their event logs and stats differ even when
/// the circuit is byte-identical).
#[test]
fn cache_keys_shard_per_backend() {
    let spec = stg::examples::vme_read();
    let keys: Vec<String> = BACKENDS
        .iter()
        .map(|&backend| {
            let options = asyncsynth::SynthesisOptions {
                backend,
                ..Default::default()
            };
            asyncsynth::cache_key(&spec, &options, asyncsynth::CacheStage::Full).to_hex()
        })
        .collect();
    assert_ne!(keys[0], keys[1]);
}
