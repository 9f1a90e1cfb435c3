//! Differential gate for `StateGraph::derive`: a CSC candidate's state
//! graph derived from its base graph must equal the token game on the
//! edited STG — markings, codes, initial values and arcs in order — or
//! fail with the same error.
//!
//! The corpus replay re-runs every greedy step of `resolve_mixed_sweep`
//! on every corpus spec without CSC and compares every arc and insertion
//! move of the step (pruned ones included). The generator cases drive
//! edits the sweeps never try — input transitions, insertions whose
//! rising edge has no input place of its own, tiny state bounds — through
//! the same comparison. A padded VME read cycle of more than 64 signals
//! drives codes that span two words.
//!
//! The conflict kernel (`has_csc`, `csc_conflict_pair_count`) is checked
//! against the definition, pair by pair, on every corpus base graph, on
//! every candidate of the first greedy step of three controllers (the
//! markingless graphs the sweeps score) and on the two-word codes. Every
//! state graph the three sweeps return must equal the token game on the
//! STG it comes with.

use proptest::prelude::*;
use stg::{
    DerivedGraph, SignalEdge, SignalId, SignalKind, StateGraph, Stg, StgBuilder, StgEdit, StgError,
};
use synth::csc::{
    apply_edit, concurrency_reduction_sweep, greedy_moves, insertion_labels, insertion_sweep,
    resolve_mixed_sweep, SweepOptions, DEFAULT_SWEEP_BOUND, MIXED_MAX_STEPS,
};

use petri::reach::ReachError;
use petri::TransitionId;

/// Derives `edit`'s graph and replays the token game on the edited STG;
/// `Err` describes the first difference.
fn compare(
    base_stg: &Stg,
    base: &StateGraph,
    labels: &Stg,
    edit: StgEdit,
    bound: usize,
) -> (Result<StateGraph, StgError>, Result<(), String>) {
    let derived = StateGraph::derive(base, labels, edit, bound);
    let built = StateGraph::build_bounded(&apply_edit(base_stg, edit), bound);
    let verdict = match (&derived, &built) {
        (Ok(d), Ok(b)) => {
            if !same_states(d, b) {
                Err("states (markings or codes) differ".to_owned())
            } else if d.ts().arcs() != b.ts().arcs() {
                Err("arcs differ".to_owned())
            } else if d.initial_values() != b.initial_values() {
                Err("initial values differ".to_owned())
            } else {
                Ok(())
            }
        }
        (Err(d), Err(b)) if d == b => Ok(()),
        (d, b) => Err(format!(
            "derive gave {:?}, the token game {:?}",
            d.as_ref().map(StateGraph::num_states),
            b.as_ref().map(StateGraph::num_states)
        )),
    };
    (derived, verdict)
}

/// `true` when two graphs have the same states in the same order: equal
/// markings and equal codes.
fn same_states(a: &StateGraph, b: &StateGraph) -> bool {
    a.num_states() == b.num_states()
        && (0..a.num_states()).all(|i| a.marking(i) == b.marking(i) && a.code(i) == b.code(i))
}

/// The CSC-violating pairs by definition: states `i < j` with the same
/// code whose sets of excited non-input signals differ.
fn brute_force_conflict_pairs(stg: &Stg, sg: &StateGraph) -> usize {
    let n = sg.num_states();
    let codes: Vec<Vec<bool>> = (0..n).map(|i| sg.code(i)).collect();
    let excited: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut signals: Vec<usize> = sg
                .excitations(stg, i)
                .into_iter()
                .filter(|&(_, s, _)| stg.signal_kind(s).is_non_input())
                .map(|(_, s, _)| s.index())
                .collect();
            signals.sort_unstable();
            signals.dedup();
            signals
        })
        .collect();
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|&(i, j)| codes[i] == codes[j] && excited[i] != excited[j])
        .count()
}

/// Asserts that the conflict kernel's two verdicts agree with
/// `brute_force_conflict_pairs`; returns the pair count.
fn check_kernel(stg: &Stg, sg: &StateGraph, what: &str) -> usize {
    let pairs = brute_force_conflict_pairs(stg, sg);
    assert_eq!(
        stg::encoding::csc_conflict_pair_count(stg, sg),
        pairs,
        "{what}: conflict pairs"
    );
    assert_eq!(
        stg::encoding::has_csc(stg, sg),
        pairs == 0,
        "{what}: has_csc"
    );
    pairs
}

/// Asserts that `space` is the token game's graph of `stg`: the same
/// states (markings and codes), arcs and initial values.
fn assert_token_game_graph(stg: &Stg, space: &StateGraph, bound: usize, what: &str) {
    let built = StateGraph::build_bounded(stg, bound)
        .unwrap_or_else(|e| panic!("{what}: the returned STG builds: {e}"));
    assert!(
        same_states(space, &built),
        "{what}: markings or codes differ"
    );
    assert_eq!(space.ts().arcs(), built.ts().arcs(), "{what}: arcs differ");
    assert_eq!(
        space.initial_values(),
        built.initial_values(),
        "{what}: initial values differ"
    );
}

/// The labels `derive` reads for `edit` on `stg`.
fn labels_for(stg: &Stg, insertion: &Stg, edit: StgEdit) -> Stg {
    match edit {
        StgEdit::OrderingArc(..) => stg.clone(),
        StgEdit::Insertion(..) => insertion.clone(),
    }
}

/// Replays the greedy search on `spec`, comparing every move of every
/// step; returns `(moves compared, mismatches, final STG)`.
fn replay(spec: &Stg) -> (usize, Vec<String>, Option<Stg>) {
    let mut compared = 0;
    let mut mismatches = Vec::new();
    let mut current = spec.clone();
    let Ok(mut base) = StateGraph::build_bounded(&current, DEFAULT_SWEEP_BOUND) else {
        return (0, mismatches, None);
    };
    for step in 0..=MIXED_MAX_STEPS {
        let conflicts = stg::encoding::csc_conflict_pair_count(&current, &base);
        if conflicts == 0 {
            return (compared, mismatches, Some(current));
        }
        if step == MIXED_MAX_STEPS {
            break;
        }
        let insertion = insertion_labels(&current);
        let mut best: Option<((usize, usize), StgEdit, StateGraph)> = None;
        for edit in greedy_moves(&current) {
            let labels = labels_for(&current, &insertion, edit);
            let (derived, verdict) = compare(&current, &base, &labels, edit, DEFAULT_SWEEP_BOUND);
            compared += 1;
            if let Err(why) = verdict {
                mismatches.push(format!("{} step {step} {edit:?}: {why}", spec.name()));
            }
            let Ok(sg) = derived else { continue };
            if sg.ts().deadlocks().is_empty() && stg::persistency::is_persistent(&labels, &sg) {
                let rem = stg::encoding::csc_conflict_pair_count(&labels, &sg);
                let key = (rem, sg.num_states());
                if rem < conflicts && best.as_ref().is_none_or(|(k, ..)| key < *k) {
                    best = Some((key, edit, sg));
                }
            }
        }
        let Some((_, edit, sg)) = best else { break };
        current = apply_edit(&current, edit);
        base = sg;
    }
    (compared, mismatches, None)
}

#[test]
fn corpus_greedy_steps_derive_like_the_token_game() {
    let specs: Vec<(&str, Stg)> = corpus::all_specs()
        .into_iter()
        .filter(|(_, spec)| {
            StateGraph::build(spec).is_ok_and(|sg| !stg::encoding::has_csc(spec, &sg))
        })
        .collect();
    assert!(specs.len() >= 10, "the corpus has specs without CSC");
    let options = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let results: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|(family, spec)| {
                let options = &options;
                scope.spawn(move || {
                    let (compared, mut mismatches, resolved) = replay(spec);
                    // The replay must be the search it claims to replay.
                    let base = StateGraph::build(spec).expect("filtered to specs that build");
                    let swept = resolve_mixed_sweep(spec, MIXED_MAX_STEPS, options, &base);
                    let digest = |s: &Stg| stg::canon::stg_digest(s).to_hex();
                    if resolved.as_ref().map(digest)
                        != swept.candidates.first().map(|r| digest(&r.stg))
                    {
                        mismatches.push(format!(
                            "{family}/{}: the replay ends elsewhere than resolve_mixed_sweep",
                            spec.name()
                        ));
                    }
                    (compared, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay"))
            .collect()
    });
    let compared: usize = results.iter().map(|r| r.0).sum();
    let mismatches: Vec<&String> = results.iter().flat_map(|r| &r.1).collect();
    println!(
        "csc_derive_parity: {} specs, {compared} candidates, {} mismatches",
        specs.len(),
        mismatches.len()
    );
    assert!(
        compared > 10_000,
        "the replay covers the corpus's sweeps ({compared})"
    );
    assert!(mismatches.is_empty(), "derive diverges: {mismatches:#?}");
}

/// The conflict kernel against the definition: on every corpus spec's
/// base graph, and on every candidate of the first greedy step of three
/// controllers and of the padded VME read cycle whose non-input signals
/// sit in the second code word, scored as the sweeps score them (no
/// marking table).
#[test]
fn conflict_kernel_matches_the_definition() {
    let mut conflicting = 0;
    for (family, spec) in corpus::all_specs() {
        if let Ok(sg) = StateGraph::build(&spec) {
            let what = format!("{family}/{}", spec.name());
            conflicting += usize::from(check_kernel(&spec, &sg, &what) > 0);
        }
    }
    assert!(conflicting >= 10, "the corpus has specs without CSC");

    for spec in [
        corpus::generators::ripple_counter(4),
        stg::examples::micropipeline(3),
        stg::examples::vme_read_write(),
        padded_vme_read(true),
    ] {
        let base = StateGraph::build(&spec).expect("the controllers build");
        assert!(
            check_kernel(&spec, &base, spec.name()) > 0,
            "{}: the base has CSC conflicts",
            spec.name()
        );
        let insertion = insertion_labels(&spec);
        let mut scored = 0;
        for edit in greedy_moves(&spec) {
            let labels = labels_for(&spec, &insertion, edit);
            let Ok(derived) = DerivedGraph::new(&base, &labels, edit, DEFAULT_SWEEP_BOUND) else {
                continue;
            };
            check_kernel(
                &labels,
                derived.graph(),
                &format!("{} {edit:?}", spec.name()),
            );
            scored += 1;
        }
        assert!(scored > 0, "{}: some candidates derive", spec.name());
    }
}

/// Every graph the insertion, reduction and mixed sweeps return is the
/// token game's graph of the STG it comes with, markings included, on
/// every corpus spec without CSC.
#[test]
fn swept_spaces_equal_the_token_game() {
    let options = SweepOptions::default();
    let bound = options.bound;
    let mut returned = 0;
    for (family, spec) in corpus::all_specs() {
        let Ok(base) = StateGraph::build_bounded(&spec, bound) else {
            continue;
        };
        if stg::encoding::has_csc(&spec, &base) {
            continue;
        }
        let sweeps = [
            ("insertion", insertion_sweep(&spec, &options, &base)),
            (
                "reduction",
                concurrency_reduction_sweep(&spec, &options, &base),
            ),
            (
                "mixed",
                resolve_mixed_sweep(&spec, MIXED_MAX_STEPS, &options, &base),
            ),
        ];
        for (sweep, result) in sweeps {
            for r in result.candidates {
                let what = format!("{family}/{} {sweep}: {}", spec.name(), r.description);
                assert_eq!(r.num_states, r.space.num_states(), "{what}: state count");
                assert_token_game_graph(&r.stg, &r.space, bound, &what);
                returned += 1;
            }
        }
    }
    assert!(returned > 10, "the sweeps return candidates ({returned})");
}

/// How an edit's build ended, for the coverage tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Built,
    StateLimit,
    UnsafeArc,
    UnsafeSourceInsertion,
    Inconsistent,
    OtherError,
}

fn outcome(stg: &Stg, edit: StgEdit, result: &Result<StateGraph, StgError>) -> Outcome {
    let net = stg.net();
    match (result, edit) {
        (Ok(_), _) => Outcome::Built,
        (Err(StgError::Reach(ReachError::StateLimit(_))), _) => Outcome::StateLimit,
        (Err(StgError::Reach(ReachError::BoundExceeded(_))), StgEdit::OrderingArc(..)) => {
            Outcome::UnsafeArc
        }
        (Err(StgError::Reach(ReachError::BoundExceeded(_))), StgEdit::Insertion(plus, _))
            if net
                .preset(plus)
                .iter()
                .all(|&p| net.place_postset(p).len() > 1) =>
        {
            Outcome::UnsafeSourceInsertion
        }
        (Err(StgError::InconsistentEdge { .. } | StgError::InconsistentCode { .. }), _) => {
            Outcome::Inconsistent
        }
        (Err(_), _) => Outcome::OtherError,
    }
}

/// Small generator specs: sequential cycles, choice places (dispatcher,
/// arbiter, selector tree) and fork/join concurrency.
fn small_specs() -> Vec<Stg> {
    use corpus::generators::*;
    vec![
        handshake_chain(3, &[true, false]),
        dispatcher(2, true),
        dispatcher(2, false),
        arbiter(2),
        selector_tree(1),
        ripple_counter(2),
        paralleliser(2, false),
        paralleliser(2, true),
    ]
}

/// Every edit of every transition pair (inputs included) on the small
/// specs, at a bound of three states and at the sweep bound.
#[test]
fn every_edit_of_small_specs_derives_like_the_token_game() {
    let mut seen = std::collections::HashSet::new();
    let mut choice_places = 0;
    for spec in small_specs() {
        let net = spec.net();
        choice_places += net
            .places()
            .filter(|&p| net.place_postset(p).len() > 1)
            .count();
        let base = StateGraph::build(&spec).expect("generator specs build");
        let insertion = insertion_labels(&spec);
        let transitions: Vec<TransitionId> = net.transitions().collect();
        for &a in &transitions {
            for &b in &transitions {
                let mut edits = vec![StgEdit::OrderingArc(a, b)];
                if a != b {
                    edits.push(StgEdit::Insertion(a, b));
                }
                for edit in edits {
                    for bound in [3, DEFAULT_SWEEP_BOUND] {
                        let labels = labels_for(&spec, &insertion, edit);
                        let (derived, verdict) = compare(&spec, &base, &labels, edit, bound);
                        if let Err(why) = verdict {
                            panic!("{} {edit:?} bound {bound}: {why}", spec.name());
                        }
                        seen.insert(outcome(&spec, edit, &derived));
                    }
                }
            }
        }
    }
    assert!(choice_places > 0, "the specs have choice places");
    for wanted in [
        Outcome::Built,
        Outcome::StateLimit,
        Outcome::UnsafeArc,
        Outcome::UnsafeSourceInsertion,
        Outcome::Inconsistent,
    ] {
        assert!(
            seen.contains(&wanted),
            "no edit ended {wanted:?} (saw {seen:?})"
        );
    }
}

/// Input signals the wide spec adds to the VME read cycle's five.
const PADS: usize = 67;

/// The VME read cycle (`stg::examples::vme_read`) with `PADS` input
/// signals that rise one after another and then fall one after another
/// between `DTACK-` and the next `DSr+`: 72 signals, so codes take two
/// words. The pads settle back to 0 before the cycle's CSC conflict, which
/// stays; the codes they repeat differ only in input excitations. The
/// pads are declared after the cycle's signals, or with `pads_first`
/// before them, which puts every non-input signal in the second word.
fn padded_vme_read(pads_first: bool) -> Stg {
    let add_pads = |b: &mut StgBuilder| -> Vec<SignalId> {
        (0..PADS)
            .map(|i| b.add_signal(format!("pad{i}"), SignalKind::Input))
            .collect()
    };
    let mut b = StgBuilder::new("vme-read-padded");
    let early_pads = if pads_first {
        add_pads(&mut b)
    } else {
        Vec::new()
    };
    let dsr = b.add_signal("DSr", SignalKind::Input);
    let dtack = b.add_signal("DTACK", SignalKind::Output);
    let ldtack = b.add_signal("LDTACK", SignalKind::Input);
    let lds = b.add_signal("LDS", SignalKind::Output);
    let d = b.add_signal("D", SignalKind::Output);
    let pads = if pads_first {
        early_pads
    } else {
        add_pads(&mut b)
    };
    let mut edges = |s| {
        (
            b.add_edge(s, SignalEdge::Rise),
            b.add_edge(s, SignalEdge::Fall),
        )
    };
    let (dsr_p, dsr_m) = edges(dsr);
    let (dtack_p, dtack_m) = edges(dtack);
    let (ldtack_p, ldtack_m) = edges(ldtack);
    let (lds_p, lds_m) = edges(lds);
    let (d_p, d_m) = edges(d);
    b.connect(dsr_p, lds_p);
    b.connect(lds_p, ldtack_p);
    b.connect(ldtack_p, d_p);
    b.connect(d_p, dtack_p);
    b.connect(dtack_p, dsr_m);
    b.connect(dsr_m, d_m);
    b.connect(d_m, dtack_m);
    b.connect(d_m, lds_m);
    b.connect(lds_m, ldtack_m);
    let rises: Vec<_> = pads
        .iter()
        .map(|&p| b.add_edge(p, SignalEdge::Rise))
        .collect();
    let falls: Vec<_> = pads
        .iter()
        .map(|&p| b.add_edge(p, SignalEdge::Fall))
        .collect();
    let chain: Vec<_> = rises.into_iter().chain(falls).collect();
    let start = b.connect(dtack_m, chain[0]);
    for pair in chain.windows(2) {
        b.connect(pair[0], pair[1]);
    }
    b.connect(chain[chain.len() - 1], dsr_p);
    let p8 = b.connect(ldtack_m, lds_p);
    b.mark_place(start, 1);
    b.mark_place(p8, 1);
    b.build()
}

/// Codes wider than one word: edits on signals 63, 64 and the last one
/// derive like the token game, bit tests agree with the unpacked code
/// across the word boundary, and the conflict kernel agrees with the
/// definition and with the witness path.
#[test]
fn codes_wider_than_one_word_derive_like_the_token_game() {
    let spec = padded_vme_read(false);
    let last = spec.num_signals() - 1;
    assert!(last >= 64, "the spec's codes span two words");
    let base = StateGraph::build(&spec).expect("the padded spec builds");
    let check_graph = |stg: &Stg, sg: &StateGraph| {
        for i in 0..sg.num_states() {
            let code = sg.code(i);
            for s in stg.signals() {
                assert_eq!(sg.value(i, s), code[s.index()], "state {i} signal {s:?}");
            }
        }
        let pairs = check_kernel(stg, sg, "padded VME read");
        assert_eq!(pairs, stg::encoding::csc_conflicts(stg, sg).len());
        pairs
    };
    assert!(
        check_graph(&spec, &base) > 0,
        "the VME read conflict survives the padding"
    );
    for s in [63, 64, last] {
        let sig = spec.signals().nth(s).expect("in range");
        assert!(
            (0..base.num_states()).any(|i| base.value(i, sig)),
            "signal {s} rises somewhere"
        );
    }

    let signal_of = |t: TransitionId| spec.label(t).expect("no dummies").signal.index();
    let transitions: Vec<TransitionId> = spec.net().transitions().collect();
    let focus: Vec<TransitionId> = transitions
        .iter()
        .copied()
        .filter(|&t| [63, 64, last].contains(&signal_of(t)))
        .collect();
    let partners: Vec<TransitionId> = transitions
        .iter()
        .copied()
        .filter(|&t| matches!(signal_of(t), 0..=4 | 62..=65) || signal_of(t) + 1 >= last)
        .collect();
    let insertion = insertion_labels(&spec);
    let mut built = 0;
    for &t in &focus {
        for &u in &partners {
            let mut edits = vec![StgEdit::OrderingArc(t, u), StgEdit::OrderingArc(u, t)];
            if t != u {
                edits.extend([StgEdit::Insertion(t, u), StgEdit::Insertion(u, t)]);
            }
            for edit in edits {
                let labels = labels_for(&spec, &insertion, edit);
                let (derived, verdict) = compare(&spec, &base, &labels, edit, DEFAULT_SWEEP_BOUND);
                if let Err(why) = verdict {
                    panic!("{edit:?}: {why}");
                }
                if let Ok(sg) = derived {
                    check_graph(&labels, &sg);
                    built += 1;
                }
            }
        }
    }
    assert!(built > 0, "some edits build");
}

fn generated(kind: usize, size: usize, flag: bool) -> Stg {
    use corpus::generators::*;
    match kind {
        0 => handshake_chain(size + 2, &[flag, !flag, false]),
        1 => dispatcher(size + 1, flag),
        2 => arbiter(size + 2),
        3 => selector_tree(size % 2 + 1),
        4 => ripple_counter(size % 2 + 2),
        _ => paralleliser(size + 2, flag),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_edits_derive_like_the_token_game(
        kind in 0usize..6,
        size in 0usize..3,
        flag in any::<bool>(),
        insert in any::<bool>(),
        a in 0usize..64,
        b in 0usize..64,
        bound in 1usize..12,
    ) {
        let spec = generated(kind, size, flag);
        let base = StateGraph::build(&spec).expect("generator specs build");
        let n = spec.net().num_transitions();
        let (a, b) = (TransitionId::from_index(a % n), TransitionId::from_index(b % n));
        prop_assume!(!insert || a != b);
        let edit = if insert { StgEdit::Insertion(a, b) } else { StgEdit::OrderingArc(a, b) };
        let labels = labels_for(&spec, &insertion_labels(&spec), edit);
        // A bound under 12 states, or none that binds.
        let bound = if bound == 11 { DEFAULT_SWEEP_BOUND } else { bound };
        let (_, verdict) = compare(&spec, &base, &labels, edit, bound);
        prop_assert!(verdict.is_ok(), "{} {:?} bound {}: {:?}", spec.name(), edit, bound, verdict);
    }
}
