//! Unit and property tests for the Petri-net kernel.

use crate::classify::{choice_places, classify, is_free_choice, is_marked_graph};
use crate::generators;
use crate::invariant::{dense_encoding, place_invariants, sm_components, transition_invariants};
use crate::reach::{ReachError, ReachabilityGraph};
use crate::reduce::reduce_linear;
use crate::symbolic::{compare_exact_vs_approximation, symbolic_reachability};
use crate::unfold::{Ordering, Unfolding};
use crate::{Marking, PetriNet};

/// The two-transition producer/consumer net used across tests.
fn handshake() -> PetriNet {
    generators::parallel_handshakes(1)
}

#[test]
fn token_game_basics() {
    let mut net = PetriNet::new();
    let p0 = net.add_place("p0", 1);
    let p1 = net.add_place("p1", 0);
    let t = net.add_transition("t");
    net.add_arc_place_to_transition(p0, t);
    net.add_arc_transition_to_place(t, p1);
    let m0 = net.initial_marking();
    assert!(net.is_enabled(&m0, t));
    let m1 = net.fire(&m0, t).unwrap();
    assert_eq!(m1.tokens(p0), 0);
    assert_eq!(m1.tokens(p1), 1);
    assert!(net.fire(&m1, t).is_none());
}

#[test]
fn fire_sequence_reports_first_failure() {
    let net = generators::pipeline(3);
    let ts: Vec<_> = net.transitions().collect();
    let m0 = net.initial_marking();
    // t0 is enabled initially (token in p2 before t0).
    assert!(net.fire_sequence(&m0, &[ts[0], ts[1], ts[2]]).is_ok());
    assert_eq!(net.fire_sequence(&m0, &[ts[1]]).unwrap_err(), 0);
}

#[test]
fn marking_display_and_sets() {
    let net = handshake();
    let m0 = net.initial_marking();
    assert_eq!(m0.marked_places().len(), 1);
    assert!(m0.is_safe());
    assert_eq!(m0.total_tokens(), 1);
}

#[test]
fn reachability_of_pipeline() {
    // A 1-token ring of n stages has exactly n reachable markings.
    for n in 2..6 {
        let net = generators::pipeline(n);
        let rg = ReachabilityGraph::build(&net).unwrap();
        assert_eq!(rg.num_states(), n);
        assert!(rg.deadlocks().is_empty());
        assert!(rg.is_live_and_cyclic(&net));
    }
}

#[test]
fn reachability_of_parallel_handshakes_is_exponential() {
    for m in 1..5 {
        let net = generators::parallel_handshakes(m);
        let rg = ReachabilityGraph::build(&net).unwrap();
        assert_eq!(rg.num_states(), 1 << m);
    }
}

#[test]
fn pipeline_with_tokens_counts() {
    // C(n, k) states for the n-stage, k-token FIFO ring.
    let binom = |n: u64, k: u64| -> u64 {
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    };
    for (n, k) in [(4usize, 2usize), (5, 2), (6, 3)] {
        let net = generators::pipeline_with_tokens(n, k);
        let rg = ReachabilityGraph::build(&net).unwrap();
        assert_eq!(
            rg.num_states() as u64,
            binom(n as u64, k as u64),
            "n={n} k={k}"
        );
    }
}

#[test]
fn unbounded_net_detected() {
    // A transition with no inputs floods its output place.
    let mut net = PetriNet::new();
    let p = net.add_place("p", 0);
    let t = net.add_transition("t");
    net.add_arc_transition_to_place(t, p);
    match ReachabilityGraph::build(&net) {
        Err(ReachError::BoundExceeded(_)) => {}
        other => panic!("expected bound violation, got {other:?}"),
    }
}

#[test]
fn state_limit_respected() {
    let net = generators::parallel_handshakes(6); // 64 states
    match ReachabilityGraph::build_bounded(&net, 1, 10) {
        Err(ReachError::StateLimit(10)) => {}
        other => panic!("expected state limit, got {other:?}"),
    }
}

#[test]
fn classification_of_generators() {
    let pipe = generators::pipeline(4);
    let c = classify(&pipe);
    assert!(c.marked_graph);
    assert!(c.free_choice);
    assert!(is_marked_graph(&pipe));

    let choice = generators::choice_ring(3);
    let c = classify(&choice);
    assert!(!c.marked_graph);
    assert!(c.free_choice, "single-place conflicts are free choice");
    assert_eq!(choice_places(&choice).len(), 1);
}

#[test]
fn non_free_choice_detected() {
    // Two transitions sharing one input place but not the other.
    let mut net = PetriNet::new();
    let a = net.add_place("a", 1);
    let b = net.add_place("b", 1);
    let t1 = net.add_transition("t1");
    let t2 = net.add_transition("t2");
    net.add_arc_place_to_transition(a, t1);
    net.add_arc_place_to_transition(a, t2);
    net.add_arc_place_to_transition(b, t2);
    assert!(!is_free_choice(&net));
}

#[test]
fn invariants_of_pipeline() {
    // The 1-token ring has a single minimal P-invariant: all places, k=1.
    let net = generators::pipeline(4);
    let invs = place_invariants(&net);
    assert_eq!(invs.len(), 1);
    assert!(invs[0].is_binary());
    assert_eq!(invs[0].token_count, 1);
    assert_eq!(invs[0].support().len(), 4);
    // And a single T-invariant firing every stage once.
    let tinvs = transition_invariants(&net);
    assert_eq!(tinvs.len(), 1);
    assert_eq!(tinvs[0].support().len(), 4);
}

#[test]
fn invariants_hold_on_reachable_markings() {
    let net = generators::pipeline_with_tokens(5, 2);
    let invs = place_invariants(&net);
    assert!(!invs.is_empty());
    let rg = ReachabilityGraph::build(&net).unwrap();
    for inv in &invs {
        for m in rg.markings() {
            assert_eq!(
                inv.weighted_tokens(m.as_counts()),
                inv.token_count,
                "invariant {} violated at {m}",
                inv.display(&net)
            );
        }
    }
}

#[test]
fn sm_components_of_handshakes() {
    let net = generators::parallel_handshakes(2);
    let comps = sm_components(&net);
    // Each handshake cell {idle_i, busy_i} is an SM component.
    assert_eq!(comps.len(), 2);
    for c in &comps {
        assert_eq!(c.places.len(), 2);
        assert_eq!(c.transitions.len(), 2);
    }
    assert!(crate::invariant::has_sm_cover(&net));
}

#[test]
fn dense_encoding_uses_log_variables() {
    let net = generators::parallel_handshakes(3);
    let enc = dense_encoding(&net);
    // Three 2-place components: one bit each.
    assert_eq!(enc.num_vars, 3);
    assert_eq!(enc.components.len(), 3);
}

#[test]
fn reduction_collapses_pipeline() {
    // A pure ring reduces to a single self-loop transition
    // (§2.2: "it is possible to reduce the whole PN from Figure 3 to a
    // single self-loop transition").
    let net = generators::pipeline(5);
    let (reduced, stats) = reduce_linear(net);
    assert!(stats.total() > 0);
    assert_eq!(reduced.num_transitions(), 1);
    assert!(reduced.num_places() <= 1);
}

#[test]
fn reduction_preserves_state_count_of_choice_ring() {
    // Linear rules must not change the number of reachable markings after
    // projection; for the choice ring, check the reduced net still has a
    // live reachability graph of the same cycle structure.
    let net = generators::choice_ring(2);
    let before = ReachabilityGraph::build(&net).unwrap();
    let (reduced, _) = reduce_linear(net);
    let after = ReachabilityGraph::build(&reduced).unwrap();
    assert!(after.num_states() <= before.num_states());
    assert!(after.deadlocks().is_empty());
}

#[test]
fn symbolic_matches_explicit() {
    for net in [
        generators::pipeline(5),
        generators::parallel_handshakes(4),
        generators::pipeline_with_tokens(5, 2),
        generators::choice_ring(3),
    ] {
        let rg = ReachabilityGraph::build(&net).unwrap();
        let sym = symbolic_reachability(&net);
        assert_eq!(sym.num_markings, rg.num_states() as u128);
    }
}

#[test]
fn invariant_approximation_contains_reachable() {
    for net in [
        generators::pipeline(4),
        generators::parallel_handshakes(3),
        generators::choice_ring(2),
    ] {
        let (exact, approx, contained) = compare_exact_vs_approximation(&net);
        assert!(contained, "approximation must contain the reachable set");
        assert!(approx >= exact);
    }
}

#[test]
fn invariant_approximation_exact_for_sm_covered_net() {
    // For a single handshake the invariant {idle, busy} = 1 is exact.
    let net = generators::parallel_handshakes(1);
    let (exact, approx, contained) = compare_exact_vs_approximation(&net);
    assert!(contained);
    assert_eq!(exact, approx);
}

#[test]
fn unfolding_of_pipeline_is_complete_and_small() {
    let net = generators::pipeline(4);
    let u = Unfolding::build(&net, 1000).unwrap();
    assert!(u.is_complete(&net));
    assert!(u.num_cutoffs() >= 1);
}

#[test]
fn unfolding_linear_for_parallel_handshakes() {
    // RG is 2^m states; the prefix stays linear in m.
    let sizes: Vec<usize> = (1..5)
        .map(|m| {
            let net = generators::parallel_handshakes(m);
            let u = Unfolding::build(&net, 10_000).unwrap();
            assert!(u.is_complete(&net));
            u.num_events()
        })
        .collect();
    for w in sizes.windows(2) {
        assert!(w[1] - w[0] <= 4, "prefix must grow linearly: {sizes:?}");
    }
}

#[test]
fn unfolding_ordering_relations() {
    let net = generators::parallel_handshakes(2);
    let u = Unfolding::build(&net, 1000).unwrap();
    // Find the first req0 and req1 events: they are concurrent.
    let names: Vec<(crate::unfold::EventId, String)> = u
        .events()
        .map(|e| (e, net.transition_name(u.event_transition(e)).to_owned()))
        .collect();
    let req0 = names.iter().find(|(_, n)| n == "req0").unwrap().0;
    let req1 = names.iter().find(|(_, n)| n == "req1").unwrap().0;
    let ack0 = names.iter().find(|(_, n)| n == "ack0").unwrap().0;
    assert_eq!(u.ordering(req0, req1), Ordering::Concurrent);
    assert_eq!(u.ordering(req0, ack0), Ordering::Precedes);
    assert_eq!(u.ordering(ack0, req0), Ordering::Follows);
}

#[test]
fn unfolding_conflict_detected() {
    let net = generators::choice_ring(2);
    let u = Unfolding::build(&net, 1000).unwrap();
    let names: Vec<(crate::unfold::EventId, String)> = u
        .events()
        .map(|e| (e, net.transition_name(u.event_transition(e)).to_owned()))
        .collect();
    let r0 = names.iter().find(|(_, n)| n == "req0").unwrap().0;
    let r1 = names.iter().find(|(_, n)| n == "req1").unwrap().0;
    assert_eq!(u.ordering(r0, r1), Ordering::Conflict);
}

#[test]
fn ts_trace_equivalence() {
    use crate::TransitionSystem;
    let mut a = TransitionSystem::new(2, 0);
    a.add_arc(0, "x", 1);
    a.add_arc(1, "y", 0);
    // Same language, different state count.
    let mut b = TransitionSystem::new(4, 0);
    b.add_arc(0, "x", 1);
    b.add_arc(1, "y", 2);
    b.add_arc(2, "x", 3);
    b.add_arc(3, "y", 0);
    assert!(a.trace_equivalent(&b));
    let mut c = TransitionSystem::new(2, 0);
    c.add_arc(0, "x", 1);
    c.add_arc(1, "x", 0);
    assert!(!a.trace_equivalent(&c));
}

#[test]
fn ts_restrict_to_reachable() {
    use crate::TransitionSystem;
    let mut ts = TransitionSystem::new(3, 0);
    ts.add_arc(0, 'a', 1);
    ts.add_arc(2, 'b', 0); // state 2 unreachable
    let (r, map) = ts.restrict_to_reachable();
    assert_eq!(r.num_states(), 2);
    assert_eq!(r.num_arcs(), 1);
    assert!(map.contains_key(&0) && map.contains_key(&1));
}

mod properties {
    use super::*;
    use crate::symbolic::{image, place_images};
    use bdd::{Bdd, Manager, VarId};
    use proptest::prelude::*;

    /// The frame-relation image the kernel replaced, kept as its oracle:
    /// current/next rails interleaved (place `i` ↦ `2i`, `2i + 1`), a
    /// clause for every place (token moves on the transition's own
    /// places, `cur ↔ next` on the rest), the relational product over the
    /// current rail, then a rename of the next rail back onto it.
    fn frame_relation_image(
        m: &mut Manager,
        net: &PetriNet,
        t: crate::TransitionId,
        set: Bdd,
    ) -> Bdd {
        let (pre, post) = (net.preset(t), net.postset(t));
        let mut rel = Manager::one();
        for p in net.places() {
            let c = m.var(2 * p.0);
            let n = m.var(2 * p.0 + 1);
            let clause = match (pre.contains(&p), post.contains(&p)) {
                (true, false) => {
                    let nn = m.not(n);
                    m.and(c, nn)
                }
                (false, true) => {
                    let nc = m.not(c);
                    m.and(nc, n)
                }
                (true, true) => m.and(c, n),
                (false, false) => m.iff(c, n),
            };
            rel = m.and(rel, clause);
        }
        let cur: Vec<VarId> = net.places().map(|p| 2 * p.0).collect();
        let next: Vec<VarId> = net.places().map(|p| 2 * p.0 + 1).collect();
        let img = m.and_exists(set, rel, &cur);
        m.rename(img, &next, &cur)
    }

    /// The set of markings whose place bits are the low bits of `words`.
    fn marking_set(m: &mut Manager, net: &PetriNet, words: &[u64]) -> Bdd {
        let mut set = Manager::zero();
        for &w in words {
            let literals: Vec<(VarId, bool)> = net
                .places()
                .map(|p| (2 * p.0, (w >> (p.index() % 64)) & 1 == 1))
                .collect();
            let cube = m.cube(&literals);
            set = m.or(set, cube);
        }
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_safe_nets_stay_safe(n in 2usize..5, extra in 0usize..4, seed in 0u64..500) {
            let net = generators::random_safe_net(n, extra, seed);
            if let Ok(rg) = ReachabilityGraph::build_bounded(&net, 1, 50_000) {
                for m in rg.markings() {
                    prop_assert!(m.is_safe());
                }
            }
        }

        #[test]
        fn symbolic_equals_explicit_on_random_nets(n in 2usize..5, extra in 0usize..3, seed in 0u64..200) {
            let net = generators::random_safe_net(n, extra, seed);
            if let Ok(rg) = ReachabilityGraph::build_bounded(&net, 1, 20_000) {
                let sym = symbolic_reachability(&net);
                prop_assert_eq!(sym.num_markings, rg.num_states() as u128);
            }
        }

        #[test]
        fn image_kernel_matches_frame_relations(
            n in 2usize..5,
            extra in 0usize..3,
            seed in 0u64..200,
            words in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let net = generators::random_safe_net(n, extra, seed);
            let mut m = Manager::new();
            for p in net.places() {
                m.var(2 * p.0);
                m.var(2 * p.0 + 1);
            }
            let place_var: Vec<VarId> = net.places().map(|p| 2 * p.0).collect();
            let images = place_images(&mut m, &net, &place_var);
            let init = crate::symbolic::initial_cube(&mut m, &net, &place_var);
            let random = marking_set(&mut m, &net, &words);
            for set in [init, random, Manager::one()] {
                let mut union = Manager::zero();
                for (t, kernel) in net.transitions().zip(&images) {
                    let oracle = frame_relation_image(&mut m, &net, t, set);
                    prop_assert_eq!(kernel.apply(&mut m, set), oracle);
                    union = m.or(union, oracle);
                }
                prop_assert_eq!(image(&mut m, &images, set), union);
            }
            if let Ok(rg) = ReachabilityGraph::build_bounded(&net, 1, 20_000) {
                prop_assert_eq!(symbolic_reachability(&net).num_markings, rg.num_states() as u128);
            }
        }

        #[test]
        fn invariants_conserved_on_random_nets(n in 2usize..5, extra in 0usize..3, seed in 0u64..200) {
            let net = generators::random_safe_net(n, extra, seed);
            let invs = place_invariants(&net);
            if let Ok(rg) = ReachabilityGraph::build_bounded(&net, 1, 20_000) {
                for inv in &invs {
                    for m in rg.markings() {
                        prop_assert_eq!(inv.weighted_tokens(m.as_counts()), inv.token_count);
                    }
                }
            }
        }

        #[test]
        fn unfolding_complete_on_random_nets(n in 2usize..4, extra in 0usize..3, seed in 0u64..100) {
            let net = generators::random_safe_net(n, extra, seed);
            if ReachabilityGraph::build_bounded(&net, 1, 2_000).is_ok() {
                if let Ok(u) = Unfolding::build(&net, 2_000) {
                    prop_assert!(u.is_complete(&net));
                }
            }
        }

        #[test]
        fn reduction_keeps_deadlock_freedom(n in 2usize..6) {
            let net = generators::pipeline(n);
            let before = ReachabilityGraph::build(&net).unwrap();
            prop_assert!(before.deadlocks().is_empty());
            let (reduced, _) = reduce_linear(net);
            if reduced.num_transitions() > 0 {
                let after = ReachabilityGraph::build(&reduced).unwrap();
                prop_assert!(after.deadlocks().is_empty());
            }
        }
    }
}

#[test]
fn send_sync_handles() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PetriNet>();
    assert_send_sync::<Marking>();
    assert_send_sync::<ReachabilityGraph>();
}
