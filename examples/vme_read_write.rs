//! The full READ+WRITE VME-bus controller of Fig. 5: choice places,
//! structural reductions, state-machine components, invariants and the
//! dense encoding of Fig. 6.
//!
//! Run with `cargo run --example vme_read_write`.

use asyncsynth::{Backend, Synthesis};
use petri::invariant::{dense_encoding, place_invariants, sm_components};
use petri::reduce::reduce_linear;
use petri::symbolic::compare_exact_vs_approximation;
use stg::{examples, StateGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = examples::vme_read_write();
    println!("== specification: {} ==", spec.name());
    print!("{}", stg::parse::write_g(&spec));

    // Choice and merge places (§1.5).
    let choices = petri::classify::choice_places(spec.net());
    let merges = petri::classify::merge_places(spec.net());
    println!("\nchoice places: {:?}", names(spec.net(), &choices));
    println!("merge places:  {:?}", names(spec.net(), &merges));

    let sg = StateGraph::build(&spec)?;
    println!("state graph: {} states", sg.num_states());
    println!(
        "\n{}",
        stg::properties::check_implementability(&spec, stg::Backend::Explicit)
    );

    // Fig. 6: linear reductions shrink the net drastically.
    let (reduced, stats) = reduce_linear(spec.net().clone());
    println!(
        "\n== after linear reduction: {} places, {} transitions ({} rules applied) ==",
        reduced.num_places(),
        reduced.num_transitions(),
        stats.total()
    );
    print!("{}", reduced.describe());

    // State-machine components and invariants.
    println!("\nplace invariants of the reduced net:");
    for inv in place_invariants(&reduced) {
        println!("  {}", inv.display(&reduced));
    }
    let comps = sm_components(&reduced);
    println!("state-machine components: {}", comps.len());
    for (i, c) in comps.iter().enumerate() {
        let ts: Vec<&str> = c
            .transitions
            .iter()
            .map(|&t| reduced.transition_name(t))
            .collect();
        println!(
            "  SM{i}: {} places, transitions {{{}}}",
            c.places.len(),
            ts.join(", ")
        );
    }

    // Dense encoding (Fig. 6's table) and the exactness of the
    // invariant-based approximation.
    let enc = dense_encoding(&reduced);
    println!(
        "dense encoding: {} boolean variables for {} places",
        enc.num_vars,
        reduced.num_places()
    );
    let (exact, approx, contained) = compare_exact_vs_approximation(&reduced);
    println!(
        "reachable markings: {exact}; invariant approximation: {approx}; contained: {contained}"
    );

    // Synthesise the full controller through the staged pipeline with
    // the resident-BDD check: the two CSC conflicts of Fig. 5 are
    // resolved automatically (a concurrency reduction plus a state
    // signal) on the explicit graph the flow continues on.
    println!("\n== synthesis (symbolic-set backend) ==");
    let result = Synthesis::new(spec).backend(Backend::SymbolicSet).run()?;
    if let Some(t) = &result.transformation {
        println!("csc resolution: {t}");
    }
    println!("states: {}", result.num_states());
    println!("equations:\n{}", result.equations_text);
    if let Some(v) = result.verification.report() {
        println!("verification: {}", v.summary());
    }
    Ok(())
}

fn names(net: &petri::PetriNet, ps: &[petri::PlaceId]) -> Vec<String> {
    ps.iter().map(|&p| net.place_name(p).to_owned()).collect()
}
