//! Back-annotation (§4, Fig. 10): extract a Petri net from a state graph
//! via the theory of regions, and verify it regenerates the behaviour.
//!
//! The extraction consumes the explicit state graph's transition system.
//!
//! Run with `cargo run --example back_annotation` (release mode
//! recommended: region enumeration is exhaustive).

use petri::reach::ReachabilityGraph;
use regions::synthesize_net;
use stg::{examples, StateGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Take the CSC-resolved READ controller (Fig. 7's 16-state SG) and
    // rebuild an STG from the raw state space alone.
    let spec = examples::vme_read_csc();
    let sg = StateGraph::build(&spec)?;
    println!("state graph: {} states", sg.num_states());

    let ts = sg.ts().map_labels(|&t| spec.label_string(t));
    let extracted = synthesize_net(&ts)?;
    println!(
        "extracted net: {} places (minimal regions), {} transitions",
        extracted.net.num_places(),
        extracted.net.num_transitions()
    );
    println!(
        "trace-equivalent to the state graph: {}",
        extracted.trace_equivalent
    );

    print!("{}", extracted.net.describe());

    // The extracted net regenerates exactly the same state space.
    let rg = ReachabilityGraph::build(&extracted.net)?;
    println!(
        "\nregenerated reachability graph: {} states",
        rg.num_states()
    );

    // Regions correspond to places: show a few.
    println!("\nfirst regions (place ↦ member states):");
    for (i, r) in extracted.regions.iter().take(5).enumerate() {
        println!("  r{i}: {:?}", r.states);
    }
    Ok(())
}
