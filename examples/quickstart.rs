//! Quickstart: specify the VME-bus READ controller (Fig. 3 of the paper),
//! inspect it, synthesise a speed-independent circuit with the staged
//! pipeline, and print the waveforms, equations and netlist.
//!
//! Run with `cargo run --example quickstart`.

use asyncsynth::{Backend, Synthesis};
use stg::examples;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The specification: a Signal Transition Graph built with the
    //    builder API (see `stg::examples::vme_read` for the construction).
    let spec = examples::vme_read();
    println!("== specification: {} ==", spec.name());
    print!("{}", stg::parse::write_g(&spec));

    // 2. Stage 1 — property checking (§2.1). The chosen backend builds
    //    the state space (Fig. 4: 14 states, binary-coded); the READ
    //    cycle passes everything except CSC.
    let checked = Synthesis::new(spec.clone())
        .backend(Backend::Explicit)
        .check()?;
    let sg = checked.state_space();
    println!(
        "\n== state space ({}): {} states ==",
        sg.backend(),
        sg.num_states()
    );
    for i in 0..sg.num_states() {
        println!(
            "  s{i:<2} {}  {}",
            sg.code_string(&spec, i),
            sg.decode_marking(i)
        );
    }
    println!("\n== implementability ==");
    println!("{}", checked.report());

    // 3. One full READ cycle as waveforms (Fig. 2), walked on the
    //    explicit state graph the check stage built.
    let sg = sg
        .as_state_graph()
        .expect("the explicit backend builds a state graph");
    let cycle = stg::waveform::canonical_cycle(sg, 100);
    println!("\n== waveforms ==");
    println!(
        "trace: {}",
        stg::waveform::render_trace_header(&spec, &cycle)
    );
    print!("{}", stg::waveform::render_waveforms(&spec, sg, &cycle));

    // 4. Stages 2–4 — the pipeline resolves CSC automatically (inserting
    //    a state signal, Fig. 7), synthesises the complex-gate circuit of
    //    §3.2 and verifies it speed-independent.
    let resolved = checked.resolve_csc()?;
    println!("\n== csc candidates: {} ==", resolved.candidates().len());
    for c in resolved.candidates().iter().take(3) {
        if let Some(t) = &c.transformation {
            println!("  {t}");
        }
    }
    let result = resolved.synthesize()?.verify()?;
    println!("\n== synthesis ==");
    if let Some(t) = &result.transformation {
        println!("csc resolution: {t}");
    }
    println!("equations:\n{}", result.equations_text);
    println!("\nnetlist:\n{}", result.circuit.netlist().describe());
    if let Some(v) = result.verification.report() {
        println!("verification: {}", v.summary());
    }

    // 5. The structured event log tells the whole story.
    println!("\n== events ==");
    for e in result.events() {
        println!("  {e}");
    }
    Ok(())
}
