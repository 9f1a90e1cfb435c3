//! Regenerates every figure and inline table of the DAC'98 tutorial
//! (see `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! the recorded paper-vs-measured comparison).
//!
//! Run with `cargo run --release -p bench --bin experiments`.

use std::time::Instant;

use asyncsynth::{CscStrategy, Synthesis};
use petri::invariant::{dense_encoding, place_invariants, sm_components};
use petri::reach::ReachabilityGraph;
use petri::reduce::reduce_linear;
use petri::symbolic::{compare_exact_vs_approximation, symbolic_reachability};
use petri::unfold::Unfolding;
use petri::{classify, generators};
use stg::examples::{vme_read, vme_read_csc, vme_read_write};
use stg::StateGraph;
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::latch_arch::{synthesize_latch_circuit, LatchStyle};
use synth::NetId;
use timing::{
    apply_assumptions, cycle_time, max_separation, retime_trigger, SeparationQuery,
    TimedMarkedGraph, TimingAssumption,
};
use verify::{verify_with, VerifyOptions};

fn heading(tag: &str, title: &str) {
    println!("\n================================================================");
    println!("{tag}: {title}");
    println!("================================================================");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    f2_waveforms()?;
    f3_read_stg()?;
    f4_state_graph()?;
    f5_read_write()?;
    f6_reduction_invariants()?;
    f7_csc_resolution()?;
    e1_equations()?;
    f8_latch_implementations()?;
    f9_decomposition()?;
    f10_back_annotation()?;
    f11_timing_optimisation()?;
    t_props()?;
    a1_explicit_vs_symbolic()?;
    a2_unfolding_vs_rg()?;
    a3_invariant_approximation()?;
    a4_minimisation()?;
    p1_performance()?;
    println!("\nall experiments completed");
    Ok(())
}

fn f2_waveforms() -> Result<(), Box<dyn std::error::Error>> {
    heading("F2", "Fig. 2 — waveforms of the READ cycle");
    let spec = vme_read();
    let sg = StateGraph::build(&spec)?;
    let cycle = stg::waveform::canonical_cycle(&sg, 100);
    println!(
        "trace: {}",
        stg::waveform::render_trace_header(&spec, &cycle)
    );
    print!("{}", stg::waveform::render_waveforms(&spec, &sg, &cycle));
    Ok(())
}

fn f3_read_stg() -> Result<(), Box<dyn std::error::Error>> {
    heading("F3", "Fig. 3 — STG for the READ cycle");
    let spec = vme_read();
    let c = classify::classify(spec.net());
    println!(
        "transitions: {}   places: {}   marked graph: {}   free choice: {}",
        spec.net().num_transitions(),
        spec.net().num_places(),
        c.marked_graph,
        c.free_choice
    );
    let rg = ReachabilityGraph::build(spec.net())?;
    println!(
        "safe: yes   live+cyclic: {}   deadlocks: {}",
        rg.is_live_and_cyclic(spec.net()),
        rg.deadlocks().len()
    );
    print!("{}", stg::parse::write_g(&spec));
    Ok(())
}

fn f4_state_graph() -> Result<(), Box<dyn std::error::Error>> {
    heading("F4", "Fig. 4 — RG/SG for the READ cycle (paper: 14 states)");
    let spec = vme_read();
    let sg = StateGraph::build(&spec)?;
    println!("states: {}  <DSr,DTACK,LDTACK,LDS,D>", sg.num_states());
    for i in 0..sg.num_states() {
        println!(
            "  s{i:<3} {:<12} {}",
            sg.code_string(&spec, i),
            sg.marking(i)
        );
    }
    let conflicts = stg::encoding::csc_conflicts(&spec, &sg);
    for c in &conflicts {
        let code: String = c.code.iter().map(|&b| if b { '1' } else { '0' }).collect();
        println!(
            "CSC conflict (the paper's underlined pair): s{} / s{} share code {code}",
            c.states.0, c.states.1
        );
    }
    Ok(())
}

fn f5_read_write() -> Result<(), Box<dyn std::error::Error>> {
    heading("F5", "Fig. 5 — STG for READ and WRITE cycles (choice)");
    let spec = vme_read_write();
    let sg = StateGraph::build(&spec)?;
    let choices = classify::choice_places(spec.net());
    let merges = classify::merge_places(spec.net());
    println!(
        "states: {}   choice places: {}   merge places: {}",
        sg.num_states(),
        choices.len(),
        merges.len()
    );
    let input_choices = stg::persistency::persistency_violations(&spec, &sg)
        .iter()
        .filter(|v| v.kind == stg::persistency::ViolationKind::InputChoice)
        .count();
    println!("input-choice (DSr+/DSw+ arbitration) disablings: {input_choices}");
    println!(
        "output-persistent: {}",
        stg::persistency::is_persistent(&spec, &sg)
    );
    Ok(())
}

fn f6_reduction_invariants() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "F6",
        "Fig. 6 — linear reduction, SM components, invariants, dense encoding",
    );
    let spec = vme_read_write();
    let (reduced, stats) = reduce_linear(spec.net().clone());
    println!(
        "reduced net: {} places, {} transitions ({} rule applications)",
        reduced.num_places(),
        reduced.num_transitions(),
        stats.total()
    );
    print!("{}", reduced.describe());
    println!("place invariants (the paper's I1, I2):");
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
        println!("  SM{i}: transitions {{{}}}", ts.join(", "));
    }
    let enc = dense_encoding(&reduced);
    println!(
        "dense encoding: {} boolean variables for {} places (paper: 4 variables)",
        enc.num_vars,
        reduced.num_places()
    );
    let (exact, approx, contained) = compare_exact_vs_approximation(&reduced);
    println!(
        "reachable: {exact}   invariant conjunction: {approx}   exact: {}   contained: {contained}",
        exact == approx
    );
    // The paper also reduces the READ-cycle MG to a single self-loop.
    let (read_reduced, _) = reduce_linear(vme_read().net().clone());
    println!(
        "READ cycle reduces to {} transition(s) (paper: a single self-loop transition)",
        read_reduced.num_transitions()
    );
    Ok(())
}

fn f7_csc_resolution() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "F7",
        "Fig. 7 — SG with complete state coding (paper: csc0, 16 states)",
    );
    let spec = vme_read();
    let result = Synthesis::new(spec).run()?;
    match &result.transformation {
        Some(t) => println!("automatic resolution: {t}"),
        None => println!("automatic resolution: none"),
    }
    println!("states: {} (paper: 16)", result.num_states());
    println!(
        "CSC holds: {}",
        stg::encoding::has_csc(&result.spec, result.state_space())
    );
    // The manual Fig. 7 STG for comparison.
    let manual = vme_read_csc();
    let msg = StateGraph::build(&manual)?;
    println!(
        "manual Fig. 7 STG: {} states, CSC: {}",
        msg.num_states(),
        stg::encoding::has_csc(&manual, &msg)
    );
    Ok(())
}

fn e1_equations() -> Result<(), Box<dyn std::error::Error>> {
    heading("E1", "§3.2 — next-state functions and equations");
    let spec = vme_read_csc();
    let sg = StateGraph::build(&spec)?;
    let circuit = synthesize_complex_gates(&spec, &sg)?;
    println!("{}", circuit.display_equations(&spec));
    println!("(paper: D = LDTACK csc0; LDS = D + csc0; DTACK = D; csc0 = DSr (csc0 + LDTACK'))");
    // §3.2's f_LDS table rows.
    let lds = spec.signal_by_name("LDS").unwrap();
    let f = synth::derive_function(&spec, &sg, lds)?;
    println!("\nf_LDS samples (code <DSr,DTACK,LDTACK,LDS,D,csc0> -> value):");
    for (code, expect) in [
        ("100001", "1 (ER(LDS+))"),
        ("101111", "1 (QR(LDS+))"),
        ("101100", "0 (ER(LDS-))"),
        ("000000", "0 (QR(LDS-))"),
    ] {
        let bits: Vec<bool> = code.chars().map(|c| c == '1').collect();
        println!("  {code} -> {:?}   (paper: {expect})", f.value(&bits));
    }
    Ok(())
}

fn f8_latch_implementations() -> Result<(), Box<dyn std::error::Error>> {
    heading("F8", "Fig. 8 — C-element and RS-latch implementations");
    let spec = vme_read_csc();
    let sg = StateGraph::build(&spec)?;
    let options = VerifyOptions::default();
    for (style, name) in [
        (LatchStyle::CElement, "Fig. 8a (C-element)"),
        (LatchStyle::RsLatch, "Fig. 8b (RS latch)"),
    ] {
        let circ = synthesize_latch_circuit(&spec, &sg, style)?;
        println!("--- {name} ---");
        print!("{}", circ.netlist().describe());
        let violations = synth::latch_arch::monotonic_violations(&spec, &sg, &circ.covers);
        let (atomic, nets) = circ.atomic_netlist(&spec);
        let v = verify_with(&spec, &sg, &atomic, &nets, &options);
        println!(
            "monotonous covers: {}   speed-independent: {}",
            violations.is_empty(),
            v.is_speed_independent()
        );
    }
    Ok(())
}

fn f9_decomposition() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "F9",
        "Fig. 9 — two-input decomposition: (a) accepted, (b) rejected",
    );
    let spec = vme_read_csc();
    let sg = StateGraph::build(&spec)?;
    let circuit = synthesize_complex_gates(&spec, &sg)?;
    let naive = decompose(&spec, &circuit, 2);
    let nets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
    let options = VerifyOptions::default();
    let naive_report = verify_with(&spec, &sg, naive.netlist(), &nets, &options);
    println!("--- naive decomposition (the paper's hazardous Fig. 9b shape) ---");
    print!("{}", naive.netlist().describe());
    println!("verdict: {}", naive_report.summary());
    for h in naive_report.hazards.iter().take(3) {
        println!(
            "  hazard witness: {} de-excited by {}",
            h.gate_output, h.caused_by
        );
    }
    let resub = resubstitute(&spec, &sg, &naive);
    let rnets: Vec<NetId> = spec.signals().map(|s| resub.signal_net(s)).collect();
    let resub_report = verify_with(&spec, &sg, resub.netlist(), &rnets, &options);
    println!("--- after resubstitution (the paper's Fig. 9a, multiple acknowledgment) ---");
    print!("{}", resub.netlist().describe());
    println!("verdict: {}", resub_report.summary());
    let lib = synth::library::Library::two_input();
    match synth::library::map_to_library(resub.netlist(), &lib) {
        Ok(m) => println!(
            "two-input library mapping: {} cells, area {}",
            m.num_cells(),
            m.area()
        ),
        Err(e) => println!("mapping failed: {e:?}"),
    }
    Ok(())
}

fn f10_back_annotation() -> Result<(), Box<dyn std::error::Error>> {
    heading("F10", "Fig. 10 — back-annotated STG via theory of regions");
    let spec = vme_read_csc();
    let sg = StateGraph::build(&spec)?;
    let ts = sg.ts().map_labels(|&t| spec.label_string(t));
    let t0 = Instant::now();
    let extracted = regions::synthesize_net(&ts)?;
    println!(
        "extracted net: {} places, {} transitions in {:?}",
        extracted.net.num_places(),
        extracted.net.num_transitions(),
        t0.elapsed()
    );
    println!("trace-equivalent to the SG: {}", extracted.trace_equivalent);
    print!("{}", extracted.net.describe());
    Ok(())
}

fn f11_timing_optimisation() -> Result<(), Box<dyn std::error::Error>> {
    heading("F11", "Fig. 11 — circuits after timing optimisation");
    let spec = vme_read();
    // (a) sep(LDTACK-, DSr+) < 0.
    let timed = apply_assumptions(&spec, &[TimingAssumption::new("LDTACK-", "DSr+")])?;
    let sg_a = StateGraph::build(&timed)?;
    println!("--- (a) sep(LDTACK-, DSr+) < 0 ---");
    println!(
        "states: {} (untimed: 14)   CSC without state signal: {}",
        sg_a.num_states(),
        stg::encoding::has_csc(&timed, &sg_a)
    );
    let r = Synthesis::new(timed.clone()).csc(CscStrategy::Fail).run()?;
    println!("{}", r.equations_text);
    // (b) lazy LDS- under sep(D-, LDS-) < 0.
    let lazy = retime_trigger(&spec, "LDS-", "D-", "DSr-")?;
    let sg_b = StateGraph::build(&lazy)?;
    println!("--- (b) lazy LDS- (enabled from DSr-, sep(D-, LDS-) < 0) ---");
    println!("states: {}", sg_b.num_states());
    // (c) both.
    let both = apply_assumptions(&lazy, &[TimingAssumption::new("LDTACK-", "DSr+")])?;
    let sg_c = StateGraph::build(&both)?;
    println!("--- (c) both assumptions ---");
    println!(
        "states: {}   CSC: {}",
        sg_c.num_states(),
        stg::encoding::has_csc(&both, &sg_c)
    );
    if let Ok(r) = Synthesis::new(both.clone()).csc(CscStrategy::Fail).run() {
        println!("{}", r.equations_text);
    }
    Ok(())
}

fn t_props() -> Result<(), Box<dyn std::error::Error>> {
    heading("T-props", "§2.1 — implementability property suite");
    for (name, spec) in [
        ("vme-read", vme_read()),
        ("vme-read-csc", vme_read_csc()),
        ("vme-read-write", vme_read_write()),
        ("toggle", stg::examples::toggle()),
        ("micropipeline-2", stg::examples::micropipeline(2)),
    ] {
        println!("--- {name} ---");
        println!(
            "{}",
            stg::properties::check_implementability(&spec, stg::Backend::Explicit)
        );
    }
    Ok(())
}

fn a1_explicit_vs_symbolic() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "A1",
        "§2.2 ablation — explicit vs BDD reachability (FIFO rings)",
    );
    println!("-- FIFO rings (modest concurrency) --");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "n", "states", "explicit", "symbolic", "bdd nodes"
    );
    for n in [6usize, 8, 10, 12, 14] {
        let net = generators::pipeline_with_tokens(n, n / 2);
        let t0 = Instant::now();
        let rg = ReachabilityGraph::build(&net)?;
        let te = t0.elapsed();
        let t1 = Instant::now();
        let sym = symbolic_reachability(&net);
        let ts = t1.elapsed();
        assert_eq!(sym.num_markings, rg.num_states() as u128);
        println!(
            "{:<8} {:>10} {:>12?} {:>12?} {:>10}",
            n,
            rg.num_states(),
            te,
            ts,
            sym.manager.node_count()
        );
    }
    println!("-- independent handshakes (exponential concurrency: 2^m states) --");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "m", "states", "explicit", "symbolic", "bdd nodes"
    );
    for m in [8usize, 12, 16] {
        let net = generators::parallel_handshakes(m);
        let t0 = Instant::now();
        let rg = ReachabilityGraph::build_bounded(&net, 1, 1 << 22)?;
        let te = t0.elapsed();
        let t1 = Instant::now();
        let sym = symbolic_reachability(&net);
        let ts = t1.elapsed();
        assert_eq!(sym.num_markings, rg.num_states() as u128);
        println!(
            "{:<8} {:>10} {:>12?} {:>12?} {:>10}",
            m,
            rg.num_states(),
            te,
            ts,
            sym.manager.node_count()
        );
    }
    println!("(the BDD stays linear in m while the explicit graph doubles per cell —");
    println!(" the paper's \"implicit representation ... much more compact\" claim)");
    Ok(())
}

fn a2_unfolding_vs_rg() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "A2",
        "§2.2 ablation — unfolding prefix vs reachability graph",
    );
    println!(
        "{:<6} {:>10} {:>10} {:>10}",
        "m", "RG states", "events", "conditions"
    );
    for m in [2usize, 4, 6, 8] {
        let net = generators::parallel_handshakes(m);
        let rg = ReachabilityGraph::build(&net)?;
        let u = Unfolding::build(&net, 100_000).map_err(|e| e.to_string())?;
        println!(
            "{:<6} {:>10} {:>10} {:>10}",
            m,
            rg.num_states(),
            u.num_events(),
            u.num_conditions()
        );
    }
    println!("(RG grows as 2^m; the prefix stays linear — the paper's compactness claim)");
    Ok(())
}

fn a3_invariant_approximation() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "A3",
        "§2.2 ablation — invariant conjunction as an upper approximation",
    );
    println!(
        "{:<24} {:>10} {:>10} {:>10}",
        "net", "exact", "approx", "contained"
    );
    for (name, net) in [
        ("pipeline(6)", generators::pipeline(6)),
        ("handshakes(4)", generators::parallel_handshakes(4)),
        ("choice_ring(3)", generators::choice_ring(3)),
        ("fifo(6,3)", generators::pipeline_with_tokens(6, 3)),
    ] {
        let (exact, approx, contained) = compare_exact_vs_approximation(&net);
        println!("{name:<24} {exact:>10} {approx:>10} {contained:>10}");
    }
    Ok(())
}

fn a4_minimisation() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "A4",
        "§3.2 ablation — exact vs heuristic two-level minimisation",
    );
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10}",
        "function", "exact", "heur", "t_exact", "t_heur"
    );
    for (vars, cubes, seed) in [(6usize, 6usize, 1u64), (8, 8, 2), (8, 12, 3), (10, 10, 4)] {
        let f = bench::random_function(vars, cubes, seed);
        let t0 = Instant::now();
        let exact = boolmin::minimize_exact(&f);
        let te = t0.elapsed();
        let t1 = Instant::now();
        let heur = boolmin::minimize_heuristic(&f);
        let th = t1.elapsed();
        println!(
            "{:<10} {:>8} {:>8} {:>10?} {:>10?}",
            format!("{vars}v/{cubes}c"),
            exact.cubes().len(),
            heur.cubes().len(),
            te,
            th
        );
    }
    Ok(())
}

fn p1_performance() -> Result<(), Box<dyn std::error::Error>> {
    heading(
        "P1",
        "§5 — cycle time and separation bounds of the timed READ cycle",
    );
    let spec = vme_read();
    let net = spec.net().clone();
    let mut delays = vec![(1.0, 2.0); net.num_transitions()];
    let dsr_p = net.transition_by_name("DSr+").unwrap();
    delays[dsr_p.index()] = (20.0, 30.0);
    let tmg = TimedMarkedGraph::new(net, delays);
    println!(
        "cycle time (max delays, slow bus master): {:.1}",
        cycle_time(&tmg)
    );
    let ldtack_m = tmg.net().transition_by_name("LDTACK-").unwrap();
    let dsr_p = tmg.net().transition_by_name("DSr+").unwrap();
    let sep = max_separation(
        &tmg,
        SeparationQuery {
            from: ldtack_m,
            to: dsr_p,
            offset: 1,
        },
        16,
    );
    println!("sep(LDTACK-, next DSr+) = {sep:.1}  (< 0 discharges the Fig. 11a assumption)");
    let d_m = tmg.net().transition_by_name("D-").unwrap();
    let lds_m = tmg.net().transition_by_name("LDS-").unwrap();
    let sep_b = max_separation(
        &tmg,
        SeparationQuery {
            from: d_m,
            to: lds_m,
            offset: 0,
        },
        16,
    );
    println!("sep(D-, LDS-) = {sep_b:.1}  (Fig. 11b requires < 0 after retiming)");
    // Simulation-based throughput of the synthesised circuit.
    let result = Synthesis::new(spec.clone()).run()?;
    let nets = result.circuit.signal_nets(&result.spec);
    let mut simulator = sim::Simulator::new(
        &result.spec,
        result.state_space(),
        result.circuit.netlist().clone(),
        nets,
        sim::SimConfig::default(),
    );
    let stats = simulator.run(20_000.0);
    println!(
        "simulated circuit: {} cycles, avg cycle time {:.2}, glitches {}",
        stats.cycles,
        stats.avg_cycle_time.unwrap_or(f64::NAN),
        stats.glitches
    );
    Ok(())
}
