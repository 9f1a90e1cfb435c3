//! Verification-engine cost on the decomposed repair loop.
//!
//! `micropipeline-2/*` measures the flow the ROADMAP used to charge
//! *minutes* to (the Decomposed verify/resubstitute loop — the cost
//! actually lived in the repair's exact minimisation, whose prime
//! generation is now the recursive complete sum, plus the per-variant
//! re-verification):
//!
//! * `complex-verify` — the monolithic composed engine on the
//!   complex-gate circuit (the baseline exploration);
//! * `naive-verify` — the same engine on the hazardous fan-in-2
//!   decomposition (bigger composed space, failing);
//! * `loop-cold` — the whole repair loop, decompose → verify →
//!   resubstitute → verify, from scratch each iteration;
//! * `reverify-cold` — just the verification of the repaired
//!   circuit (the pipeline's final probe).

use criterion::{criterion_group, criterion_main, Criterion};
use stg::StateGraph;
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::NetId;
use verify::{verify_with, VerifyOptions};

fn bench_decomposed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify-micropipeline-2");
    group.sample_size(10);
    // The single CSC candidate of the decomposed flow (mixed
    // resolution), prepared once.
    let resolved = asyncsynth::Synthesis::new(stg::examples::micropipeline(2))
        .architecture(asyncsynth::Architecture::Decomposed)
        .check()
        .expect("implementable")
        .resolve_csc()
        .expect("resolvable");
    let spec = resolved.candidates()[0].spec.clone();
    let sg = StateGraph::build(&spec).expect("builds");
    let circuit = synthesize_complex_gates(&spec, &sg).expect("synthesises");
    let cnets: Vec<NetId> = spec.signals().map(|s| circuit.signal_net(s)).collect();
    let naive = decompose(&spec, &circuit, 2);
    let nnets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
    let resub = resubstitute(&spec, &sg, &naive);
    let rnets: Vec<NetId> = spec.signals().map(|s| resub.signal_net(s)).collect();
    let options = VerifyOptions::default();

    group.bench_function("micropipeline-2/complex-verify", |b| {
        b.iter(|| verify_with(&spec, &sg, circuit.netlist(), &cnets, &options).states_explored);
    });
    group.bench_function("micropipeline-2/naive-verify", |b| {
        b.iter(|| {
            let r = verify_with(&spec, &sg, naive.netlist(), &nnets, &options);
            assert!(!r.is_speed_independent());
            r.states_explored
        });
    });
    group.bench_function("micropipeline-2/loop-cold", |b| {
        b.iter(|| {
            let naive = decompose(&spec, &circuit, 2);
            let nets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
            let first = verify_with(&spec, &sg, naive.netlist(), &nets, &options);
            assert!(!first.is_speed_independent());
            let resub = resubstitute(&spec, &sg, &naive);
            let rnets: Vec<NetId> = spec.signals().map(|s| resub.signal_net(s)).collect();
            verify_with(&spec, &sg, resub.netlist(), &rnets, &options).states_explored
        });
    });
    group.bench_function("micropipeline-2/reverify-cold", |b| {
        b.iter(|| verify_with(&spec, &sg, resub.netlist(), &rnets, &options).states_explored);
    });
    group.finish();
}

criterion_group!(benches, bench_decomposed_loop);
criterion_main!(benches);
