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
//!   circuit (the pipeline's final verification).
//!
//! `vme-read-write/naive-verify` is the naive fan-in-2 decomposition of
//! the read/write VME controller: the largest composed exploration of
//! `logic-arch`'s decomposed tail.
//!
//! Each iteration asserts the composed states explored, the hazards and
//! the conformance violations of every report, so running this bench as
//! a test (`cargo test --release -p bench --bench verify`) pins the
//! engine's work on real inputs; timings stay advisory.

use criterion::{criterion_group, criterion_main, Criterion};
use stg::{StateGraph, Stg};
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::NetId;
use verify::{verify_with, VerificationReport, VerifyOptions};

/// The first CSC candidate of `spec`'s decomposed flow, with its state
/// graph.
fn resolved(spec: Stg) -> (Stg, StateGraph) {
    let resolved = asyncsynth::Synthesis::new(spec)
        .architecture(asyncsynth::Architecture::Decomposed)
        .check()
        .expect("implementable")
        .resolve_csc()
        .expect("resolvable");
    let spec = resolved.candidates()[0].spec.clone();
    let sg = StateGraph::build(&spec).expect("builds");
    (spec, sg)
}

/// `(states explored, hazards, conformance violations)` of a report.
fn counts(report: &VerificationReport) -> (usize, usize, usize) {
    (
        report.states_explored,
        report.hazards.len(),
        report.violations.len(),
    )
}

fn bench_decomposed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify-micropipeline-2");
    group.sample_size(10);
    // The single CSC candidate of the decomposed flow (mixed
    // resolution), prepared once.
    let (spec, sg) = resolved(stg::examples::micropipeline(2));
    let circuit = synthesize_complex_gates(&spec, &sg).expect("synthesises");
    let cnets: Vec<NetId> = spec.signals().map(|s| circuit.signal_net(s)).collect();
    let naive = decompose(&spec, &circuit, 2);
    let nnets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
    let resub = resubstitute(&spec, &sg, &naive);
    let rnets: Vec<NetId> = spec.signals().map(|s| resub.signal_net(s)).collect();
    let options = VerifyOptions::default();
    let complex_counts = (23, 0, 0);
    let naive_counts = (276, 7, 76);
    let resub_counts = (188, 7, 64);

    group.bench_function("micropipeline-2/complex-verify", |b| {
        b.iter(|| {
            let r = verify_with(&spec, &sg, circuit.netlist(), &cnets, &options);
            assert_eq!(counts(&r), complex_counts, "complex-verify");
            r.states_explored
        });
    });
    group.bench_function("micropipeline-2/naive-verify", |b| {
        b.iter(|| {
            let r = verify_with(&spec, &sg, naive.netlist(), &nnets, &options);
            assert_eq!(counts(&r), naive_counts, "naive-verify");
            r.states_explored
        });
    });
    group.bench_function("micropipeline-2/loop-cold", |b| {
        b.iter(|| {
            let naive = decompose(&spec, &circuit, 2);
            let nets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
            let first = verify_with(&spec, &sg, naive.netlist(), &nets, &options);
            assert_eq!(counts(&first), naive_counts, "loop-cold: naive");
            let resub = resubstitute(&spec, &sg, &naive);
            let rnets: Vec<NetId> = spec.signals().map(|s| resub.signal_net(s)).collect();
            let r = verify_with(&spec, &sg, resub.netlist(), &rnets, &options);
            assert_eq!(counts(&r), resub_counts, "loop-cold: repaired");
            r.states_explored
        });
    });
    group.bench_function("micropipeline-2/reverify-cold", |b| {
        b.iter(|| {
            let r = verify_with(&spec, &sg, resub.netlist(), &rnets, &options);
            assert_eq!(counts(&r), resub_counts, "reverify-cold");
            r.states_explored
        });
    });
    group.finish();
}

fn bench_vme_read_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify-vme-read-write");
    group.sample_size(10);
    let (spec, sg) = resolved(stg::examples::vme_read_write());
    let circuit = synthesize_complex_gates(&spec, &sg).expect("synthesises");
    let naive = decompose(&spec, &circuit, 2);
    let nets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
    let options = VerifyOptions::default();
    group.bench_function("vme-read-write/naive-verify", |b| {
        b.iter(|| {
            let r = verify_with(&spec, &sg, naive.netlist(), &nets, &options);
            assert_eq!(counts(&r), (13_240, 25, 12_368), "naive-verify");
            r.states_explored
        });
    });
    group.finish();
}

criterion_group!(benches, bench_decomposed_loop, bench_vme_read_write);
criterion_main!(benches);
