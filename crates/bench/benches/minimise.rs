//! Two-level minimisation (§3.2's boolean minimisation step) on the
//! traffic the flow actually sends it:
//!
//! * `resubstitute/<spec>` — the decomposed architecture's repair step
//!   (§3.4, Fig. 9): every output re-derived and exactly minimised over
//!   the extended variables *signals ∪ internal nets*. On
//!   micropipeline-3 and vme-read-write this is most of `logic-arch`'s
//!   decomposed tail. The resolved candidate, its state graph and the
//!   naive fan-in-2 decomposition are prepared outside the timing, as in
//!   `benches/verify.rs`.
//! * `all-equations/micropipeline-3` — the next-state equations of every
//!   non-input signal (derive + exact minimisation) on the resolved
//!   graph of the default flow.
//!
//! Each iteration asserts the primes it generated
//! ([`boolmin::primes_generated`]) and the product terms it produced, so
//! running this bench as a test (`cargo test --release -p bench --bench
//! minimise`) pins the minimiser's work on real inputs; timings stay
//! advisory.

use asyncsynth::{Architecture, Synthesis};
use boolmin::Expr;
use criterion::{criterion_group, criterion_main, Criterion};
use stg::{StateGraph, Stg};
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::nextstate::all_equations;
use synth::GateKind;

/// The first CSC candidate of `spec`'s flow under `architecture`, with
/// its state graph.
fn resolved(spec: Stg, architecture: Architecture) -> (Stg, StateGraph) {
    let resolved = Synthesis::new(spec)
        .architecture(architecture)
        .check()
        .expect("implementable")
        .resolve_csc()
        .expect("resolvable");
    let spec = resolved.candidates()[0].spec.clone();
    let sg = StateGraph::build(&spec).expect("builds");
    (spec, sg)
}

/// Product terms of a sum-of-products gate expression.
fn product_terms(e: &Expr) -> usize {
    match e {
        Expr::Or(terms) => terms.len(),
        Expr::Const(false) => 0,
        _ => 1,
    }
}

/// Runs `work` and returns its result with the primes it generated.
fn counting_primes<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = boolmin::primes_generated();
    let out = work();
    (out, boolmin::primes_generated() - before)
}

fn bench_resubstitute(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimise");
    group.sample_size(10);
    // (spec, primes, output product terms) per resubstitution.
    for (spec, primes, terms) in [
        (stg::examples::micropipeline(3), 1216, 12),
        (stg::examples::vme_read_write(), 1010, 8),
    ] {
        let name = spec.name().to_owned();
        let (spec, sg) = resolved(spec, Architecture::Decomposed);
        let circuit = synthesize_complex_gates(&spec, &sg).expect("synthesises");
        let naive = decompose(&spec, &circuit, 2);
        group.bench_function(format!("resubstitute/{name}"), |b| {
            b.iter(|| {
                let (repaired, generated) = counting_primes(|| resubstitute(&spec, &sg, &naive));
                let netlist = repaired.netlist();
                let produced: usize = spec
                    .non_input_signals()
                    .into_iter()
                    .map(|s| {
                        let gate = netlist.driver_of(repaired.signal_net(s)).expect("driven");
                        match &netlist.gates()[gate].kind {
                            GateKind::Complex(e) => product_terms(e),
                            _ => 1,
                        }
                    })
                    .sum();
                assert_eq!((generated, produced), (primes, terms), "{name}");
                produced
            });
        });
    }
    group.finish();
}

fn bench_all_equations(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimise");
    group.sample_size(10);
    let (spec, sg) = resolved(stg::examples::micropipeline(3), Architecture::ComplexGate);
    group.bench_function("all-equations/micropipeline-3", |b| {
        b.iter(|| {
            let (equations, generated) =
                counting_primes(|| all_equations(&spec, &sg).expect("CSC holds"));
            let cubes: usize = equations.iter().map(|e| e.cover.cubes().len()).sum();
            assert_eq!((generated, cubes), (146, 14));
            cubes
        });
    });
    group.finish();
}

criterion_group!(benches, bench_resubstitute, bench_all_equations);
criterion_main!(benches);
