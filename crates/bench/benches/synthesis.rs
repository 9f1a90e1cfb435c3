//! End-to-end synthesis benchmarks: the staged pipeline of §3 per
//! architecture on the paper's controllers.

use asyncsynth::{Architecture, Synthesis};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stg::StateGraph;

fn bench_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    let read = stg::examples::vme_read();
    for (name, arch) in [
        ("complex", Architecture::ComplexGate),
        ("celement", Architecture::CElement),
        ("rs", Architecture::RsLatch),
        ("decomposed", Architecture::Decomposed),
    ] {
        group.bench_with_input(BenchmarkId::new("vme-read", name), &arch, |b, &arch| {
            b.iter(|| {
                Synthesis::new(read.clone())
                    .architecture(arch)
                    .run()
                    .unwrap()
                    .verification
                    .passed()
            });
        });
    }
    // State-graph generation scaling on micropipelines.
    for n in [1usize, 2, 3] {
        let spec = stg::examples::micropipeline(n);
        group.bench_with_input(BenchmarkId::new("state-graph", n), &spec, |b, spec| {
            b.iter(|| StateGraph::build(spec).unwrap().num_states());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flow);
criterion_main!(benches);
