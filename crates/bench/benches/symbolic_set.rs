//! Resident-BDD backend at combinatorial state counts: building
//! `token_ring(half, k)` spaces of `C(2·half, k)` states and answering
//! set-level implementability queries without enumerating a single
//! marking.
//!
//! The contrast with `explicit-build` (run only at the smallest size —
//! beyond it, enumeration is exactly what the resident backend exists to
//! avoid) is the point of the benchmark: the resident build scales with
//! the BDD, not the state count. `queries` measures the post-build
//! set-level workload (USC/CSC verdicts, persistency, deadlock, an
//! excitation region) at a state count no enumerating backend could hold.
//! `report` times the check stage's full property report on the two
//! heaviest `analysis-scale` specs, micropipeline(5) and token_ring(8, 4)
//! — where the symbolic check spends most of its time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stg::{SignalEdge, StateSpace, SymbolicSetSpace};

/// `(half, k)` ring parameters with their `C(2·half, k)` state counts.
const SIZES: [(usize, usize, u128); 4] = [
    (6, 6, 924),         // C(12,6)
    (9, 9, 48_620),      // C(18,9)
    (11, 11, 705_432),   // C(22,11)
    (12, 12, 2_704_156), // C(24,12)
];

fn bench_resident_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic-set");
    group.sample_size(10);
    for &(half, k, states) in &SIZES {
        let spec = stg::examples::token_ring(half, k);
        group.bench_with_input(
            BenchmarkId::new("resident-build", states),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let space = SymbolicSetSpace::build_bounded(spec, 5_000_000).expect("builds");
                    assert_eq!(space.num_markings(), states);
                    space.stats().bdd_nodes
                });
            },
        );
    }
    // The explicit baseline, only where enumeration is still feasible.
    let (half, k, states) = SIZES[0];
    let spec = stg::examples::token_ring(half, k);
    group.bench_with_input(
        BenchmarkId::new("explicit-build", states),
        &spec,
        |b, spec| {
            b.iter(|| stg::StateGraph::build(spec).expect("builds").num_states());
        },
    );
    group.finish();
}

fn bench_resident_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic-set");
    group.sample_size(10);
    let (half, k, states) = SIZES[3];
    let spec = stg::examples::token_ring(half, k);
    let space = SymbolicSetSpace::build_bounded(&spec, 5_000_000).expect("builds");
    assert_eq!(space.num_markings(), states);
    group.bench_function(BenchmarkId::new("queries", states), |b| {
        b.iter(|| {
            let usc = stg::encoding::has_usc(&spec, &space);
            let csc = stg::encoding::has_csc(&spec, &space);
            let persistent = stg::persistency::is_persistent(&spec, &space);
            let deadlock = space.has_deadlock();
            let signal = spec.signals().next().expect("ring has signals");
            let er = space.set_count(&space.excitation_region(&spec, signal, SignalEdge::Rise));
            (usc, csc, persistent, deadlock, er)
        });
    });
    assert_eq!(space.decoded_states(), 0, "queries never decode states");
    group.finish();
}

fn bench_report(c: &mut Criterion) {
    let mut group = c.benchmark_group("report");
    group.sample_size(10);
    for spec in [
        stg::examples::micropipeline(5),
        stg::examples::token_ring(8, 4),
    ] {
        let space = SymbolicSetSpace::build(&spec).expect("builds");
        group.bench_with_input(
            BenchmarkId::new("report_from_sg", spec.name()),
            &spec,
            |b, spec| b.iter(|| stg::properties::report_from_sg(spec, &space).num_states),
        );
        assert_eq!(space.decoded_states(), 0, "the report never decodes states");
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_resident_build,
    bench_resident_queries,
    bench_report
);
criterion_main!(benches);
