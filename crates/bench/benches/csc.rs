//! CSC candidate-sweep cost: serial vs multi-threaded grid evaluation,
//! and the effect of conflict-locality pruning.
//!
//! `vme-read/sweep-1t` vs `sweep-4t` measures the work-stealing
//! parallelisation of the `(t⁺, t⁻)` insertion grid (the dominant CSC
//! search cost); on a multi-core host the 4-thread sweep should be at
//! least 2× faster. `sweep-pruned` shows the grid cut that needs no
//! extra cores: pairs that provably cannot separate a conflicting state
//! pair are skipped before any state space is built. The micropipeline
//! group shows pruning on a controller whose whole grid is refutable.

use criterion::{criterion_group, criterion_main, Criterion};
use synth::csc::{insertion_sweep, SweepOptions};

fn sweep_opts(threads: usize, prune: bool) -> SweepOptions {
    SweepOptions {
        threads,
        prune,
        ..SweepOptions::default()
    }
}

fn bench_vme_read_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc-sweep");
    group.sample_size(10);
    let spec = stg::examples::vme_read();
    for (id, threads, prune) in [
        ("vme-read/sweep-1t", 1, false),
        ("vme-read/sweep-4t", 4, false),
        ("vme-read/sweep-pruned-1t", 1, true),
        ("vme-read/sweep-pruned-4t", 4, true),
    ] {
        let options = sweep_opts(threads, prune);
        group.bench_function(id, |b| {
            b.iter(|| {
                let sweep = insertion_sweep(&spec, stg::Backend::Explicit, &options, None);
                assert_eq!(sweep.stats.accepted, 6);
                sweep.candidates.len()
            });
        });
    }
    group.finish();
}

fn bench_micropipeline_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc-sweep-micropipeline");
    group.sample_size(10);
    let spec = stg::examples::micropipeline(2);
    for (id, prune) in [
        ("micropipeline-2/unpruned", false),
        ("micropipeline-2/pruned", true),
    ] {
        let options = sweep_opts(1, prune);
        group.bench_function(id, |b| {
            b.iter(|| {
                insertion_sweep(&spec, stg::Backend::Explicit, &options, None)
                    .stats
                    .evaluated
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vme_read_sweep, bench_micropipeline_prune);
criterion_main!(benches);
