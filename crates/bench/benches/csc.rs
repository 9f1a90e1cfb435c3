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
//!
//! `csc-candidate` times one candidate state graph two ways over the
//! first greedy step of `resolve_mixed_sweep` (every ordering-arc and
//! insertion move) on counter-4 and micropipeline-3: `token-game` edits
//! the STG and replays reachability, as every sweep did before
//! candidates were derived; `derive` computes the same graph from the
//! base graph ([`stg::StateGraph::derive`]). Each iteration covers the
//! whole step; the per-candidate figure is printed alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use stg::{StateGraph, StgEdit};
use synth::csc::{
    apply_edit, greedy_moves, insertion_labels, insertion_sweep, SweepOptions, DEFAULT_SWEEP_BOUND,
};

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
                let sweep =
                    insertion_sweep(&spec, &options, StateGraph::build(&spec).ok().as_ref());
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
                insertion_sweep(&spec, &options, StateGraph::build(&spec).ok().as_ref())
                    .stats
                    .evaluated
            });
        });
    }
    group.finish();
}

fn bench_candidate_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc-candidate");
    group.sample_size(10);
    for (name, spec) in [
        ("counter-4", corpus::generators::ripple_counter(4)),
        ("micropipeline-3", stg::examples::micropipeline(3)),
    ] {
        let base = StateGraph::build(&spec).expect("base builds");
        let insertion = insertion_labels(&spec);
        let moves = greedy_moves(&spec);
        println!("csc-candidate/{name}: {} moves per step", moves.len());
        group.bench_function(format!("{name}/token-game"), |b| {
            b.iter(|| {
                moves
                    .iter()
                    .filter(|&&edit| {
                        StateGraph::build_bounded(&apply_edit(&spec, edit), DEFAULT_SWEEP_BOUND)
                            .is_ok()
                    })
                    .count()
            });
        });
        group.bench_function(format!("{name}/derive"), |b| {
            b.iter(|| {
                moves
                    .iter()
                    .filter(|&&edit| {
                        let labels = match edit {
                            StgEdit::OrderingArc(..) => &spec,
                            StgEdit::Insertion(..) => &insertion,
                        };
                        StateGraph::derive(&base, labels, edit, DEFAULT_SWEEP_BOUND).is_ok()
                    })
                    .count()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vme_read_sweep,
    bench_micropipeline_prune,
    bench_candidate_build
);
criterion_main!(benches);
