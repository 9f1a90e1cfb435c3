//! CSC candidate-sweep cost: serial vs multi-threaded grid evaluation.
//!
//! `vme-read/sweep-1t` vs `sweep-4t` measures the work-stealing
//! parallelisation of the (always pruned) `(t⁺, t⁻)` insertion grid,
//! the dominant CSC search cost, base graph build included.
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

fn bench_vme_read_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc-sweep");
    group.sample_size(10);
    let spec = stg::examples::vme_read();
    for (id, threads) in [("vme-read/sweep-1t", 1), ("vme-read/sweep-4t", 4)] {
        let options = SweepOptions {
            threads,
            ..SweepOptions::default()
        };
        group.bench_function(id, |b| {
            b.iter(|| {
                let base = StateGraph::build(&spec).expect("base builds");
                let sweep = insertion_sweep(&spec, &options, &base);
                assert_eq!(sweep.stats.accepted, 6);
                sweep.candidates.len()
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

criterion_group!(benches, bench_vme_read_sweep, bench_candidate_build);
criterion_main!(benches);
