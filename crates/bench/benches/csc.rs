//! CSC candidate-sweep cost: serial vs multi-threaded grid evaluation.
//!
//! `vme-read/sweep-1t` vs `sweep-4t` measures the work-stealing
//! parallelisation of the (always pruned) `(t⁺, t⁻)` insertion grid,
//! the dominant CSC search cost, base graph build included.
//!
//! `csc-candidate` times one candidate state graph three ways over the
//! first greedy step of `resolve_mixed_sweep` (every ordering-arc and
//! insertion move) on counter-4 and micropipeline-3: `token-game` edits
//! the STG and replays reachability, as every sweep did before
//! candidates were derived; `derive` computes the same graph from the
//! base graph ([`stg::StateGraph::derive`]); `evaluate` is one mixed-sweep
//! evaluation — derive, then the deadlock, persistency and conflict-count
//! checks that rank the candidate. Each iteration covers the whole step;
//! the median µs per candidate is printed after each function.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
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
                assert_eq!(sweep.candidates.len(), 6);
                sweep.candidates.len()
            });
        });
    }
    group.finish();
}

/// Benchmarks `step`, one pass over a greedy step's `moves` candidates,
/// and prints its median time per candidate.
fn bench_step(
    group: &mut BenchmarkGroup<'_>,
    id: &str,
    moves: usize,
    mut step: impl FnMut() -> usize,
) {
    let mut runs: Vec<Duration> = Vec::new();
    group.bench_function(id, |b| {
        b.iter(|| {
            let start = Instant::now();
            let out = step();
            runs.push(start.elapsed());
            out
        });
    });
    runs.sort_unstable();
    let median = runs[runs.len() / 2];
    println!(
        "csc-candidate/{id}: {:.2} µs per candidate",
        median.as_secs_f64() * 1e6 / moves as f64
    );
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
        let labels = |edit: StgEdit| match edit {
            StgEdit::OrderingArc(..) => &spec,
            StgEdit::Insertion(..) => &insertion,
        };
        println!("csc-candidate/{name}: {} moves per step", moves.len());
        bench_step(
            &mut group,
            &format!("{name}/token-game"),
            moves.len(),
            || {
                moves
                    .iter()
                    .filter(|&&edit| {
                        StateGraph::build_bounded(&apply_edit(&spec, edit), DEFAULT_SWEEP_BOUND)
                            .is_ok()
                    })
                    .count()
            },
        );
        bench_step(&mut group, &format!("{name}/derive"), moves.len(), || {
            moves
                .iter()
                .filter(|&&edit| {
                    StateGraph::derive(&base, labels(edit), edit, DEFAULT_SWEEP_BOUND).is_ok()
                })
                .count()
        });
        bench_step(&mut group, &format!("{name}/evaluate"), moves.len(), || {
            moves
                .iter()
                .filter_map(|&edit| {
                    let labels = labels(edit);
                    let space =
                        StateGraph::derive(&base, labels, edit, DEFAULT_SWEEP_BOUND).ok()?;
                    if space.has_deadlock() || !stg::persistency::is_persistent(labels, &space) {
                        return None;
                    }
                    Some(stg::encoding::csc_conflict_pair_count(labels, &space))
                })
                .count()
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vme_read_sweep, bench_candidate_build);
criterion_main!(benches);
