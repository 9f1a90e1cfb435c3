//! CSC candidate-sweep cost: serial vs multi-threaded grid evaluation.
//!
//! `vme-read/sweep-1t` vs `sweep-4t` measures the work-stealing
//! parallelisation of the (always pruned) `(t⁺, t⁻)` insertion grid,
//! the dominant CSC search cost, base graph build included.
//!
//! `csc-candidate` times one candidate state graph four ways over the
//! first greedy step of `resolve_mixed_sweep` (every ordering-arc and
//! insertion move, none pruned) on counter-4 and micropipeline-3:
//! `token-game` edits the STG and replays reachability, as every sweep
//! did before candidates were derived; `derive` computes the same graph
//! from the base graph ([`stg::StateGraph::derive`]); `evaluate` is one
//! mixed-sweep evaluation on that complete graph — derive, then the
//! deadlock, persistency and conflict-count checks that rank the
//! candidate; `score` is what the sweep runs per candidate, the same
//! checks on a [`stg::DerivedGraph`] whose marking table is never
//! written. Each iteration covers the whole step; the median µs per
//! candidate is printed after each function. `evaluate` and `score`
//! assert the step's outcome counts (failed derives, deadlocks,
//! persistency failures, moves not lowering the base's conflict pairs,
//! accepted moves), so running this bench as a test gates the conflict
//! kernel's answers.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use stg::{DerivedGraph, StateGraph, Stg, StgEdit};
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
fn bench_step<T>(
    group: &mut BenchmarkGroup<'_>,
    id: &str,
    moves: usize,
    mut step: impl FnMut() -> T,
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

/// How the moves of one greedy step fared under the mixed sweep's test.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcomes {
    failed: usize,
    deadlocking: usize,
    not_persistent: usize,
    not_lowering: usize,
    accepted: usize,
}

impl Outcomes {
    /// Tallies one move: `space` is its graph (`None` when the derive
    /// failed), `conflicts` the base's conflict pairs.
    fn tally(&mut self, labels: &Stg, space: Option<&StateGraph>, conflicts: usize) {
        let slot = match space {
            None => &mut self.failed,
            Some(space) if space.has_deadlock() => &mut self.deadlocking,
            Some(space) if !stg::persistency::is_persistent(labels, space) => {
                &mut self.not_persistent
            }
            Some(space) if stg::encoding::csc_conflict_pair_count(labels, space) >= conflicts => {
                &mut self.not_lowering
            }
            Some(_) => &mut self.accepted,
        };
        *slot += 1;
    }
}

fn bench_candidate_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc-candidate");
    group.sample_size(10);
    for (name, spec, conflicts, expected) in [
        (
            "counter-4",
            corpus::generators::ripple_counter(4),
            52,
            Outcomes {
                failed: 0,
                deadlocking: 881,
                not_persistent: 0,
                not_lowering: 1039,
                accepted: 780,
            },
        ),
        (
            "micropipeline-3",
            stg::examples::micropipeline(3),
            436,
            Outcomes {
                failed: 180,
                deadlocking: 56,
                not_persistent: 0,
                not_lowering: 78,
                accepted: 78,
            },
        ),
    ] {
        let base = StateGraph::build(&spec).expect("base builds");
        assert_eq!(
            stg::encoding::csc_conflict_pair_count(&spec, &base),
            conflicts,
            "{name}: the base's conflict pairs"
        );
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
            let mut outcomes = Outcomes::default();
            for &edit in &moves {
                let labels = labels(edit);
                let space = StateGraph::derive(&base, labels, edit, DEFAULT_SWEEP_BOUND).ok();
                outcomes.tally(labels, space.as_ref(), conflicts);
            }
            assert_eq!(outcomes, expected, "{name}: evaluate's outcomes");
        });
        bench_step(&mut group, &format!("{name}/score"), moves.len(), || {
            let mut outcomes = Outcomes::default();
            for &edit in &moves {
                let labels = labels(edit);
                let derived = DerivedGraph::new(&base, labels, edit, DEFAULT_SWEEP_BOUND).ok();
                outcomes.tally(labels, derived.as_ref().map(DerivedGraph::graph), conflicts);
            }
            assert_eq!(outcomes, expected, "{name}: score's outcomes");
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vme_read_sweep, bench_candidate_build);
criterion_main!(benches);
