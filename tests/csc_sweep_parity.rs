//! Parity and regression tests for the parallel, pruned, memoising CSC
//! candidate sweep: the engine may only change *when* work happens —
//! never *what* comes out. Serial vs parallel (1, 2, N threads) sweeps
//! must produce identical candidate rankings, descriptions and winning
//! equations on the three VME controllers and micropipeline(2); the
//! pruned, derived insertion sweep must rank exactly like a serial
//! reference that prunes nothing and builds every candidate from
//! scratch; the flow must agree on both state-space backends;
//! bound-skipped candidates must be reported, and no pipeline path may
//! rebuild the winning candidate's state space.

use asyncsynth::{
    run_cached_with, Backend, FlowEvent, FlowObserver, SweepOptions, Synthesis, SynthesisOptions,
};
use stg::{StateGraph, StgEdit};
use synth::csc::{
    apply_edit, concurrency_reduction_sweep, greedy_moves, insertion_sweep, resolve_mixed_sweep,
    Sweep,
};

/// Specs with CSC conflicts — the raw candidate-grid parity matrix.
/// (The CSC-clean `vme_read_csc` is covered by the flow-level parity
/// test below: sweeping a clean controller accepts almost the whole
/// grid and pays exact minimisation per candidate, which no pipeline
/// path ever does — prohibitively slow for a debug-mode unit test.)
fn sweep_specs() -> Vec<(&'static str, stg::Stg)> {
    vec![
        ("vme_read", stg::examples::vme_read()),
        ("vme_read_write", stg::examples::vme_read_write()),
        ("micropipeline-2", stg::examples::micropipeline(2)),
    ]
}

/// All four controllers — the end-to-end parity and no-rebuild matrix.
fn flow_specs() -> Vec<(&'static str, stg::Stg)> {
    let mut specs = sweep_specs();
    specs.push(("vme_read_csc", stg::examples::vme_read_csc()));
    specs
}

fn opts(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        ..SweepOptions::default()
    }
}

fn base_graph(name: &str, spec: &stg::Stg) -> StateGraph {
    StateGraph::build(spec).unwrap_or_else(|e| panic!("{name}: base graph builds: {e}"))
}

/// The insertion sweep's acceptance checks run serially over the whole
/// grid, with nothing pruned and every candidate built from scratch
/// (`apply_edit`, then the token game of `StateGraph::build_bounded`):
/// each accepted candidate's canonical STG text and state count, ranked
/// by `(states, literal cost, tp, tm)` like the sweep.
fn reference_insertion_ranking(spec: &stg::Stg, bound: usize) -> Vec<(String, usize)> {
    let mut ranked = Vec::new();
    for edit in greedy_moves(spec) {
        let StgEdit::Insertion(tp, tm) = edit else {
            continue;
        };
        let candidate = apply_edit(spec, edit);
        let Ok(sg) = StateGraph::build_bounded(&candidate, bound) else {
            continue;
        };
        if !stg::encoding::has_csc(&candidate, &sg)
            || sg.has_deadlock()
            || !stg::persistency::is_persistent(&candidate, &sg)
        {
            continue;
        }
        let Ok(equations) = synth::nextstate::all_equations(&candidate, &sg) else {
            continue;
        };
        let cost: usize = equations.iter().map(|e| e.cover.literal_count()).sum();
        ranked.push(((sg.num_states(), cost, tp, tm), candidate));
    }
    ranked.sort_by_key(|r| r.0);
    ranked
        .into_iter()
        .map(|((states, ..), stg)| (stg::canon::canonical_text(&stg), states))
        .collect()
}

/// The full observable outcome of a sweep: every candidate's
/// description and state count, in rank order, plus the winner's
/// synthesised equations (from its carried space — no rebuild).
fn fingerprint(sweep: &Sweep, spec_name: &str) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = sweep
        .candidates
        .iter()
        .map(|c| (c.description.clone(), c.num_states))
        .collect();
    if let Some(winner) = sweep.candidates.first() {
        let space = winner
            .space
            .as_ref()
            .unwrap_or_else(|| panic!("{spec_name}: winner must carry its space"));
        let circuit = synth::complex_gate::synthesize_complex_gates(&winner.stg, space)
            .unwrap_or_else(|e| panic!("{spec_name}: winner synthesises: {e}"));
        out.push((circuit.display_equations(&winner.stg), usize::MAX));
    }
    out
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    for (name, spec) in sweep_specs() {
        let base = base_graph(name, &spec);
        let serial = insertion_sweep(&spec, &opts(1), &base);
        let baseline = fingerprint(&serial, name);
        for threads in [2, 0] {
            let parallel = insertion_sweep(&spec, &opts(threads), &base);
            assert_eq!(
                fingerprint(&parallel, name),
                baseline,
                "{name}: {threads}-thread sweep must match serial"
            );
            assert_eq!(
                parallel.stats, serial.stats,
                "{name}: sweep counters must be thread-independent"
            );
        }
    }
}

#[test]
fn pruned_sweep_is_identical_and_actually_prunes() {
    let mut pruned_somewhere = false;
    let mut ranked_somewhere = false;
    for (name, spec) in sweep_specs() {
        let base = base_graph(name, &spec);
        let reference = reference_insertion_ranking(&spec, SweepOptions::default().bound);
        ranked_somewhere |= !reference.is_empty();
        for threads in [1, 2] {
            let pruned = insertion_sweep(&spec, &opts(threads), &base);
            let ranking: Vec<(String, usize)> = pruned
                .candidates
                .iter()
                .map(|c| (stg::canon::canonical_text(&c.stg), c.num_states))
                .collect();
            assert_eq!(
                ranking, reference,
                "{name}: the pruned sweep must rank like the unpruned reference"
            );
            assert_eq!(pruned.stats.accepted, reference.len(), "{name}: accepted");
            assert_eq!(
                pruned.stats.pruned + pruned.stats.evaluated,
                pruned.stats.grid,
                "{name}: every pair is pruned or evaluated"
            );
            pruned_somewhere |= pruned.stats.pruned > 0;
        }
    }
    assert!(
        pruned_somewhere,
        "conflict-locality pruning must fire on at least one controller"
    );
    assert!(
        ranked_somewhere,
        "a single insertion must resolve at least one controller"
    );
}

#[test]
fn flow_output_is_byte_identical_across_sweep_configurations() {
    // End-to-end: the complete synthesis summary — equations, netlist,
    // diagnostics, everything a client or cache sees — must not depend
    // on the sweep's thread count (events and metrics included: the
    // sweep counters are deterministic).
    for (name, spec) in flow_specs() {
        for backend in [Backend::Explicit, Backend::SymbolicSet] {
            let run = |threads: usize| {
                let mut options = SynthesisOptions {
                    backend,
                    ..SynthesisOptions::default()
                };
                options.sweep.threads = threads;
                let verified = Synthesis::with_options(spec.clone(), options.clone())
                    .run()
                    .unwrap_or_else(|e| panic!("{name}/{backend} synthesises: {e}"));
                asyncsynth::SynthesisSummary::from_verified(&verified, &options)
            };
            let serial = run(1);
            let parallel = run(0);
            assert_eq!(
                parallel.to_json().render(),
                serial.to_json().render(),
                "{name}/{backend}: flow output must be byte-identical across thread counts"
            );
        }
    }
}

#[test]
fn trace_counters_are_byte_identical_across_sweep_threads() {
    // The acceptance bar of the telemetry layer: a traced run's span
    // tree, projected to its deterministic fields (no wall times, no
    // advisory counters), must render byte-identically whatever the
    // sweep's thread count — per stage and per CSC candidate, not just
    // at the flow root.
    for (name, spec) in flow_specs() {
        let run = |threads: usize| {
            let mut options = SynthesisOptions::default();
            options.sweep.threads = threads;
            let mut trace = asyncsynth::TraceBuilder::new();
            let run = run_cached_with(&spec, &options, None, &mut trace)
                .unwrap_or_else(|e| panic!("{name} synthesises: {e}"));
            let span = trace.finish(run.summary.metrics.clone(), run.advisory.clone());
            (span.render_deterministic(), run.summary.metrics.render())
        };
        let (serial_span, serial_metrics) = run(1);
        assert!(
            serial_metrics.contains("\"states_explored\":"),
            "{name}: the metric set covers verification work: {serial_metrics}"
        );
        for threads in [2, 0] {
            let (span, metrics) = run(threads);
            assert_eq!(
                span, serial_span,
                "{name}: deterministic span projection must not depend on {threads} threads"
            );
            assert_eq!(
                metrics, serial_metrics,
                "{name}: summary metrics must not depend on {threads} threads"
            );
        }
    }
}

#[test]
fn reduction_and_mixed_sweeps_are_deterministic_across_threads() {
    // vme_read has reduction candidates; vme_read_write needs the mixed
    // search (a reduction plus a state signal).
    let read = stg::examples::vme_read();
    let read_write = stg::examples::vme_read_write();
    let describe = |r: &Option<synth::csc::CscResolutionWithSpace>| {
        r.as_ref().map(|r| (r.description.clone(), r.num_states))
    };
    let base = base_graph("vme_read", &read);
    let reduction_baseline = concurrency_reduction_sweep(&read, &opts(1), &base);
    for threads in [2, 0] {
        let reduction = concurrency_reduction_sweep(&read, &opts(threads), &base);
        assert_eq!(
            describe(&reduction.0),
            describe(&reduction_baseline.0),
            "reduction winner must be scan-order deterministic"
        );
        assert_eq!(
            reduction.1, reduction_baseline.1,
            "reduction counters must be thread-independent \
             (early exit counts exactly the indices up to the winner)"
        );
    }
    let base = base_graph("vme_read_write", &read_write);
    let mixed_baseline = resolve_mixed_sweep(&read_write, 5, &opts(1), &base);
    for threads in [2, 0] {
        let mixed = resolve_mixed_sweep(&read_write, 5, &opts(threads), &base);
        assert_eq!(
            describe(&mixed.0),
            describe(&mixed_baseline.0),
            "mixed resolution must be deterministic"
        );
        assert_eq!(
            mixed.1, mixed_baseline.1,
            "mixed counters are thread-independent"
        );
    }
    let winner = mixed_baseline.0.expect("Fig. 5 resolves");
    assert!(
        winner.space.is_some(),
        "mixed resolution carries its validated space"
    );
}

#[test]
fn insertion_resolution_carries_its_space() {
    // Regression: the insertion winner once lost its validated space on
    // the way out of the search, forcing callers to rebuild it.
    let spec = stg::examples::vme_read();
    let base = base_graph("vme_read", &spec);
    let sweep = insertion_sweep(&spec, &SweepOptions::default(), &base);
    let r = sweep
        .candidates
        .first()
        .expect("an insertion resolves vme_read");
    let space = r.space.as_ref().expect("the winner carries its space");
    assert_eq!(r.num_states, space.num_states());
}

/// Records every stage callback and event — proves which stages built
/// state spaces (the probe idiom of `tests/cache.rs`).
#[derive(Default)]
struct Probe {
    per_stage: Vec<(String, Vec<String>)>,
}

impl FlowObserver for Probe {
    fn stage(&mut self, stage: &str, events: &[FlowEvent]) {
        self.per_stage.push((
            stage.to_owned(),
            events.iter().map(ToString::to_string).collect(),
        ));
    }
}

#[test]
fn no_pipeline_path_rebuilds_the_winning_candidates_space() {
    // The check stage builds the one and only state space; the CSC
    // sweeps seed from it and hand the winner's validated space to
    // synthesis. A second "state space built" event would be a rebuild.
    for (name, spec) in flow_specs() {
        let mut probe = Probe::default();
        run_cached_with(&spec, &SynthesisOptions::default(), None, &mut probe)
            .unwrap_or_else(|e| panic!("{name} synthesises: {e}"));
        for (stage, events) in &probe.per_stage {
            let builds = events
                .iter()
                .filter(|e| e.starts_with("state space built"))
                .count();
            if stage == "check" {
                assert_eq!(builds, 1, "{name}: the check stage builds the space");
            } else {
                assert_eq!(
                    builds, 0,
                    "{name}: stage {stage} must not rebuild a state space: {events:?}"
                );
            }
        }
    }
}

#[test]
fn bound_skipped_candidates_are_reported_never_silent() {
    // A bound below every candidate's state count: the sweep finds
    // nothing, but says exactly how many candidates it skipped.
    let spec = stg::examples::vme_read();
    let base = base_graph("vme_read", &spec);
    let tight = SweepOptions {
        threads: 1,
        bound: 4,
    };
    let sweep = insertion_sweep(&spec, &tight, &base);
    assert!(sweep.candidates.is_empty(), "nothing fits 4 states");
    assert!(
        sweep.stats.skipped_by_bound > 0,
        "skipped candidates are counted: {:?}",
        sweep.stats
    );

    // Through the pipeline, the failure itself carries the diagnosis.
    let mut options = SynthesisOptions::default();
    options.sweep.bound = 4;
    options.csc = asyncsynth::CscStrategy::SignalInsertion;
    let err = Synthesis::with_options(spec, options)
        .run()
        .expect_err("no candidate fits 4 states");
    let message = err.to_string();
    assert!(
        message.contains("exceeded the state bound"),
        "the error names the bound skips: {message}"
    );
    match err {
        asyncsynth::PipelineError::CscUnresolved { events } => {
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    FlowEvent::CscSweep { stats, .. } if stats.skipped_by_bound > 0
                )),
                "the sweep event records the skips: {events:?}"
            );
        }
        other => panic!("expected CscUnresolved, got {other:?}"),
    }
}

#[test]
fn sweep_cache_keys_share_across_threads_but_split_on_bound() {
    let spec = stg::examples::vme_read();
    let base = SynthesisOptions::default();
    let key = |options: &SynthesisOptions| {
        asyncsynth::cache_key(&spec, options, asyncsynth::CacheStage::Full).to_hex()
    };
    let mut threads = base.clone();
    threads.sweep.threads = 7;
    let mut bound = base.clone();
    bound.sweep.bound = 4;
    assert_eq!(
        key(&threads),
        key(&base),
        "thread count is output-neutral and must share cache entries"
    );
    assert_ne!(
        key(&bound),
        key(&base),
        "the bound can change results and must split cache entries"
    );
}
