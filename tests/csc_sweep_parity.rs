//! Parity and regression tests for the parallel, pruned, memoising CSC
//! candidate sweep: the engine may only change *when* work happens —
//! never *what* comes out. Serial vs parallel (1, 2, N threads) and
//! pruned vs unpruned sweeps must produce identical candidate rankings,
//! descriptions and winning equations on the three VME controllers and
//! micropipeline(2), and the flow must agree on both state-space
//! backends; bound-skipped candidates must be reported, and no pipeline
//! path may rebuild the winning candidate's state space.

use asyncsynth::{
    run_cached_with, Backend, FlowEvent, FlowObserver, SweepOptions, Synthesis, SynthesisOptions,
};
use synth::csc::{concurrency_reduction_sweep, insertion_sweep, resolve_mixed_sweep, Sweep};

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

fn opts(threads: usize, prune: bool) -> SweepOptions {
    SweepOptions {
        threads,
        prune,
        ..SweepOptions::default()
    }
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
        let base = stg::StateGraph::build(&spec).ok();
        let serial = insertion_sweep(&spec, &opts(1, false), base.as_ref());
        let baseline = fingerprint(&serial, name);
        for threads in [2, 0] {
            let parallel = insertion_sweep(&spec, &opts(threads, false), base.as_ref());
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
    for (name, spec) in sweep_specs() {
        let base = stg::StateGraph::build(&spec).ok();
        let unpruned = insertion_sweep(&spec, &opts(1, false), base.as_ref());
        for threads in [1, 2] {
            let pruned = insertion_sweep(&spec, &opts(threads, true), base.as_ref());
            assert_eq!(
                fingerprint(&pruned, name),
                fingerprint(&unpruned, name),
                "{name}: pruning must not change the ranking"
            );
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
}

#[test]
fn flow_output_is_byte_identical_across_sweep_configurations() {
    // End-to-end: the complete synthesis summary — equations, netlist,
    // diagnostics, everything a client or cache sees — must not depend
    // on the sweep's thread count (events and metrics included: the
    // sweep counters are deterministic). Pruning changes only the
    // counters — in the event log and in the metric set — so its
    // comparison strips both; the cache-key test below is the flip
    // side: pruning splits cache entries for exactly this reason.
    for (name, spec) in flow_specs() {
        for backend in [Backend::Explicit, Backend::SymbolicSet] {
            let run = |threads: usize, prune: bool| {
                let mut options = SynthesisOptions {
                    backend,
                    ..SynthesisOptions::default()
                };
                options.sweep.threads = threads;
                options.sweep.prune = prune;
                let verified = Synthesis::with_options(spec.clone(), options.clone())
                    .run()
                    .unwrap_or_else(|e| panic!("{name}/{backend} synthesises: {e}"));
                asyncsynth::SynthesisSummary::from_verified(&verified, &options)
            };
            let serial = run(1, true);
            let parallel = run(0, true);
            assert_eq!(
                parallel.to_json().render(),
                serial.to_json().render(),
                "{name}/{backend}: flow output must be byte-identical across thread counts"
            );
            let mut unpruned = run(1, false);
            let mut pruned = serial.clone();
            unpruned.events.clear();
            pruned.events.clear();
            unpruned.metrics = asyncsynth::telemetry::Counters::new();
            pruned.metrics = asyncsynth::telemetry::Counters::new();
            assert_eq!(
                unpruned.to_json().render(),
                pruned.to_json().render(),
                "{name}/{backend}: pruning must not change the synthesised result"
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
    let base = stg::StateGraph::build(&read).ok();
    let reduction_baseline = concurrency_reduction_sweep(&read, &opts(1, false), base.as_ref());
    for threads in [2, 0] {
        for prune in [false, true] {
            let reduction =
                concurrency_reduction_sweep(&read, &opts(threads, prune), base.as_ref());
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
    }
    let mixed_baseline = resolve_mixed_sweep(&read_write, 5, &opts(1, false), None);
    for threads in [2, 0] {
        for prune in [false, true] {
            let mixed = resolve_mixed_sweep(&read_write, 5, &opts(threads, prune), None);
            assert_eq!(
                describe(&mixed.0),
                describe(&mixed_baseline.0),
                "mixed resolution must be deterministic"
            );
        }
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
    let base = stg::StateGraph::build(&spec).ok();
    let sweep = insertion_sweep(&spec, &SweepOptions::default(), base.as_ref());
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
    let base = stg::StateGraph::build(&spec).ok();
    let tight = SweepOptions {
        threads: 1,
        bound: 4,
        ..SweepOptions::default()
    };
    let sweep = insertion_sweep(&spec, &tight, base.as_ref());
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
fn sweep_cache_keys_share_across_threads_but_split_on_bound_and_prune() {
    let spec = stg::examples::vme_read();
    let base = SynthesisOptions::default();
    let key = |options: &SynthesisOptions| {
        asyncsynth::cache_key(&spec, options, asyncsynth::CacheStage::Full).to_hex()
    };
    let mut threads = base.clone();
    threads.sweep.threads = 7;
    let mut prune = base.clone();
    prune.sweep.prune = false;
    let mut bound = base.clone();
    bound.sweep.bound = 4;
    assert_eq!(
        key(&threads),
        key(&base),
        "thread count is output-neutral and must share cache entries"
    );
    assert_ne!(
        key(&prune),
        key(&base),
        "pruning changes the cached diagnostics and must split cache entries"
    );
    assert_ne!(
        key(&bound),
        key(&base),
        "the bound can change results and must split cache entries"
    );
}
