//! One specification through the staged `Synthesis` API, timed stage by
//! stage, with the traced run's layer replays and counters.

use std::collections::BTreeMap;
use std::time::Instant;

use asyncsynth::telemetry::Counters;
use asyncsynth::{flow_metrics, Circuit, PipelineError, Synthesis, SynthesisOptions, Verified};
use stg::Stg;

use crate::common::{median, metric, ms, Metric};
use crate::trace::{SpanId, Tracer};

/// Per-pass sums of named layer counters.
#[derive(Debug, Default)]
pub struct PassCounts(BTreeMap<&'static str, Vec<f64>>);

impl PassCounts {
    pub fn add(&mut self, pass: u32, name: &'static str, value: f64) {
        let sums = self.0.entry(name).or_default();
        if sums.len() <= pass as usize {
            sums.resize(pass as usize + 1, 0.0);
        }
        sums[pass as usize] += value;
    }

    /// Median over `passes` passes of the per-pass sum (0 when never
    /// counted).
    pub fn median(&self, name: &str, passes: usize) -> f64 {
        let mut sums = self.0.get(name).cloned().unwrap_or_default();
        sums.resize(passes.max(1), 0.0);
        median(&sums)
    }
}

/// Stage durations in milliseconds (0 for a stage not reached).
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub check: f64,
    pub csc: f64,
    pub synthesize: f64,
    pub verify: f64,
}

impl StageTimes {
    pub fn total(&self) -> f64 {
        self.check + self.csc + self.synthesize + self.verify
    }

    /// Synthesize plus verify: the logic part of the flow.
    pub fn logic(&self) -> f64 {
        self.synthesize + self.verify
    }
}

#[derive(Debug)]
pub struct FlowRun {
    pub times: StageTimes,
    /// States of the check stage's space, when the check built one.
    pub check_states: Option<usize>,
    pub outcome: Result<Verified, PipelineError>,
}

/// Runs `spec` through `check → resolve_csc → synthesize → verify`.
///
/// With tracing on, the stages become spans under a `flow` root for
/// `request`, and after the flow (outside the stage timings) the layer
/// calls the stages make internally are replayed on the same inputs:
/// `Backend::build` and `report_from_sg` under the check span,
/// `verify_with` on the final netlist under the synthesize span (the
/// flow verifies while it selects a candidate). Layer counters go into
/// `layers` for `pass`.
pub fn run(
    spec: Stg,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    layers: &mut PassCounts,
    request: u64,
    pass: u32,
) -> FlowRun {
    let replay_spec = tracer.enabled().then(|| spec.clone());
    let mut times = StageTimes::default();
    let mut check_states = None;
    let t0 = Instant::now();
    let root = tracer.open("flow", None, request, pass, t0);
    tracer.label(root, || {
        format!(
            "{} {} {}",
            spec.name(),
            options.backend.name(),
            options.architecture
        )
    });
    let checked = Synthesis::with_options(spec, options.clone()).check();
    let t1 = Instant::now();
    times.check = ms(t1 - t0);
    let check_span = tracer.record("pipeline.check", Some(root), request, pass, t0, t1, false);
    let mut stage_spans: Vec<SpanId> = Vec::new();
    let outcome = checked.and_then(|checked| {
        check_states = Some(checked.report().num_states);
        let resolved = checked.resolve_csc();
        let t2 = Instant::now();
        times.csc = ms(t2 - t1);
        tracer.record("pipeline.csc", Some(root), request, pass, t1, t2, false);
        let synthesized = resolved?.synthesize();
        let t3 = Instant::now();
        times.synthesize = ms(t3 - t2);
        stage_spans.push(tracer.record(
            "pipeline.synthesize",
            Some(root),
            request,
            pass,
            t2,
            t3,
            false,
        ));
        let verified = synthesized?.verify();
        let t4 = Instant::now();
        times.verify = ms(t4 - t3);
        tracer.record("pipeline.verify", Some(root), request, pass, t3, t4, false);
        verified
    });
    if let Err(PipelineError::NotImplementable(report)) = &outcome {
        check_states = Some(report.num_states);
    }
    tracer.close(root, Instant::now());
    if let Some(spec) = replay_spec {
        count_layers(&outcome, layers, pass);
        replay_check(&spec, options, tracer, layers, check_span, request, pass);
        if let (Ok(verified), Some(&synth_span)) = (&outcome, stage_spans.first()) {
            replay_verify(verified, options, tracer, layers, synth_span, request, pass);
        }
    }
    FlowRun {
        times,
        check_states,
        outcome,
    }
}

/// The flow's own deterministic counters (`flow_metrics` over its event
/// log), filed under the layer that does the work.
fn count_layers(outcome: &Result<Verified, PipelineError>, layers: &mut PassCounts, pass: u32) {
    let metrics: Counters = match outcome {
        Ok(verified) => flow_metrics(verified.events()),
        Err(e) => flow_metrics(e.events()),
    };
    let get = |name: &str| metrics.get(name).unwrap_or(0) as f64;
    for (layer, name) in [
        ("csc.sweep_grid", "sweep_grid"),
        ("csc.sweep_pruned", "sweep_pruned"),
        ("csc.sweep_evaluated", "sweep_evaluated"),
        ("csc.sweep_accepted", "sweep_accepted"),
        ("csc.spaces_built", "spaces_built"),
        ("boolmin.primes", "primes"),
        ("synth.equations", "equations"),
        ("synth.gates", "gates"),
    ] {
        layers.add(pass, layer, get(name));
    }
    if let Ok(verified) = outcome {
        let adv = verified.advisory_metrics();
        let adv = |name: &str| adv.get(name).unwrap_or(0) as f64;
        let hits = adv("incremental_full_hits") + adv("incremental_settle_hits");
        let misses = adv("incremental_full_misses") + adv("incremental_settle_misses");
        layers.add(pass, "verify.incremental_hits", hits);
        layers.add(pass, "verify.incremental_lookups", hits + misses);
    }
}

/// Replays the check stage's layer calls: the state-space build and the
/// §2.1 property report.
pub fn replay_check(
    spec: &Stg,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    layers: &mut PassCounts,
    parent: SpanId,
    request: u64,
    pass: u32,
) {
    let backend = options.backend;
    let space = tracer.replay("stg.build", parent, request, pass, || backend.build(spec));
    if let Ok(space) = space {
        layers.add(pass, "stg.states", space.num_states() as f64);
        layers.add(
            pass,
            "bdd.nodes",
            space.bdd_node_count().unwrap_or(0) as f64,
        );
        tracer.replay("stg.report", parent, request, pass, || {
            stg::properties::report_from_sg(spec, &*space)
        });
    }
}

/// Replays speed-independence verification of the final netlist (latch
/// circuits through their atomic equivalent, as the flow checks them).
fn replay_verify(
    verified: &Verified,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    layers: &mut PassCounts,
    parent: SpanId,
    request: u64,
    pass: u32,
) {
    let spec = &verified.spec;
    let (netlist, nets) = match &verified.circuit {
        Circuit::Latch(latch) => latch.atomic_netlist(spec),
        circuit => (circuit.netlist().clone(), circuit.signal_nets(spec)),
    };
    let report = tracer.replay("verify.verify_with", parent, request, pass, || {
        verify::verify_with(
            spec,
            verified.state_space(),
            &netlist,
            &nets,
            &options.verify,
        )
    });
    layers.add(
        pass,
        "verify.states_explored",
        report.states_explored as f64,
    );
}

/// The per-layer metrics of the in-process workloads: per-pass sums
/// (self times from the trace, counters from the flow and the replays),
/// median over the traced passes, plus the ratios derived from them.
pub fn pipeline_layers(tracer: &Tracer, layers: &PassCounts, passes: usize) -> Vec<Metric> {
    let self_ms = tracer.self_ms_per_pass();
    let time = |name: &str| {
        self_ms.get(name).map_or(0.0, |sums| {
            let mut sums = sums.clone();
            sums.resize(passes.max(1), 0.0);
            median(&sums)
        })
    };
    let count = |name: &str| layers.median(name, passes);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let check_ms = time("pipeline.check");
    let csc_ms = time("pipeline.csc");
    let build_ms = time("stg.build");
    let verify_ms = time("verify.verify_with");
    let evaluated = count("csc.sweep_evaluated");
    let mut out = vec![
        metric("pipeline.check.self_ms", check_ms, "ms", passes),
        metric("stg.build_ms", build_ms, "ms", passes),
        metric("stg.report_ms", time("stg.report"), "ms", passes),
        metric("stg.states", count("stg.states"), "count", passes),
        metric(
            "stg.states_per_ms",
            ratio(count("stg.states"), build_ms),
            "1/ms",
            passes,
        ),
        metric("bdd.nodes", count("bdd.nodes"), "count", passes),
        metric("pipeline.csc.self_ms", csc_ms, "ms", passes),
        metric(
            "csc.accept_ratio",
            ratio(count("csc.sweep_accepted"), evaluated),
            "ratio",
            passes,
        ),
        metric(
            "csc.us_per_candidate",
            ratio(csc_ms * 1e3, evaluated),
            "us",
            passes,
        ),
        metric(
            "pipeline.synthesize.self_ms",
            time("pipeline.synthesize"),
            "ms",
            passes,
        ),
        metric("verify.self_ms", verify_ms, "ms", passes),
        metric(
            "verify.states_per_ms",
            ratio(count("verify.states_explored"), verify_ms),
            "1/ms",
            passes,
        ),
        metric(
            "verify.incremental_hit_ratio",
            ratio(
                count("verify.incremental_hits"),
                count("verify.incremental_lookups"),
            ),
            "ratio",
            passes,
        ),
    ];
    for name in [
        "csc.sweep_grid",
        "csc.sweep_pruned",
        "csc.sweep_evaluated",
        "csc.sweep_accepted",
        "csc.spaces_built",
        "boolmin.primes",
        "synth.equations",
        "synth.gates",
        "verify.states_explored",
    ] {
        out.push(metric(name, count(name), "count", passes));
    }
    out
}
