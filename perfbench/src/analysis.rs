//! `analysis-scale`: the check stage alone (`Backend::build` plus the
//! §2.1 property report) on large specifications, on the explicit and
//! the resident-BDD (`symbolic-set`) backends. Known answer: closed-form
//! state counts and agreement of the two backends' reports.

use std::collections::HashMap;
use std::time::Instant;

use asyncsynth::summary::report_to_json;
use asyncsynth::{Backend, PipelineError, Synthesis, SynthesisOptions};
use stg::Stg;

use crate::common::{metric, Report, Rng, SetupTimes};
use crate::flow::{self, PassCounts};
use crate::trace::Tracer;
use crate::{Args, Passes};

const BACKENDS: [Backend; 2] = [Backend::Explicit, Backend::SymbolicSet];

/// A specification with its closed-form state count, where one exists.
struct Input {
    spec: Stg,
    states: Option<usize>,
}

fn binomial(n: usize, k: usize) -> usize {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

fn setup() -> Vec<Input> {
    let mut inputs: Vec<Input> = [(6, 6), (7, 5), (8, 4)]
        .into_iter()
        .map(|(half, k)| Input {
            spec: stg::examples::token_ring(half, k),
            states: Some(binomial(2 * half, k)),
        })
        .collect();
    inputs.extend((4..=5).map(|n| Input {
        spec: stg::examples::micropipeline(n),
        states: Some(4 * 5usize.pow(n as u32)),
    }));
    inputs.push(Input {
        spec: corpus::generators::paralleliser(6, false),
        states: None,
    });
    inputs
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = SetupTimes::default();
    let inputs = setups.repeated(|| Ok(setup()))?;
    let ops: Vec<(usize, Backend)> = (0..inputs.len())
        .flat_map(|i| BACKENDS.into_iter().map(move |b| (i, b)))
        .collect();
    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new(false);
    let mut layers = PassCounts::default();
    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut check_states = 0.0;
    let mut check_ms = Vec::new();
    // Every report of one specification must render identically,
    // whichever backend produced it.
    let mut reference: HashMap<usize, String> = HashMap::new();
    let mut request = 0u64;
    let start = Instant::now();
    while !passes.done(args, start.elapsed().as_secs_f64()) {
        let traced = passes.begin(args.trace);
        tracer.set_enabled(traced.is_some());
        let pass = traced.unwrap_or(0);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        rng.shuffle(&mut order);
        for op in order {
            let (i, backend) = ops[op];
            let input = &inputs[i];
            let spec = input.spec.clone();
            let options = SynthesisOptions {
                backend,
                ..SynthesisOptions::default()
            };
            let t0 = Instant::now();
            let checked = Synthesis::with_options(spec, options.clone()).check();
            let t1 = Instant::now();
            let latency = (t1 - t0).as_secs_f64() * 1e3;
            let span = tracer.record("pipeline.check", None, request, pass, t0, t1, false);
            tracer.label(span, || format!("{} {}", input.spec.name(), backend.name()));
            if tracer.enabled() {
                flow::replay_check(
                    &input.spec,
                    &options,
                    &mut tracer,
                    &mut layers,
                    span,
                    request,
                    pass,
                );
            }
            request += 1;
            report.attempted += 1;
            passes.sample(op, latency, || {
                let spec = input.spec.clone();
                let start = Instant::now();
                let again = Synthesis::with_options(spec, options.clone()).check();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                drop(again);
                ms
            });
            let checked_report = match &checked {
                Ok(c) => c.report(),
                Err(PipelineError::NotImplementable(r)) => r,
                Err(e) => {
                    report.fail(false, format!("{} on {backend:?}: {e}", input.spec.name()));
                    continue;
                }
            };
            if traced.is_none() {
                check_ms.push(latency);
                check_states += checked_report.num_states as f64;
            }
            let rendered = report_to_json(checked_report).render();
            let agrees = reference.entry(i).or_insert_with(|| rendered.clone()) == &rendered;
            let count_ok = input.states.is_none_or(|n| n == checked_report.num_states);
            if !agrees || !count_ok {
                report.fail(
                    true,
                    format!(
                        "{} on {backend:?}: {} states (expected {:?}), report agrees: {agrees}",
                        input.spec.name(),
                        checked_report.num_states,
                        input.states
                    ),
                );
            }
        }
        passes.end();
        setups.slice(|| Ok(setup()))?;
    }
    report.end_to_end = passes.latency_metrics();
    report.end_to_end.push(setups.metric());
    report.workload = crate::check_figures(&check_ms, check_states);
    report.workload.push(metric(
        "corpus_pass_s",
        passes.pass_median_s(),
        "s",
        passes.untraced_passes(),
    ));
    if args.trace {
        report.per_layer = flow::pipeline_layers(&tracer, &layers, passes.traced_passes());
        report.per_layer.extend(passes.overhead());
        report
            .per_layer
            .push(metric("trace.spans", tracer.len() as f64, "count", 1));
        report.trace = Some(tracer.to_json(vec![]));
    }
    Ok(report)
}
