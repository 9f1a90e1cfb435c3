//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench pin-logic-arch        # regenerate data/logic-arch (maintainers only)
//! ```
//!
//! Runs one workload from the repository root, checks every output
//! against a known answer, prints a human-readable report on stderr and,
//! as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics without
//! tracing, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans to `.bench_out/`.

mod analysis;
mod common;
mod corpus_cold;
mod flow;
mod logic_arch;
mod pace;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use asyncsynth::Json;

use common::{metric, metrics_json, peak_rss_mb, quantile, Metric, Report};
use pace::Pace;

/// Where traced runs write their span documents.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics every workload reports, in output order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "ok_share",
    "flow_p50_ms",
    "flow_p90_ms",
    "flow_p99_ms",
];

/// The per-layer metrics every traced run reports (0 where the workload
/// never calls the layer), with their units.
const PER_LAYER: [(&str, &str); 35] = [
    ("pipeline.check.self_ms", "ms"),
    ("stg.build_ms", "ms"),
    ("stg.report_ms", "ms"),
    ("stg.states", "count"),
    ("stg.states_per_ms", "1/ms"),
    ("bdd.nodes", "count"),
    ("pipeline.csc.self_ms", "ms"),
    ("csc.sweep_grid", "count"),
    ("csc.sweep_pruned", "count"),
    ("csc.sweep_evaluated", "count"),
    ("csc.sweep_accepted", "count"),
    ("csc.spaces_built", "count"),
    ("csc.accept_ratio", "ratio"),
    ("csc.us_per_candidate", "us"),
    ("pipeline.synthesize.self_ms", "ms"),
    ("boolmin.primes", "count"),
    ("synth.equations", "count"),
    ("synth.gates", "count"),
    ("verify.self_ms", "ms"),
    ("verify.states_explored", "count"),
    ("verify.states_per_ms", "1/ms"),
    ("verify.incremental_hit_ratio", "ratio"),
    ("cache.hit_ms", "ms"),
    ("cache.miss_overhead_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.stores", "count"),
    ("server.accept_ms", "ms"),
    ("server.turnaround_ms", "ms"),
    ("server.job_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.shed", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_p90_ms", "ms"),
    ("trace.spans", "count"),
];

/// Command-line arguments of a workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value != "0"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations shorter than this are repeated back to back within a pass
/// until their runs add up to it: a sub-millisecond operation timed once
/// per pass rests on a handful of runs that a little other load on the
/// machine moves by a quarter.
const MIN_OP_MS: f64 = 5.0;
/// Bound on those repeats, for an operation that takes no measurable
/// time.
const MAX_REPEATS: usize = 10_000;

/// Pass bookkeeping of the in-process workloads. Every pass runs the
/// same operations (in a seeded order), so latencies are kept per
/// operation. Each operation's sample is scaled to the reference pace
/// (see [`pace`]) by the reference runs just before and after it; an
/// operation's latency is the median of its samples over the passes,
/// and a latency quantile of the run is taken over those. A traced run
/// alternates passes: the untraced ones give the end-to-end numbers, the
/// traced ones the spans, and the difference is the tracing overhead.
#[derive(Debug, Default)]
pub struct Passes {
    total: usize,
    current_traced: bool,
    current_ms: f64,
    pace: Pace,
    /// Per operation: the scaled median run of each untraced pass.
    untraced: BTreeMap<usize, Vec<f64>>,
    /// Per operation: the scaled first run of each untraced and traced
    /// pass.
    untraced_first: BTreeMap<usize, Vec<f64>>,
    traced: BTreeMap<usize, Vec<f64>>,
    untraced_pass_s: Vec<f64>,
}

impl Passes {
    /// Whether the measured window is over: at least one pass of each
    /// kind, then until `seconds` have passed.
    pub fn done(&self, args: &Args, elapsed_s: f64) -> bool {
        let min = if args.trace { 2 } else { 1 };
        self.total >= min && elapsed_s >= args.seconds
    }

    /// Starts a pass; returns the traced-pass index when it is traced.
    pub fn begin(&mut self, trace: bool) -> Option<u32> {
        self.current_traced = trace && self.total % 2 == 1;
        self.pace.mark(0.0);
        self.current_traced.then_some((self.total / 2) as u32)
    }

    /// Records operation `op` of the current pass, whose run took
    /// `first_ms` (raw). In an untraced pass a short operation is run
    /// again with `again` (which returns one run's latency), back to
    /// back, until its runs add up to [`MIN_OP_MS`]; its sample is the
    /// median run. The sample is scaled by the reference runs around the
    /// operation: the one that ended the previous operation (or began the
    /// pass) and one run here. Whatever the caller does between two
    /// operations must therefore be brief.
    pub fn sample(&mut self, op: usize, first_ms: f64, mut again: impl FnMut() -> f64) {
        self.current_ms += first_ms;
        if self.current_traced {
            let scale = self.pace.mark(first_ms);
            self.traced.entry(op).or_default().push(first_ms * scale);
            return;
        }
        let mut runs = vec![first_ms];
        let mut spent = first_ms;
        while spent < MIN_OP_MS && runs.len() < MAX_REPEATS {
            let ms = again();
            runs.push(ms);
            spent += ms;
        }
        let scale = self.pace.mark(spent);
        self.untraced_first
            .entry(op)
            .or_default()
            .push(first_ms * scale);
        self.untraced
            .entry(op)
            .or_default()
            .push(common::median(&runs) * scale);
    }

    pub fn end(&mut self) {
        if !self.current_traced {
            self.untraced_pass_s.push(self.current_ms / 1e3);
        }
        self.current_ms = 0.0;
        self.total += 1;
    }

    /// Latency of every operation: its median over the untraced passes.
    pub fn op_latency(&self) -> Vec<f64> {
        per_op_median(&self.untraced)
    }

    pub fn samples(&self) -> usize {
        self.untraced.values().map(Vec::len).sum()
    }

    pub fn untraced_passes(&self) -> usize {
        self.untraced_pass_s.len()
    }

    pub fn traced_passes(&self) -> usize {
        self.total - self.untraced_passes()
    }

    /// Median time of an untraced pass (the sum of its operations' raw
    /// latencies), in seconds.
    pub fn pass_median_s(&self) -> f64 {
        common::median(&self.untraced_pass_s)
    }

    pub fn latency_metrics(&self) -> Vec<Metric> {
        latency_metrics(&self.op_latency(), self.samples())
    }

    pub fn overhead(&self) -> Vec<Metric> {
        overhead_metrics(
            &per_op_median(&self.traced),
            &per_op_median(&self.untraced_first),
        )
    }
}

fn per_op_median(per_op: &BTreeMap<usize, Vec<f64>>) -> Vec<f64> {
    per_op.values().map(|v| common::median(v)).collect()
}

/// Tracing overhead: the traced latencies' quantiles minus the untraced
/// ones'.
pub fn overhead_metrics(traced: &[f64], untraced: &[f64]) -> Vec<Metric> {
    let n = traced.len();
    vec![
        metric(
            "trace.overhead_p50_ms",
            quantile(traced, 0.5) - quantile(untraced, 0.5),
            "ms",
            n,
        ),
        metric(
            "trace.overhead_p90_ms",
            quantile(traced, 0.9) - quantile(untraced, 0.9),
            "ms",
            n,
        ),
    ]
}

/// `flow_p50_ms`, `flow_p90_ms` and `flow_p99_ms` of per-operation
/// latencies, computed from `samples` latency samples.
pub fn latency_metrics(latencies: &[f64], samples: usize) -> Vec<Metric> {
    vec![
        metric("flow_p50_ms", quantile(latencies, 0.5), "ms", samples),
        metric("flow_p90_ms", quantile(latencies, 0.9), "ms", samples),
        metric("flow_p99_ms", quantile(latencies, 0.99), "ms", samples),
    ]
}

/// `check_p50_ms` and `check_states_per_s` of the check-stage calls.
pub fn check_figures(check_ms: &[f64], states: f64) -> Vec<Metric> {
    let total_s: f64 = check_ms.iter().sum::<f64>() / 1e3;
    let n = check_ms.len();
    vec![
        metric("check_p50_ms", quantile(check_ms, 0.5), "ms", n),
        metric(
            "check_states_per_s",
            if total_s > 0.0 { states / total_s } else { 0.0 },
            "1/s",
            n,
        ),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    eprintln!("  {title}");
    for m in metrics {
        eprintln!(
            "    {:<30} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn finite(mut metrics: Vec<Metric>) -> Vec<Metric> {
    for m in &mut metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    metrics
}

fn run(args: &Args) -> Result<Json, String> {
    let mut report: Report = match args.workload.as_str() {
        "corpus-cold" => corpus_cold::run(args)?,
        "analysis-scale" => analysis::run(args)?,
        "logic-arch" => logic_arch::run(args)?,
        "service-mixed" => service::run(args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if report.attempted == 0 {
        return Err("no operation was attempted".to_owned());
    }
    let failed = report.failed();
    let ok_share = 1.0 - failed as f64 / report.attempted as f64;
    report
        .end_to_end
        .push(metric("peak_rss_mb", peak_rss_mb(), "MB", 1));
    report
        .end_to_end
        .push(metric("ok_share", ok_share, "share", report.attempted));
    let mut end_to_end = Vec::new();
    for name in END_TO_END {
        let m = report.end_to_end.iter().find(|m| m.name == name);
        end_to_end.push(
            m.cloned()
                .ok_or_else(|| format!("workload did not measure {name}"))?,
        );
    }
    let end_to_end = finite(end_to_end);
    let (reference_ms, reference_runs) = pace::reference_median_ms();
    report.workload.push(metric(
        "pace.reference_ms",
        reference_ms,
        "ms",
        reference_runs,
    ));
    let workload = finite(report.workload.clone());
    let per_layer = finite(
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                report
                    .per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| metric(name, 0.0, unit, 0))
            })
            .collect(),
    );

    eprintln!(
        "perfbench {} seed={} seconds={} trace={}: attempted={} failed={} (wrong={}, errored/shed={})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.attempted,
        failed,
        report.wrong,
        report.errored
    );
    for note in &report.notes {
        eprintln!("  FAILED: {note}");
    }
    print_table("end to end", &end_to_end);
    print_table("workload figures", &workload);
    if args.trace {
        print_table("per layer (traced passes)", &per_layer);
    }

    if let Some(trace) = report.trace.take() {
        let Json::Obj(mut pairs) = trace else {
            return Err("trace document is not an object".to_owned());
        };
        let header = vec![
            ("workload".to_owned(), Json::str(&args.workload)),
            ("seed".to_owned(), Json::Num(args.seed as f64)),
            ("end_to_end".to_owned(), metrics_json(&end_to_end)),
            ("workload_figures".to_owned(), metrics_json(&workload)),
            ("per_layer".to_owned(), metrics_json(&per_layer)),
        ];
        pairs.splice(0..0, header);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, Json::Obj(pairs).render()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("  spans written to {path}");
    }

    let metrics = if args.trace { per_layer } else { end_to_end };
    Ok(Json::obj(vec![
        ("correct", Json::Bool(report.wrong == 0)),
        ("attempted", Json::num(report.attempted)),
        ("failed", Json::num(failed)),
        ("metrics", metrics_json(&metrics)),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin-logic-arch") {
        return match logic_arch::pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{}", line.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
