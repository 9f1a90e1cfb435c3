//! `logic-arch`: the corpus specifications that synthesise, already
//! CSC-resolved and pinned as `.g` text under `data/logic-arch/`, each
//! through the four architectures. Known answer: the verdict per
//! (specification, architecture) pinned in `reference.json`; every
//! `passed` verdict must come with a verification report.
//!
//! `perfbench pin-logic-arch` regenerates the pinned files from the
//! corpus. The benchmark never rewrites them on its own, so a later
//! change to CSC resolution cannot alter these inputs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use asyncsynth::{Architecture, Json, PipelineError, Synthesis, SynthesisOptions, Verified};
use corpus::ledger::outcome_name;
use stg::Stg;

use crate::common::{metric, quantile, Report, Rng, SetupTimes};
use crate::flow::{self, PassCounts};
use crate::trace::Tracer;
use crate::{Args, Passes};

const DATA_DIR: &str = "perfbench/data/logic-arch";
const REFERENCE: &str = "reference.json";
const SCHEMA: &str = "perfbench-logic-arch-v1";
const ARCHITECTURES: [Architecture; 4] = [
    Architecture::ComplexGate,
    Architecture::CElement,
    Architecture::RsLatch,
    Architecture::Decomposed,
];

/// One pinned operation: a resolved specification, an architecture and
/// the expected verdict.
struct Op {
    spec: usize,
    architecture: Architecture,
    verdict: String,
}

struct Inputs {
    specs: Vec<Stg>,
    ops: Vec<Op>,
}

/// `passed`, or the outcome name of the flow's error.
fn verdict(outcome: &Result<Verified, PipelineError>) -> String {
    match outcome {
        Ok(v) if v.verification.passed() && v.verification.report().is_some() => {
            "passed".to_owned()
        }
        Ok(_) => "not_verified".to_owned(),
        Err(e) => outcome_name(e).to_owned(),
    }
}

fn setup() -> Result<Inputs, String> {
    let dir = Path::new(DATA_DIR);
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{DATA_DIR}/{name}: {e}"))
    };
    let reference = Json::parse(&read(REFERENCE)?)?;
    if reference.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{DATA_DIR}/{REFERENCE}: expected schema {SCHEMA}"));
    }
    let mut specs = Vec::new();
    let mut ops = Vec::new();
    for entry in reference.get("specs").and_then(Json::as_arr).unwrap_or(&[]) {
        let file = entry
            .get("file")
            .and_then(Json::as_str)
            .ok_or("entry without file")?;
        let spec = stg::parse::parse_g(&read(file)?).map_err(|e| format!("{file}: {e}"))?;
        let verdicts = entry.get("verdicts").ok_or("entry without verdicts")?;
        for architecture in ARCHITECTURES {
            let verdict = verdicts
                .get(architecture.name())
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}: no verdict for {architecture}"))?;
            ops.push(Op {
                spec: specs.len(),
                architecture,
                verdict: verdict.to_owned(),
            });
        }
        specs.push(spec);
    }
    if ops.is_empty() {
        return Err(format!("{DATA_DIR}/{REFERENCE} lists no specification"));
    }
    Ok(Inputs { specs, ops })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = SetupTimes::default();
    let inputs = setups.repeated(setup)?;
    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new(false);
    let mut layers = PassCounts::default();
    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut logic_ms = Vec::new();
    let mut request = 0u64;
    let start = Instant::now();
    while !passes.done(args, start.elapsed().as_secs_f64()) {
        let traced = passes.begin(args.trace);
        tracer.set_enabled(traced.is_some());
        let pass = traced.unwrap_or(0);
        let mut order: Vec<usize> = (0..inputs.ops.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let op = &inputs.ops[i];
            let options = SynthesisOptions {
                architecture: op.architecture,
                ..SynthesisOptions::default()
            };
            let spec = &inputs.specs[op.spec];
            let run = flow::run(
                spec.clone(),
                &options,
                &mut tracer,
                &mut layers,
                request,
                pass,
            );
            request += 1;
            report.attempted += 1;
            passes.sample(i, run.times.total(), || {
                let again = flow::run(
                    spec.clone(),
                    &options,
                    &mut tracer,
                    &mut layers,
                    request,
                    pass,
                );
                again.times.total()
            });
            if traced.is_none() {
                logic_ms.push(run.times.logic());
            }
            let got = verdict(&run.outcome);
            if got != op.verdict {
                report.fail(
                    true,
                    format!(
                        "{} / {}: {got}, pinned {}",
                        inputs.specs[op.spec].name(),
                        op.architecture,
                        op.verdict
                    ),
                );
            }
        }
        passes.end();
        setups.slice(setup)?;
    }
    report.end_to_end = passes.latency_metrics();
    report.end_to_end.push(setups.metric());
    let n = logic_ms.len();
    report.workload = vec![
        metric("logic_p50_ms", quantile(&logic_ms, 0.5), "ms", n),
        metric("logic_p90_ms", quantile(&logic_ms, 0.9), "ms", n),
        metric(
            "corpus_pass_s",
            passes.pass_median_s(),
            "s",
            passes.untraced_passes(),
        ),
    ];
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

/// Regenerates `data/logic-arch/`: every corpus specification the
/// default flow synthesises is written as its CSC-resolved `.g` text,
/// then each architecture's verdict on the re-parsed text is pinned.
pub fn pin() -> Result<(), String> {
    let dir = Path::new(DATA_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{DATA_DIR}: {e}"))?;
    let mut entries = Vec::new();
    let mut excluded = Vec::new();
    let mut tracer = Tracer::new(false);
    let mut layers = PassCounts::default();
    for (_, spec) in corpus::all_specs() {
        let name = spec.name().to_owned();
        let run = flow::run(
            spec,
            &SynthesisOptions::default(),
            &mut tracer,
            &mut layers,
            0,
            0,
        );
        let Ok(verified) = run.outcome else { continue };
        let text = stg::parse::write_g(&verified.spec);
        let resolved = stg::parse::parse_g(&text).map_err(|e| format!("{name}: {e}"))?;
        // Only a text that reads back as a CSC-clean, implementable
        // specification is a resolved input; `write_g` does not always
        // round-trip a transformed specification.
        let clean = Synthesis::new(resolved.clone())
            .check()
            .is_ok_and(|c| c.report().complete_state_coding);
        if !clean {
            eprintln!("{name:<18} excluded: its resolved .g text does not read back CSC-clean");
            excluded.push(Json::str(name));
            continue;
        }
        let file = format!("{name}.g");
        std::fs::write(dir.join(&file), &text).map_err(|e| format!("{file}: {e}"))?;
        let mut verdicts = Vec::new();
        let mut line = format!("{name:<18}");
        for architecture in ARCHITECTURES {
            let options = SynthesisOptions {
                architecture,
                ..SynthesisOptions::default()
            };
            let run = flow::run(resolved.clone(), &options, &mut tracer, &mut layers, 0, 0);
            let got = verdict(&run.outcome);
            let _ = write!(line, " {architecture}={got} ({:.1} ms)", run.times.total());
            verdicts.push((architecture.name(), Json::str(got)));
        }
        eprintln!("{line}");
        entries.push(Json::obj(vec![
            ("file", Json::str(file)),
            ("verdicts", Json::obj(verdicts)),
        ]));
    }
    let reference = Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("specs", Json::Arr(entries)),
        ("excluded", Json::Arr(excluded)),
    ]);
    let path = dir.join(REFERENCE);
    std::fs::write(&path, reference.render() + "\n").map_err(|e| format!("{REFERENCE}: {e}"))
}
