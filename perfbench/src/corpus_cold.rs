//! `corpus-cold`: the 45 corpus specifications through the uncached
//! stage API with default options, in a seed-permuted order per pass.
//! Known answer: outcome plus equation and netlist digests from the
//! pinned corpus ledger.
//!
//! The latency operation is a family: its specifications, one after the
//! other. Half the corpus takes under a millisecond per specification,
//! and at that size the median specification's time moved by a third
//! from one process to the next; a family's time does not.
//!
//! One exception to the defaults: the CSC sweep runs on one thread. The
//! thread count never changes a result (the ledger check still holds),
//! and a sweep spread over both cores of a small shared machine times
//! whatever else the machine runs more than the sweep itself.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use asyncsynth::{SynthesisOptions, SynthesisSummary};
use corpus::ledger::{outcome_name, LedgerRecord};
use stg::canon::digest_bytes;
use stg::Stg;

use crate::common::{metric, Report, Rng, SetupTimes};
use crate::flow::{self, FlowRun, PassCounts};
use crate::trace::Tracer;
use crate::{Args, Passes};

const LEDGER_DIR: &str = "corpus/ledger";

struct Inputs {
    /// The specifications of each family, in ledger order.
    families: Vec<Vec<(Stg, LedgerRecord)>>,
}

fn setup() -> Result<Inputs, String> {
    let ledger: HashMap<String, LedgerRecord> = corpus::ledger::load_all(Path::new(LEDGER_DIR))?
        .into_iter()
        .map(|r| (r.model.clone(), r))
        .collect();
    let mut families: Vec<Vec<(Stg, LedgerRecord)>> = Vec::new();
    for family in corpus::families() {
        let specs = family
            .specs()
            .into_iter()
            .map(|spec| match ledger.get(spec.name()) {
                Some(record) => Ok((spec, record.clone())),
                None => Err(format!("no ledger record for {}", spec.name())),
            })
            .collect::<Result<_, _>>()?;
        families.push(specs);
    }
    Ok(Inputs { families })
}

/// The run's outcome against the pinned record.
pub fn check_against(
    record: &LedgerRecord,
    run: &FlowRun,
    options: &SynthesisOptions,
) -> Result<(), String> {
    let outcome = match &run.outcome {
        Ok(_) => "synthesized",
        Err(e) => outcome_name(e),
    };
    if outcome != record.outcome {
        return Err(format!(
            "{}: outcome {outcome}, ledger {}",
            record.model, record.outcome
        ));
    }
    if let Ok(verified) = &run.outcome {
        let summary = SynthesisSummary::from_verified(verified, options);
        let equations = digest_bytes(summary.equations.as_bytes()).to_hex();
        let netlist = digest_bytes(summary.netlist.as_bytes()).to_hex();
        if Some(&equations) != record.equations_digest.as_ref()
            || Some(&netlist) != record.netlist_digest.as_ref()
        {
            return Err(format!(
                "{}: equation or netlist digest differs from the ledger",
                record.model
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = SetupTimes::default();
    let inputs = setups.repeated(setup)?;
    let mut options = SynthesisOptions::default();
    options.sweep.threads = 1;
    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new(false);
    let mut layers = PassCounts::default();
    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut check_ms = Vec::new();
    let mut check_states = 0.0;
    let mut request = 0u64;
    let start = Instant::now();
    while !passes.done(args, start.elapsed().as_secs_f64()) {
        let traced = passes.begin(args.trace);
        tracer.set_enabled(traced.is_some());
        let pass = traced.unwrap_or(0);
        let mut order: Vec<usize> = (0..inputs.families.len()).collect();
        rng.shuffle(&mut order);
        for f in order {
            let family = &inputs.families[f];
            let mut family_ms = 0.0;
            for (spec, record) in family {
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
                family_ms += run.times.total();
                if traced.is_none() {
                    check_ms.push(run.times.check);
                    check_states += run.check_states.unwrap_or(0) as f64;
                }
                if let Err(note) = check_against(record, &run, &options) {
                    report.fail(true, note);
                }
            }
            passes.sample(f, family_ms, || {
                family
                    .iter()
                    .map(|(spec, _)| {
                        let again = flow::run(
                            spec.clone(),
                            &options,
                            &mut tracer,
                            &mut layers,
                            request,
                            pass,
                        );
                        again.times.total()
                    })
                    .sum()
            });
        }
        passes.end();
        setups.slice(setup)?;
    }
    report.end_to_end = passes.latency_metrics();
    report.end_to_end.push(setups.metric());
    report.workload = vec![metric(
        "corpus_pass_s",
        passes.pass_median_s(),
        "s",
        passes.untraced_passes(),
    )];
    report
        .workload
        .extend(crate::check_figures(&check_ms, check_states));
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
