//! Span-tree construction for observed flows (the `--trace` artifact).
//!
//! [`TraceBuilder`] is a [`FlowObserver`]: plugged into
//! [`crate::run_cached_with`], it records each stage's wall time and
//! event slice as the pipeline reports them, then [`TraceBuilder::finish`]
//! folds the log into one [`telemetry::Span`] tree — a `flow` root with
//! one child per stage (`check`, `csc`, `synthesize`, `verify`, or a
//! single `cache` stage on a full hit) and, under `synthesize`, one
//! grandchild per CSC candidate tried. A failed run
//! ([`TraceBuilder::finish_failed`]) ends with a span for the stage that
//! failed, so its work never lands on the root alone.
//!
//! Every span carries the deterministic [`flow_metrics`] counters of its
//! event slice; wall times and advisory counters ride alongside but are
//! dropped by [`telemetry::Span::render_deterministic`], which is the
//! projection the parity suite pins byte-identical across sweep thread
//! counts.

use std::time::Instant;

use telemetry::{Counters, Span};

use crate::pipeline::{flow_metrics, FlowEvent, FlowObserver, PipelineError};

/// The pipeline's stages in run order (the names observers see).
const STAGES: [&str; 4] = ["check", "csc", "synthesize", "verify"];

/// Builds a span tree from an observed flow run.
#[derive(Debug)]
pub struct TraceBuilder {
    started: Instant,
    last: Instant,
    stages: Vec<(String, Vec<FlowEvent>, u64)>,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

fn to_ms(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX)
}

impl TraceBuilder {
    #[must_use]
    pub fn new() -> Self {
        let now = Instant::now();
        TraceBuilder {
            started: now,
            last: now,
            stages: Vec::new(),
        }
    }

    /// Folds the observed stages of a successful run into the final
    /// span tree. `counters` and `advisory` become the root's metric
    /// sets: the summary's deterministic metrics and the run's advisory
    /// counters.
    #[must_use]
    pub fn finish(self, counters: Counters, advisory: Counters) -> Span {
        let mut root = Span::new("flow");
        root.wall_ms = to_ms(self.started.elapsed());
        root.counters = counters;
        root.advisory = advisory;
        for (name, events, wall_ms) in self.stages {
            let mut stage = Span::new(&name);
            stage.wall_ms = wall_ms;
            stage.counters = flow_metrics(&events);
            if name == "synthesize" {
                for child in candidate_spans(&events) {
                    stage.push_child(child);
                }
            }
            root.push_child(stage);
        }
        root
    }

    /// Folds a failed run into the span tree. The stage that failed was
    /// never reported to the observer, so its span is built here: it is
    /// the stage after the last observed one, its events are the part of
    /// the error's log past the observed stages, and its wall time runs
    /// from the last observed stage to now. The root carries the whole
    /// log's counters.
    #[must_use]
    pub fn finish_failed(mut self, error: &PipelineError) -> Span {
        let events = error.events();
        // A failed checkpoint resume reruns the stages from `check`, so
        // only the stages of the last pass cover the error's log.
        let pass = self
            .stages
            .iter()
            .rposition(|(name, ..)| name == "check")
            .unwrap_or(0);
        let seen: usize = self.stages[pass..].iter().map(|(_, e, _)| e.len()).sum();
        let failed = self.stages.last().map_or(0, |(last, ..)| {
            STAGES
                .iter()
                .position(|s| s == last)
                .map_or(STAGES.len(), |i| i + 1)
        });
        if let Some(name) = STAGES.get(failed) {
            let wall_ms = to_ms(self.last.elapsed());
            let tail = events.get(seen..).unwrap_or_default().to_vec();
            self.stages.push(((*name).to_owned(), tail, wall_ms));
        }
        self.finish(flow_metrics(events), Counters::new())
    }
}

impl FlowObserver for TraceBuilder {
    fn stage(&mut self, stage: &str, events: &[FlowEvent]) {
        let wall_ms = to_ms(self.last.elapsed());
        self.last = Instant::now();
        self.stages
            .push((stage.to_owned(), events.to_vec(), wall_ms));
    }
}

/// Partitions a synthesize-stage event slice into per-candidate child
/// spans: each [`FlowEvent::CandidateRejected`] closes one candidate's
/// group (rejection event included), and the remainder — the winning
/// candidate, possibly led by its [`FlowEvent::CscApplied`] — becomes
/// the accepted span. Wall time is not tracked per candidate; the
/// counters are deterministic, so these spans survive the
/// [`telemetry::Span::render_deterministic`] projection.
fn candidate_spans(events: &[FlowEvent]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut group: Vec<FlowEvent> = Vec::new();
    for event in events {
        group.push(event.clone());
        if let FlowEvent::CandidateRejected { index, .. } = event {
            let mut span = Span::new(&format!("candidate {index} (rejected)"));
            span.counters = flow_metrics(&group);
            spans.push(span);
            group.clear();
        }
    }
    if !group.is_empty() {
        let mut span = Span::new(&format!("candidate {} (accepted)", spans.len()));
        span.counters = flow_metrics(&group);
        spans.push(span);
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::TraceBuilder;
    use crate::pipeline::{flow_metrics, run_cached_with, SynthesisOptions};

    #[test]
    fn failed_run_traces_the_failing_stage() {
        // selector-1 has CSC conflicts no candidate resolves: the flow
        // fails inside the CSC stage, after the sweep did its work.
        let (_, spec) = corpus::all_specs()
            .into_iter()
            .find(|(_, s)| s.name() == "selector-1")
            .expect("corpus spec");
        let mut trace = TraceBuilder::new();
        let error = run_cached_with(&spec, &SynthesisOptions::default(), None, &mut trace)
            .expect_err("selector-1 has no CSC resolution");
        assert!(
            matches!(error, crate::PipelineError::CscUnresolved { .. }),
            "{error}"
        );
        let span = trace.finish_failed(&error);
        let names: Vec<&str> = span.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["check", "csc"]);
        let csc = &span.children[1];
        for counter in ["sweep_grid", "sweep_evaluated"] {
            assert!(
                csc.counters.get(counter).is_some_and(|n| n > 0),
                "the failing csc stage carries {counter}: {}",
                csc.counters.render()
            );
        }
        assert!(
            span.children[0].counters.get("sweep_grid").is_none(),
            "sweep counters belong to the csc span, not the check span"
        );
        assert_eq!(span.counters, flow_metrics(error.events()));
    }

    #[test]
    fn trace_tree_covers_every_stage_with_counters() {
        let options = SynthesisOptions::default();
        let mut trace = TraceBuilder::new();
        let run = run_cached_with(&stg::examples::vme_read(), &options, None, &mut trace)
            .expect("vme read synthesises");
        let span = trace.finish(run.summary.metrics.clone(), run.advisory.clone());
        assert_eq!(span.name, "flow");
        let names: Vec<&str> = span.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["check", "csc", "synthesize", "verify"]);
        assert_eq!(
            span.counters.get("states_explored"),
            Some(run.summary.metrics.get("states_explored").unwrap())
        );
        let check = &span.children[0];
        assert!(check.counters.get("states").is_some());
        let synthesize = &span.children[2];
        assert!(
            !synthesize.children.is_empty(),
            "synthesize stage has per-candidate spans"
        );
        assert!(synthesize
            .children
            .last()
            .unwrap()
            .name
            .ends_with("(accepted)"));
        // The artifact renders; the deterministic projection drops
        // wall_ms and advisory but keeps every span.
        let full = span.render();
        let det = span.render_deterministic();
        assert!(full.contains("wall_ms"));
        assert!(!det.contains("wall_ms"));
        assert!(det.contains("\"name\":\"verify\""));
    }
}
