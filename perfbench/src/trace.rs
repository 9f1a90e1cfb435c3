//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory and are written once, when the run
//! ends. With tracing off every call is a no-op.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children. Some children are *replays*: a stage such as
//! `Synthesis::check` calls layer functions (`Backend::build`,
//! `report_from_sg`) internally, where no outside span can reach them,
//! so the traced run calls the same public function on the same input
//! right after the stage and files the span under the stage. A replay's
//! duration stands for the work the stage did inside that layer and is
//! subtracted from the stage's self time in full.

use std::collections::BTreeMap;
use std::time::Instant;

use asyncsynth::Json;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    /// Operation (request) the span belongs to.
    request: u64,
    /// Pass of the workload the operation belongs to.
    pass: u32,
    start_ms: f64,
    end_ms: f64,
    replay: bool,
    /// What the operation was (set on root spans).
    label: Option<String>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (traced runs alternate traced and
    /// untraced passes to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.base).as_secs_f64() * 1e3
    }

    /// Records a finished span; returns its id (0 when tracing is off).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        pass: u32,
        start: Instant,
        end: Instant,
        replay: bool,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let (start_ms, end_ms) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            parent,
            request,
            pass,
            start_ms,
            end_ms,
            replay,
            label: None,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet (a parent recorded
    /// before its children); close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        pass: u32,
        start: Instant,
    ) -> SpanId {
        self.record(name, parent, request, pass, start, start, false)
    }

    /// Names the operation a (root) span stands for.
    pub fn label(&mut self, id: SpanId, label: impl FnOnce() -> String) {
        if self.enabled {
            self.spans[id].label = Some(label());
        }
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if self.enabled {
            self.spans[id].end_ms = self.at(end);
        }
    }

    /// Runs `f` inside a replay span filed under `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        pass: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(
            name,
            Some(parent),
            request,
            pass,
            start,
            Instant::now(),
            true,
        );
        value
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, in milliseconds.
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut covered: Vec<(f64, f64)> = Vec::new();
                let mut replayed = 0.0;
                for &c in &children[id] {
                    let child = &self.spans[c];
                    if child.replay {
                        replayed += child.end_ms - child.start_ms;
                    } else {
                        let lo = child.start_ms.max(span.start_ms);
                        let hi = child.end_ms.min(span.end_ms);
                        if hi > lo {
                            covered.push((lo, hi));
                        }
                    }
                }
                covered.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut union = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (lo, hi) in covered {
                    let lo = lo.max(reach);
                    if hi > lo {
                        union += hi - lo;
                        reach = hi;
                    }
                }
                (span.end_ms - span.start_ms - union - replayed).max(0.0)
            })
            .collect()
    }

    /// Self time per span name, summed within each pass: `name → [one
    /// sum per pass]`. Passes with no span of a name contribute 0.
    pub fn self_ms_per_pass(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let passes = self.spans.iter().map(|s| s.pass + 1).max().unwrap_or(0) as usize;
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ms) in self.spans.iter().zip(self.self_times()) {
            out.entry(span.name).or_insert_with(|| vec![0.0; passes])[span.pass as usize] +=
                self_ms;
        }
        out
    }

    /// The spans and their self times as one JSON document.
    pub fn to_json(&self, header: Vec<(&str, Json)>) -> Json {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(self_times)
            .enumerate()
            .map(|(id, (s, self_ms))| {
                Json::obj(vec![
                    ("id", Json::num(id)),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, Json::num)),
                    ("request", Json::Num(s.request as f64)),
                    ("pass", Json::Num(f64::from(s.pass))),
                    ("start_ms", Json::Num(s.start_ms)),
                    ("end_ms", Json::Num(s.end_ms)),
                    ("self_ms", Json::Num(self_ms)),
                    ("replay", Json::Bool(s.replay)),
                    ("label", s.label.as_ref().map_or(Json::Null, Json::str)),
                ])
            })
            .collect();
        let mut pairs = header;
        pairs.push(("spans", Json::Arr(spans)));
        Json::obj(pairs)
    }
}
