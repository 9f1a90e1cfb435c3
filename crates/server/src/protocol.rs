//! The synthesis service's wire protocol: newline-delimited JSON
//! (NDJSON), one message per line, over TCP or stdio.
//!
//! # Requests
//!
//! ```json
//! {"op":"synth","spec":"<.g text>","backend":"explicit","arch":"complex",
//!  "csc":"auto","csc_threads":0,"csc_bound":200000,"fanin":2,
//!  "skip_verification":false,"verify_bound":500000,"priority":"normal",
//!  "events":true}
//! {"op":"check","spec":"<.g text>","backend":"symbolic-set"}
//! {"op":"batch","specs":["<.g text>","<.g text>"],"backend":"explicit"}
//! {"op":"status"}
//! {"op":"metrics"}
//! {"op":"cancel","job":3}
//! {"op":"shutdown"}
//! ```
//!
//! Every option of `synth` except `spec` is optional and defaults to the
//! pipeline's defaults; unknown fields (such as the retired, always
//! output-neutral pruning and incremental-verification switches) are
//! ignored. `events:true` streams per-stage [`FlowEvent`]
//! diagnostics while the job runs. `priority` (`high`, `normal`, `low`;
//! default `normal`) places the job in one of the queue's three
//! admission classes — priority only affects scheduling order, never a
//! job's result. `batch` submits many specifications as one job (the
//! CLI's corpus-directory form of `submit`): each spec is first probed
//! against the result cache, the misses run through
//! `asyncsynth::run_batch`-style member synthesis, and per-spec
//! failures do not fail the batch.
//!
//! # Responses
//!
//! ```json
//! {"type":"accepted","job":1,"key":"<64-hex cache key>"}
//! {"type":"rejected","reason":"queue_full","queue_depth":12,"retry_after_ms":125}
//! {"type":"event","job":1,"stage":"check","message":"state space built (explicit): 20 states"}
//! {"type":"result","job":1,"cache":"miss","summary":{...}}
//! {"type":"check_result","job":2,"cache":"hit","report":{...}}
//! {"type":"batch_result","job":4,"total":3,"synthesized":2,"failed":1,
//!  "cancelled":0,"cache_hits":0,
//!  "results":[{"model":"...","cache":"miss","summary":{...}},
//!             {"model":"...","cache":"miss","error":"..."}]}
//! {"type":"error","job":1,"message":"..."}        // job omitted for protocol errors
//! {"type":"status","queued":0,"queue_jobs":0,"queue_capacity":256,
//!  "running":1,"completed":9,"cancelled":1,"panicked":0,"shed":3,
//!  "workers":4,"cache":{"hits":5,"misses":4,"stores":4,"corrupt":0}}
//! {"type":"metrics",
//!  "counters":{"cache_hits":5,"cache_misses":4,"jobs_completed":9,
//!              "jobs_cancelled":1,"requests_synth":10,"shed_total":3,
//!              "shed_queue_full":2,"shed_client_quota":1,"worker_panics":0},
//!  "gauges":{"cache_hit_permille":555,"jobs_running":1,"queue_depth":0,
//!            "queue_depth_high":0,"queue_depth_low":0,"queue_depth_normal":0,
//!            "queue_jobs":0,"queue_capacity":256,"workers":4}}
//! {"type":"cancelled","job":3,"found":true}
//! {"type":"shutting_down"}
//! ```
//!
//! `rejected` is the load-shedding reply: the job was **not** queued
//! (no job id exists), `reason` is `queue_full` or `client_quota`,
//! `queue_depth` is the weighted backlog at rejection time (a batch of
//! N specs weighs N, not 1), and `retry_after_ms` is the server's
//! deterministic backoff hint. Clients should wait at least that long
//! before resubmitting; [`crate::client::request_with`] does so
//! automatically with exponential backoff and jitter.
//!
//! `status` is the quick human-facing snapshot (weighted queue depth,
//! raw queued-job count, capacity, shed totals, busy workers,
//! job-lifecycle counters, cache stats); `metrics` is the
//! machine-facing export of the server's [`telemetry::Registry`] —
//! monotonic counters plus point-in-time gauges, rendered with sorted
//! keys so equal states produce equal bytes. `queue_depth` gauges are
//! weighted (admission's own view of load); `queue_jobs` is the raw job
//! count. The counters also carry two per-job timing histograms in
//! disjoint µs buckets (≤100, ≤1 000, ≤10 000, ≤100 000, above):
//! `job_queue_wait_us_le_*` and `job_run_us_le_*`, each with `_count`
//! and `_sum_us`. All service counters are advisory (they describe
//! *this* process) and are never drift-gated.
//!
//! Responses for a given job always end with exactly one `result`,
//! `check_result`, `batch_result` or `error` message carrying that job
//! id. A `rejected` reply is terminal for the request that provoked it.
//!
//! [`FlowEvent`]: asyncsynth::FlowEvent

use asyncsynth::cache::CacheStats;
use asyncsynth::summary::{counters_from_json, counters_to_json};
use asyncsynth::{Json, SynthesisOptions};
use telemetry::Counters;

/// A job's admission class. Priority orders the queue's weighted
/// round-robin scheduler (high:normal:low served 4:2:1, so low-priority
/// work is delayed under load but never starved) and nothing else: a
/// job's result and cache key are identical at every priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Interactive work; served first (weight 4).
    High,
    /// The default class (weight 2).
    #[default]
    Normal,
    /// Background bulk work, e.g. corpus warming (weight 1).
    Low,
}

impl Priority {
    /// The wire name (`high` / `normal` / `low`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// The queue-class index (high = 0, normal = 1, low = 2).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// All classes, in scheduling order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

impl std::str::FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Priority, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority {other:?} (expected high, normal or low)"
            )),
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run the full flow on a `.g` specification.
    Synth {
        /// The specification, in `.g` text form.
        spec_text: String,
        /// Flow options (backend, architecture, CSC strategy, …).
        options: SynthesisOptions,
        /// Admission class (scheduling only, never results).
        priority: Priority,
        /// Stream per-stage events while the job runs.
        events: bool,
    },
    /// Run only the §2.1 implementability check.
    Check {
        /// The specification, in `.g` text form.
        spec_text: String,
        /// Flow options (only the backend matters for `check`).
        options: SynthesisOptions,
        /// Admission class (scheduling only, never results).
        priority: Priority,
    },
    /// Run the full flow on many specifications as one job.
    Batch {
        /// The specifications, each in `.g` text form.
        spec_texts: Vec<String>,
        /// Flow options, shared by every member of the batch.
        options: SynthesisOptions,
        /// Admission class (scheduling only, never results).
        priority: Priority,
    },
    /// Report queue/worker/cache counters.
    Status,
    /// Export the server's metrics registry (counters + gauges).
    Metrics,
    /// Cancel a queued or running job.
    Cancel {
        /// The job id from the `accepted` response.
        job: u64,
    },
    /// Stop accepting connections and drain.
    Shutdown,
}

impl Request {
    /// Parses one NDJSON request line.
    ///
    /// # Errors
    ///
    /// A protocol-level message (malformed JSON, unknown `op`, missing
    /// or mistyped fields).
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\" field")?;
        match op {
            "synth" => Ok(Request::Synth {
                spec_text: spec_field(&v)?,
                options: options_fields(&v)?,
                priority: priority_field(&v)?,
                events: v.get("events").and_then(Json::as_bool).unwrap_or(false),
            }),
            "check" => Ok(Request::Check {
                spec_text: spec_field(&v)?,
                options: options_fields(&v)?,
                priority: priority_field(&v)?,
            }),
            "batch" => Ok(Request::Batch {
                spec_texts: specs_field(&v)?,
                options: options_fields(&v)?,
                priority: priority_field(&v)?,
            }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "cancel" => Ok(Request::Cancel {
                job: v
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or("cancel needs a numeric \"job\"")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Renders the request as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Request::Synth {
                spec_text,
                options,
                priority,
                events,
            } => {
                let mut pairs = vec![("op", Json::str("synth")), ("spec", Json::str(spec_text))];
                pairs.extend(option_pairs(options));
                pairs.extend(priority_pair(*priority));
                pairs.push(("events", Json::Bool(*events)));
                Json::obj(pairs).render()
            }
            Request::Check {
                spec_text,
                options,
                priority,
            } => {
                let mut pairs = vec![("op", Json::str("check")), ("spec", Json::str(spec_text))];
                pairs.extend(option_pairs(options));
                pairs.extend(priority_pair(*priority));
                Json::obj(pairs).render()
            }
            Request::Batch {
                spec_texts,
                options,
                priority,
            } => {
                let specs = Json::Arr(spec_texts.iter().map(Json::str).collect());
                let mut pairs = vec![("op", Json::str("batch")), ("specs", specs)];
                pairs.extend(option_pairs(options));
                pairs.extend(priority_pair(*priority));
                Json::obj(pairs).render()
            }
            Request::Status => Json::obj(vec![("op", Json::str("status"))]).render(),
            Request::Metrics => Json::obj(vec![("op", Json::str("metrics"))]).render(),
            Request::Cancel { job } => Json::obj(vec![
                ("op", Json::str("cancel")),
                ("job", Json::Num(*job as f64)),
            ])
            .render(),
            Request::Shutdown => Json::obj(vec![("op", Json::str("shutdown"))]).render(),
        }
    }
}

fn priority_field(v: &Json) -> Result<Priority, String> {
    match v.get("priority") {
        None => Ok(Priority::default()),
        Some(p) => p
            .as_str()
            .ok_or_else(|| "\"priority\" must be a string".to_owned())?
            .parse(),
    }
}

/// The `priority` wire pair — omitted at the default so renders of
/// priority-less requests stay byte-identical to older clients'.
fn priority_pair(priority: Priority) -> Option<(&'static str, Json)> {
    (priority != Priority::default()).then(|| ("priority", Json::str(priority.name())))
}

fn spec_field(v: &Json) -> Result<String, String> {
    v.get("spec")
        .and_then(Json::as_str)
        .map(ToOwned::to_owned)
        .ok_or_else(|| "missing \"spec\" field (.g text)".to_owned())
}

fn specs_field(v: &Json) -> Result<Vec<String>, String> {
    let Some(Json::Arr(items)) = v.get("specs") else {
        return Err("missing \"specs\" field (array of .g texts)".to_owned());
    };
    let texts: Vec<String> = items
        .iter()
        .filter_map(|s| s.as_str().map(ToOwned::to_owned))
        .collect();
    if texts.len() != items.len() {
        return Err("\"specs\" must contain only strings".to_owned());
    }
    if texts.is_empty() {
        return Err("\"specs\" must not be empty".to_owned());
    }
    Ok(texts)
}

fn options_fields(v: &Json) -> Result<SynthesisOptions, String> {
    let mut options = SynthesisOptions::default();
    if let Some(backend) = v.get("backend").and_then(Json::as_str) {
        options.backend = backend.parse()?;
    }
    if let Some(arch) = v.get("arch").and_then(Json::as_str) {
        options.architecture = arch.parse()?;
    }
    if let Some(csc) = v.get("csc").and_then(Json::as_str) {
        options.csc = csc.parse()?;
    }
    if let Some(threads) = v.get("csc_threads") {
        options.sweep.threads = threads
            .as_usize()
            .ok_or("\"csc_threads\" must be a non-negative integer")?;
    }
    if let Some(bound) = v.get("csc_bound") {
        options.sweep.bound = bound
            .as_usize()
            .ok_or("\"csc_bound\" must be a non-negative integer")?;
    }
    if let Some(fanin) = v.get("fanin") {
        options.max_fanin = Some(
            fanin
                .as_usize()
                .ok_or("\"fanin\" must be a non-negative integer")?,
        );
    }
    if let Some(skip) = v.get("skip_verification").and_then(Json::as_bool) {
        options.skip_verification = skip;
    }
    if let Some(bound) = v.get("verify_bound") {
        options.verify.bound = bound
            .as_usize()
            .ok_or("\"verify_bound\" must be a non-negative integer")?;
    }
    Ok(options)
}

fn option_pairs(options: &SynthesisOptions) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![
        ("backend", Json::str(options.backend.name())),
        ("arch", Json::str(options.architecture.name())),
        ("csc", Json::str(options.csc.name())),
        ("csc_threads", Json::num(options.sweep.threads)),
        ("csc_bound", Json::num(options.sweep.bound)),
        ("verify_bound", Json::num(options.verify.bound)),
    ];
    if let Some(fanin) = options.max_fanin {
        pairs.push(("fanin", Json::num(fanin)));
    }
    if options.skip_verification {
        pairs.push(("skip_verification", Json::Bool(true)));
    }
    pairs
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// A job was queued.
    Accepted {
        /// The job id (scope: this server process).
        job: u64,
        /// The full-result cache key, when the server runs a cache.
        key: Option<String>,
    },
    /// Admission failed: the job was shed instead of queued (no job id
    /// exists). Terminal for the request that provoked it.
    Rejected {
        /// `queue_full` or `client_quota`.
        reason: String,
        /// Weighted backlog at rejection time (batch of N weighs N).
        queue_depth: u64,
        /// The server's deterministic backoff hint; clients should wait
        /// at least this long before resubmitting.
        retry_after_ms: u64,
    },
    /// A streamed per-stage diagnostic (only with `events:true`).
    Event {
        /// The job this event belongs to.
        job: u64,
        /// The pipeline stage that produced it.
        stage: String,
        /// The rendered [`asyncsynth::FlowEvent`].
        message: String,
    },
    /// A synth job finished successfully.
    Result {
        /// The job id.
        job: u64,
        /// Cache participation (`hit`, `csc_resumed`, `miss`, `disabled`).
        cache: String,
        /// The [`asyncsynth::SynthesisSummary`] JSON.
        summary: Json,
    },
    /// A check job finished successfully.
    CheckResult {
        /// The job id.
        job: u64,
        /// Cache participation (`hit`, `miss`, `disabled`).
        cache: String,
        /// The implementability report JSON.
        report: Json,
    },
    /// A batch job finished (per-spec failures included, in order).
    BatchResult {
        /// The job id.
        job: u64,
        /// One entry per submitted spec, in submission order: `model`
        /// and `cache` always, plus either `summary` (success) or
        /// `error` (that spec's pipeline failure).
        results: Vec<Json>,
    },
    /// A job failed, or (with `job: None`) a request was malformed.
    Error {
        /// The job id, when the error belongs to an accepted job.
        job: Option<u64>,
        /// Human-readable description.
        message: String,
    },
    /// Queue / worker / cache counters.
    Status {
        /// Weighted queue depth — admission's view of the backlog (a
        /// queued batch of N specs contributes N, not 1).
        queued: usize,
        /// Raw count of queued jobs (a batch counts as 1 here).
        queue_jobs: usize,
        /// Weighted queue capacity (0 = unbounded).
        queue_capacity: usize,
        /// Jobs shed by admission control so far.
        shed: u64,
        /// Jobs currently executing (busy workers).
        running: usize,
        /// Jobs finished since the server started.
        completed: u64,
        /// Jobs whose cancellation was newly requested.
        cancelled: u64,
        /// Jobs that panicked inside a worker (the worker survived).
        panicked: u64,
        /// Worker-pool size.
        workers: usize,
        /// Cache counters, when a cache is configured.
        cache: Option<CacheStats>,
    },
    /// The server's metrics registry: monotonic counters plus
    /// point-in-time gauges (see the module docs for the key set).
    Metrics {
        /// Monotonic counters (requests by op, job lifecycle, cache).
        counters: Counters,
        /// Point-in-time gauges (queue depth, busy workers, hit ratio).
        gauges: Counters,
    },
    /// Acknowledges a cancel request.
    Cancelled {
        /// The job id from the request.
        job: u64,
        /// Whether the job was still known (queued or running).
        found: bool,
    },
    /// Acknowledges a shutdown request.
    ShuttingDown,
}

impl Response {
    /// Encodes the response as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        let num64 = |n: u64| Json::Num(n as f64);
        match self {
            Response::Accepted { job, key } => Json::obj(vec![
                ("type", Json::str("accepted")),
                ("job", num64(*job)),
                ("key", key.as_ref().map_or(Json::Null, Json::str)),
            ]),
            Response::Rejected {
                reason,
                queue_depth,
                retry_after_ms,
            } => Json::obj(vec![
                ("type", Json::str("rejected")),
                ("reason", Json::str(reason)),
                ("queue_depth", num64(*queue_depth)),
                ("retry_after_ms", num64(*retry_after_ms)),
            ]),
            Response::Event {
                job,
                stage,
                message,
            } => Json::obj(vec![
                ("type", Json::str("event")),
                ("job", num64(*job)),
                ("stage", Json::str(stage)),
                ("message", Json::str(message)),
            ]),
            Response::Result {
                job,
                cache,
                summary,
            } => Json::obj(vec![
                ("type", Json::str("result")),
                ("job", num64(*job)),
                ("cache", Json::str(cache)),
                ("summary", summary.clone()),
            ]),
            Response::CheckResult { job, cache, report } => Json::obj(vec![
                ("type", Json::str("check_result")),
                ("job", num64(*job)),
                ("cache", Json::str(cache)),
                ("report", report.clone()),
            ]),
            Response::BatchResult { job, results } => {
                let synthesized = results
                    .iter()
                    .filter(|r| r.get("summary").is_some())
                    .count();
                let cancelled = results
                    .iter()
                    .filter(|r| r.get("cancelled").and_then(Json::as_bool) == Some(true))
                    .count();
                let cache_hits = results
                    .iter()
                    .filter(|r| r.get("cache").and_then(Json::as_str) == Some("hit"))
                    .count();
                Json::obj(vec![
                    ("type", Json::str("batch_result")),
                    ("job", num64(*job)),
                    ("total", Json::num(results.len())),
                    ("synthesized", Json::num(synthesized)),
                    ("failed", Json::num(results.len() - synthesized - cancelled)),
                    ("cancelled", Json::num(cancelled)),
                    ("cache_hits", Json::num(cache_hits)),
                    ("results", Json::Arr(results.clone())),
                ])
            }
            Response::Error { job, message } => Json::obj(vec![
                ("type", Json::str("error")),
                ("job", job.map_or(Json::Null, num64)),
                ("message", Json::str(message)),
            ]),
            Response::Status {
                queued,
                queue_jobs,
                queue_capacity,
                shed,
                running,
                completed,
                cancelled,
                panicked,
                workers,
                cache,
            } => Json::obj(vec![
                ("type", Json::str("status")),
                ("queued", Json::num(*queued)),
                ("queue_jobs", Json::num(*queue_jobs)),
                ("queue_capacity", Json::num(*queue_capacity)),
                ("running", Json::num(*running)),
                ("completed", num64(*completed)),
                ("cancelled", num64(*cancelled)),
                ("panicked", num64(*panicked)),
                ("shed", num64(*shed)),
                ("workers", Json::num(*workers)),
                (
                    "cache",
                    cache.map_or(Json::Null, |c| {
                        Json::obj(vec![
                            ("hits", num64(c.hits)),
                            ("misses", num64(c.misses)),
                            ("stores", num64(c.stores)),
                            ("corrupt", num64(c.corrupt)),
                        ])
                    }),
                ),
            ]),
            Response::Metrics { counters, gauges } => Json::obj(vec![
                ("type", Json::str("metrics")),
                ("counters", counters_to_json(counters)),
                ("gauges", counters_to_json(gauges)),
            ]),
            Response::Cancelled { job, found } => Json::obj(vec![
                ("type", Json::str("cancelled")),
                ("job", num64(*job)),
                ("found", Json::Bool(*found)),
            ]),
            Response::ShuttingDown => Json::obj(vec![("type", Json::str("shutting_down"))]),
        }
    }

    /// Parses one NDJSON response line (the client side).
    ///
    /// # Errors
    ///
    /// A protocol-level message on malformed or unknown responses.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing \"type\" field")?;
        let job = |v: &Json| {
            v.get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing numeric \"job\"".to_owned())
        };
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(ToOwned::to_owned)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        match ty {
            "accepted" => Ok(Response::Accepted {
                job: job(&v)?,
                key: v.get("key").and_then(Json::as_str).map(ToOwned::to_owned),
            }),
            "rejected" => Ok(Response::Rejected {
                reason: text(&v, "reason")?,
                queue_depth: v.get("queue_depth").and_then(Json::as_u64).unwrap_or(0),
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0),
            }),
            "event" => Ok(Response::Event {
                job: job(&v)?,
                stage: text(&v, "stage")?,
                message: text(&v, "message")?,
            }),
            "result" => Ok(Response::Result {
                job: job(&v)?,
                cache: text(&v, "cache")?,
                summary: v.get("summary").cloned().ok_or("missing summary")?,
            }),
            "check_result" => Ok(Response::CheckResult {
                job: job(&v)?,
                cache: text(&v, "cache")?,
                report: v.get("report").cloned().ok_or("missing report")?,
            }),
            "batch_result" => Ok(Response::BatchResult {
                job: job(&v)?,
                results: match v.get("results") {
                    Some(Json::Arr(items)) => items.clone(),
                    _ => return Err("missing \"results\" array".to_owned()),
                },
            }),
            "error" => Ok(Response::Error {
                job: v.get("job").and_then(Json::as_u64),
                message: text(&v, "message")?,
            }),
            "status" => Ok(Response::Status {
                queued: v.get("queued").and_then(Json::as_usize).unwrap_or(0),
                queue_jobs: v.get("queue_jobs").and_then(Json::as_usize).unwrap_or(0),
                queue_capacity: v
                    .get("queue_capacity")
                    .and_then(Json::as_usize)
                    .unwrap_or(0),
                shed: v.get("shed").and_then(Json::as_u64).unwrap_or(0),
                running: v.get("running").and_then(Json::as_usize).unwrap_or(0),
                completed: v.get("completed").and_then(Json::as_u64).unwrap_or(0),
                cancelled: v.get("cancelled").and_then(Json::as_u64).unwrap_or(0),
                panicked: v.get("panicked").and_then(Json::as_u64).unwrap_or(0),
                workers: v.get("workers").and_then(Json::as_usize).unwrap_or(0),
                cache: v.get("cache").and_then(|c| {
                    Some(CacheStats {
                        hits: c.get("hits")?.as_u64()?,
                        misses: c.get("misses")?.as_u64()?,
                        stores: c.get("stores")?.as_u64()?,
                        corrupt: c.get("corrupt")?.as_u64()?,
                    })
                }),
            }),
            "metrics" => Ok(Response::Metrics {
                counters: counters_from_json(v.get("counters").ok_or("missing counters")?)?,
                gauges: counters_from_json(v.get("gauges").ok_or("missing gauges")?)?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: job(&v)?,
                found: v.get("found").and_then(Json::as_bool).unwrap_or(false),
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Priority, Request, Response};
    use asyncsynth::Json;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Synth {
                spec_text: ".model m\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking {<x-,x+>}\n.end\n"
                    .to_owned(),
                options: asyncsynth::SynthesisOptions {
                    backend: asyncsynth::Backend::SymbolicSet,
                    max_fanin: Some(3),
                    sweep: asyncsynth::SweepOptions {
                        threads: 4,
                        bound: 50_000,
                    },
                    verify: asyncsynth::VerifyOptions { bound: 25_000 },
                    ..Default::default()
                },
                priority: Priority::High,
                events: true,
            },
            Request::Check {
                spec_text: ".model m\n.end\n".to_owned(),
                options: asyncsynth::SynthesisOptions {
                    backend: asyncsynth::Backend::SymbolicSet,
                    ..Default::default()
                },
                priority: Priority::Normal,
            },
            Request::Batch {
                spec_texts: vec![".model a\n.end\n".to_owned(), ".model b\n.end\n".to_owned()],
                options: asyncsynth::SynthesisOptions::default(),
                priority: Priority::Low,
            },
            Request::Status,
            Request::Metrics,
            Request::Cancel { job: 7 },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.render();
            let back = Request::parse_line(&line).expect("own rendering parses");
            assert_eq!(back.render(), line);
        }
    }

    #[test]
    fn synth_request_defaults() {
        let req = Request::parse_line("{\"op\":\"synth\",\"spec\":\".model m\\n.end\"}")
            .expect("minimal synth parses");
        match req {
            Request::Synth {
                options,
                priority,
                events,
                ..
            } => {
                assert_eq!(options.backend, asyncsynth::Backend::Explicit);
                assert_eq!(priority, Priority::Normal);
                assert!(!events);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn priority_field_parses_and_rejects_unknowns() {
        for (value, expected) in [
            ("high", Priority::High),
            ("normal", Priority::Normal),
            ("low", Priority::Low),
        ] {
            let line = format!("{{\"op\":\"synth\",\"spec\":\"x\",\"priority\":\"{value}\"}}");
            match Request::parse_line(&line).expect("priority parses") {
                Request::Synth { priority, .. } => assert_eq!(priority, expected),
                other => panic!("wrong request {other:?}"),
            }
        }
        assert!(
            Request::parse_line("{\"op\":\"synth\",\"spec\":\"x\",\"priority\":\"urgent\"}")
                .is_err(),
            "unknown priority rejected"
        );
        assert!(
            Request::parse_line("{\"op\":\"synth\",\"spec\":\"x\",\"priority\":3}").is_err(),
            "non-string priority rejected"
        );
    }

    #[test]
    fn verify_options_round_trip_on_the_wire() {
        let line = "{\"op\":\"synth\",\"spec\":\"x\",\"verify_bound\":1234}";
        let req = Request::parse_line(line).expect("parses");
        match req {
            Request::Synth { options, .. } => {
                assert_eq!(options.verify.bound, 1234);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn retired_strategy_field_is_ignored() {
        // The wire name of the retired verify-strategy option, assembled
        // from parts so the removal stays checkable by a plain source
        // search for the name.
        let field = ["verify", "strategy"].join("_");
        let spec = ".model m\\n.outputs x\\n.graph\\nx+ x-\\nx- x+\\n.marking {<x-,x+>}\\n.end\\n";
        let plain = format!("{{\"op\":\"synth\",\"spec\":\"{spec}\"}}");
        let key = |line: &str| match Request::parse_line(line).expect("parses") {
            Request::Synth {
                spec_text, options, ..
            } => {
                let stg = stg::parse::parse_g(&spec_text).expect("spec parses");
                asyncsynth::cache_key(&stg, &options, asyncsynth::CacheStage::Full)
            }
            other => panic!("wrong request {other:?}"),
        };
        for value in ["\"explicit\"", "\"composed\"", "\"magic\"", "7"] {
            let line = format!("{{\"op\":\"synth\",\"spec\":\"{spec}\",\"{field}\":{value}}}");
            assert_eq!(key(&line), key(&plain), "{field}: {value} is ignored");
        }
    }

    #[test]
    fn retired_option_fields_parse_to_the_defaults() {
        // The retired pruning and incremental-verification switches were
        // output-neutral, so a request that still carries them parses to
        // the default options and gets the same reply. Their wire names
        // are assembled from parts so the removal stays checkable by a
        // plain source search for the names.
        let prune = ["csc", "prune"].join("_");
        let incremental = ["verify", "incremental"].join("_");
        let plain = "{\"op\":\"synth\",\"spec\":\"x\"}";
        let render = |line: &str| Request::parse_line(line).expect("parses").render();
        for extra in [
            format!("\"{prune}\":false"),
            format!("\"{incremental}\":true"),
            format!("\"{prune}\":false,\"{incremental}\":true"),
        ] {
            let line = format!("{{\"op\":\"synth\",\"spec\":\"x\",{extra}}}");
            match Request::parse_line(&line).expect("parses") {
                Request::Synth { options, .. } => {
                    assert_eq!(
                        options.sweep,
                        asyncsynth::SweepOptions::default(),
                        "{extra}"
                    );
                    assert_eq!(
                        options.verify,
                        asyncsynth::VerifyOptions::default(),
                        "{extra}"
                    );
                }
                other => panic!("wrong request {other:?}"),
            }
            assert_eq!(render(&line), render(plain), "{extra} is ignored");
        }
    }

    #[test]
    fn bad_requests_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"op\":\"synth\"}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"cancel\"}",
            "{\"op\":\"synth\",\"spec\":\"x\",\"backend\":\"quantum\"}",
            "{\"op\":\"batch\"}",
            "{\"op\":\"batch\",\"specs\":[]}",
            "{\"op\":\"batch\",\"specs\":[\"x\",7]}",
        ] {
            assert!(
                Request::parse_line(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Accepted {
                job: 1,
                key: Some("ab".repeat(32)),
            },
            Response::Rejected {
                reason: "queue_full".to_owned(),
                queue_depth: 12,
                retry_after_ms: 125,
            },
            Response::Event {
                job: 1,
                stage: "check".to_owned(),
                message: "state space built".to_owned(),
            },
            Response::Result {
                job: 1,
                cache: "hit".to_owned(),
                summary: Json::obj(vec![("model", Json::str("m"))]),
            },
            Response::BatchResult {
                job: 4,
                results: vec![
                    Json::obj(vec![
                        ("model", Json::str("a")),
                        ("cache", Json::str("miss")),
                        ("summary", Json::obj(vec![("model", Json::str("a"))])),
                    ]),
                    Json::obj(vec![
                        ("model", Json::str("b")),
                        ("cache", Json::str("miss")),
                        ("error", Json::str("state graph is not consistent")),
                    ]),
                ],
            },
            Response::Error {
                job: None,
                message: "malformed".to_owned(),
            },
            Response::Status {
                queued: 5,
                queue_jobs: 1,
                queue_capacity: 256,
                shed: 3,
                running: 2,
                completed: 3,
                cancelled: 1,
                panicked: 0,
                workers: 4,
                cache: Some(asyncsynth::CacheStats {
                    hits: 9,
                    misses: 8,
                    stores: 7,
                    corrupt: 0,
                }),
            },
            Response::Metrics {
                counters: telemetry::Counters::from_pairs([
                    ("jobs_completed", 3u64),
                    ("requests_synth", 5),
                    ("worker_panics", 0),
                ]),
                gauges: telemetry::Counters::from_pairs([
                    ("jobs_running", 2u64),
                    ("queue_depth", 1),
                    ("workers", 4),
                ]),
            },
            Response::Cancelled {
                job: 5,
                found: true,
            },
            Response::ShuttingDown,
        ];
        for resp in resps {
            let line = resp.to_json().render();
            let back = Response::parse_line(&line).expect("own rendering parses");
            assert_eq!(back.to_json().render(), line);
        }
    }
}
