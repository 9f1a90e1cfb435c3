//! The long-lived worker pool.
//!
//! Generalises `run_batch`'s scoped-thread work-stealing into a
//! persistent pool: N workers block on the [`JobQueue`], run each job
//! through the cached flow ([`asyncsynth::run_cached_with`]), stream
//! per-stage events back to the owning connection, honour cancellation
//! between stages, and survive panicking jobs (a panic fails the job,
//! not the worker).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use asyncsynth::{
    cache_key, run_cached_with, CacheStage, FlowEvent, FlowObserver, Json, ResultCache,
    SynthesisSummary,
};
use stg::Stg;

use crate::protocol::Response;
use crate::queue::{Job, JobKind, JobQueue, Reply};

/// Streams stage events into the job's reply channel and polls the
/// job's cancellation flag.
struct JobObserver<'a> {
    job_id: u64,
    stream: bool,
    cancel: &'a std::sync::atomic::AtomicBool,
    reply: &'a Reply,
}

impl FlowObserver for JobObserver<'_> {
    fn stage(&mut self, stage: &str, events: &[FlowEvent]) {
        if !self.stream {
            return;
        }
        for event in events {
            // A dead client is not an error; the job still completes and
            // warms the cache.
            self.reply.send(Response::Event {
                job: self.job_id,
                stage: stage.to_owned(),
                message: event.to_string(),
            });
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// A fixed-size pool of worker threads draining a [`JobQueue`].
#[derive(Debug)]
pub struct WorkerPool {
    queue: Arc<JobQueue>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads draining `queue`, all sharing `cache`.
    #[must_use]
    pub fn start(
        workers: usize,
        queue: Arc<JobQueue>,
        cache: Option<Arc<ResultCache>>,
    ) -> WorkerPool {
        let workers = workers.max(1);
        // Split the core budget between pool workers and each job's CSC
        // sweep: a job that leaves the sweep's thread count on "auto"
        // gets cores/workers sweep threads instead of one-per-core —
        // otherwise every concurrent job would spawn a full per-core
        // sweep and oversubscribe the machine quadratically. Explicit
        // client-requested counts are honoured (clamped upstream), and
        // thread count never changes a job's result or cache key.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        let auto_sweep_threads = (cores / workers).max(1);
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let cache = cache.clone();
                std::thread::Builder::new()
                    .name(format!("synth-worker-{i}"))
                    .spawn(move || worker_loop(&queue, cache.as_deref(), auto_sweep_threads))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            queue,
            handles,
            workers,
        }
    }

    /// Pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Closes the queue and joins every worker.
    pub fn shutdown(self) {
        self.queue.close();
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &JobQueue, cache: Option<&ResultCache>, auto_sweep_threads: usize) {
    while let Some(job) = queue.take() {
        let dequeued = Instant::now();
        if job.cancel.load(Ordering::Relaxed) {
            queue.mark_done(&job, dequeued);
            job.reply.send(Response::Error {
                job: Some(job.id),
                message: "cancelled before start".to_owned(),
            });
            continue;
        }
        queue.mark_running(job.id, Arc::clone(&job.cancel));
        // A panicking specification must fail its job, never take the
        // worker (and with it the whole service) down.
        let response = catch_unwind(AssertUnwindSafe(|| {
            run_job(&job, cache, auto_sweep_threads)
        }))
        .unwrap_or_else(|panic| {
            queue.note_panic();
            Response::Error {
                job: Some(job.id),
                message: format!("job panicked: {}", panic_message(&panic)),
            }
        });
        // Counters first: by the time a client holds this job's result,
        // `status` already reports it as completed (and the client's
        // quota slot is free for the follow-up submission).
        queue.mark_done(&job, dequeued);
        job.reply.send(response);
    }
}

fn run_job(job: &Job, cache: Option<&ResultCache>, auto_sweep_threads: usize) -> Response {
    match &job.kind {
        JobKind::Synth { stream_events } => {
            let stream_events = *stream_events;
            let mut observer = JobObserver {
                job_id: job.id,
                stream: stream_events,
                cancel: &job.cancel,
                reply: &job.reply,
            };
            let mut options = job.options.clone();
            if options.sweep.threads == 0 {
                options.sweep.threads = auto_sweep_threads;
            }
            match run_cached_with(&job.spec, &options, cache, &mut observer) {
                Ok(run) => Response::Result {
                    job: job.id,
                    cache: run.outcome.name().to_owned(),
                    summary: run.summary.to_json(),
                },
                Err(e) => Response::Error {
                    job: Some(job.id),
                    message: e.to_string(),
                },
            }
        }
        JobKind::Check => {
            let key = cache.map(|_| cache_key(&job.spec, &job.options, CacheStage::Check));
            if let (Some(cache), Some(key)) = (cache, key) {
                if let Some(report) = cache.load(&key) {
                    return Response::CheckResult {
                        job: job.id,
                        cache: "hit".to_owned(),
                        report,
                    };
                }
            }
            let report = match job.options.backend.build(&job.spec) {
                Ok(space) => stg::properties::report_from_sg(&job.spec, &*space),
                Err(e) => stg::properties::failure_report(e),
            };
            let payload = asyncsynth::summary::report_to_json(&report);
            if let (Some(cache), Some(key)) = (cache, key) {
                let _ = cache.store(&key, &payload);
            }
            Response::CheckResult {
                job: job.id,
                cache: if cache.is_some() {
                    "miss".to_owned()
                } else {
                    "disabled".to_owned()
                },
                report: payload,
            }
        }
        JobKind::Batch { rest } => run_batch_job(job, rest, cache),
    }
}

/// One batch job: per-spec probe of the result cache, then the misses
/// run through work-stealing worker threads (mirroring
/// [`asyncsynth::run_batch`]: one CSC-sweep thread per member, batch
/// parallelism comes from the member spread), storing each fresh result
/// back so later `synth` submissions of the same specs hit.
///
/// The job's cancellation flag is polled as each member *starts*: a
/// `cancel` against a running batch stops at the next spec boundary,
/// and the members that never ran are reported honestly as `cancelled`
/// entries (`"cancelled": true`, counted separately from failures in
/// the `batch_result` totals) rather than silently missing or
/// masquerading as errors. Per-spec failures become `error` entries;
/// the batch itself always yields a `batch_result`.
fn run_batch_job(job: &Job, rest: &[Stg], cache: Option<&ResultCache>) -> Response {
    let specs: Vec<&Stg> = std::iter::once(&job.spec).chain(rest.iter()).collect();
    let options = &job.options;
    let mut entries: Vec<Option<Json>> = vec![None; specs.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let cached = cache.and_then(|c| c.load(&cache_key(spec, options, CacheStage::Full)));
        match cached {
            Some(summary) => entries[i] = Some(batch_entry(spec.name(), "hit", Ok(summary))),
            None => misses.push(i),
        }
    }
    let miss_specs: Vec<Stg> = misses.iter().map(|&i| specs[i].clone()).collect();
    // Each member's CSC sweep is pinned to one thread (as in
    // `run_batch`), so the auto sweep-thread split does not apply here.
    let mut member_options = options.clone();
    member_options.sweep.threads = 1;
    let cancel = &job.cancel;
    let outcomes = synth::par::par_map(&miss_specs, 0, |_, spec| {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        Some(asyncsynth::Synthesis::with_options(spec.clone(), member_options.clone()).run())
    });
    let miss_label = if cache.is_some() { "miss" } else { "disabled" };
    for (&i, outcome) in misses.iter().zip(outcomes) {
        entries[i] = Some(match outcome {
            None => cancelled_batch_entry(specs[i].name()),
            Some(Ok(verified)) => {
                let summary = SynthesisSummary::from_verified(&verified, options).to_json();
                if let Some(cache) = cache {
                    let _ = cache.store(&cache_key(specs[i], options, CacheStage::Full), &summary);
                }
                batch_entry(specs[i].name(), miss_label, Ok(summary))
            }
            Some(Err(e)) => batch_entry(specs[i].name(), miss_label, Err(e.to_string())),
        });
    }
    Response::BatchResult {
        job: job.id,
        results: entries.into_iter().flatten().collect(),
    }
}

fn batch_entry(model: &str, cache: &str, outcome: Result<Json, String>) -> Json {
    let mut pairs = vec![("model", Json::str(model)), ("cache", Json::str(cache))];
    match outcome {
        Ok(summary) => pairs.push(("summary", summary)),
        Err(message) => pairs.push(("error", Json::str(&message))),
    }
    Json::obj(pairs)
}

/// The `batch_result` entry of a member skipped by cancellation.
fn cancelled_batch_entry(model: &str) -> Json {
    Json::obj(vec![
        ("model", Json::str(model)),
        ("cache", Json::str("skipped")),
        ("cancelled", Json::Bool(true)),
        (
            "error",
            Json::str("cancelled before this batch member started"),
        ),
    ])
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}
