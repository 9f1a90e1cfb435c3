//! The service's job queue: a bounded, priority-aware, condvar-guarded
//! queue shared between connection handlers (producers) and the worker
//! pool (consumers), with per-job cancellation flags that reach into
//! both queued and running jobs.
//!
//! # Admission control
//!
//! The queue is the service's one admission point. Every submission is
//! checked, atomically under the queue lock, against
//!
//! * the **weighted capacity** ([`QueueLimits::capacity`]): each job
//!   weighs its spec count (a `batch` of 45 specs weighs 45, a `synth`
//!   or `check` weighs 1), so a burst of fat batches cannot sneak past
//!   a job-count bound. One job heavier than the whole capacity is
//!   still admitted when the queue is empty — otherwise it could never
//!   run at all — which bounds the backlog at `capacity` plus one job.
//! * the **per-client quota** ([`QueueLimits::max_jobs_per_client`]):
//!   live (queued + running) jobs per connection, tracked by the
//!   [`ClientTicket`] each connection carries.
//!
//! A failed admission *hands the job back* with a [`Rejection`]; the
//! service turns that into the wire's `rejected` response and the job
//! is never queued — load shedding instead of unbounded growth.
//!
//! # Priorities
//!
//! Three classes ([`Priority`]) are served weighted round-robin at
//! 4:2:1 (high:normal:low): under sustained load high-priority work is
//! dequeued twice as often as normal and four times as often as low,
//! but no non-empty class is ever starved. Priority affects scheduling
//! order only — results and cache keys are identical at every class.
//!
//! # Job timing
//!
//! The queue times every job in two fixed-bucket µs histograms
//! (`TimeHistogram`): queue wait (admission → dequeue) and run time
//! (dequeue → reply handed to the connection's writer). Both are
//! advisory and exported by the `metrics` op.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use asyncsynth::SynthesisOptions;
use stg::Stg;
use telemetry::Counters;

use crate::protocol::{Priority, Response};

/// A connection's response channel, with an in-flight counter shared
/// with the server: incremented on `send`, decremented by the
/// connection's writer thread once the message is on the wire (or
/// known undeliverable). Shutdown drains on this counter, so results
/// already produced are never lost to process exit.
#[derive(Debug, Clone)]
pub struct Reply {
    tx: Sender<Response>,
    in_flight: Arc<AtomicI64>,
}

impl Reply {
    /// Wraps a channel sender with the server's in-flight counter.
    #[must_use]
    pub fn new(tx: Sender<Response>, in_flight: Arc<AtomicI64>) -> Reply {
        Reply { tx, in_flight }
    }

    /// Sends a response; a disconnected receiver is not an error (the
    /// message is simply undeliverable and not counted).
    pub fn send(&self, response: Response) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.tx.send(response).is_err() {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Per-connection admission ledger: the number of live (queued or
/// running) jobs this connection owns. Incremented at admission,
/// decremented when the job completes; the connection handler also
/// reads it to tell an idle connection from one still owed results.
#[derive(Debug, Default)]
pub struct ClientTicket {
    live: AtomicUsize,
}

impl ClientTicket {
    /// A fresh ticket with no live jobs.
    #[must_use]
    pub fn new() -> ClientTicket {
        ClientTicket::default()
    }

    /// Live (queued + running) jobs owned by this connection.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }
}

/// What a job computes.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// The full flow; optionally streaming per-stage events.
    Synth {
        /// Stream [`asyncsynth::FlowEvent`]s while running.
        stream_events: bool,
    },
    /// Only the §2.1 implementability check.
    Check,
    /// A whole corpus of specifications in one job. The first
    /// specification rides in [`Job::spec`]; the remainder here.
    /// Cancellation is polled between members: a `cancel` on a running
    /// batch stops before the next spec starts, and the members it
    /// skipped are reported as cancelled entries in the `batch_result`.
    Batch {
        /// The second and subsequent specifications of the batch.
        rest: Vec<Stg>,
    },
}

/// One unit of work: a parsed specification plus options, the owning
/// connection's reply channel, and a shared cancellation flag.
#[derive(Debug)]
pub struct Job {
    /// Server-unique id (echoed in every response about this job).
    pub id: u64,
    /// The parsed specification.
    pub spec: Stg,
    /// Flow options.
    pub options: SynthesisOptions,
    /// Synth, check or batch.
    pub kind: JobKind,
    /// Admission class; scheduling order only, never results.
    pub priority: Priority,
    /// The owning connection's admission ledger.
    pub client: Arc<ClientTicket>,
    /// Set to cancel; polled between pipeline stages (and between
    /// batch members).
    pub cancel: Arc<AtomicBool>,
    /// The owning connection's response channel.
    pub reply: Reply,
}

impl Job {
    /// The job's admission weight: its spec count. A batch weighs what
    /// it actually is — `batch` of 45 specs contributes 45 units of
    /// backlog, not 1 — so capacity and observability agree on load.
    #[must_use]
    pub fn weight(&self) -> usize {
        match &self.kind {
            JobKind::Batch { rest } => rest.len() + 1,
            JobKind::Synth { .. } | JobKind::Check => 1,
        }
    }
}

/// Admission limits enforced by [`JobQueue::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLimits {
    /// Weighted queue capacity (sum of queued jobs' spec counts);
    /// 0 disables the bound.
    pub capacity: usize,
    /// Maximum live (queued + running) jobs per connection; 0 disables
    /// the quota.
    pub max_jobs_per_client: usize,
}

impl Default for QueueLimits {
    fn default() -> Self {
        QueueLimits {
            capacity: 256,
            max_jobs_per_client: 64,
        }
    }
}

/// Why a submission was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The queue has been closed (server shutting down).
    Closed,
    /// The weighted backlog would exceed [`QueueLimits::capacity`].
    QueueFull,
    /// The connection already owns
    /// [`QueueLimits::max_jobs_per_client`] live jobs.
    ClientQuota,
}

impl Rejection {
    /// The wire `reason` string.
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            Rejection::Closed => "shutting_down",
            Rejection::QueueFull => "queue_full",
            Rejection::ClientQuota => "client_quota",
        }
    }
}

/// Weighted round-robin shares per class (high : normal : low).
const WRR_SHARES: [usize; 3] = [4, 2, 1];

/// Inclusive upper bounds (µs) of the [`TimeHistogram`] buckets; one
/// more bucket counts everything above the last bound.
const TIME_BUCKETS_US: [u64; 4] = [100, 1_000, 10_000, 100_000];

/// A fixed-bucket histogram of durations in µs. The buckets are
/// disjoint: every observation counts in exactly one of them, so the
/// bucket counts sum to the observation count.
#[derive(Debug, Default)]
pub(crate) struct TimeHistogram {
    buckets: [AtomicU64; TIME_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl TimeHistogram {
    /// Counts one observation.
    pub(crate) fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = TIME_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(TIME_BUCKETS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Writes the histogram into `counters` as `{name}_us_le_100`,
    /// `_us_le_1000`, `_us_le_10000`, `_us_le_100000`, `_us_le_inf`,
    /// plus `{name}_count` and `{name}_sum_us`.
    pub(crate) fn export(&self, name: &str, counters: &mut Counters) {
        let mut count = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            count += n;
            let bound = TIME_BUCKETS_US
                .get(i)
                .map_or_else(|| "inf".to_owned(), u64::to_string);
            counters.set(&format!("{name}_us_le_{bound}"), n);
        }
        counters.set(&format!("{name}_count"), count);
        counters.set(
            &format!("{name}_sum_us"),
            self.sum_us.load(Ordering::Relaxed),
        );
    }
}

#[derive(Debug, Default)]
struct QueueState {
    /// One FIFO per priority class, indexed by [`Priority::index`];
    /// each job rides with its admission time.
    classes: [VecDeque<(Instant, Job)>; 3],
    /// Weighted depth per class (sum of queued jobs' weights).
    weight: [usize; 3],
    /// Jobs served per class in the current round-robin round.
    served: [usize; 3],
    closed: bool,
}

impl QueueState {
    fn weighted_depth(&self) -> usize {
        self.weight.iter().sum()
    }

    fn job_count(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Pops the next job under the 4:2:1 weighted round-robin policy:
    /// scan high → low, skipping classes that already used their share
    /// this round; when every non-empty class is exhausted, start a new
    /// round. Work-conserving (an empty class's share flows downward)
    /// and starvation-free (every non-empty class is served each round).
    fn pop_weighted_round_robin(&mut self) -> Option<(Instant, Job)> {
        if self.classes.iter().all(VecDeque::is_empty) {
            return None;
        }
        loop {
            for (class, share) in WRR_SHARES.iter().enumerate() {
                if self.served[class] < *share {
                    if let Some((admitted, job)) = self.classes[class].pop_front() {
                        self.served[class] += 1;
                        self.weight[class] -= job.weight();
                        return Some((admitted, job));
                    }
                }
            }
            // Every non-empty class exhausted its share: new round.
            self.served = [0; 3];
        }
    }
}

/// The shared, bounded, priority-aware queue of pending jobs.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    limits: QueueLimits,
    next_id: AtomicU64,
    /// Cancellation flags of every live (queued *or* running) job,
    /// registered at submission. Keeping one registry closes the
    /// cancel/TOCTOU window between a worker popping a job and marking
    /// it running.
    live: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    /// Ids of currently-executing jobs.
    running: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    completed: AtomicU64,
    /// Jobs whose cancellation flag this queue newly raised (repeat
    /// cancels of the same job do not count twice).
    cancelled: AtomicU64,
    /// Jobs that panicked inside a worker (reported by the pool).
    panicked: AtomicU64,
    /// Submissions shed because the weighted backlog was full.
    shed_queue_full: AtomicU64,
    /// Submissions shed because the client hit its live-job quota.
    shed_client_quota: AtomicU64,
    /// Admission → dequeue, per job.
    queue_wait: TimeHistogram,
    /// Dequeue → completion, per job.
    run_time: TimeHistogram,
}

impl Default for JobQueue {
    fn default() -> Self {
        JobQueue::new()
    }
}

impl JobQueue {
    /// An empty, open queue with the default [`QueueLimits`].
    #[must_use]
    pub fn new() -> JobQueue {
        JobQueue::with_limits(QueueLimits::default())
    }

    /// An empty, open queue with explicit admission limits.
    #[must_use]
    pub fn with_limits(limits: QueueLimits) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            limits,
            next_id: AtomicU64::new(1),
            live: Mutex::new(HashMap::new()),
            running: Mutex::new(HashMap::new()),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_client_quota: AtomicU64::new(0),
            queue_wait: TimeHistogram::default(),
            run_time: TimeHistogram::default(),
        }
    }

    /// The admission limits this queue enforces.
    #[must_use]
    pub fn limits(&self) -> QueueLimits {
        self.limits
    }

    /// Allocates the next job id.
    #[must_use]
    pub fn next_job_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs admission control and enqueues the job if it passes.
    ///
    /// `on_admit` runs under the queue lock *after* admission succeeds
    /// but *before* the job becomes visible to any worker — the place
    /// to send the `accepted` acknowledgement so it always precedes the
    /// job's result on the connection's response channel.
    ///
    /// # Errors
    ///
    /// Hands the job back (boxed, unqueued) with the [`Rejection`] that
    /// shed it: queue closed, weighted capacity exceeded, or client
    /// quota exhausted. Shed counters are updated here.
    pub fn submit(
        &self,
        job: Job,
        on_admit: impl FnOnce(&Job),
    ) -> Result<(), (Box<Job>, Rejection)> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err((Box::new(job), Rejection::Closed));
        }
        let weight = job.weight();
        let depth = state.weighted_depth();
        // A job heavier than the whole capacity is admitted only into
        // an empty queue (it could never be admitted otherwise); all
        // other jobs must fit.
        if self.limits.capacity > 0 && depth + weight > self.limits.capacity && depth > 0 {
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err((Box::new(job), Rejection::QueueFull));
        }
        let quota = self.limits.max_jobs_per_client;
        if quota > 0 && job.client.live.load(Ordering::SeqCst) >= quota {
            self.shed_client_quota.fetch_add(1, Ordering::Relaxed);
            return Err((Box::new(job), Rejection::ClientQuota));
        }
        job.client.live.fetch_add(1, Ordering::SeqCst);
        self.live
            .lock()
            .expect("live lock")
            .insert(job.id, Arc::clone(&job.cancel));
        on_admit(&job);
        let class = job.priority.index();
        state.weight[class] += weight;
        state.classes[class].push_back((Instant::now(), job));
        self.available.notify_one();
        Ok(())
    }

    /// The server's deterministic backoff hint for a shed submission:
    /// grows linearly with how overfull the queue is, from 25 ms at an
    /// empty queue to 425 ms at four times capacity.
    #[must_use]
    pub fn retry_after_ms(&self) -> u64 {
        let depth = self.queued_weight() as u64;
        let capacity = self.limits.capacity.max(1) as u64;
        25 + depth.min(capacity * 4) * 100 / capacity
    }

    /// Blocks until a job is available; `None` once the queue is closed
    /// and drained (the worker's exit signal). Dequeue order is the
    /// 4:2:1 weighted round-robin across priority classes. Records the
    /// job's queue wait.
    #[must_use]
    pub fn take(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some((admitted, job)) = state.pop_weighted_round_robin() {
                self.queue_wait.record(admitted.elapsed());
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Flags a queued or running job as cancelled. Queued jobs are
    /// discarded (with an error reply) when a worker reaches them;
    /// running jobs abort at the next stage (or batch-member) boundary.
    /// The flag lives in the `live` registry from submission to
    /// completion, so a job mid-handoff (popped but not yet marked
    /// running) is still cancellable.
    #[must_use]
    pub fn cancel(&self, id: u64) -> bool {
        if let Some(flag) = self.live.lock().expect("live lock").get(&id) {
            if !flag.swap(true, Ordering::Relaxed) {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        false
    }

    /// Closes the queue: submissions fail, workers drain and exit.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Number of queued (not yet running) jobs — a batch counts as 1.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.state.lock().expect("queue lock").job_count()
    }

    /// Weighted queue depth — admission's view of the backlog (a batch
    /// of N specs contributes N).
    #[must_use]
    pub fn queued_weight(&self) -> usize {
        self.state.lock().expect("queue lock").weighted_depth()
    }

    /// Weighted depth per priority class, indexed by
    /// [`Priority::index`].
    #[must_use]
    pub fn queued_weight_by_class(&self) -> [usize; 3] {
        self.state.lock().expect("queue lock").weight
    }

    /// Number of currently-executing jobs.
    #[must_use]
    pub fn running(&self) -> usize {
        self.running.lock().expect("running lock").len()
    }

    /// Number of jobs finished (successfully or not) so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Number of jobs whose cancellation flag was newly raised so far.
    #[must_use]
    pub fn cancelled(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Number of jobs that panicked inside a worker so far.
    #[must_use]
    pub fn panicked(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Submissions shed because the weighted backlog was full.
    #[must_use]
    pub fn shed_queue_full(&self) -> u64 {
        self.shed_queue_full.load(Ordering::Relaxed)
    }

    /// Submissions shed because a client hit its live-job quota.
    #[must_use]
    pub fn shed_client_quota(&self) -> u64 {
        self.shed_client_quota.load(Ordering::Relaxed)
    }

    /// All submissions shed by admission control so far.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full() + self.shed_client_quota()
    }

    /// Writes the job-timing histograms into `counters` as
    /// `job_queue_wait_*` and `job_run_*` (see `TimeHistogram::export`).
    pub(crate) fn export_job_times(&self, counters: &mut Counters) {
        self.queue_wait.export("job_queue_wait", counters);
        self.run_time.export("job_run", counters);
    }

    /// Records one worker-side job panic (called by the pool's
    /// `catch_unwind` recovery path).
    pub(crate) fn note_panic(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn mark_running(&self, id: u64, cancel: Arc<AtomicBool>) {
        self.running
            .lock()
            .expect("running lock")
            .insert(id, cancel);
    }

    /// Completes a job's lifecycle: drops it from the running/live
    /// registries, releases its slot in the owner's quota, counts it
    /// completed and records its run time since `dequeued`.
    pub(crate) fn mark_done(&self, job: &Job, dequeued: Instant) {
        self.run_time.record(dequeued.elapsed());
        self.running.lock().expect("running lock").remove(&job.id);
        self.live.lock().expect("live lock").remove(&job.id);
        job.client.live.fetch_sub(1, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::{
        ClientTicket, Job, JobKind, JobQueue, QueueLimits, Rejection, Reply, TimeHistogram,
    };
    use crate::protocol::Priority;
    use std::sync::atomic::{AtomicBool, AtomicI64};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};
    use telemetry::Counters;

    fn test_job(
        queue: &JobQueue,
        client: &Arc<ClientTicket>,
        priority: Priority,
        specs: usize,
    ) -> Job {
        let (tx, rx) = mpsc::channel();
        // The test jobs never run; leak the receiver so sends succeed.
        std::mem::forget(rx);
        let spec = stg::examples::toggle();
        let kind = if specs > 1 {
            JobKind::Batch {
                rest: vec![spec.clone(); specs - 1],
            }
        } else {
            JobKind::Synth {
                stream_events: false,
            }
        };
        Job {
            id: queue.next_job_id(),
            spec,
            options: asyncsynth::SynthesisOptions::default(),
            kind,
            priority,
            client: Arc::clone(client),
            cancel: Arc::new(AtomicBool::new(false)),
            reply: Reply::new(tx, Arc::new(AtomicI64::new(0))),
        }
    }

    #[test]
    fn weighted_capacity_sheds_and_counts() {
        let queue = JobQueue::with_limits(QueueLimits {
            capacity: 4,
            max_jobs_per_client: 0,
        });
        let client = Arc::new(ClientTicket::new());
        // A 3-spec batch (weight 3) fits; another would overflow.
        queue
            .submit(test_job(&queue, &client, Priority::Normal, 3), |_| {})
            .expect("first batch admitted");
        assert_eq!(queue.queued_weight(), 3);
        assert_eq!(queue.queued(), 1);
        let (_, rejection) = queue
            .submit(test_job(&queue, &client, Priority::Normal, 3), |_| {})
            .expect_err("second batch overflows weighted capacity");
        assert_eq!(rejection, Rejection::QueueFull);
        assert_eq!(rejection.reason(), "queue_full");
        // Weight-1 jobs still fit up to the capacity.
        queue
            .submit(test_job(&queue, &client, Priority::Normal, 1), |_| {})
            .expect("weight-1 job fits");
        let (_, rejection) = queue
            .submit(test_job(&queue, &client, Priority::Normal, 1), |_| {})
            .expect_err("queue is now full");
        assert_eq!(rejection, Rejection::QueueFull);
        assert_eq!(queue.shed_queue_full(), 2);
        assert_eq!(queue.shed_total(), 2);
        assert!(queue.retry_after_ms() >= 25);
    }

    #[test]
    fn oversized_job_is_admitted_only_into_an_empty_queue() {
        let queue = JobQueue::with_limits(QueueLimits {
            capacity: 4,
            max_jobs_per_client: 0,
        });
        let client = Arc::new(ClientTicket::new());
        queue
            .submit(test_job(&queue, &client, Priority::Normal, 45), |_| {})
            .expect("oversized batch admitted into an empty queue");
        assert_eq!(queue.queued_weight(), 45);
        let (_, rejection) = queue
            .submit(test_job(&queue, &client, Priority::Normal, 1), |_| {})
            .expect_err("backlog beyond capacity sheds everything else");
        assert_eq!(rejection, Rejection::QueueFull);
    }

    #[test]
    fn per_client_quota_sheds_the_greedy_client_only() {
        let queue = JobQueue::with_limits(QueueLimits {
            capacity: 0,
            max_jobs_per_client: 2,
        });
        let greedy = Arc::new(ClientTicket::new());
        let polite = Arc::new(ClientTicket::new());
        for _ in 0..2 {
            queue
                .submit(test_job(&queue, &greedy, Priority::Normal, 1), |_| {})
                .expect("within quota");
        }
        let (_, rejection) = queue
            .submit(test_job(&queue, &greedy, Priority::Normal, 1), |_| {})
            .expect_err("third live job exceeds the quota");
        assert_eq!(rejection, Rejection::ClientQuota);
        assert_eq!(queue.shed_client_quota(), 1);
        // Another connection is unaffected.
        queue
            .submit(test_job(&queue, &polite, Priority::Normal, 1), |_| {})
            .expect("other clients unaffected");
        // Completing a job frees the slot.
        let job = queue.take().expect("a queued job");
        queue.mark_done(&job, Instant::now());
        queue
            .submit(test_job(&queue, &greedy, Priority::Normal, 1), |_| {})
            .expect("slot freed by completion");
    }

    #[test]
    fn weighted_round_robin_serves_4_2_1_without_starvation() {
        let queue = JobQueue::with_limits(QueueLimits {
            capacity: 0,
            max_jobs_per_client: 0,
        });
        let client = Arc::new(ClientTicket::new());
        // Saturate every class, then observe the service order.
        for priority in [Priority::High, Priority::Normal, Priority::Low] {
            for _ in 0..8 {
                queue
                    .submit(test_job(&queue, &client, priority, 1), |_| {})
                    .expect("unbounded queue admits");
            }
        }
        let order: Vec<Priority> = (0..24)
            .map(|_| queue.take().expect("job available").priority)
            .collect();
        use Priority::{High, Low, Normal};
        assert_eq!(
            order,
            vec![
                High, High, High, High, Normal, Normal, Low, // round 1 (4:2:1)
                High, High, High, High, Normal, Normal, Low, // round 2
                Normal, Normal, Low, // high drained: its share flows on
                Normal, Normal, Low, // work-conserving, low never starves
                Low, Low, Low, Low, // only low left: served back-to-back
            ]
        );
    }

    #[test]
    fn time_histogram_buckets_are_disjoint_and_inclusive() {
        let histogram = TimeHistogram::default();
        for us in [0, 100, 101, 5_000, 100_000, 1_000_000] {
            histogram.record(Duration::from_micros(us));
        }
        let mut counters = Counters::new();
        histogram.export("job_run", &mut counters);
        let get = |name: &str| counters.get(name).expect(name);
        assert_eq!(get("job_run_us_le_100"), 2);
        assert_eq!(get("job_run_us_le_1000"), 1);
        assert_eq!(get("job_run_us_le_10000"), 1);
        assert_eq!(get("job_run_us_le_100000"), 1);
        assert_eq!(get("job_run_us_le_inf"), 1);
        assert_eq!(get("job_run_count"), 6);
        assert_eq!(get("job_run_sum_us"), 1_105_201);
    }

    #[test]
    fn on_admit_runs_for_admitted_jobs_only() {
        let queue = JobQueue::with_limits(QueueLimits {
            capacity: 1,
            max_jobs_per_client: 0,
        });
        let client = Arc::new(ClientTicket::new());
        let mut admitted = Vec::new();
        queue
            .submit(test_job(&queue, &client, Priority::Normal, 1), |job| {
                admitted.push(job.id);
            })
            .expect("admitted");
        let result = queue.submit(test_job(&queue, &client, Priority::Normal, 1), |job| {
            admitted.push(job.id);
        });
        assert!(result.is_err());
        assert_eq!(admitted.len(), 1, "rejected job's on_admit never ran");
    }
}
