//! The synthesis daemon: accepts NDJSON connections over TCP (or a
//! single session over stdio), parses requests, runs admission control,
//! enqueues the admitted jobs and streams responses back.
//!
//! Each connection gets a dedicated reader (the accepting thread) and a
//! dedicated writer thread fed by an `mpsc` channel; job workers clone
//! the channel's sender, so `accepted` acknowledgements, streamed
//! events and final results all serialise through one writer without
//! interleaving partial lines. Client disconnection cancels that
//! connection's outstanding jobs.
//!
//! The writer renders each response into one buffer, newline included,
//! and sends it with a single `write`; accepted TCP sockets have
//! `TCP_NODELAY` set. With Nagle's algorithm on and the newline written
//! separately, the kernel held each reply's last byte until the client
//! acknowledged the rest, and clients delay that ACK until their next
//! packet (about 40 ms in a request/reply loop).
//!
//! # Overload robustness
//!
//! Three independent guards keep one misbehaving client from degrading
//! everyone:
//!
//! * **Admission control** ([`JobQueue::submit`]): submissions beyond
//!   the weighted queue capacity or the per-connection quota are shed
//!   with a `rejected` response carrying `queue_depth` and a
//!   `retry_after_ms` backoff hint — never queued unboundedly.
//! * **Bounded request lines**: connection readers read at most
//!   [`ServerConfig::max_line_bytes`] per line. An oversized line is
//!   drained and answered with a `protocol_error`-counted `error`
//!   response; the connection survives, the daemon's memory does not
//!   scale with the rogue line.
//! * **Idle reaping**: TCP reads carry a [`ServerConfig::idle_timeout_ms`]
//!   read timeout. A connection that stays silent past it *and* has no
//!   live jobs (none queued, none running, so no results are owed) is
//!   closed, so slowloris-style connections cannot pin reader threads
//!   forever. A connection mid-line at the deadline is treated the
//!   same — trickling bytes does not count as liveness.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asyncsynth::{cache_key, CacheStage, ResultCache};
use stg::parse::parse_g;
use telemetry::{Counters, Registry};

use crate::pool::WorkerPool;
use crate::protocol::{Priority, Request, Response};
use crate::queue::{ClientTicket, Job, JobKind, JobQueue, QueueLimits, Rejection, Reply};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (default: available parallelism).
    pub workers: usize,
    /// Result-cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Weighted job-queue capacity — the sum of queued jobs' spec
    /// counts admission allows (default 256; 0 = unbounded).
    pub queue_capacity: usize,
    /// Maximum live (queued + running) jobs per connection (default
    /// 64; 0 = no quota).
    pub max_jobs_per_client: usize,
    /// Idle-connection reap timeout in milliseconds, TCP only (default
    /// 120 000; 0 = never reap). Connections with live jobs are never
    /// reaped.
    pub idle_timeout_ms: u64,
    /// Maximum NDJSON request-line length in bytes (default 4 MiB).
    /// Longer lines get an `error` response and are discarded.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let limits = QueueLimits::default();
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            cache_dir: None,
            queue_capacity: limits.capacity,
            max_jobs_per_client: limits.max_jobs_per_client,
            idle_timeout_ms: 120_000,
            max_line_bytes: 4 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    fn queue_limits(&self) -> QueueLimits {
        QueueLimits {
            capacity: self.queue_capacity,
            max_jobs_per_client: self.max_jobs_per_client,
        }
    }
}

/// Shared per-server context handed to every connection handler.
#[derive(Debug)]
struct ServerContext {
    queue: Arc<JobQueue>,
    cache: Option<Arc<ResultCache>>,
    workers: usize,
    /// Monotonic per-op request counters, exported by the `metrics` op
    /// (job-lifecycle counters live on the queue, cache counters on the
    /// cache; the registry holds what only the protocol loop sees).
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    /// Responses sent to some connection's channel but not yet put on
    /// the wire by its writer thread; shutdown drains on this.
    in_flight: Arc<AtomicI64>,
    /// The TCP address, used to self-connect and unblock `accept` on
    /// shutdown (absent in stdio mode).
    addr: Option<SocketAddr>,
    idle_timeout_ms: u64,
    max_line_bytes: usize,
}

impl ServerContext {
    /// Opens the result cache, builds the job queue and starts the
    /// worker pool draining it.
    fn start(
        config: &ServerConfig,
        addr: Option<SocketAddr>,
    ) -> std::io::Result<(ServerContext, WorkerPool)> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(Arc::new(ResultCache::open(dir)?)),
            None => None,
        };
        let queue = Arc::new(JobQueue::with_limits(config.queue_limits()));
        let pool = WorkerPool::start(config.workers, Arc::clone(&queue), cache.clone());
        let context = ServerContext {
            queue,
            cache,
            workers: config.workers.max(1),
            registry: Arc::new(Registry::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            in_flight: Arc::new(AtomicI64::new(0)),
            addr,
            idle_timeout_ms: config.idle_timeout_ms,
            max_line_bytes: config.max_line_bytes,
        };
        Ok((context, pool))
    }
}

/// A bound (but not yet running) synthesis daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    context: Arc<ServerContext>,
    pool: WorkerPool,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the worker pool.
    ///
    /// # Errors
    ///
    /// Socket and cache-directory failures.
    pub fn bind(addr: &str, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let (context, pool) = ServerContext::start(config, Some(listener.local_addr()?))?;
        Ok(Server {
            listener,
            context: Arc::new(context),
            pool,
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a `shutdown` request arrives, then
    /// drains the queue and joins the workers.
    ///
    /// # Errors
    ///
    /// Fatal `accept` failures (per-connection errors are tolerated).
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.context.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let context = Arc::clone(&self.context);
            let _ = std::thread::Builder::new()
                .name("synth-conn".to_owned())
                .spawn(move || handle_tcp_connection(&stream, &context));
        }
        self.pool.shutdown();
        // The workers are joined, so every result already sits in some
        // connection's response channel; give the (detached) writer
        // threads a bounded window to put those bytes on the wire
        // before the process exits.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.context.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// Serves exactly one session over stdin/stdout (the `--stdio` mode:
/// handy behind inetd-style supervisors and in scripts), then drains
/// and exits.
///
/// # Errors
///
/// Cache-directory failures.
pub fn serve_stdio(config: &ServerConfig) -> std::io::Result<()> {
    let (context, pool) = ServerContext::start(config, None)?;
    let stdin = std::io::stdin();
    // stdout outlives stdin's EOF: a one-shot piped session
    // (`printf '{"op":...}' | asyncsynth serve --stdio`) still gets its
    // results, so never cancel on EOF here.
    handle_connection(stdin.lock(), Box::new(std::io::stdout()), &context, false);
    pool.shutdown();
    Ok(())
}

fn handle_tcp_connection(stream: &TcpStream, context: &ServerContext) {
    // Replies go out as soon as they are written (see the module doc);
    // a socket that refuses the option is served with Nagle on.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    // The idle reaper: reads wake up every `idle_timeout_ms` so the
    // protocol loop can decide whether silence means "waiting for my
    // results" (spared) or "holding a reader thread hostage" (reaped).
    if context.idle_timeout_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(context.idle_timeout_ms)));
    }
    let reader = BufReader::new(stream);
    // A dropped TCP connection takes the write side with it: nobody is
    // left to receive results, so outstanding jobs are cancelled.
    handle_connection(reader, Box::new(writer), context, true);
}

/// One attempt at reading the next request line, bounded by
/// `max_line_bytes`.
enum LineRead {
    /// A complete request line (without the terminator).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the budget; the remainder is still unread.
    Overflow,
    /// The read timed out (idle-timeout TCP sockets only). Any partial
    /// line stays in `buf` for the next attempt.
    TimedOut,
}

/// Reads one `\n`-terminated line into `buf`, refusing to buffer more
/// than `max + 1` bytes (line plus terminator). `buf` carries partial
/// data across [`LineRead::TimedOut`] returns; complete lines drain it.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>, max: usize) -> LineRead {
    loop {
        let budget = (max as u64 + 1).saturating_sub(buf.len() as u64);
        if budget == 0 {
            return LineRead::Overflow;
        }
        match reader.by_ref().take(budget).read_until(b'\n', buf) {
            Ok(0) => {
                // No bytes before the stream ended: EOF (a trailing
                // partial line is dropped — it was never a request).
                return LineRead::Eof;
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let line = String::from_utf8_lossy(buf).into_owned();
                    buf.clear();
                    return LineRead::Line(line);
                }
                // Budget exhausted mid-line (take() stopped us).
                if buf.len() > max {
                    return LineRead::Overflow;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return LineRead::TimedOut;
            }
            Err(_) => return LineRead::Eof,
        }
    }
}

/// Discards the unread remainder of an oversized line. Returns `true`
/// when the terminator was found (the connection can continue), `false`
/// on EOF, error or timeout mid-drain (a client trickling an unbounded
/// line is a slowloris; kill the connection rather than wait it out).
fn drain_oversized_line(reader: &mut impl BufRead) -> bool {
    loop {
        match reader.fill_buf() {
            Ok([]) => return false,
            Ok(data) => {
                if let Some(pos) = data.iter().position(|&b| b == b'\n') {
                    reader.consume(pos + 1);
                    return true;
                }
                let n = data.len();
                reader.consume(n);
            }
            Err(_) => return false,
        }
    }
}

/// The per-connection protocol loop, generic over the byte streams so
/// TCP and stdio share it.
fn handle_connection(
    mut reader: impl BufRead,
    writer: Box<dyn Write + Send>,
    context: &ServerContext,
    cancel_on_eof: bool,
) {
    let (tx, rx) = channel::<Response>();
    let reply = Reply::new(tx, Arc::clone(&context.in_flight));
    let writer_in_flight = Arc::clone(&context.in_flight);
    let writer_handle = std::thread::Builder::new()
        .name("synth-writer".to_owned())
        .spawn(move || {
            let mut writer = writer;
            let mut dead = false;
            while let Ok(response) = rx.recv() {
                if !dead {
                    // One `write` per line: see the module doc. A failed
                    // write means the client is gone; keep draining so
                    // the in-flight counter still settles.
                    let mut line = response.to_json().render();
                    line.push('\n');
                    dead = writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err();
                }
                writer_in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        })
        .expect("spawn writer thread");

    // This connection's admission ledger (live-job quota) and the jobs
    // it submitted, for disconnect cleanup.
    let ticket = Arc::new(ClientTicket::new());
    let mut my_jobs: Vec<u64> = Vec::new();
    let mut cancel_outstanding = cancel_on_eof;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf, context.max_line_bytes) {
            LineRead::Line(line) => line,
            LineRead::Eof => break,
            LineRead::TimedOut => {
                // Silence past the idle deadline: reap unless results
                // are still owed. A half-sent request line does not
                // count as liveness.
                if ticket.live() == 0 {
                    context.registry.incr("connections_reaped");
                    break;
                }
                continue;
            }
            LineRead::Overflow => {
                context.registry.incr("protocol_errors");
                context.registry.incr("oversized_lines");
                reply.send(Response::Error {
                    job: None,
                    message: format!(
                        "request line exceeds {} bytes; split the request or raise the \
                         server's line limit",
                        context.max_line_bytes
                    ),
                });
                buf.clear();
                if drain_oversized_line(&mut reader) {
                    continue;
                }
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = Request::parse_line(&line);
        if let Ok(request) = &request {
            context.registry.incr(op_counter(request));
        }
        match request {
            Ok(Request::Synth {
                spec_text,
                options,
                events,
                priority,
            }) => submit_job(
                context,
                &reply,
                &ticket,
                &mut my_jobs,
                &spec_text,
                options,
                priority,
                JobKind::Synth {
                    stream_events: events,
                },
            ),
            Ok(Request::Check {
                spec_text,
                options,
                priority,
            }) => submit_job(
                context,
                &reply,
                &ticket,
                &mut my_jobs,
                &spec_text,
                options,
                priority,
                JobKind::Check,
            ),
            Ok(Request::Batch {
                spec_texts,
                options,
                priority,
            }) => submit_batch(
                context,
                &reply,
                &ticket,
                &mut my_jobs,
                &spec_texts,
                options,
                priority,
            ),
            Ok(Request::Status) => {
                reply.send(Response::Status {
                    queued: context.queue.queued_weight(),
                    queue_jobs: context.queue.queued(),
                    queue_capacity: context.queue.limits().capacity,
                    running: context.queue.running(),
                    completed: context.queue.completed(),
                    cancelled: context.queue.cancelled(),
                    panicked: context.queue.panicked(),
                    shed: context.queue.shed_total(),
                    workers: context.workers,
                    cache: context.cache.as_deref().map(ResultCache::stats),
                });
            }
            Ok(Request::Metrics) => {
                reply.send(metrics_snapshot(context));
            }
            Ok(Request::Cancel { job }) => {
                let found = context.queue.cancel(job);
                reply.send(Response::Cancelled { job, found });
            }
            Ok(Request::Shutdown) => {
                context.shutdown.store(true, Ordering::Relaxed);
                reply.send(Response::ShuttingDown);
                // Unblock the accept loop so `run` observes the flag.
                if let Some(addr) = context.addr {
                    let _ = TcpStream::connect(addr);
                }
                // Drain semantics: this connection's jobs still finish
                // and deliver their results before the server exits.
                cancel_outstanding = false;
                break;
            }
            Err(message) => {
                context.registry.incr("protocol_errors");
                reply.send(Response::Error { job: None, message });
            }
        }
    }
    // Disconnected: abandon this connection's outstanding jobs (flags
    // of finished jobs are inert). Skipped for stdio EOF and shutdown
    // drains, where results are still owed.
    if cancel_outstanding {
        for id in my_jobs {
            let _ = context.queue.cancel(id);
        }
    }
    drop(reply);
    let _ = writer_handle.join();
}

/// The registry counter a request increments on arrival.
fn op_counter(request: &Request) -> &'static str {
    match request {
        Request::Synth { .. } => "requests_synth",
        Request::Check { .. } => "requests_check",
        Request::Batch { .. } => "requests_batch",
        Request::Status => "requests_status",
        Request::Metrics => "requests_metrics",
        Request::Cancel { .. } => "requests_cancel",
        Request::Shutdown => "requests_shutdown",
    }
}

/// Builds the `metrics` response: the registry's request counters plus
/// job-lifecycle, job-timing and shed counters from the queue and cache
/// counters, with point-in-time gauges (weighted queue depth — total
/// and per priority class — raw queued-job count, capacity, busy
/// workers, cache hit ratio in permille — an integer, so renders are
/// byte-stable).
fn metrics_snapshot(context: &ServerContext) -> Response {
    let mut counters = context.registry.snapshot_counters();
    counters.set("jobs_completed", context.queue.completed());
    counters.set("jobs_cancelled", context.queue.cancelled());
    counters.set("worker_panics", context.queue.panicked());
    counters.set("shed_total", context.queue.shed_total());
    counters.set("shed_queue_full", context.queue.shed_queue_full());
    counters.set("shed_client_quota", context.queue.shed_client_quota());
    context.queue.export_job_times(&mut counters);
    let as64 = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
    let mut gauges = Counters::new();
    // `queue_depth` is the weighted backlog — what admission bounds; a
    // queued batch of 45 specs contributes 45. The raw job count rides
    // alongside as `queue_jobs`.
    gauges.set("queue_depth", as64(context.queue.queued_weight()));
    let by_class = context.queue.queued_weight_by_class();
    for priority in Priority::ALL {
        gauges.set(
            match priority {
                Priority::High => "queue_depth_high",
                Priority::Normal => "queue_depth_normal",
                Priority::Low => "queue_depth_low",
            },
            as64(by_class[priority.index()]),
        );
    }
    gauges.set("queue_jobs", as64(context.queue.queued()));
    gauges.set("queue_capacity", as64(context.queue.limits().capacity));
    gauges.set("jobs_running", as64(context.queue.running()));
    gauges.set("workers", as64(context.workers));
    if let Some(cache) = context.cache.as_deref() {
        let stats = cache.stats();
        counters.set("cache_hits", stats.hits);
        counters.set("cache_misses", stats.misses);
        counters.set("cache_stores", stats.stores);
        counters.set("cache_corrupt", stats.corrupt);
        let hit_permille = (stats.hits * 1000).checked_div(stats.hits + stats.misses);
        gauges.set("cache_hit_permille", hit_permille.unwrap_or(0));
    }
    Response::Metrics { counters, gauges }
}

#[allow(clippy::too_many_arguments)]
fn submit_job(
    context: &ServerContext,
    reply: &Reply,
    ticket: &Arc<ClientTicket>,
    my_jobs: &mut Vec<u64>,
    spec_text: &str,
    options: asyncsynth::SynthesisOptions,
    priority: Priority,
    kind: JobKind,
) {
    let spec = match parse_g(spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            reply.send(Response::Error {
                job: None,
                message: format!("bad specification: {e}"),
            });
            return;
        }
    };
    let stage = match kind {
        JobKind::Synth { .. } | JobKind::Batch { .. } => CacheStage::Full,
        JobKind::Check => CacheStage::Check,
    };
    let key = context
        .cache
        .as_ref()
        .map(|_| cache_key(&spec, &options, stage).to_hex());
    enqueue(
        context, reply, ticket, my_jobs, spec, options, priority, kind, key,
    );
}

/// Parses every member of a batch request and enqueues the whole batch
/// as one job (the `accepted` acknowledgement carries no cache key —
/// each member has its own). A single malformed member rejects the
/// batch before anything is queued.
fn submit_batch(
    context: &ServerContext,
    reply: &Reply,
    ticket: &Arc<ClientTicket>,
    my_jobs: &mut Vec<u64>,
    spec_texts: &[String],
    options: asyncsynth::SynthesisOptions,
    priority: Priority,
) {
    let mut specs = Vec::with_capacity(spec_texts.len());
    for (i, text) in spec_texts.iter().enumerate() {
        match parse_g(text) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                reply.send(Response::Error {
                    job: None,
                    message: format!("bad specification #{i}: {e}"),
                });
                return;
            }
        }
    }
    let mut specs = specs.into_iter();
    let Some(first) = specs.next() else {
        reply.send(Response::Error {
            job: None,
            message: "empty batch".to_owned(),
        });
        return;
    };
    enqueue(
        context,
        reply,
        ticket,
        my_jobs,
        first,
        options,
        priority,
        JobKind::Batch {
            rest: specs.collect(),
        },
        None,
    );
}

/// Runs admission control and queues the job. The `accepted`
/// acknowledgement is sent from inside [`JobQueue::submit`]'s admission
/// callback — under the queue lock, *before* the job is visible to any
/// worker — so it always precedes the job's result on this connection's
/// response channel. A shed submission sends `rejected` (with the
/// current weighted depth and a backoff hint) and queues nothing.
#[allow(clippy::too_many_arguments)]
fn enqueue(
    context: &ServerContext,
    reply: &Reply,
    ticket: &Arc<ClientTicket>,
    my_jobs: &mut Vec<u64>,
    spec: stg::Stg,
    options: asyncsynth::SynthesisOptions,
    priority: Priority,
    kind: JobKind,
    key: Option<String>,
) {
    let id = context.queue.next_job_id();
    let job = Job {
        id,
        spec,
        options,
        kind,
        priority,
        client: Arc::clone(ticket),
        cancel: Arc::new(AtomicBool::new(false)),
        reply: reply.clone(),
    };
    let admitted = context.queue.submit(job, |job| {
        reply.send(Response::Accepted { job: job.id, key });
    });
    match admitted {
        Ok(()) => my_jobs.push(id),
        Err((job, Rejection::Closed)) => {
            reply.send(Response::Error {
                job: Some(job.id),
                message: "server is shutting down".to_owned(),
            });
        }
        Err((_, rejection)) => {
            context.registry.incr(match rejection {
                Rejection::QueueFull => "rejected_queue_full",
                Rejection::ClientQuota | Rejection::Closed => "rejected_client_quota",
            });
            reply.send(Response::Rejected {
                reason: rejection.reason().to_owned(),
                queue_depth: u64::try_from(context.queue.queued_weight()).unwrap_or(u64::MAX),
                retry_after_ms: context.queue.retry_after_ms(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    use super::{handle_connection, ServerConfig, ServerContext};
    use crate::protocol::Response;

    /// Logs the bytes of every `write` call separately.
    #[derive(Clone, Default)]
    struct RecordingWriter(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("recording lock").push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_goes_out_as_one_complete_line_per_write() {
        let config = ServerConfig {
            workers: 1,
            cache_dir: None,
            ..ServerConfig::default()
        };
        let (context, pool) = ServerContext::start(&config, None).expect("context starts");
        let input = b"{\"op\":\"status\"}\nnot json\n{\"op\":\"metrics\"}\n";
        let writer = RecordingWriter::default();
        handle_connection(&input[..], Box::new(writer.clone()), &context, false);
        pool.shutdown();

        let writes = writer.0.lock().expect("recording lock");
        let responses: Vec<Response> = writes
            .iter()
            .map(|write| {
                let text = std::str::from_utf8(write).expect("UTF-8 reply");
                let line = text
                    .strip_suffix('\n')
                    .unwrap_or_else(|| panic!("write {text:?} does not end the line"));
                assert!(
                    !line.contains('\n'),
                    "write {text:?} holds more than one line"
                );
                Response::parse_line(line)
                    .unwrap_or_else(|e| panic!("write {text:?} is not one response: {e}"))
            })
            .collect();
        assert!(
            matches!(
                responses.as_slice(),
                [
                    Response::Status { .. },
                    Response::Error { job: None, .. },
                    Response::Metrics { .. }
                ]
            ),
            "{responses:?}"
        );
    }
}
