//! `service-mixed`: open-loop NDJSON traffic at a fixed rate against an
//! in-process `server::Server` with two workers and an on-disk cache.
//!
//! The seeded mix: repeats of cached specifications (cache reads), fresh
//! misses made by seeded signal renaming of cheap specifications (the
//! same work under a new digest, so cache writes), a few `check` ops,
//! and repeats of cheap failing specifications (the cache stores only
//! successes, so these recompute every time). Arrival gaps are
//! exponential (a fixed set of them, in seeded order, see [`plan`]);
//! two generator threads each own one connection and send on schedule
//! whatever the replies; every request is timed from the moment it was
//! due. The schedule is replayed several times and each request keeps
//! its best latency (see [`REPLAYS`]).
//!
//! Known answer: each reply must be byte-equal to what the in-process
//! `run_cached` (or check report) gives for the same text and options,
//! computed after the measured window.
//!
//! Tracing adds no work to the measured window: a traced run builds its
//! spans afterwards from the timestamps every run takes, so this
//! workload reports no tracing overhead (`trace.overhead_*` are 0).

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::ffi::c_void;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asyncsynth::summary::report_to_json;
use asyncsynth::{cache_key, run_cached, CacheStage, ResultCache, Synthesis, SynthesisOptions};
use server::protocol::{Priority, Request, Response};
use server::service::{Server, ServerConfig};

use crate::common::{median, metric, ms, quantile, Report, Rng, SetupTimes};
use crate::trace::Tracer;
use crate::{latency_metrics, Args, OUT_DIR};

/// Mean requests per second, across both connections (Poisson-like
/// arrivals: exponential gaps in seeded order, see [`plan`]). At this rate the offered work
/// (mostly cache hits, plus ~20 misses a second of a few milliseconds)
/// keeps the two workers mostly idle, so the latency is the service's
/// own, not queueing behind saturated workers. The server holds a reply
/// until the client's next packet acknowledges the previous one, though
/// (it sets no `TCP_NODELAY` and writes a reply's newline separately),
/// and on these persistent connections the next packet is usually the
/// next request: the measured latency is bounded below by the gap between
/// a connection's requests (10 ms on average here), and server work
/// shorter than that gap hides in it. [`turnaround`] measures that work
/// without the wait.
const RATE_PER_S: f64 = 200.0;
/// Rounds of the turnaround probe over the hot specifications.
const PROBE_ROUNDS: usize = 20;
/// The run replays one seeded schedule this many times, back to back
/// (misses get fresh renamings on every replay). A request's latency is
/// its best over the replays: a stall the program causes recurs on
/// every replay, while a burst of other load on the machine does not.
const REPLAYS: usize = 4;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// The latency limit of `service_slo_share`.
const SLO_MS: f64 = 25.0;
/// How long to wait for the last replies once sending has ended.
const DRAIN: Duration = Duration::from_secs(60);

/// Specifications served from the cache after the prefill.
const HOT: [&str; 10] = [
    "vme-read",
    "vme-read-csc",
    "toggle",
    "micropipeline-1",
    "token-ring-3-2",
    "chain-3-ioi",
    "chain-4-oooo",
    "dispatch-2-in",
    "call",
    "seq",
];
/// Cheap specifications renamed into fresh misses.
const MISS_BASES: [&str; 5] = [
    "vme-read-csc",
    "chain-3-ioi",
    "toggle",
    "seq",
    "dispatch-1-in",
];
/// Cheap specifications whose flow fails.
const FAILING: [&str; 3] = ["par-2-free", "selector-1", "dispatch-2-out"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Check,
    Fail,
}

impl Kind {
    /// Seeded draw of the mix: 80% hits, 10% misses, 5% checks, 5%
    /// failing specifications.
    fn draw(rng: &mut Rng) -> Kind {
        match rng.unit() {
            u if u < 0.80 => Kind::Hit,
            u if u < 0.90 => Kind::Miss,
            u if u < 0.95 => Kind::Check,
            _ => Kind::Fail,
        }
    }
}

struct Planned {
    /// Position in the replayed schedule.
    slot: usize,
    kind: Kind,
    text: Arc<str>,
    line: String,
    due: Duration,
}

/// Renames every signal of a `.g` text (and the model) with `tag`: the
/// same controller under a new content digest.
fn rename_signals(text: &str, tag: &str) -> String {
    let signals: HashSet<&str> = text
        .lines()
        .filter(|l| {
            l.starts_with(".inputs") || l.starts_with(".outputs") || l.starts_with(".internal")
        })
        .flat_map(|l| l.split_whitespace().skip(1))
        .collect();
    let mut out = String::with_capacity(text.len() + 64);
    for line in text.lines() {
        if let Some(model) = line.strip_prefix(".model ") {
            out.push_str(&format!(".model {model}-{tag}\n"));
            continue;
        }
        let mut word = String::new();
        for c in line.chars().chain(std::iter::once('\n')) {
            if c.is_ascii_alphanumeric() || c == '_' {
                word.push(c);
                continue;
            }
            if !word.is_empty() {
                if !word.starts_with('.') && signals.contains(word.as_str()) {
                    out.push_str(tag);
                    out.push('_');
                }
                out.push_str(&word);
                word.clear();
            }
            out.push(c);
        }
    }
    out
}

fn corpus_texts() -> HashMap<String, Arc<str>> {
    corpus::all_specs()
        .into_iter()
        .map(|(_, spec)| (spec.name().to_owned(), stg::parse::write_g(&spec).into()))
        .collect()
}

fn request_line(kind: Kind, text: &str, options: &SynthesisOptions) -> String {
    let request = if kind == Kind::Check {
        Request::Check {
            spec_text: text.to_owned(),
            options: options.clone(),
            priority: Priority::Normal,
        }
    } else {
        Request::Synth {
            spec_text: text.to_owned(),
            options: options.clone(),
            priority: Priority::Normal,
            events: false,
        }
    };
    let mut line = request.render();
    line.push('\n');
    line
}

/// The seeded schedule of `seconds / REPLAYS` seconds, replayed
/// `REPLAYS` times.
fn plan(seed: u64, seconds: f64, texts: &HashMap<String, Arc<str>>) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let options = SynthesisOptions::default();
    let length = seconds / REPLAYS as f64;
    let pick = |rng: &mut Rng, names: &[&str]| texts[names[rng.below(names.len())]].clone();
    // Exponential gaps at evenly spaced quantiles, in seeded order: every
    // seed offers the same set of gaps and only their order differs. The
    // latency's tail follows the gaps (see RATE_PER_S), and gaps drawn
    // independently moved `flow_p99_ms` by a tenth from seed to seed.
    let arrivals = (RATE_PER_S * length).round() as usize;
    let mut gaps: Vec<f64> = (0..arrivals)
        .map(|i| -(1.0 - (i as f64 + 0.5) / arrivals as f64).ln() / RATE_PER_S)
        .collect();
    rng.shuffle(&mut gaps);
    let mut schedule = Vec::new();
    let mut due = 0.0;
    for gap in gaps {
        due += gap;
        if due >= length {
            break;
        }
        let kind = Kind::draw(&mut rng);
        let text = match kind {
            Kind::Hit | Kind::Check => pick(&mut rng, &HOT),
            Kind::Fail => pick(&mut rng, &FAILING),
            Kind::Miss => pick(&mut rng, &MISS_BASES),
        };
        schedule.push((due, kind, text));
    }
    let mut plan = Vec::new();
    for replay in 0..REPLAYS {
        for (slot, (due, kind, text)) in schedule.iter().enumerate() {
            let text: Arc<str> = if *kind == Kind::Miss {
                let tag = format!("r{:08x}", rng.next_u64() as u32);
                rename_signals(text, &tag).into()
            } else {
                text.clone()
            };
            plan.push(Planned {
                slot,
                kind: *kind,
                line: request_line(*kind, &text, &options),
                text,
                due: Duration::from_secs_f64(replay as f64 * length + due),
            });
        }
    }
    plan
}

/// A booted server with its cache directory; dropping it shuts the
/// server down and removes the directory.
struct Service {
    addr: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    dir: PathBuf,
}

impl Service {
    /// Prefills a fresh on-disk cache with the hot specifications and
    /// boots a server on it, on an ephemeral port. The prefill runs
    /// in-process (`run_cached` on the cache directory the server then
    /// opens), so set-up does not time the protocol's reply delay.
    fn boot(dir: PathBuf, texts: &HashMap<String, Arc<str>>) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let cache =
            ResultCache::open(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        let options = SynthesisOptions::default();
        for name in HOT {
            let spec = stg::parse::parse_g(&texts[name]).map_err(|e| format!("{name}: {e}"))?;
            run_cached(&spec, &options, &cache)
                .map_err(|e| format!("prefill of {name} failed: {e}"))?;
        }
        let config = ServerConfig {
            workers: WORKERS,
            cache_dir: Some(cache_dir),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", &config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = Some(std::thread::spawn(move || server.run()));
        Ok(Service { addr, handle, dir })
    }

    fn status(&self) -> Result<(u64, asyncsynth::CacheStats), String> {
        match server::client::request(&self.addr, &Request::Status, |_| {})? {
            Response::Status {
                shed,
                cache: Some(cache),
                ..
            } => Ok((shed, cache)),
            other => Err(format!("unexpected status reply {other:?}")),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = server::client::request(&self.addr, &Request::Shutdown, |_| {});
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one request got back.
#[derive(Debug, Clone, Default)]
struct Outcome {
    sent: Option<Instant>,
    accepted: Option<Instant>,
    done: Option<Instant>,
    /// The reply's payload: summary or report JSON, or the error text.
    reply: Option<Result<String, String>>,
    /// Shed by admission control, or a protocol error.
    refused: bool,
}

/// Sends this connection's share of the schedule at the due times.
fn generate(
    mut stream: TcpStream,
    plan: &[Planned],
    conn: usize,
    start: Instant,
    fifo: &Mutex<VecDeque<usize>>,
) -> (Vec<(usize, Instant)>, TcpStream) {
    let mut sent = Vec::new();
    for (i, p) in plan.iter().enumerate().skip(conn).step_by(CONNECTIONS) {
        let due = start + p.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        fifo.lock().expect("fifo").push_back(i);
        let at = Instant::now();
        if stream.write_all(p.line.as_bytes()).is_err() {
            break;
        }
        sent.push((i, at));
    }
    // The write half stays open until every reply is in: closing it
    // would cancel the outstanding jobs.
    (sent, stream)
}

/// Reads replies until every request of this connection is answered.
fn collect(
    stream: TcpStream,
    expected: usize,
    fifo: &Mutex<VecDeque<usize>>,
) -> Vec<(usize, Outcome)> {
    let _ = stream.set_read_timeout(Some(DRAIN));
    let mut outcomes: HashMap<usize, Outcome> = HashMap::new();
    let mut jobs: HashMap<u64, usize> = HashMap::new();
    let mut answered = 0;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    while answered < expected {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let now = Instant::now();
        let Ok(response) = Response::parse_line(line.trim_end()) else {
            continue;
        };
        let admitted = || fifo.lock().expect("fifo").pop_front();
        let (index, reply) = match response {
            Response::Accepted { job, .. } => {
                if let Some(i) = admitted() {
                    jobs.insert(job, i);
                    outcomes.entry(i).or_default().accepted = Some(now);
                }
                continue;
            }
            Response::Rejected { .. } | Response::Error { job: None, .. } => {
                if let Some(i) = admitted() {
                    let o = outcomes.entry(i).or_default();
                    o.refused = true;
                    o.done = Some(now);
                    answered += 1;
                }
                continue;
            }
            Response::Result { job, summary, .. } => (jobs.remove(&job), Ok(summary.render())),
            Response::CheckResult { job, report, .. } => (jobs.remove(&job), Ok(report.render())),
            Response::Error {
                job: Some(job),
                message,
            } => (jobs.remove(&job), Err(message)),
            _ => continue,
        };
        if let Some(i) = index {
            let o = outcomes.entry(i).or_default();
            o.done = Some(now);
            o.reply = Some(reply);
            answered += 1;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    outcomes.into_iter().collect()
}

/// Asks the kernel to acknowledge data received on `stream` at once
/// (Linux `TCP_QUICKACK`, which lapses, so it is re-armed around every
/// read) instead of holding the ACK back for the next outgoing packet.
/// Flushes the writes still pending in the kernel (`sync(2)`): the
/// prefill writes a cache file per hot spec, and timed while the previous
/// boots' files and the measured window's cache stores were being written
/// back, one boot took from 40 ms to over 200 ms in the same run.
fn flush_writes() {
    extern "C" {
        fn sync();
    }
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: a live socket descriptor and a pointer to an `i32` of the
    // length given; the call only reads it.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const i32).cast(),
            4,
        );
    }
}

/// Reads one line from `reader`, acknowledging every piece of it at once
/// on `socket` (see [`quickack`]); `false` at end of stream.
fn read_line_acking(reader: &mut impl BufRead, socket: &TcpStream, line: &mut Vec<u8>) -> bool {
    loop {
        let Some(buf) = reader.fill_buf().ok().filter(|b| !b.is_empty()) else {
            return false;
        };
        quickack(socket);
        let (n, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(end) => (end + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..n]);
        reader.consume(n);
        if done {
            return true;
        }
    }
}

/// The server's own turnaround, after the measured window: one
/// connection, closed loop, every hot specification [`PROBE_ROUNDS`]
/// times, send to result in ms. The connection acknowledges every reply
/// at once, so unlike the measured traffic (see [`RATE_PER_S`]) this does
/// not wait for the client's next packet and moves with the server's
/// parsing, queueing and cache work.
fn turnaround(service: &Service, texts: &HashMap<String, Arc<str>>) -> Result<Vec<f64>, String> {
    let stream = TcpStream::connect(&service.addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(DRAIN));
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let options = SynthesisOptions::default();
    let mut times = Vec::new();
    let mut line = Vec::new();
    for _ in 0..PROBE_ROUNDS {
        for name in HOT {
            let request = request_line(Kind::Hit, &texts[name], &options);
            let start = Instant::now();
            writer
                .write_all(request.as_bytes())
                .map_err(|e| format!("probe: {e}"))?;
            loop {
                line.clear();
                if !read_line_acking(&mut reader, &writer, &mut line) {
                    return Err("probe: connection closed".to_owned());
                }
                let text = String::from_utf8_lossy(&line);
                match Response::parse_line(text.trim_end()) {
                    Ok(Response::Accepted { .. }) => continue,
                    Ok(Response::Result { .. }) => break,
                    other => return Err(format!("probe of {name}: unexpected reply {other:?}")),
                }
            }
            times.push(ms(start.elapsed()));
        }
    }
    Ok(times)
}

/// The in-process answer for one distinct request text, with the time
/// the in-process call took (a warm-cache hit for hot specifications).
struct Expected {
    answer: Result<String, String>,
    run_ms: f64,
}

/// Runs `f`, returning its value and when it started and ended.
fn timed<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let start = Instant::now();
    let value = f();
    (value, (start, Instant::now()))
}

/// Computes every known answer in-process, on a cache of its own.
fn expected_answers(
    plan: &[Planned],
    dir: &Path,
    tracer: &mut Tracer,
    miss_overhead: &mut Vec<f64>,
    hit_ms: &mut Vec<f64>,
) -> Result<HashMap<(bool, Arc<str>), Expected>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let options = SynthesisOptions::default();
    let distinct: BTreeSet<(bool, Arc<str>, bool)> = plan
        .iter()
        .map(|p| (p.kind == Kind::Check, p.text.clone(), p.kind == Kind::Miss))
        .collect();
    let mut out = HashMap::new();
    // Synth answers first, so every check finds its report cached.
    for (check, text, miss) in distinct
        .iter()
        .filter(|d| !d.0)
        .chain(distinct.iter().filter(|d| d.0))
    {
        let spec = stg::parse::parse_g(text).map_err(|e| format!("generated spec: {e}"))?;
        let (answer, name, (start, end)) = if *check {
            let space = options.backend.build(&spec).map_err(|e| e.to_string())?;
            let answer =
                Ok(report_to_json(&stg::properties::report_from_sg(&spec, &*space)).render());
            let key = cache_key(&spec, &options, CacheStage::Check);
            if cache.load(&key).is_none() {
                // Only checked, never synthesised in this plan: the
                // flow stores the check report on the way.
                let _ = run_cached(&spec, &options, &cache);
            }
            let (loaded, span) = timed(|| cache.load(&key));
            if loaded.is_none() {
                return Err(format!(
                    "{}: check report not cached in-process",
                    spec.name()
                ));
            }
            (answer, "cache.check_load", span)
        } else {
            let render = |r: Result<asyncsynth::CachedRun, asyncsynth::PipelineError>| {
                r.map(|run| run.summary.to_json().render())
                    .map_err(|e| e.to_string())
            };
            let (answer, cold) = timed(|| render(run_cached(&spec, &options, &cache)));
            if answer.is_ok() && !*miss {
                // A hot specification is served from the cache.
                let (again, hit) = timed(|| render(run_cached(&spec, &options, &cache)));
                if again != answer {
                    return Err(format!("{}: cached answer differs in-process", spec.name()));
                }
                hit_ms.push(ms(hit.1 - hit.0));
                (answer, "cache.run_cached_hit", hit)
            } else {
                if *miss && tracer.enabled() {
                    let (_, run) =
                        timed(|| Synthesis::with_options(spec.clone(), options.clone()).run());
                    miss_overhead.push(ms(cold.1 - cold.0) - ms(run.1 - run.0));
                }
                (answer, "cache.run_cached_cold", cold)
            }
        };
        tracer.record(name, None, u64::MAX, 0, start, end, false);
        let expected = Expected {
            answer,
            run_ms: ms(end - start),
        };
        out.insert((*check, text.clone()), expected);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    // The tracer's clock starts before the measured window.
    let mut tracer = Tracer::new(args.trace);
    let texts = corpus_texts();
    let plan = plan(args.seed, args.seconds, &texts);
    let base = PathBuf::from(OUT_DIR).join(format!("service-{}", std::process::id()));

    // Set-up: prefill and boot repeatedly, keep the last server (each
    // earlier one shuts down when the next has booted).
    let mut setups = SetupTimes::default();
    let mut n = 0;
    let service = setups.repeated_after(flush_writes, || {
        n += 1;
        Service::boot(base.join(format!("server-{n}")), &texts)
    })?;
    let measured = measure(&service, &plan);
    let probed = turnaround(&service, &texts);
    drop(service);
    let turnaround_ms = probed?;
    // More set-ups after the window, so that `setup_s` does not rest on
    // the machine's speed in the run's first second alone.
    setups.repeated_after(flush_writes, || {
        n += 1;
        Service::boot(base.join(format!("server-{n}")), &texts)
    })?;
    let (outcomes, lags, (shed, cache_delta)) = measured?;

    // Known answers and in-process timings, outside the measured window.
    let mut miss_overhead = Vec::new();
    let mut hit_ms = Vec::new();
    let expected = expected_answers(
        &plan,
        &base.join("in-process"),
        &mut tracer,
        &mut miss_overhead,
        &mut hit_ms,
    )?;
    let _ = std::fs::remove_dir_all(&base);

    let mut report = Report {
        attempted: plan.len(),
        ..Report::default()
    };
    let slots = plan.iter().map(|p| p.slot + 1).max().unwrap_or(0);
    let mut best = vec![f64::INFINITY; slots];
    let mut latency = Vec::new();
    let (mut accept_ms, mut job_ms, mut queue_wait_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut within_slo = 0usize;
    let start = outcomes.start;
    for (i, p) in plan.iter().enumerate() {
        let o = outcomes.by_request.get(&i).cloned().unwrap_or_default();
        let due = start + p.due;
        let Some(reply) = o.reply.as_ref().filter(|_| !o.refused) else {
            report.fail(
                false,
                format!("request {i} ({:?}) was refused or unanswered", p.kind),
            );
            continue;
        };
        let known = &expected[&(p.kind == Kind::Check, p.text.clone())];
        if *reply != known.answer {
            report.fail(
                true,
                format!("request {i} ({:?}): reply differs from run_cached", p.kind),
            );
            continue;
        }
        let done = o.done.expect("answered requests have a reply time");
        let total = ms(done.saturating_duration_since(due));
        best[p.slot] = best[p.slot].min(total);
        latency.push(total);
        if total <= SLO_MS {
            within_slo += 1;
        }
        if let (Some(sent), Some(accepted)) = (o.sent, o.accepted) {
            accept_ms.push(ms(accepted.saturating_duration_since(sent)));
            let job = ms(done.saturating_duration_since(accepted));
            job_ms.push(job);
            queue_wait_ms.push(job - known.run_ms);
            if args.trace {
                let root = tracer.record("request", None, i as u64, 0, due, done, false);
                tracer.label(root, || format!("{:?}", p.kind));
                tracer.record("gen.lag", Some(root), i as u64, 0, due, sent, false);
                tracer.record(
                    "server.accept",
                    Some(root),
                    i as u64,
                    0,
                    sent,
                    accepted,
                    false,
                );
                tracer.record("server.job", Some(root), i as u64, 0, accepted, done, false);
            }
        }
    }
    // A slot whose every replay failed has no latency; its failures
    // are counted above.
    best.retain(|b| b.is_finite());
    report.end_to_end = latency_metrics(&best, latency.len());
    report.end_to_end.push(setups.metric());
    let n = latency.len();
    report.workload = vec![
        metric("service_p50_ms", quantile(&latency, 0.5), "ms", n),
        metric("service_p99_ms", quantile(&latency, 0.99), "ms", n),
        metric(
            "service_turnaround_p50_ms",
            quantile(&turnaround_ms, 0.5),
            "ms",
            turnaround_ms.len(),
        ),
        metric(
            "service_slo_share",
            within_slo as f64 / plan.len() as f64,
            "share",
            plan.len(),
        ),
    ];
    if args.trace {
        let lookups = cache_delta.hits + cache_delta.misses;
        report.per_layer = vec![
            metric("cache.hit_ms", median(&hit_ms), "ms", hit_ms.len()),
            metric(
                "cache.miss_overhead_ms",
                median(&miss_overhead),
                "ms",
                miss_overhead.len(),
            ),
            metric(
                "cache.hit_ratio",
                if lookups > 0 {
                    cache_delta.hits as f64 / lookups as f64
                } else {
                    0.0
                },
                "ratio",
                lookups as usize,
            ),
            metric("cache.stores", cache_delta.stores as f64, "count", 1),
            metric(
                "server.accept_ms",
                median(&accept_ms),
                "ms",
                accept_ms.len(),
            ),
            metric(
                "server.turnaround_ms",
                median(&turnaround_ms),
                "ms",
                turnaround_ms.len(),
            ),
            metric("server.job_ms", median(&job_ms), "ms", job_ms.len()),
            metric(
                "server.queue_wait_ms",
                median(&queue_wait_ms),
                "ms",
                queue_wait_ms.len(),
            ),
            metric("server.shed", shed as f64, "count", 1),
            metric("gen.lag_p99_ms", quantile(&lags, 0.99), "ms", lags.len()),
            metric("trace.spans", tracer.len() as f64, "count", 1),
        ];
        report.trace = Some(tracer.to_json(vec![]));
    }
    Ok(report)
}

/// Every request's outcome, keyed by its index in the plan.
struct Outcomes {
    start: Instant,
    by_request: HashMap<usize, Outcome>,
}

type Measured = (Outcomes, Vec<f64>, (u64, asyncsynth::CacheStats));

/// The measured window: both generators send their share on schedule,
/// both readers collect the replies; the server's shed and cache
/// counters are read before and after.
fn measure(service: &Service, plan: &[Planned]) -> Result<Measured, String> {
    let (shed_before, cache_before) = service.status()?;
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes: HashMap<usize, Outcome> = HashMap::new();
    let mut lags = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut workers = Vec::new();
        for conn in 0..CONNECTIONS {
            let stream = TcpStream::connect(&service.addr).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            let reader = stream.try_clone().map_err(|e| e.to_string())?;
            let expected = (conn..plan.len()).step_by(CONNECTIONS).count();
            let fifo = Arc::new(Mutex::new(VecDeque::new()));
            let fifo_gen = Arc::clone(&fifo);
            let sender = scope.spawn(move || generate(stream, plan, conn, start, &fifo_gen));
            let receiver = scope.spawn(move || collect(reader, expected, &fifo));
            workers.push((sender, receiver));
        }
        for (sender, receiver) in workers {
            let (sent, stream) = sender.join().map_err(|_| "generator panicked")?;
            let received = receiver.join().map_err(|_| "reader panicked")?;
            drop(stream);
            for (i, o) in received {
                outcomes.insert(i, o);
            }
            for (i, at) in sent {
                outcomes.entry(i).or_default().sent = Some(at);
                lags.push(ms(at.saturating_duration_since(start + plan[i].due)));
            }
        }
        Ok(())
    })?;
    let (shed_after, cache_after) = service.status()?;
    let delta = asyncsynth::CacheStats {
        hits: cache_after.hits - cache_before.hits,
        misses: cache_after.misses - cache_before.misses,
        stores: cache_after.stores - cache_before.stores,
        corrupt: cache_after.corrupt - cache_before.corrupt,
    };
    Ok((
        Outcomes {
            start,
            by_request: outcomes,
        },
        lags,
        (shed_after - shed_before, delta),
    ))
}
