//! End-to-end service tests over real TCP sockets: warm-cache hits on
//! repeated submissions, concurrent independent clients, cancellation,
//! status — and the overload behaviours: saturation with load shedding
//! and retry convergence, per-client quotas, bounded request lines and
//! weighted queue-depth observability.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use asyncsynth::{Json, SynthesisOptions};
use server::client::{self, ClientOptions};
use server::protocol::{Priority, Request, Response};
use server::service::{Server, ServerConfig};

struct TestServer {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    cache_root: Option<std::path::PathBuf>,
}

/// Boots a server with a per-test cache directory and otherwise-default
/// admission limits.
fn boot(tag: &str, workers: usize) -> TestServer {
    let cache_root = std::env::temp_dir().join(format!(
        "asyncsynth-service-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_root);
    boot_with(&ServerConfig {
        workers,
        cache_dir: Some(cache_root),
        ..ServerConfig::default()
    })
}

fn boot_with(config: &ServerConfig) -> TestServer {
    let server = Server::bind("127.0.0.1:0", config).expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        cache_root: config.cache_dir.clone(),
    }
}

impl TestServer {
    fn shutdown(self) {
        let _ = client::request(&self.addr, &Request::Shutdown, |_| {});
        let _ = self.handle.join();
        if let Some(cache_root) = &self.cache_root {
            let _ = std::fs::remove_dir_all(cache_root);
        }
    }
}

fn spec_text(build: fn() -> stg::Stg) -> String {
    stg::parse::write_g(&build())
}

/// A specification whose pipeline run takes hundreds of milliseconds —
/// long enough that admission decisions made while it occupies a worker
/// are deterministic, short enough for tests.
fn slow_spec_text() -> String {
    stg::parse::write_g(&corpus::generators::paralleliser(4, false))
}

/// A raw NDJSON connection: reader half plus writable stream, for tests
/// that drive several requests over one connection.
fn raw_connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (reader, stream)
}

fn send_request(stream: &mut TcpStream, request: &Request) {
    let mut line = request.render();
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send request");
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while awaiting a response");
        if !line.trim().is_empty() {
            return Response::parse_line(&line).expect("well-formed response");
        }
    }
}

/// Polls `status` until some job is running (the window in which
/// admission decisions about a busy worker are deterministic).
fn wait_until_running(addr: &str) {
    for _ in 0..5000 {
        if let Ok(Response::Status { running, .. }) =
            client::request(addr, &Request::Status, |_| {})
        {
            if running >= 1 {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("no job ever started running");
}

#[test]
fn second_submission_is_a_cache_hit_with_identical_bytes() {
    let server = boot("cache-hit", 2);
    let spec = spec_text(stg::examples::vme_read);

    let mut first_events: Vec<String> = Vec::new();
    let first = client::submit_synth(
        &server.addr,
        &spec,
        &SynthesisOptions::default(),
        true,
        |response| {
            if let Response::Event { message, .. } = response {
                first_events.push(message.clone());
            }
        },
    )
    .expect("first submission succeeds");
    let Response::Result {
        cache: first_cache,
        summary: first_summary,
        ..
    } = first
    else {
        panic!("expected a result, got {first:?}");
    };
    assert_eq!(first_cache, "miss");
    assert!(
        first_events.iter().any(|e| e.contains("state space built")),
        "cold run synthesises: {first_events:?}"
    );

    let mut second_events: Vec<String> = Vec::new();
    let second = client::submit_synth(
        &server.addr,
        &spec,
        &SynthesisOptions::default(),
        true,
        |response| {
            if let Response::Event { message, .. } = response {
                second_events.push(message.clone());
            }
        },
    )
    .expect("second submission succeeds");
    let Response::Result {
        cache: second_cache,
        summary: second_summary,
        ..
    } = second
    else {
        panic!("expected a result, got {second:?}");
    };
    assert_eq!(second_cache, "hit", "same spec twice → warm hit");
    assert_eq!(
        second_summary.render(),
        first_summary.render(),
        "cache hit returns byte-identical results"
    );
    assert!(
        second_events.iter().all(|e| e.starts_with("cache hit")),
        "no synthesis stage re-runs on the hit: {second_events:?}"
    );

    server.shutdown();
}

#[test]
fn concurrent_clients_get_independent_correct_results() {
    let server = boot("concurrent", 4);
    // Five clients, four distinct controllers (two clients share the
    // toggle spec, racing on one cache slot).
    let workload: Vec<fn() -> stg::Stg> = vec![
        stg::examples::vme_read,
        stg::examples::vme_read_csc,
        stg::examples::vme_read_write,
        stg::examples::toggle,
        stg::examples::toggle,
    ];
    let expected_models: Vec<String> = workload
        .iter()
        .map(|build| build().name().to_owned())
        .collect();

    let addr = Arc::new(server.addr.clone());
    let results: Vec<(String, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .iter()
            .map(|build| {
                let addr = Arc::clone(&addr);
                let text = spec_text(*build);
                scope.spawn(move || {
                    let response = client::submit_synth(
                        &addr,
                        &text,
                        &SynthesisOptions::default(),
                        false,
                        |_| {},
                    )
                    .expect("concurrent submission succeeds");
                    match response {
                        Response::Result { cache, summary, .. } => (cache, summary),
                        other => panic!("expected result, got {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for ((_cache, summary), submitted_model) in results.iter().zip(&expected_models) {
        let model = summary
            .get("model")
            .and_then(Json::as_str)
            .expect("summary has a model");
        // CSC repair may rename the model (`-csc` suffix); the result
        // must still belong to the spec this client submitted.
        assert!(
            model.starts_with(submitted_model.trim_end_matches("-csc")),
            "result {model:?} does not match submission {submitted_model:?}"
        );
        assert_eq!(
            summary.get("verification").and_then(Json::as_str),
            Some("passed"),
            "every client's circuit verifies: {summary}"
        );
    }
    // The duplicated toggle submissions must agree byte-for-byte.
    assert_eq!(results[3].1.render(), results[4].1.render());

    // Status reflects the drained queue and the configured pool.
    let status = client::request(&server.addr, &Request::Status, |_| {}).expect("status answered");
    match status {
        Response::Status {
            queued,
            queue_jobs,
            queue_capacity,
            running,
            completed,
            cancelled,
            panicked,
            shed,
            workers,
            cache,
        } => {
            assert_eq!(queued, 0);
            assert_eq!(queue_jobs, 0);
            assert_eq!(queue_capacity, ServerConfig::default().queue_capacity);
            assert_eq!(running, 0);
            assert_eq!(completed, 5);
            assert_eq!(cancelled, 0);
            assert_eq!(panicked, 0);
            assert_eq!(shed, 0);
            assert_eq!(workers, 4);
            let stats = cache.expect("cache configured");
            assert!(stats.stores >= 4, "{stats:?}");
        }
        other => panic!("expected status, got {other:?}"),
    }

    // The metrics export agrees with the drained status snapshot and
    // carries the request counters only the protocol loop sees.
    let metrics =
        client::request(&server.addr, &Request::Metrics, |_| {}).expect("metrics answered");
    match metrics {
        Response::Metrics { counters, gauges } => {
            assert_eq!(counters.get("jobs_completed"), Some(5));
            assert_eq!(counters.get("jobs_cancelled"), Some(0));
            assert_eq!(counters.get("worker_panics"), Some(0));
            assert_eq!(counters.get("shed_total"), Some(0));
            assert_eq!(counters.get("requests_synth"), Some(5));
            assert_eq!(counters.get("requests_status"), Some(1));
            assert_eq!(counters.get("requests_metrics"), Some(1));
            assert!(counters.get("cache_stores").unwrap_or(0) >= 4);
            assert_eq!(gauges.get("queue_depth"), Some(0));
            assert_eq!(gauges.get("queue_jobs"), Some(0));
            assert_eq!(
                gauges.get("queue_capacity").map(|n| n as usize),
                Some(ServerConfig::default().queue_capacity)
            );
            assert_eq!(gauges.get("queue_depth_high"), Some(0));
            assert_eq!(gauges.get("queue_depth_normal"), Some(0));
            assert_eq!(gauges.get("queue_depth_low"), Some(0));
            assert_eq!(gauges.get("jobs_running"), Some(0));
            assert_eq!(gauges.get("workers"), Some(4));
            assert!(gauges.get("cache_hit_permille").is_some());
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn malformed_requests_and_bad_specs_are_rejected_without_killing_the_server() {
    let server = boot("errors", 1);

    let err = client::request(
        &server.addr,
        &Request::Synth {
            spec_text: "this is not a .g file".to_owned(),
            options: SynthesisOptions::default(),
            priority: Priority::Normal,
            events: false,
        },
        |_| {},
    )
    .expect_err("bad spec is rejected");
    assert!(err.contains("bad specification"), "{err}");

    // The server still works afterwards.
    let response = client::submit_synth(
        &server.addr,
        &spec_text(stg::examples::toggle),
        &SynthesisOptions::default(),
        false,
        |_| {},
    )
    .expect("server survives bad input");
    assert!(matches!(response, Response::Result { .. }));

    server.shutdown();
}

#[test]
fn removed_backend_name_is_an_error_and_the_connection_stays_usable() {
    let server = boot("removed-backend", 1);
    let (mut reader, mut stream) = raw_connect(&server.addr);
    let text = spec_text(stg::examples::vme_read);

    // The retired decoding backend's name: a request-level error that
    // names the backends that remain.
    let bad = Json::obj(vec![
        ("op", Json::str("check")),
        ("spec", Json::str(&text)),
        ("backend", Json::str("symbolic")),
    ]);
    stream
        .write_all(format!("{}\n", bad.render()).as_bytes())
        .expect("send request");
    match read_response(&mut reader) {
        Response::Error { job: None, message } => {
            assert!(
                message.contains("explicit") && message.contains("symbolic-set"),
                "{message}"
            );
        }
        other => panic!("expected a request error, got {other:?}"),
    }

    // The same connection then serves a valid check.
    let good = Request::Check {
        spec_text: text,
        options: SynthesisOptions {
            backend: asyncsynth::Backend::SymbolicSet,
            ..SynthesisOptions::default()
        },
        priority: Priority::Normal,
    };
    send_request(&mut stream, &good);
    let report = loop {
        match read_response(&mut reader) {
            Response::Accepted { .. } => {}
            Response::CheckResult { report, .. } => break report,
            other => panic!("expected a check result, got {other:?}"),
        }
    };
    assert_eq!(report.get("states").and_then(Json::as_usize), Some(14));

    drop(stream);
    server.shutdown();
}

#[test]
fn corpus_batch_submission_warms_the_cache_and_reports_per_spec_failures() {
    let server = boot("batch", 2);
    // A miniature corpus directory: two synthesisable controllers plus
    // an arbiter, whose output choice is non-persistent by design — its
    // entry must fail without failing the batch.
    let texts: Vec<String> = vec![
        spec_text(stg::examples::vme_read),
        spec_text(stg::examples::toggle),
        stg::parse::write_g(&corpus::generators::arbiter(2)),
    ];

    let cold = client::submit_batch(&server.addr, &texts, &SynthesisOptions::default(), |_| {})
        .expect("cold batch succeeds");
    let Response::BatchResult { results, .. } = &cold else {
        panic!("expected batch_result, got {cold:?}");
    };
    assert_eq!(results.len(), 3, "one entry per submitted spec, in order");
    for (entry, expected_model) in results.iter().zip(["vme-read", "toggle", "arbiter-2"]) {
        assert_eq!(
            entry.get("model").and_then(Json::as_str),
            Some(expected_model)
        );
        assert_eq!(
            entry.get("cache").and_then(Json::as_str),
            Some("miss"),
            "cold batch misses: {entry}"
        );
    }
    assert_eq!(
        results[0]
            .get("summary")
            .and_then(|s| s.get("verification"))
            .and_then(Json::as_str),
        Some("passed")
    );
    assert!(results[1].get("summary").is_some());
    let arbiter_error = results[2]
        .get("error")
        .and_then(Json::as_str)
        .expect("arbiter entry carries its pipeline error");
    assert!(
        arbiter_error.contains("implementab"),
        "the arbiter fails the §2.1 check: {arbiter_error}"
    );

    // The batch warmed the shared result cache: a plain synth submission
    // of a batch member is a byte-identical hit…
    let single = client::submit_synth(
        &server.addr,
        &texts[0],
        &SynthesisOptions::default(),
        false,
        |_| {},
    )
    .expect("single submission succeeds");
    let Response::Result { cache, summary, .. } = &single else {
        panic!("expected result, got {single:?}");
    };
    assert_eq!(cache, "hit", "batch-stored entries serve synth jobs");
    assert_eq!(
        summary.render(),
        results[0].get("summary").expect("stored summary").render()
    );

    // …and a repeated batch serves its successes from the cache while
    // re-running (and re-failing) the arbiter.
    let warm = client::submit_batch(&server.addr, &texts, &SynthesisOptions::default(), |_| {})
        .expect("warm batch succeeds");
    let Response::BatchResult { results: warm, .. } = &warm else {
        panic!("expected batch_result");
    };
    assert_eq!(warm[0].get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(warm[1].get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(warm[2].get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        warm[0].get("summary").expect("summary").render(),
        results[0].get("summary").expect("summary").render(),
        "warm hits are byte-identical to the cold run"
    );

    server.shutdown();
}

#[test]
fn cancel_of_unknown_job_reports_not_found() {
    let server = boot("cancel", 1);
    let response = client::request(&server.addr, &Request::Cancel { job: 9999 }, |_| {})
        .expect("cancel answered");
    match response {
        Response::Cancelled { job, found } => {
            assert_eq!(job, 9999);
            assert!(!found);
        }
        other => panic!("expected cancelled ack, got {other:?}"),
    }
    server.shutdown();
}

// -------------------------------------------------------------------
// Overload robustness
// -------------------------------------------------------------------

/// Saturation: many concurrent submitters against a tiny weighted
/// capacity. Every request gets exactly one terminal reply (the client
/// call returns exactly once, success or failure), retries converge —
/// rejected-then-retried submissions eventually succeed and serve from
/// the cache byte-identically — and the queue never grows past its
/// bound.
#[test]
fn saturation_sheds_then_retries_converge_onto_the_cache() {
    let cache_root = std::env::temp_dir().join(format!(
        "asyncsynth-service-test-{}-saturation",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_root);
    let server = boot_with(&ServerConfig {
        workers: 2,
        cache_dir: Some(cache_root),
        queue_capacity: 2,
        max_jobs_per_client: 0,
        ..ServerConfig::default()
    });
    let spec = spec_text(stg::examples::toggle);

    // Prime the cache so the saturating wave races on admission, not on
    // duplicated synthesis work.
    let primed = client::submit_synth(
        &server.addr,
        &spec,
        &SynthesisOptions::default(),
        false,
        |_| {},
    )
    .expect("priming submission succeeds");
    let Response::Result {
        summary: primed_summary,
        ..
    } = primed
    else {
        panic!("expected a result, got {primed:?}");
    };
    let expected = primed_summary.render();

    let submitters = 12;
    let retry_policy = ClientOptions {
        retries: 500,
        backoff_ms: 1,
        max_backoff_ms: 20,
        ..ClientOptions::default()
    };
    let addr = Arc::new(server.addr.clone());
    let outcomes: Vec<(Response, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|_| {
                let addr = Arc::clone(&addr);
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut rejections = 0u64;
                    let response = client::submit_synth_with(
                        &addr,
                        &spec,
                        &SynthesisOptions::default(),
                        Priority::Normal,
                        &retry_policy,
                        false,
                        |response| {
                            if let Response::Rejected {
                                reason,
                                retry_after_ms,
                                ..
                            } = response
                            {
                                assert_eq!(reason, "queue_full");
                                assert!(*retry_after_ms >= 25, "hint present: {retry_after_ms}");
                                rejections += 1;
                            }
                        },
                    )
                    .expect("every saturating submitter eventually succeeds");
                    (response, rejections)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });

    // Exactly one terminal reply per request, all byte-identical hits.
    assert_eq!(outcomes.len(), submitters);
    for (response, _) in &outcomes {
        let Response::Result { cache, summary, .. } = response else {
            panic!("expected a result, got {response:?}");
        };
        assert_eq!(cache, "hit", "retried submissions land on the cache");
        assert_eq!(summary.render(), expected, "admission never changes bytes");
    }

    // The books balance: every admitted job completed, every shed
    // submission is counted, and the queue drained within its bound.
    let status = client::request(&server.addr, &Request::Status, |_| {}).expect("status answered");
    let Response::Status {
        queued,
        queue_jobs,
        queue_capacity,
        completed,
        shed,
        ..
    } = status
    else {
        panic!("expected status, got {status:?}");
    };
    assert_eq!(queued, 0);
    assert_eq!(queue_jobs, 0);
    assert_eq!(queue_capacity, 2);
    assert_eq!(completed, submitters as u64 + 1);
    let client_rejections: u64 = outcomes.iter().map(|(_, n)| n).sum();
    assert_eq!(
        shed, client_rejections,
        "server-side shed count matches the rejections clients observed"
    );

    server.shutdown();
}

/// Deterministic queue-full shedding on a capacity-1 queue: while a
/// long batch occupies the only worker, a second job fills the queue
/// and a third is rejected with the documented depth and backoff hint —
/// and every submission on the connection still gets exactly one
/// terminal reply.
#[test]
fn full_queue_rejects_with_depth_and_retry_hint() {
    let server = boot_with(&ServerConfig {
        workers: 1,
        cache_dir: None,
        queue_capacity: 1,
        max_jobs_per_client: 0,
        ..ServerConfig::default()
    });
    let (mut reader, mut stream) = raw_connect(&server.addr);

    // A slow batch (CSC repair per member) pins the worker.
    let batch = Request::Batch {
        spec_texts: vec![slow_spec_text(); 3],
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
    };
    send_request(&mut stream, &batch);
    let accepted = read_response(&mut reader);
    let Response::Accepted { job: batch_job, .. } = accepted else {
        panic!("expected accepted, got {accepted:?}");
    };
    wait_until_running(&server.addr);

    // The batch is running, the queue is empty: one weight-1 job fits…
    let synth = Request::Synth {
        spec_text: spec_text(stg::examples::toggle),
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
        events: false,
    };
    send_request(&mut stream, &synth);
    let accepted = read_response(&mut reader);
    let Response::Accepted { job: synth_job, .. } = accepted else {
        panic!("expected accepted, got {accepted:?}");
    };

    // …and the next is shed with the exact depth and hint the formula
    // promises (capacity 1, depth 1 → 25 + 100 ms).
    send_request(&mut stream, &synth);
    let rejected = read_response(&mut reader);
    let Response::Rejected {
        reason,
        queue_depth,
        retry_after_ms,
    } = rejected
    else {
        panic!("expected rejected, got {rejected:?}");
    };
    assert_eq!(reason, "queue_full");
    assert_eq!(queue_depth, 1);
    assert_eq!(retry_after_ms, 125);

    // Both admitted jobs still deliver exactly one terminal reply each,
    // in completion order: the batch, then the queued synth.
    let batch_result = read_response(&mut reader);
    let Response::BatchResult { job, results } = batch_result else {
        panic!("expected batch_result, got {batch_result:?}");
    };
    assert_eq!(job, batch_job);
    assert_eq!(results.len(), 3);
    let synth_result = read_response(&mut reader);
    let Response::Result { job, .. } = synth_result else {
        panic!("expected result, got {synth_result:?}");
    };
    assert_eq!(job, synth_job);

    // The shed is on the books.
    let metrics =
        client::request(&server.addr, &Request::Metrics, |_| {}).expect("metrics answered");
    let Response::Metrics { counters, .. } = metrics else {
        panic!("expected metrics");
    };
    assert_eq!(counters.get("shed_queue_full"), Some(1));
    assert_eq!(counters.get("shed_total"), Some(1));

    server.shutdown();
}

/// The per-connection quota sheds only the greedy connection: with one
/// live job allowed, a second submission on the same connection is
/// rejected as `client_quota` while a different connection sails
/// through.
#[test]
fn client_quota_sheds_the_greedy_connection_only() {
    let server = boot_with(&ServerConfig {
        workers: 1,
        cache_dir: None,
        queue_capacity: 0,
        max_jobs_per_client: 1,
        ..ServerConfig::default()
    });
    let (mut reader, mut stream) = raw_connect(&server.addr);

    let batch = Request::Batch {
        spec_texts: vec![slow_spec_text(); 3],
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
    };
    send_request(&mut stream, &batch);
    let accepted = read_response(&mut reader);
    assert!(matches!(accepted, Response::Accepted { .. }));
    wait_until_running(&server.addr);

    // Same connection, second live job: over quota.
    let synth = Request::Synth {
        spec_text: spec_text(stg::examples::toggle),
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
        events: false,
    };
    send_request(&mut stream, &synth);
    let rejected = read_response(&mut reader);
    let Response::Rejected { reason, .. } = rejected else {
        panic!("expected rejected, got {rejected:?}");
    };
    assert_eq!(reason, "client_quota");

    // A different connection is not the greedy one's hostage (its job
    // queues behind the batch and completes once the worker frees up).
    let other = client::submit_synth(
        &server.addr,
        &spec_text(stg::examples::toggle),
        &SynthesisOptions::default(),
        false,
        |_| {},
    )
    .expect("other connections are unaffected by the quota");
    assert!(matches!(other, Response::Result { .. }));

    // The greedy connection's batch still delivers its terminal reply.
    let batch_result = read_response(&mut reader);
    assert!(matches!(batch_result, Response::BatchResult { .. }));

    let metrics =
        client::request(&server.addr, &Request::Metrics, |_| {}).expect("metrics answered");
    let Response::Metrics { counters, .. } = metrics else {
        panic!("expected metrics");
    };
    assert_eq!(counters.get("shed_client_quota"), Some(1));

    server.shutdown();
}

/// An oversized request line is answered with an error and discarded;
/// the connection survives and keeps serving, and the event is counted.
#[test]
fn oversized_request_line_is_shed_without_killing_the_connection() {
    let server = boot_with(&ServerConfig {
        workers: 1,
        cache_dir: None,
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    let (mut reader, mut stream) = raw_connect(&server.addr);

    // 8 KiB of garbage on one line — far past the 1 KiB budget.
    let mut oversized = vec![b'x'; 8 * 1024];
    oversized.push(b'\n');
    stream.write_all(&oversized).expect("send oversized line");
    let response = read_response(&mut reader);
    let Response::Error { job, message } = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(job, None);
    assert!(
        message.contains("exceeds 1024 bytes"),
        "error names the limit: {message}"
    );

    // The same connection still answers requests afterwards.
    send_request(&mut stream, &Request::Status);
    let status = read_response(&mut reader);
    assert!(matches!(status, Response::Status { .. }));

    let metrics =
        client::request(&server.addr, &Request::Metrics, |_| {}).expect("metrics answered");
    let Response::Metrics { counters, .. } = metrics else {
        panic!("expected metrics");
    };
    assert_eq!(counters.get("oversized_lines"), Some(1));
    assert!(counters.get("protocol_errors").unwrap_or(0) >= 1);

    server.shutdown();
}

/// Cancelling a running batch stops at the next member boundary: the
/// members that never started are reported as `cancelled` entries (one
/// entry per submitted spec, nothing lost), not silently dropped.
#[test]
fn cancel_mid_batch_stops_at_member_boundaries_and_reports_partial_work() {
    let server = boot_with(&ServerConfig {
        workers: 1,
        cache_dir: None,
        queue_capacity: 0,
        max_jobs_per_client: 0,
        ..ServerConfig::default()
    });
    let (mut reader, mut stream) = raw_connect(&server.addr);

    // Enough slow members that some are still pending when the cancel
    // lands, however many the member-level parallelism starts at once.
    let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let members = 2 * cores + 8;
    let batch = Request::Batch {
        spec_texts: vec![slow_spec_text(); members],
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
    };
    send_request(&mut stream, &batch);
    let accepted = read_response(&mut reader);
    let Response::Accepted { job, .. } = accepted else {
        panic!("expected accepted, got {accepted:?}");
    };
    wait_until_running(&server.addr);

    send_request(&mut stream, &Request::Cancel { job });
    let ack = read_response(&mut reader);
    let Response::Cancelled { found, .. } = ack else {
        panic!("expected cancelled ack, got {ack:?}");
    };
    assert!(found, "the running batch is cancellable");

    let result = read_response(&mut reader);
    let Response::BatchResult {
        job: result_job,
        results,
    } = result
    else {
        panic!("expected batch_result, got {result:?}");
    };
    assert_eq!(result_job, job);
    assert_eq!(results.len(), members, "one entry per member, none lost");
    let cancelled = results
        .iter()
        .filter(|e| e.get("cancelled").and_then(Json::as_bool) == Some(true))
        .count();
    assert!(
        cancelled >= 1,
        "members past the cancel point are reported as cancelled"
    );
    for entry in results
        .iter()
        .filter(|e| e.get("cancelled").and_then(Json::as_bool) == Some(true))
    {
        assert_eq!(
            entry.get("cache").and_then(Json::as_str),
            Some("skipped"),
            "cancelled members did not touch the flow: {entry}"
        );
        assert!(entry.get("summary").is_none());
    }

    server.shutdown();
}

/// `status`/`metrics` report the *weighted* queue depth — a queued
/// batch of 5 counts as 5 — with the raw job count and the per-priority
/// class split alongside, so observability agrees with admission.
#[test]
fn queue_depth_is_weighted_and_split_by_priority() {
    let server = boot_with(&ServerConfig {
        workers: 1,
        cache_dir: None,
        queue_capacity: 0,
        max_jobs_per_client: 0,
        ..ServerConfig::default()
    });
    let (mut reader, mut stream) = raw_connect(&server.addr);

    // Pin the worker with a slow batch, then park a 5-spec low-priority
    // batch in the queue.
    let pin = Request::Batch {
        spec_texts: vec![slow_spec_text(); 2],
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
    };
    send_request(&mut stream, &pin);
    assert!(matches!(
        read_response(&mut reader),
        Response::Accepted { .. }
    ));
    wait_until_running(&server.addr);

    let parked = Request::Batch {
        spec_texts: vec![spec_text(stg::examples::toggle); 5],
        options: SynthesisOptions::default(),
        priority: Priority::Low,
    };
    send_request(&mut stream, &parked);
    assert!(matches!(
        read_response(&mut reader),
        Response::Accepted { .. }
    ));

    let status = client::request(&server.addr, &Request::Status, |_| {}).expect("status answered");
    let Response::Status {
        queued,
        queue_jobs,
        running,
        ..
    } = status
    else {
        panic!("expected status, got {status:?}");
    };
    assert_eq!(queued, 5, "weighted depth counts the batch's specs");
    assert_eq!(queue_jobs, 1, "raw job count still sees one queued job");
    assert_eq!(running, 1);

    let metrics =
        client::request(&server.addr, &Request::Metrics, |_| {}).expect("metrics answered");
    let Response::Metrics { gauges, .. } = metrics else {
        panic!("expected metrics");
    };
    assert_eq!(gauges.get("queue_depth"), Some(5));
    assert_eq!(gauges.get("queue_jobs"), Some(1));
    assert_eq!(gauges.get("queue_depth_low"), Some(5));
    assert_eq!(gauges.get("queue_depth_normal"), Some(0));
    assert_eq!(gauges.get("queue_depth_high"), Some(0));

    // Both batches still complete (the parked one after the pin).
    assert!(matches!(
        read_response(&mut reader),
        Response::BatchResult { .. }
    ));
    assert!(matches!(
        read_response(&mut reader),
        Response::BatchResult { .. }
    ));

    server.shutdown();
}

/// A closed loop — each request waits for the previous reply — must not
/// pay a delayed-ACK stall per round trip. With Nagle on the server
/// socket and each reply written in two pieces, every reply's newline
/// waited for the client's next packet (~40 ms per round trip here).
/// The client disables Nagle on its own side, so only the server is
/// measured.
#[test]
fn closed_loop_status_round_trips_do_not_stall() {
    let server = boot_with(&ServerConfig {
        workers: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let (mut reader, mut stream) = raw_connect(&server.addr);
    stream.set_nodelay(true).expect("client TCP_NODELAY");

    let start = std::time::Instant::now();
    for _ in 0..20 {
        send_request(&mut stream, &Request::Status);
        assert!(matches!(
            read_response(&mut reader),
            Response::Status { .. }
        ));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 sequential status round trips took {elapsed:?}"
    );

    server.shutdown();
}

/// Every completed job is timed once in each histogram: after N jobs the
/// queue-wait and run-time bucket counts each sum to N.
#[test]
fn metrics_time_every_completed_job() {
    let server = boot_with(&ServerConfig {
        workers: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let jobs = 5;
    for _ in 0..jobs {
        let response = client::submit_synth(
            &server.addr,
            &spec_text(stg::examples::toggle),
            &SynthesisOptions::default(),
            false,
            |_| {},
        )
        .expect("toggle synthesises");
        assert!(matches!(response, Response::Result { .. }));
    }

    let metrics =
        client::request(&server.addr, &Request::Metrics, |_| {}).expect("metrics answered");
    let Response::Metrics { counters, .. } = metrics else {
        panic!("expected metrics, got {metrics:?}");
    };
    assert_eq!(counters.get("jobs_completed"), Some(jobs));
    for histogram in ["job_queue_wait", "job_run"] {
        let buckets: u64 = ["100", "1000", "10000", "100000", "inf"]
            .iter()
            .map(|bound| {
                counters
                    .get(&format!("{histogram}_us_le_{bound}"))
                    .unwrap_or_else(|| panic!("{histogram} bucket {bound} exported"))
            })
            .sum();
        assert_eq!(buckets, jobs, "{histogram} buckets sum to the job count");
        assert_eq!(counters.get(&format!("{histogram}_count")), Some(jobs));
        assert!(counters.get(&format!("{histogram}_sum_us")).is_some());
    }

    server.shutdown();
}
