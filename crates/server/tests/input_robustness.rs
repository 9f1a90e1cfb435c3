//! Input robustness: no input may panic the `.g` reader, the state-space
//! build or the service's NDJSON protocol. Arbitrary bytes (read as lossy
//! UTF-8) and byte-level mutations of the corpus `.g` files go into
//! `stg::parse::parse_g`; arbitrary lines and mutations of valid requests
//! and responses go into `Request::parse_line` and `Response::parse_line`.
//! Every call must return `Ok` or a typed `Err`, and every `.g` text that
//! parses must also build (or fail to build) without panicking.
//!
//! The same arbitrary and mutated lines also go over one TCP connection
//! to a live daemon, which must answer every one, finish every job it
//! accepted, and keep serving afterwards without a worker panic.
//!
//! The case count honours `PROPTEST_CASES` (default 256); generation is
//! deterministic per test, so failures reproduce without a persistence
//! file.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use asyncsynth::{Json, SynthesisOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use server::client;
use server::protocol::{Priority, Request, Response};
use server::service::{Server, ServerConfig};
use stg::Backend;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The corpus `.g` files shipped under `examples/specs/`.
fn corpus_texts() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "g"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the corpus specs are exported");
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable spec"))
        .collect()
}

/// Valid protocol lines of every request and response shape.
fn valid_lines() -> Vec<String> {
    let spec = stg::parse::write_g(&stg::examples::vme_read());
    let spec_json = asyncsynth::json::escape(&spec);
    vec![
        format!(r#"{{"op":"synth","spec":{spec_json},"backend":"symbolic-set","arch":"celement","csc_threads":2,"csc_bound":1000,"fanin":3,"events":true}}"#),
        format!(r#"{{"op":"check","spec":{spec_json},"priority":"high"}}"#),
        format!(r#"{{"op":"batch","specs":[{spec_json},{spec_json}],"csc":"insertion"}}"#),
        r#"{"op":"status"}"#.to_owned(),
        r#"{"op":"metrics"}"#.to_owned(),
        r#"{"op":"cancel","job":17}"#.to_owned(),
        r#"{"op":"shutdown"}"#.to_owned(),
        r#"{"type":"accepted","job":3,"key":"ab12"}"#.to_owned(),
        r#"{"type":"rejected","reason":"queue full","queue_depth":9,"retry_after_ms":40}"#
            .to_owned(),
        r#"{"type":"event","job":3,"stage":"csc","message":"sweep"}"#.to_owned(),
        r#"{"type":"result","job":3,"cache":"miss","summary":{"model":"m","states":14}}"#
            .to_owned(),
        r#"{"type":"check_result","job":4,"cache":"hit","report":{"bounded":true}}"#.to_owned(),
        r#"{"type":"batch_result","job":5,"results":[{"ok":true},null]}"#.to_owned(),
        r#"{"type":"error","job":6,"message":"bad spec"}"#.to_owned(),
        r#"{"type":"status","queued":1,"shed":0,"cache":{"hits":1,"misses":2,"stores":3,"corrupt":0}}"#
            .to_owned(),
        r#"{"type":"metrics","counters":{"jobs":2},"gauges":{"queued":0}}"#.to_owned(),
        r#"{"type":"cancelled","job":7,"found":true}"#.to_owned(),
        r#"{"type":"shutting_down"}"#.to_owned(),
    ]
}

/// Fragments a mutation may splice in: `.g` directives and punctuation,
/// JSON structure, and numbers at the edges of their types.
const TOKENS: &[&str] = &[
    ".model",
    ".inputs",
    ".outputs",
    ".internal",
    ".dummy",
    ".initial",
    ".graph",
    ".marking",
    ".end",
    "{",
    "}",
    "<",
    ">",
    ",",
    "+",
    "-",
    "/",
    "/0",
    "/99999999999",
    "=",
    "=1",
    " ",
    "\n",
    "a+",
    "a-",
    "p0",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    ":",
    "[",
    "]",
    "null",
    "true",
    "-0",
    "1e999",
    "18446744073709551616",
    "9007199254740993",
    "-1",
    "0.5",
];

/// Applies `edits` random byte-level edits to `text`: overwrite, delete
/// a range, duplicate a range, or splice in a token.
fn mutate(text: &str, edits: &[(u8, usize, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, len, byte) in edits {
        let at = if bytes.is_empty() {
            0
        } else {
            at % bytes.len()
        };
        let end = (at + len % 64).min(bytes.len());
        match kind % 4 {
            0 => {
                if at < bytes.len() {
                    bytes[at] = byte;
                }
            }
            1 => {
                bytes.drain(at..end);
            }
            2 => {
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let token = TOKENS[usize::from(byte) % TOKENS.len()].as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize, u8)>> {
    proptest::collection::vec(
        (any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>()),
        1..8,
    )
}

/// Parses a `.g` text and, when it parses, builds its state space under
/// a small bound: both may fail, neither may panic.
fn parse_and_build(text: &str) {
    if let Ok(spec) = stg::parse::parse_g(text) {
        let _ = Backend::Explicit.build_bounded(&spec, 10_000);
    }
}

fn parse_both(line: &str) {
    let _ = Request::parse_line(line);
    let _ = Response::parse_line(line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn arbitrary_bytes_never_panic_the_g_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        parse_and_build(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_corpus_specs_never_panic_the_reader_or_the_build(
        pick in any::<usize>(),
        edits in edits(),
    ) {
        let texts = corpus_texts();
        parse_and_build(&mutate(&texts[pick % texts.len()], &edits));
    }

    #[test]
    fn arbitrary_lines_never_panic_the_protocol(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_protocol_lines_never_panic_the_protocol(
        pick in any::<usize>(),
        edits in edits(),
    ) {
        let lines = valid_lines();
        parse_both(&mutate(&lines[pick % lines.len()], &edits));
    }
}

#[test]
fn valid_inputs_parse() {
    for text in corpus_texts() {
        assert!(stg::parse::parse_g(&text).is_ok(), "corpus spec parses");
    }
    for line in valid_lines() {
        assert!(
            Request::parse_line(&line).is_ok() || Response::parse_line(&line).is_ok(),
            "{line}"
        );
    }
}

#[test]
fn line_sized_strings_parse_in_linear_time() {
    // A spec string at the service's 4 MiB line cap: a parser that
    // rescans the rest of the line per character takes minutes here.
    let spec = "x".repeat(4 << 20);
    let line = format!(r#"{{"op":"check","spec":"{spec}"}}"#);
    let start = std::time::Instant::now();
    match Request::parse_line(&line) {
        Ok(Request::Check { spec_text, .. }) => assert_eq!(spec_text.len(), spec.len()),
        other => panic!("expected a check request, got {other:?}"),
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "parsing a 4 MiB line took {:?}",
        start.elapsed()
    );
}

#[test]
fn deeply_nested_lines_are_rejected_not_overflowed() {
    for open in ["[", "{\"a\":"] {
        let line = open.repeat(200_000);
        assert!(Request::parse_line(&line).is_err());
        assert!(Response::parse_line(&line).is_err());
    }
}

/// `cases()` protocol lines for the live daemon, each flattened onto one
/// wire line: a third arbitrary bytes, a third mutated valid lines, and
/// a third well-formed `synth` requests carrying a mutated `vme_read`
/// specification (so jobs, not just the parser, see junk). Lines that
/// still parse as `shutdown` are left out: they would stop the daemon
/// under test.
fn live_lines() -> Vec<String> {
    let mut rng = TestRng::from_name("live_daemon_lines");
    let arbitrary = proptest::collection::vec(any::<u8>(), 0..256);
    let valid = valid_lines();
    let spec = stg::parse::write_g(&stg::examples::vme_read());
    (0..cases())
        .map(|case| {
            let line = match case % 3 {
                0 => String::from_utf8_lossy(&arbitrary.generate(&mut rng)).into_owned(),
                1 => {
                    let pick = valid[rng.below(valid.len())].as_str();
                    mutate(pick, &edits().generate(&mut rng))
                }
                _ => {
                    let spec = mutate(&spec, &edits().generate(&mut rng));
                    format!(
                        r#"{{"op":"synth","spec":{}}}"#,
                        asyncsynth::json::escape(&spec)
                    )
                }
            };
            line.replace('\n', " ")
        })
        .filter(|line| !matches!(Request::parse_line(line), Ok(Request::Shutdown)))
        .collect()
}

/// Reads one response line; a read timeout or a closed connection fails
/// the test.
fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("daemon stopped answering: {e}"));
        assert!(n > 0, "daemon closed the connection");
        if !line.trim().is_empty() {
            return Response::parse_line(&line).expect("well-formed response");
        }
    }
}

fn assert_verified(response: &Response) {
    let Response::Result { summary, .. } = response else {
        panic!("expected a result, got {response:?}");
    };
    assert_eq!(
        summary.get("verification").and_then(Json::as_str),
        Some("passed"),
        "{summary}"
    );
}

#[test]
fn live_daemon_answers_every_line_and_keeps_serving() {
    let server = Server::bind(
        "127.0.0.1:0",
        &ServerConfig {
            workers: 2,
            cache_dir: None,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let daemon = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    let lines = live_lines();
    for line in &lines {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send line");
    }
    // Every non-blank line gets exactly one immediate reply, in line
    // order; every accepted job later gets exactly one terminal reply.
    let owed_replies = lines.iter().filter(|l| !l.trim().is_empty()).count();
    let mut replies = 0;
    let mut accepted = HashSet::new();
    let mut finished = HashSet::new();
    while replies < owed_replies || accepted.len() > finished.len() {
        match read_response(&mut reader) {
            Response::Event { .. } => {}
            Response::Accepted { job, .. } => {
                replies += 1;
                accepted.insert(job);
            }
            Response::Result { job, .. }
            | Response::CheckResult { job, .. }
            | Response::BatchResult { job, .. }
            | Response::Error { job: Some(job), .. } => {
                assert!(finished.insert(job), "job {job} finished twice");
            }
            _ => replies += 1,
        }
    }
    assert!(finished.is_subset(&accepted), "only accepted jobs finish");

    // The connection that sent the junk still synthesises.
    let synth = Request::Synth {
        spec_text: stg::parse::write_g(&stg::examples::vme_read()),
        options: SynthesisOptions::default(),
        priority: Priority::Normal,
        events: false,
    };
    writer
        .write_all(format!("{}\n", synth.render()).as_bytes())
        .expect("send synth");
    assert!(matches!(
        read_response(&mut reader),
        Response::Accepted { .. }
    ));
    assert_verified(&read_response(&mut reader));

    // So does a fresh connection, and no job panicked a worker.
    assert_verified(&client::request(&addr, &synth, |_| {}).expect("fresh synth"));
    match client::request(&addr, &Request::Status, |_| {}).expect("status answered") {
        Response::Status { panicked, .. } => assert_eq!(panicked, 0),
        other => panic!("expected status, got {other:?}"),
    }

    let _ = client::request(&addr, &Request::Shutdown, |_| {});
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}
