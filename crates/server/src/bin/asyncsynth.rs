//! Command-line front end: check, synthesise and inspect STGs in the `.g`
//! (astg/petrify) format, and run or talk to the synthesis service.
//!
//! ```text
//! asyncsynth check  <file.g> [--backend B] [--json]     # §2.1 implementability report
//! asyncsynth synth  <file.g> [options]                  # full flow, prints equations+netlist
//! asyncsynth wave   <file.g> [--json]                   # one canonical cycle as waveforms
//! asyncsynth reduce <file.g> [--backend B] [--json]     # structural reductions + invariants
//! asyncsynth serve  [--port N | --stdio] [--workers N] [--cache DIR]
//!                   [--queue-capacity N] [--max-jobs-per-client N] [--idle-timeout-ms N]
//! asyncsynth submit <file.g> [--host H] [--port N] [options] [--events]
//! asyncsynth submit <dir>    [--host H] [--port N] [options]   # batch every .g in dir
//!
//! serve options:
//!   --queue-capacity N                      weighted queue capacity (default 256, 0 = unbounded)
//!   --max-jobs-per-client N                 live jobs per connection (default 64, 0 = no quota)
//!   --idle-timeout-ms N                     reap idle connections after N ms (default 120000, 0 = never)
//!
//! submit options (besides the synth options below):
//!   --priority high|normal|low              admission class (default: normal)
//!   --retries N                             retries after a rejected response (default 4)
//!   --backoff-ms N                          base retry backoff, doubling per attempt (default 50)
//!
//! synth options:
//!   --arch complex|celement|rs|decomposed   (default: complex)
//!   --backend explicit|symbolic-set         (default: explicit)
//!   --csc auto|insertion|reduction|fail     (default: auto)
//!   --csc-threads N                         CSC sweep workers (0 = per core)
//!   --csc-bound N                           CSC per-candidate state bound
//!   --fanin N                               (decomposed fan-in bound)
//!   --assume "a<b"                          relative-timing assumption
//!   --cache DIR                             content-addressed result cache
//!   --trace FILE                            write the run's span-tree JSON
//!   --no-verify                             skip exhaustive verification
//!   --verify-bound N                        composed-state limit of the verifier
//!   --json                                  machine-readable output
//! ```
//!
//! `serve` speaks newline-delimited JSON on TCP (default port 7832) or
//! stdio; `submit` is the matching client. See the `server` crate docs
//! and README for the message schema.

use std::process::ExitCode;

use asyncsynth::summary::report_to_json;
use asyncsynth::{
    run_cached, run_cached_with, CacheOutcome, Json, ResultCache, Synthesis, SynthesisSummary,
    TraceBuilder,
};
use server::flags::parse_flags;
use server::protocol::Response;
use server::service::{serve_stdio, Server, ServerConfig};
use stg::parse::parse_g;

/// Default TCP port of `serve`/`submit`.
const DEFAULT_PORT: u16 = 7832;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let usage = "usage: asyncsynth <check|synth|wave|reduce|serve|submit> [<file.g>] [options]";
    let cmd = args.first().ok_or(usage)?;
    if cmd == "serve" {
        return serve(&args[1..]);
    }
    let path = args.get(1).ok_or(usage)?;
    if cmd == "submit" && std::fs::metadata(path).is_ok_and(|m| m.is_dir()) {
        return submit_dir(path, &args[2..]);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if cmd == "submit" {
        return submit(&text, &args[2..]);
    }
    let spec = parse_g(&text).map_err(|e| format!("{path}: {e}"))?;
    match cmd.as_str() {
        "check" => check(&spec, &args[2..]),
        "synth" => synth(&spec, &args[2..]),
        "wave" => wave(&spec, &args[2..]),
        "reduce" => reduce(&spec, &args[2..]),
        other => Err(format!("unknown command {other:?}\n{usage}")),
    }
}

// -------------------------------------------------------------------
// check
// -------------------------------------------------------------------

/// Conflict pairs listed in full; beyond this the listing truncates
/// (and is skipped entirely when even *enumerating* the duplicated-code
/// classes would decode an unreasonable number of states on the
/// resident-BDD backend). The report's counts are always exact.
const MAX_LISTED_CONFLICTS: usize = 256;

/// Duplication excess (states minus distinct codes — a lower bound on
/// the same-code pair count) beyond which witness enumeration is not
/// attempted at all.
const MAX_ENUMERATED_EXCESS: u128 = 4096;

fn check(spec: &stg::Stg, opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(opts, &["--backend", "--json"])?;
    let (report, conflicts, truncated) = match flags.backend.build(spec) {
        Ok(space) => {
            let report = space.report(spec);
            // Witness extraction enumerates every duplicated-code class
            // (USC pairs, not just CSC ones) and decodes their states;
            // gate on the duplication excess — a lower bound on the
            // same-code pair count — so a large USC-violating space
            // never decodes, whatever its CSC verdict. Within the gate,
            // list the first MAX_LISTED_CONFLICTS pairs and say when the
            // listing is cut; the report's counts are always exact.
            let (conflicts, truncated) = if space.duplication_excess() <= MAX_ENUMERATED_EXCESS {
                let mut all = space.csc_conflicts(spec);
                let truncated = all.len() > MAX_LISTED_CONFLICTS;
                all.truncate(MAX_LISTED_CONFLICTS);
                (all, truncated)
            } else {
                (Vec::new(), report.csc_conflict_pairs > 0)
            };
            (report, conflicts, truncated)
        }
        Err(e) => (stg::properties::failure_report(e), Vec::new(), false),
    };
    if flags.json {
        let conflict_json: Vec<Json> = conflicts
            .iter()
            .map(|c| {
                Json::obj(vec![
                    (
                        "states",
                        Json::Arr(vec![Json::num(c.states.0), Json::num(c.states.1)]),
                    ),
                    (
                        "code",
                        Json::str(
                            c.code
                                .iter()
                                .map(|&b| if b { '1' } else { '0' })
                                .collect::<String>(),
                        ),
                    ),
                ])
            })
            .collect();
        let out = Json::obj(vec![
            ("model", Json::str(spec.name())),
            ("backend", Json::str(flags.backend.name())),
            ("report", report_to_json(&report)),
            ("conflicts", Json::Arr(conflict_json)),
            ("conflicts_truncated", Json::Bool(truncated)),
        ]);
        println!("{}", out.render());
    } else {
        println!("model: {}", spec.name());
        println!("backend: {}", flags.backend);
        println!("{report}");
        let listed = conflicts.len();
        for c in conflicts {
            let code: String = c.code.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!(
                "  CSC conflict: states s{} / s{} share code {code}",
                c.states.0, c.states.1
            );
        }
        if truncated {
            println!(
                "  ({} CSC conflict pair(s) total; listing cut after {listed})",
                report.csc_conflict_pairs
            );
        }
    }
    Ok(())
}

// -------------------------------------------------------------------
// synth
// -------------------------------------------------------------------

fn synth(spec: &stg::Stg, opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        opts,
        &[
            "--arch",
            "--backend",
            "--csc",
            "--csc-threads",
            "--csc-bound",
            "--fanin",
            "--assume",
            "--cache",
            "--trace",
            "--no-verify",
            "--verify-bound",
            "--json",
        ],
    )?;
    let options = flags.options();
    let spec = if flags.assumptions.is_empty() {
        spec.clone()
    } else {
        timing::apply_assumptions(spec, &flags.assumptions).map_err(|e| e.to_string())?
    };
    let (summary, outcome) = if let Some(trace_path) = &flags.trace {
        // The traced path routes everything through the observed cached
        // runner; the span-tree artifact is written on failures too (a
        // failed flow's exploration is exactly what one wants to see).
        let cache = match &flags.cache_dir {
            Some(dir) => {
                Some(ResultCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?)
            }
            None => None,
        };
        let mut trace = TraceBuilder::new();
        let result = run_cached_with(&spec, &options, cache.as_ref(), &mut trace);
        let span = match &result {
            Ok(run) => trace.finish(run.summary.metrics.clone(), run.advisory.clone()),
            Err(e) => trace.finish_failed(e),
        };
        std::fs::write(trace_path, span.render() + "\n")
            .map_err(|e| format!("trace {}: {e}", trace_path.display()))?;
        let run = result.map_err(|e| e.to_string())?;
        (run.summary, run.outcome)
    } else {
        match &flags.cache_dir {
            Some(dir) => {
                let cache =
                    ResultCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
                let run = run_cached(&spec, &options, &cache).map_err(|e| e.to_string())?;
                (run.summary, run.outcome)
            }
            None => {
                let verified = Synthesis::with_options(spec, options.clone())
                    .run()
                    .map_err(|e| e.to_string())?;
                (
                    SynthesisSummary::from_verified(&verified, &options),
                    CacheOutcome::Disabled,
                )
            }
        }
    };
    if flags.json {
        println!("{}", summary_with_cache(&summary, outcome.name()).render());
    } else {
        print_summary(&summary, outcome);
    }
    Ok(())
}

/// The summary JSON with a `cache` field appended.
fn summary_with_cache(summary: &SynthesisSummary, cache: &str) -> Json {
    let mut json = summary.to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.push(("cache".to_owned(), Json::str(cache)));
    }
    json
}

fn print_summary(summary: &SynthesisSummary, outcome: CacheOutcome) {
    println!("model: {}", summary.model);
    println!("backend: {}", summary.backend);
    if outcome != CacheOutcome::Disabled {
        println!("cache: {}", outcome.name());
    }
    if let Some(t) = &summary.transformation {
        println!(
            "csc: {} ({} states): {}",
            t.kind, t.num_states, t.description
        );
    }
    println!("states: {}", summary.num_states);
    println!("\nequations:\n{}", summary.equations);
    println!("\nnetlist:\n{}", summary.netlist);
    match (summary.verification.as_str(), summary.composed_states) {
        ("passed", Some(n)) => {
            println!("verification: speed-independent: OK ({n} composed states)");
        }
        (status, _) => println!("verification: {status}"),
    }
    println!("\nevents:");
    for e in &summary.events {
        println!("  {e}");
    }
}

// -------------------------------------------------------------------
// wave
// -------------------------------------------------------------------

fn wave(spec: &stg::Stg, opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(opts, &["--json"])?;
    // Waveform extraction walks the transition system state by state, so
    // it always renders from the explicit state graph.
    let sg = stg::StateGraph::build(spec).map_err(|e| e.to_string())?;
    let cycle = stg::waveform::canonical_cycle(&sg, 1000);
    if cycle.is_empty() {
        return Err("no cycle through the initial state".to_owned());
    }
    let header = stg::waveform::render_trace_header(spec, &cycle);
    let waves = stg::waveform::render_waveforms(spec, &sg, &cycle);
    if flags.json {
        let out = Json::obj(vec![
            ("model", Json::str(spec.name())),
            ("trace", Json::str(&header)),
            (
                "waveforms",
                Json::Arr(waves.lines().map(Json::str).collect()),
            ),
        ]);
        println!("{}", out.render());
    } else {
        println!("trace: {header}");
        print!("{waves}");
    }
    Ok(())
}

// -------------------------------------------------------------------
// reduce
// -------------------------------------------------------------------

fn reduce(spec: &stg::Stg, opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(opts, &["--backend", "--json"])?;
    // State count of the unreduced specification, per the chosen
    // backend (reductions preserve behaviour; this is the size they
    // save re-exploring).
    let states_before = flags.backend.build(spec).ok().map(|s| s.num_states());
    let (reduced, stats) = petri::reduce::reduce_linear(spec.net().clone());
    let invariants = petri::invariant::place_invariants(&reduced);
    let comps = petri::invariant::sm_components(&reduced);
    if flags.json {
        let out = Json::obj(vec![
            ("model", Json::str(spec.name())),
            ("backend", Json::str(flags.backend.name())),
            ("states", states_before.map_or(Json::Null, Json::num)),
            ("places", Json::num(reduced.num_places())),
            ("transitions", Json::num(reduced.num_transitions())),
            ("rule_applications", Json::num(stats.total())),
            (
                "invariants",
                Json::Arr(
                    invariants
                        .iter()
                        .map(|inv| Json::str(inv.display(&reduced).to_string()))
                        .collect(),
                ),
            ),
            ("sm_components", Json::num(comps.len())),
        ]);
        println!("{}", out.render());
    } else {
        if let Some(n) = states_before {
            println!("states ({}): {n}", flags.backend);
        }
        println!(
            "reduced: {} places, {} transitions ({} rule applications)",
            reduced.num_places(),
            reduced.num_transitions(),
            stats.total()
        );
        print!("{}", reduced.describe());
        println!("\nplace invariants:");
        for inv in &invariants {
            println!("  {}", inv.display(&reduced));
        }
        println!("state-machine components: {}", comps.len());
    }
    Ok(())
}

// -------------------------------------------------------------------
// serve / submit
// -------------------------------------------------------------------

fn serve(opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        opts,
        &[
            "--port",
            "--stdio",
            "--workers",
            "--cache",
            "--queue-capacity",
            "--max-jobs-per-client",
            "--idle-timeout-ms",
        ],
    )?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: flags.workers.unwrap_or(defaults.workers),
        cache_dir: flags.cache_dir.clone(),
        queue_capacity: flags.queue_capacity.unwrap_or(defaults.queue_capacity),
        max_jobs_per_client: flags
            .max_jobs_per_client
            .unwrap_or(defaults.max_jobs_per_client),
        idle_timeout_ms: flags.idle_timeout_ms.unwrap_or(defaults.idle_timeout_ms),
        ..defaults
    };
    if flags.stdio {
        return serve_stdio(&config).map_err(|e| e.to_string());
    }
    let port = flags.port.unwrap_or(DEFAULT_PORT);
    let server = Server::bind(&format!("127.0.0.1:{port}"), &config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // One readiness line, NDJSON like everything else, so scripts can
    // wait for the port.
    println!(
        "{}",
        Json::obj(vec![
            ("type", Json::str("serving")),
            ("addr", Json::str(addr.to_string())),
            ("workers", Json::num(config.workers)),
            ("queue_capacity", Json::num(config.queue_capacity)),
            (
                "cache",
                config
                    .cache_dir
                    .as_ref()
                    .map_or(Json::Null, |d| Json::str(d.display().to_string())),
            ),
        ])
        .render()
    );
    server.run().map_err(|e| e.to_string())
}

fn submit(spec_text: &str, opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        opts,
        &[
            "--host",
            "--port",
            "--arch",
            "--backend",
            "--csc",
            "--csc-threads",
            "--csc-bound",
            "--fanin",
            "--no-verify",
            "--verify-bound",
            "--events",
            "--priority",
            "--retries",
            "--backoff-ms",
            "--json",
        ],
    )?;
    let addr = format!("{}:{}", flags.host, flags.port.unwrap_or(DEFAULT_PORT));
    let json = flags.json;
    let final_response = server::client::submit_synth_with(
        &addr,
        spec_text,
        &flags.options(),
        flags.priority,
        &flags.client_options(),
        flags.events,
        |response| match response {
            Response::Accepted { job, key } => {
                if json {
                    println!("{}", response.to_json().render());
                } else {
                    match key {
                        Some(key) => println!("job {job} accepted (key {key})"),
                        None => println!("job {job} accepted"),
                    }
                }
            }
            Response::Event { stage, message, .. } => {
                if json {
                    println!("{}", response.to_json().render());
                } else {
                    println!("[{stage}] {message}");
                }
            }
            Response::Rejected {
                reason,
                queue_depth,
                retry_after_ms,
            } => {
                if json {
                    println!("{}", response.to_json().render());
                } else {
                    println!(
                        "rejected ({reason}, queue depth {queue_depth}); \
                         retrying in ~{retry_after_ms} ms"
                    );
                }
            }
            _ => {}
        },
    )?;
    match final_response {
        Response::Result { cache, summary, .. } => {
            let decoded = SynthesisSummary::from_json(&summary)?;
            if json {
                println!("{}", summary_with_cache(&decoded, &cache).render());
            } else {
                let outcome = match cache.as_str() {
                    "hit" => CacheOutcome::Hit,
                    "csc_resumed" => CacheOutcome::CscResumed,
                    "miss" => CacheOutcome::Miss,
                    _ => CacheOutcome::Disabled,
                };
                print_summary(&decoded, outcome);
            }
            Ok(())
        }
        other => Err(format!("unexpected final response: {other:?}")),
    }
}

/// `submit <dir>`: every `.g` file of the directory (sorted by name) as
/// one batch job. Per-spec pipeline failures are reported entry by
/// entry and do not fail the command — a corpus directory legitimately
/// contains non-implementable specifications.
fn submit_dir(dir: &str, opts: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        opts,
        &[
            "--host",
            "--port",
            "--arch",
            "--backend",
            "--csc",
            "--csc-threads",
            "--csc-bound",
            "--fanin",
            "--no-verify",
            "--verify-bound",
            "--priority",
            "--retries",
            "--backoff-ms",
            "--json",
        ],
    )?;
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "g"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no .g files"));
    }
    let texts: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    let addr = format!("{}:{}", flags.host, flags.port.unwrap_or(DEFAULT_PORT));
    let json = flags.json;
    let final_response = server::client::submit_batch_with(
        &addr,
        &texts,
        &flags.options(),
        flags.priority,
        &flags.client_options(),
        |response| match response {
            Response::Accepted { job, .. } => {
                if json {
                    println!("{}", response.to_json().render());
                } else {
                    println!("batch job {job} accepted ({} specs)", texts.len());
                }
            }
            Response::Rejected {
                reason,
                queue_depth,
                retry_after_ms,
            } => {
                if json {
                    println!("{}", response.to_json().render());
                } else {
                    println!(
                        "batch rejected ({reason}, queue depth {queue_depth}); \
                         retrying in ~{retry_after_ms} ms"
                    );
                }
            }
            _ => {}
        },
    )?;
    match &final_response {
        Response::BatchResult { results, .. } => {
            if json {
                println!("{}", final_response.to_json().render());
            } else {
                let mut synthesized = 0usize;
                for entry in results {
                    let model = entry.get("model").and_then(Json::as_str).unwrap_or("?");
                    let cache = entry.get("cache").and_then(Json::as_str).unwrap_or("?");
                    match entry.get("error").and_then(Json::as_str) {
                        Some(error) => println!("  {model}: error: {error}"),
                        None => {
                            synthesized += 1;
                            let verification = entry
                                .get("summary")
                                .and_then(|s| s.get("verification"))
                                .and_then(Json::as_str)
                                .unwrap_or("?");
                            println!(
                                "  {model}: synthesized ({cache}, verification {verification})"
                            );
                        }
                    }
                }
                println!(
                    "batch: {synthesized}/{} synthesized, {} failed",
                    results.len(),
                    results.len() - synthesized
                );
            }
            Ok(())
        }
        other => Err(format!("unexpected final response: {other:?}")),
    }
}
