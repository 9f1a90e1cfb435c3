//! The corpus replay bench: runs every corpus spec through the full
//! pipeline, diffs the live validation records against the pinned
//! ledger under `corpus/ledger/`, and emits `BENCH_corpus.json` — the
//! perf-trajectory artifact CI uploads.
//!
//! Modes (mutually exclusive, detected from the argument list):
//!
//! * `cargo bench --bench corpus` — full replay: per-family cold
//!   timings (uncached pipeline), warm timings (second pass through a
//!   fresh result cache), both in µs summed from exact durations,
//!   deterministic operation counters, drift gate (non-zero exit on any
//!   verdict/count/digest change; timings are never compared),
//!   `BENCH_corpus.json` (schema `corpus-bench-v3`) written to the repo
//!   root.
//! * `cargo bench --bench corpus -- --pin` — re-evaluates the corpus
//!   and rewrites the pinned ledger records instead of gating.
//! * `cargo test` (the harness passes `--test`) — smoke mode: replays
//!   the two cheapest families against the ledger, writes nothing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use asyncsynth::summary::counters_to_json;
use asyncsynth::telemetry::Counters;
use asyncsynth::{Json, ResultCache, SynthesisOptions};
use corpus::ledger::{self, LedgerRecord};

/// Families cheap enough for the debug-build smoke pass.
const SMOKE_FAMILIES: [&str; 2] = ["vme", "gimport"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Deterministic per-family counters plus wall-clock timings.
#[derive(Default)]
struct FamilyStats {
    specs: usize,
    synthesized: usize,
    states: u64,
    states_explored: u64,
    /// Exact durations, summed before rounding (a per-spec rounding
    /// used to make cheap families read 0).
    cold: Duration,
    warm: Duration,
    warm_hits: usize,
    /// Sum of every spec's deterministic flow counters — failed flows
    /// included, so families that end `not_implementable` or
    /// `csc_unresolved` still report the exploration they did.
    counters: Counters,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let pin = args.iter().any(|a| a == "--pin");
    let options = SynthesisOptions::default();
    let ledger_root = corpus::ledger_root();

    // Cold pass: evaluate every (selected) spec from scratch.
    let mut live: Vec<LedgerRecord> = Vec::new();
    let mut stats: BTreeMap<String, FamilyStats> = BTreeMap::new();
    let mut specs_by_family: BTreeMap<String, Vec<stg::Stg>> = BTreeMap::new();
    for (family, spec) in corpus::all_specs() {
        if smoke && !SMOKE_FAMILIES.contains(&family) {
            continue;
        }
        let start = Instant::now();
        let record = LedgerRecord::evaluate(family, &spec, &options);
        let entry = stats.entry(family.to_owned()).or_default();
        entry.specs += 1;
        entry.cold += start.elapsed();
        // Aggregate from the record's deterministic metrics, which are
        // captured for every outcome — a family whose specs all fail
        // CSC still reports its states and sweep work instead of zeros.
        entry.states += record.metrics.get("states").unwrap_or(0);
        entry.states_explored += record.metrics.get("states_explored").unwrap_or(0);
        entry.counters.merge(&record.metrics);
        if record.outcome == "synthesized" {
            entry.synthesized += 1;
            specs_by_family
                .entry(family.to_owned())
                .or_default()
                .push(spec);
        }
        live.push(record);
    }

    if pin {
        for record in &live {
            if let Err(e) = ledger::store(&ledger_root, record) {
                eprintln!(
                    "corpus: failed to pin {}/{}: {e}",
                    record.family, record.model
                );
                return ExitCode::FAILURE;
            }
        }
        println!(
            "corpus: pinned {} records under {}",
            live.len(),
            ledger_root.display()
        );
        return ExitCode::SUCCESS;
    }

    // Drift gate: every live record must match its pinned twin exactly
    // (minus wall time), and in full mode the pinned set must not
    // contain records the corpus no longer produces.
    let mut drift: Vec<String> = Vec::new();
    for record in &live {
        let path = ledger::record_path(&ledger_root, &record.family, &record.model);
        match ledger::load(&path) {
            Err(e) => drift.push(format!("{}/{}: {e}", record.family, record.model)),
            Ok(pinned) => {
                for d in pinned.diff(record) {
                    drift.push(format!("{}/{}: {d}", record.family, record.model));
                }
            }
        }
    }
    if !smoke {
        match ledger::load_all(&ledger_root) {
            Err(e) => drift.push(format!("ledger unreadable: {e}")),
            Ok(pinned) => {
                for p in &pinned {
                    if !live
                        .iter()
                        .any(|r| r.family == p.family && r.model == p.model)
                    {
                        drift.push(format!(
                            "{}/{}: pinned record has no corpus spec",
                            p.family, p.model
                        ));
                    }
                }
            }
        }
    }

    // Warm pass: synthesisable specs twice through a fresh result
    // cache; the second pass must be all hits (a deterministic counter,
    // unlike the timing next to it).
    let cache_dir = std::env::temp_dir().join(format!("corpus-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    if let Ok(cache) = ResultCache::open(&cache_dir) {
        for (family, specs) in &specs_by_family {
            for spec in specs {
                let _ = asyncsynth::run_cached(spec, &options, &cache);
            }
            let start = Instant::now();
            let mut hits = 0usize;
            for spec in specs {
                if let Ok(run) = asyncsynth::run_cached(spec, &options, &cache) {
                    if run.outcome == asyncsynth::CacheOutcome::Hit {
                        hits += 1;
                    }
                }
            }
            let entry = stats.entry(family.clone()).or_default();
            entry.warm = start.elapsed();
            entry.warm_hits = hits;
            if hits != specs.len() {
                drift.push(format!(
                    "{family}: warm pass got {hits}/{} cache hits",
                    specs.len()
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    // The trajectory artifact (full mode only — smoke writes nothing).
    if !smoke {
        let bench_path = repo_root().join("BENCH_corpus.json");
        if let Err(e) = std::fs::write(&bench_path, render_bench(&stats, &live).render() + "\n") {
            eprintln!("corpus: failed to write {}: {e}", bench_path.display());
            return ExitCode::FAILURE;
        }
        println!("corpus: wrote {}", bench_path.display());
    }

    for line in &drift {
        eprintln!("corpus drift: {line}");
    }
    if drift.is_empty() {
        println!(
            "corpus: {} records match the pinned ledger{}",
            live.len(),
            if smoke { " (smoke subset)" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "corpus: {} drift line(s) against {}",
            drift.len(),
            ledger_root.display()
        );
        eprintln!("corpus: rebuild the ledger with: cargo bench --bench corpus -- --pin");
        ExitCode::FAILURE
    }
}

fn render_bench(stats: &BTreeMap<String, FamilyStats>, live: &[LedgerRecord]) -> Json {
    let num128 = |n: u128| Json::num(usize::try_from(n).unwrap_or(usize::MAX));
    let num64 = |n: u64| Json::num(usize::try_from(n).unwrap_or(usize::MAX));
    let families: Vec<Json> = stats
        .iter()
        .map(|(name, s)| {
            Json::obj(vec![
                ("family", Json::str(name)),
                ("specs", Json::num(s.specs)),
                ("synthesized", Json::num(s.synthesized)),
                ("states", num64(s.states)),
                ("states_explored", num64(s.states_explored)),
                ("cold_us", num128(s.cold.as_micros())),
                ("warm_us", num128(s.warm.as_micros())),
                ("warm_hits", Json::num(s.warm_hits)),
                ("counters", counters_to_json(&s.counters)),
            ])
        })
        .collect();
    // Per-spec deterministic counters, so counter trends are traceable
    // to individual specs across archived artifacts (`*_ms`/`*_us` fields
    // are informational; drift gating happens against the pinned ledger).
    let records: Vec<Json> = live
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("family", Json::str(&r.family)),
                ("model", Json::str(&r.model)),
                ("outcome", Json::str(&r.outcome)),
                ("metrics", counters_to_json(&r.metrics)),
                ("wall_ms", num64(r.wall_ms)),
            ])
        })
        .collect();
    let outcome_count = |outcome: &str| live.iter().filter(|r| r.outcome == outcome).count();
    Json::obj(vec![
        ("schema", Json::str("corpus-bench-v3")),
        ("specs", Json::num(live.len())),
        ("families", Json::Arr(families)),
        ("records", Json::Arr(records)),
        (
            "outcomes",
            Json::obj(vec![
                ("synthesized", Json::num(outcome_count("synthesized"))),
                (
                    "not_implementable",
                    Json::num(outcome_count("not_implementable")),
                ),
                ("csc_unresolved", Json::num(outcome_count("csc_unresolved"))),
                (
                    "candidates_exhausted",
                    Json::num(outcome_count("candidates_exhausted")),
                ),
            ]),
        ),
    ])
}
