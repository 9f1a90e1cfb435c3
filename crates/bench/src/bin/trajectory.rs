//! `trajectory` — merge archived `BENCH_corpus.json` artifacts into a
//! per-family trend table.
//!
//! CI uploads one `BENCH_corpus.json` per run; this tool lines up any
//! number of them (oldest first, in argument order) and prints how one
//! metric moved per corpus family:
//!
//! ```text
//! trajectory run1/BENCH_corpus.json run2/BENCH_corpus.json [--metric cold_us] [--json]
//! ```
//!
//! `--metric` accepts the per-family timing/count fields (`cold_us`, the
//! default, `warm_us`, `specs`, `synthesized`, `states`,
//! `states_explored`, `warm_hits`, and the pre-v3 `cold_ms`/`warm_ms`) or,
//! from `corpus-bench-v2` on, any deterministic counter name from the
//! family's `counters` object (`primes`, `sweep_evaluated`,
//! `verify_runs`, …). Artifacts before `corpus-bench-v3` record whole
//! milliseconds: their `cold_us`/`warm_us` read as `cold_ms`/`warm_ms`
//! × 1000. Families absent from an artifact (or metrics predating the v2
//! schema) show as `-`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use asyncsynth::Json;

/// Per-family timing/count fields (`cold_us`/`warm_us` from v3 on,
/// `cold_ms`/`warm_ms` before it).
const FAMILY_FIELDS: [&str; 9] = [
    "specs",
    "synthesized",
    "states",
    "states_explored",
    "cold_us",
    "warm_us",
    "cold_ms",
    "warm_ms",
    "warm_hits",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut metric = "cold_us".to_owned();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metric" => {
                i += 1;
                match args.get(i) {
                    Some(name) => metric = name.clone(),
                    None => {
                        eprintln!("trajectory: --metric needs a value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json = true,
            other => paths.push(other.to_owned()),
        }
        i += 1;
    }
    if paths.is_empty() {
        eprintln!(
            "usage: trajectory <BENCH_corpus.json>... [--metric NAME] [--json]\n\
             fields: {} or any v2 counter name",
            FAMILY_FIELDS.join(", ")
        );
        return ExitCode::FAILURE;
    }

    // family → per-artifact value (None where absent).
    let mut table: BTreeMap<String, Vec<Option<u64>>> = BTreeMap::new();
    for (idx, path) in paths.iter().enumerate() {
        let artifact = match load_artifact(path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("trajectory: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (family, value) in family_metric(&artifact, &metric) {
            let row = table
                .entry(family)
                .or_insert_with(|| vec![None; paths.len()]);
            row[idx] = value;
        }
    }
    if table.is_empty() {
        eprintln!("trajectory: no families found in the given artifacts");
        return ExitCode::FAILURE;
    }

    if json {
        let families: Vec<Json> = table
            .iter()
            .map(|(family, values)| {
                Json::obj(vec![
                    ("family", Json::str(family)),
                    (
                        "values",
                        Json::Arr(
                            values
                                .iter()
                                .map(|v| {
                                    v.map_or(Json::Null, |n| {
                                        Json::num(usize::try_from(n).unwrap_or(usize::MAX))
                                    })
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let out = Json::obj(vec![
            ("schema", Json::str("corpus-trajectory-v1")),
            ("metric", Json::str(&metric)),
            (
                "artifacts",
                Json::Arr(paths.iter().map(Json::str).collect()),
            ),
            ("families", Json::Arr(families)),
        ]);
        println!("{}", out.render());
    } else {
        print_table(&metric, &paths, &table);
    }
    ExitCode::SUCCESS
}

fn load_artifact(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let v = Json::parse(&text).map_err(|e| format!("malformed JSON: {e}"))?;
    match v.get("schema").and_then(Json::as_str) {
        Some(s) if s.starts_with("corpus-bench-") => Ok(v),
        Some(other) => Err(format!("not a corpus bench artifact (schema {other:?})")),
        None => Err("not a corpus bench artifact (no schema field)".to_owned()),
    }
}

/// Extracts `metric` for every family of one artifact: a per-family
/// field when `metric` names one (a µs timing falling back to its
/// pre-v3 ms field), otherwise a `counters` entry (absent in pre-v2
/// artifacts → `None`).
fn family_metric(artifact: &Json, metric: &str) -> Vec<(String, Option<u64>)> {
    let Some(families) = artifact.get("families").and_then(Json::as_arr) else {
        return Vec::new();
    };
    families
        .iter()
        .filter_map(|f| {
            let name = f.get("family").and_then(Json::as_str)?.to_owned();
            let value = if FAMILY_FIELDS.contains(&metric) {
                f.get(metric).and_then(Json::as_u64).or_else(|| {
                    let ms = metric.strip_suffix("_us")?;
                    Some(f.get(&format!("{ms}_ms"))?.as_u64()? * 1000)
                })
            } else {
                f.get("counters")
                    .and_then(|c| c.get(metric))
                    .and_then(Json::as_u64)
            };
            Some((name, value))
        })
        .collect()
}

fn print_table(metric: &str, paths: &[String], table: &BTreeMap<String, Vec<Option<u64>>>) {
    // Column labels: the artifact's file stem is rarely unique across
    // archived runs, so label by position and list the paths up front.
    println!("metric: {metric}");
    for (i, path) in paths.iter().enumerate() {
        println!("  [{i}] {path}");
    }
    let label = |v: &Option<u64>| v.map_or_else(|| "-".to_owned(), |n| n.to_string());
    let width = table.keys().map(String::len).max().unwrap_or(6).max(6);
    let cols: Vec<String> = (0..paths.len()).map(|i| format!("[{i}]")).collect();
    println!("{:<width$}  {}  delta", "family", cols.join("  "));
    for (family, values) in table {
        let cells: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{:>w$}", label(v), w = cols[i].len().max(label(v).len())))
            .collect();
        let delta = match (
            values.first().copied().flatten(),
            values.last().copied().flatten(),
        ) {
            (Some(first), Some(last)) if values.len() > 1 => {
                let diff = i128::from(last) - i128::from(first);
                format!("{diff:+}")
            }
            _ => "-".to_owned(),
        };
        println!("{family:<width$}  {}  {delta}", cells.join("  "));
    }
}
