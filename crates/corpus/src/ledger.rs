//! The validation ledger: one content-addressed, self-verifying record
//! per corpus spec, pinned under `corpus/ledger/<family>/<model>.json`.
//!
//! A record captures everything the flow's determinism guarantees —
//! canonical-STG digest, implementability verdicts, the CSC
//! transformation, equation/netlist digests, the verification verdict,
//! composed-state count and the deterministic operation counters of
//! [`asyncsynth::flow_metrics`] (captured for failed flows too, from
//! the error's event log) — plus an *informational* wall time that is
//! excluded from drift comparison. The on-disk wrapper mirrors
//! [`asyncsynth::ResultCache`] entries: a version tag, a key echo and a
//! payload checksum, so a corrupt or hand-edited record is detected on
//! read instead of silently re-pinning the trajectory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use asyncsynth::summary::{counters_from_json, counters_to_json, report_to_json};
use asyncsynth::telemetry::Counters;
use asyncsynth::{
    flow_metrics, Json, PipelineError, Synthesis, SynthesisOptions, SynthesisSummary,
};
use stg::canon::{digest_bytes, stg_digest};
use stg::Stg;

/// Bump when the record's meaning changes; old ledgers then fail
/// verification loudly instead of drifting quietly.
/// (v2: records pin the deterministic operation counters — the flow's
/// [`asyncsynth::flow_metrics`] set — so counter regressions gate CI
/// like digests do; failed flows keep their exploration counters.)
pub const LEDGER_VERSION: &str = "corpus-ledger-v2";

/// The pinned CSC transformation, reduced to its deterministic core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscPin {
    /// `signal insertion`, `concurrency reduction` or `mixed`.
    pub kind: String,
    /// State count of the transformed specification.
    pub num_states: usize,
}

/// One spec's pinned validation record.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Family (ledger directory) name.
    pub family: String,
    /// Model name (ledger file name).
    pub model: String,
    /// Canonical-STG digest from [`stg::canon::stg_digest`].
    pub stg_digest: String,
    /// Signal count of the original specification.
    pub num_signals: usize,
    /// The §2.1 implementability report, as rendered by
    /// [`asyncsynth::summary::report_to_json`].
    pub check: Json,
    /// Flow outcome: `synthesized`, `not_implementable`,
    /// `csc_unresolved`, `candidates_exhausted`, `verification_failed`
    /// or `synthesis_error`.
    pub outcome: String,
    /// The applied CSC transformation, when the flow synthesised.
    pub csc: Option<CscPin>,
    /// SHA-256 of the pretty-printed equations, when synthesised.
    pub equations_digest: Option<String>,
    /// SHA-256 of the netlist's `describe()` text, when synthesised.
    pub netlist_digest: Option<String>,
    /// Gate count, when synthesised.
    pub num_gates: Option<usize>,
    /// Verification verdict (`passed` or `skipped`), when the
    /// flow reached it.
    pub verification: Option<String>,
    /// Composed states the verifier explored, when it ran.
    pub states_explored: Option<usize>,
    /// Deterministic operation counters ([`asyncsynth::flow_metrics`]),
    /// captured for every outcome — failed flows keep the counters of
    /// the work done up to the failure. Drift-gated like the digests;
    /// advisory counters (BDD nodes, memo hits) never appear here.
    pub metrics: Counters,
    /// Wall-clock milliseconds of the evaluating run — informational
    /// only, excluded from [`LedgerRecord::diff`].
    pub wall_ms: u64,
}

impl LedgerRecord {
    /// Runs the staged flow on `spec` and captures the record.
    ///
    /// The §2.1 report is captured whether or not the spec is
    /// implementable (a pinned `not_implementable` verdict is as much a
    /// regression anchor as a pinned equation digest).
    #[must_use]
    pub fn evaluate(family: &str, spec: &Stg, options: &SynthesisOptions) -> LedgerRecord {
        let start = Instant::now();
        let mut record = LedgerRecord {
            family: family.to_owned(),
            model: spec.name().to_owned(),
            stg_digest: stg_digest(spec).to_hex(),
            num_signals: spec.num_signals(),
            check: Json::Null,
            outcome: String::new(),
            csc: None,
            equations_digest: None,
            netlist_digest: None,
            num_gates: None,
            verification: None,
            states_explored: None,
            metrics: Counters::new(),
            wall_ms: 0,
        };
        match Synthesis::with_options(spec.clone(), options.clone()).check() {
            Err(PipelineError::NotImplementable(report)) => {
                record.check = report_to_json(&report);
                record.outcome = "not_implementable".to_owned();
                // The check stage's error drops its event log, but the
                // report still carries the exploration the flow did —
                // keep it so failed families never pin all-zero work.
                record.metrics.set("states", report.num_states as u64);
                record
                    .metrics
                    .set("csc_conflicts", report.csc_conflict_pairs as u64);
            }
            Err(e) => {
                record.outcome = outcome_name(&e).to_owned();
                record.metrics = flow_metrics(e.events());
            }
            Ok(checked) => {
                record.check = report_to_json(checked.report());
                match checked
                    .resolve_csc()
                    .and_then(asyncsynth::CscResolved::synthesize)
                    .and_then(asyncsynth::Synthesized::verify)
                {
                    Ok(verified) => {
                        let summary = SynthesisSummary::from_verified(&verified, options);
                        record.outcome = "synthesized".to_owned();
                        record.csc = summary.transformation.as_ref().map(|t| CscPin {
                            kind: t.kind.clone(),
                            num_states: t.num_states,
                        });
                        record.equations_digest =
                            Some(digest_bytes(summary.equations.as_bytes()).to_hex());
                        record.netlist_digest =
                            Some(digest_bytes(summary.netlist.as_bytes()).to_hex());
                        record.num_gates = Some(summary.num_gates);
                        record.verification = Some(summary.verification.clone());
                        record.states_explored = summary.composed_states;
                        record.metrics = summary.metrics.clone();
                    }
                    Err(e) => {
                        record.outcome = outcome_name(&e).to_owned();
                        record.metrics = flow_metrics(e.events());
                    }
                }
            }
        }
        record.wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        record
    }

    /// Encodes the record payload as JSON (deterministic field order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt_str = |s: &Option<String>| s.as_ref().map_or(Json::Null, Json::str);
        let opt_num = |n: Option<usize>| n.map_or(Json::Null, Json::num);
        Json::obj(vec![
            ("family", Json::str(&self.family)),
            ("model", Json::str(&self.model)),
            ("stg_digest", Json::str(&self.stg_digest)),
            ("signals", Json::num(self.num_signals)),
            ("check", self.check.clone()),
            ("outcome", Json::str(&self.outcome)),
            (
                "csc",
                self.csc.as_ref().map_or(Json::Null, |c| {
                    Json::obj(vec![
                        ("kind", Json::str(&c.kind)),
                        ("states", Json::num(c.num_states)),
                    ])
                }),
            ),
            ("equations_digest", opt_str(&self.equations_digest)),
            ("netlist_digest", opt_str(&self.netlist_digest)),
            ("gates", opt_num(self.num_gates)),
            ("verification", opt_str(&self.verification)),
            ("states_explored", opt_num(self.states_explored)),
            ("metrics", counters_to_json(&self.metrics)),
            #[allow(clippy::cast_precision_loss)]
            ("wall_ms", Json::Num(self.wall_ms as f64)),
        ])
    }

    /// Decodes a record from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<LedgerRecord, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(ToOwned::to_owned)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let opt_str = |key: &str| v.get(key).and_then(Json::as_str).map(ToOwned::to_owned);
        let opt_num = |key: &str| v.get(key).and_then(Json::as_usize);
        let csc = match v.get("csc") {
            None | Some(Json::Null) => None,
            Some(c) => Some(CscPin {
                kind: c
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("missing csc.kind")?
                    .to_owned(),
                num_states: c
                    .get("states")
                    .and_then(Json::as_usize)
                    .ok_or("missing csc.states")?,
            }),
        };
        Ok(LedgerRecord {
            family: str_field("family")?,
            model: str_field("model")?,
            stg_digest: str_field("stg_digest")?,
            num_signals: opt_num("signals").ok_or("missing numeric field \"signals\"")?,
            check: v.get("check").cloned().unwrap_or(Json::Null),
            outcome: str_field("outcome")?,
            csc,
            equations_digest: opt_str("equations_digest"),
            netlist_digest: opt_str("netlist_digest"),
            num_gates: opt_num("gates"),
            verification: opt_str("verification"),
            states_explored: opt_num("states_explored"),
            metrics: counters_from_json(v.get("metrics").ok_or("missing metrics object")?)?,
            wall_ms: v.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Field-level drift against another record, ignoring `wall_ms`
    /// (wall-clock-tolerant, everything else exact). Empty = no drift.
    #[must_use]
    pub fn diff(&self, other: &LedgerRecord) -> Vec<String> {
        let mut drift = Vec::new();
        let mut field = |name: &str, a: String, b: String| {
            if a != b {
                drift.push(format!("{name}: {a} != {b}"));
            }
        };
        field("family", self.family.clone(), other.family.clone());
        field("model", self.model.clone(), other.model.clone());
        field(
            "stg_digest",
            self.stg_digest.clone(),
            other.stg_digest.clone(),
        );
        field(
            "signals",
            self.num_signals.to_string(),
            other.num_signals.to_string(),
        );
        field("check", self.check.render(), other.check.render());
        field("outcome", self.outcome.clone(), other.outcome.clone());
        field("csc", format!("{:?}", self.csc), format!("{:?}", other.csc));
        field(
            "equations_digest",
            format!("{:?}", self.equations_digest),
            format!("{:?}", other.equations_digest),
        );
        field(
            "netlist_digest",
            format!("{:?}", self.netlist_digest),
            format!("{:?}", other.netlist_digest),
        );
        field(
            "gates",
            format!("{:?}", self.num_gates),
            format!("{:?}", other.num_gates),
        );
        field(
            "verification",
            format!("{:?}", self.verification),
            format!("{:?}", other.verification),
        );
        field(
            "states_explored",
            format!("{:?}", self.states_explored),
            format!("{:?}", other.states_explored),
        );
        field("metrics", self.metrics.render(), other.metrics.render());
        drift
    }
}

/// The canonical outcome name of a pipeline error.
#[must_use]
pub fn outcome_name(e: &PipelineError) -> &'static str {
    match e {
        PipelineError::NotImplementable(_) => "not_implementable",
        PipelineError::CscUnresolved { .. } => "csc_unresolved",
        PipelineError::CandidatesExhausted { .. } => "candidates_exhausted",
        PipelineError::VerificationFailed(_) => "verification_failed",
        PipelineError::Synthesis(_) => "synthesis_error",
        PipelineError::Cancelled => "cancelled",
    }
}

// ---------------------------------------------------------------------
// On-disk format (self-verifying, ResultCache-style)
// ---------------------------------------------------------------------

/// The ledger file of one record: `<root>/<family>/<model>.json`.
#[must_use]
pub fn record_path(root: &Path, family: &str, model: &str) -> PathBuf {
    root.join(family).join(format!("{model}.json"))
}

/// Writes a record atomically (tmp + rename), wrapped in the
/// self-verifying envelope.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn store(root: &Path, record: &LedgerRecord) -> io::Result<()> {
    let payload = record.to_json();
    let rendered = payload.render();
    let entry = Json::obj(vec![
        ("version", Json::str(LEDGER_VERSION)),
        ("key", Json::str(&record.stg_digest)),
        (
            "checksum",
            Json::str(digest_bytes(rendered.as_bytes()).to_hex()),
        ),
        ("payload", payload),
    ]);
    let path = record_path(root, &record.family, &record.model);
    let dir = path.parent().expect("record path has a parent");
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{}.tmp-{}", record.model, std::process::id()));
    fs::write(&tmp, entry.render() + "\n")?;
    fs::rename(&tmp, &path)
}

/// Reads and verifies one record file.
///
/// # Errors
///
/// Unreadable file, malformed JSON, version mismatch, checksum or key
/// mismatch — each with the offending path in the message.
pub fn load(path: &Path) -> Result<LedgerRecord, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    let entry =
        Json::parse(text.trim()).map_err(|e| format!("{}: malformed: {e}", path.display()))?;
    let version = entry.get("version").and_then(Json::as_str).unwrap_or("");
    if version != LEDGER_VERSION {
        return Err(format!(
            "{}: version {version:?}, expected {LEDGER_VERSION:?}",
            path.display()
        ));
    }
    let payload = entry
        .get("payload")
        .ok_or_else(|| format!("{}: missing payload", path.display()))?;
    let rendered = payload.render();
    let checksum = digest_bytes(rendered.as_bytes()).to_hex();
    if entry.get("checksum").and_then(Json::as_str) != Some(&checksum) {
        return Err(format!("{}: checksum mismatch", path.display()));
    }
    let record = LedgerRecord::from_json(payload)
        .map_err(|e| format!("{}: bad payload: {e}", path.display()))?;
    if entry.get("key").and_then(Json::as_str) != Some(&record.stg_digest) {
        return Err(format!("{}: key echo mismatch", path.display()));
    }
    Ok(record)
}

/// Loads the whole ledger under `root`, sorted by (family, model).
///
/// # Errors
///
/// The first unreadable directory or failing record.
pub fn load_all(root: &Path) -> Result<Vec<LedgerRecord>, String> {
    let mut records = Vec::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(root)
        .map_err(|e| format!("{}: unreadable ledger root: {e}", root.display()))?
        .filter_map(Result::ok)
        .map(|d| d.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let mut files: Vec<PathBuf> = fs::read_dir(&dir)
            .map_err(|e| format!("{}: unreadable: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|d| d.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        for file in files {
            records.push(load(&file)?);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use asyncsynth::SynthesisOptions;

    use super::{load, load_all, record_path, store, LedgerRecord};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("corpus-ledger-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp ledger root");
        dir
    }

    #[test]
    fn record_round_trips_and_self_verifies() {
        let spec = stg::examples::vme_read_csc();
        let record = LedgerRecord::evaluate("vme", &spec, &SynthesisOptions::default());
        assert_eq!(record.outcome, "synthesized");
        assert_eq!(record.verification.as_deref(), Some("passed"));
        assert!(record.equations_digest.is_some());

        let root = tmp_root("roundtrip");
        store(&root, &record).expect("store");
        let back = load(&record_path(&root, "vme", &record.model)).expect("load");
        assert!(record.diff(&back).is_empty(), "no drift after round trip");
        assert_eq!(back.wall_ms, record.wall_ms, "wall time preserved on disk");
        let all = load_all(&root).expect("load_all");
        assert_eq!(all.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tampered_records_are_rejected() {
        let spec = stg::examples::toggle();
        let record = LedgerRecord::evaluate("vme", &spec, &SynthesisOptions::default());
        let root = tmp_root("tamper");
        let path = record_path(&root, "vme", &record.model);
        store(&root, &record).expect("store");

        // Flip a digit inside the payload: the checksum must catch it.
        let text = std::fs::read_to_string(&path).expect("read back");
        let tampered = text.replacen("\"signals\":", "\"signals_x\":", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).expect("tamper");
        let err = load(&path).expect_err("tampered record must fail");
        assert!(err.contains("checksum"), "got: {err}");

        // A wrong version tag fails before the checksum.
        std::fs::write(
            &path,
            text.replacen("corpus-ledger-v2", "corpus-ledger-v0", 1),
        )
        .expect("rewrite");
        let err = load(&path).expect_err("old version must fail");
        assert!(err.contains("version"), "got: {err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn diff_ignores_wall_time_but_not_verdicts() {
        let spec = stg::examples::toggle();
        let a = LedgerRecord::evaluate("vme", &spec, &SynthesisOptions::default());
        let mut b = a.clone();
        b.wall_ms = a.wall_ms + 12_345;
        assert!(a.diff(&b).is_empty(), "wall time is informational");
        b.outcome = "csc_unresolved".to_owned();
        let drift = a.diff(&b);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].starts_with("outcome:"), "got: {drift:?}");
    }

    #[test]
    fn counter_drift_is_gated() {
        let spec = stg::examples::toggle();
        let a = LedgerRecord::evaluate("vme", &spec, &SynthesisOptions::default());
        assert!(
            a.metrics.get("states").unwrap_or(0) > 0,
            "synthesized records pin counters"
        );
        let mut b = a.clone();
        b.metrics.add("states_explored", 1);
        let drift = a.diff(&b);
        assert_eq!(drift.len(), 1, "got: {drift:?}");
        assert!(drift[0].starts_with("metrics:"), "got: {drift:?}");
    }

    #[test]
    fn failed_flows_keep_their_operation_counters() {
        let options = SynthesisOptions {
            csc: asyncsynth::CscStrategy::Fail,
            ..Default::default()
        };
        let record = LedgerRecord::evaluate("vme", &stg::examples::vme_read(), &options);
        assert_eq!(record.outcome, "csc_unresolved");
        assert!(
            record.metrics.get("states").unwrap_or(0) > 0,
            "exploration counters survive the failure: {:?}",
            record.metrics
        );
        // And they survive the on-disk round trip.
        let root = tmp_root("failed-metrics");
        store(&root, &record).expect("store");
        let back = load(&record_path(&root, "vme", &record.model)).expect("load");
        assert!(record.diff(&back).is_empty());
        assert_eq!(back.metrics, record.metrics);
        let _ = std::fs::remove_dir_all(&root);
    }
}
