//! The scenario corpus: a generator-backed benchmark subsystem with a
//! pinned, self-verifying validation ledger.
//!
//! Three layers:
//!
//! * [`generators`] — parameterised, signal-labelled STG families
//!   beyond the `stg::examples` zoo (arbiters, selector trees, ripple
//!   counters, dispatchers, parallelisers);
//! * [`mod@families`] — the corpus itself: each [`families::Family`]
//!   expands a deterministic parameter grid into uniquely-named specs,
//!   including classic `.g` imports through [`gimport`];
//! * [`ledger`] — one content-addressed
//!   [`ledger::LedgerRecord`] per spec, pinned under `corpus/ledger/`
//!   and self-verifying on read, with wall-clock-tolerant,
//!   verdict-exact drift detection.
//!
//! The `corpus` bench binary (`crates/bench/benches/corpus.rs`) replays
//! the whole corpus through the pipeline, diffs live records against
//! the pinned ledger and emits `BENCH_corpus.json` — the perf
//! trajectory every later speed claim is measured against.

pub mod families;
pub mod generators;
pub mod gimport;
pub mod ledger;

pub use families::{all_specs, families, Family};
pub use ledger::LedgerRecord;

use std::path::PathBuf;

/// The pinned ledger's location relative to a repo checkout, resolved
/// from this crate's manifest directory (stable under `cargo test`,
/// `cargo bench` and CI alike).
#[must_use]
pub fn ledger_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("corpus/ledger")
}
