//! The logic layer pinned byte for byte across all four architectures.
//!
//! The corpus ledger pins only the default (complex-gate) architecture,
//! so nothing else fixes the C-element, RS-latch and decomposed
//! netlists. For every corpus spec whose ledger record is
//! `synthesized`, this test runs the flow once per architecture and
//! compares one line per pair with `tests/architecture_pins.txt`:
//!
//! ```text
//! <family>/<model> <arch> <outcome> <equations digest> <netlist digest> <primes>
//! ```
//!
//! The digests are SHA-256 of the summary's equations and netlist text
//! (`-` when the flow fails, whose outcome name then stands in their
//! place); `primes` is the flow's deterministic prime counter, which a
//! failed flow still reports. On drift the test prints the live table,
//! which replaces the pin file after an intended change.

use std::fmt::Write as _;

use asyncsynth::{Architecture, SynthesisOptions};
use corpus::ledger::{self, LedgerRecord};

const PINS: &str = include_str!("architecture_pins.txt");

const ARCHITECTURES: [Architecture; 4] = [
    Architecture::ComplexGate,
    Architecture::CElement,
    Architecture::RsLatch,
    Architecture::Decomposed,
];

/// One pin line for `(spec, architecture)`.
fn pin_line(family: &str, spec: &stg::Stg, architecture: Architecture) -> String {
    let options = SynthesisOptions {
        architecture,
        ..SynthesisOptions::default()
    };
    let record = LedgerRecord::evaluate(family, spec, &options);
    let primes = record
        .metrics
        .get("primes")
        .map_or_else(|| "-".to_owned(), |p| p.to_string());
    format!(
        "{family}/{} {architecture} {} {} {} {primes}",
        spec.name(),
        record.outcome,
        record.equations_digest.as_deref().unwrap_or("-"),
        record.netlist_digest.as_deref().unwrap_or("-"),
    )
}

#[test]
fn every_architecture_reproduces_its_pinned_logic() {
    let root = corpus::ledger_root();
    let specs: Vec<(&str, stg::Stg)> = corpus::all_specs()
        .into_iter()
        .filter(|(family, spec)| {
            let path = ledger::record_path(&root, family, spec.name());
            ledger::load(&path)
                .unwrap_or_else(|e| panic!("{family}/{}: pinned record: {e}", spec.name()))
                .outcome
                == "synthesized"
        })
        .collect();
    assert_eq!(specs.len(), 28, "corpus specs that synthesise");
    // One thread per architecture: each flow is deterministic and
    // thread-count invariant, so the table does not depend on this.
    let columns: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ARCHITECTURES
            .iter()
            .map(|&arch| {
                let specs = &specs;
                scope.spawn(move || {
                    specs
                        .iter()
                        .map(|(family, spec)| pin_line(family, spec, arch))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("architecture thread"))
            .collect()
    });
    let mut live = String::new();
    for row in 0..specs.len() {
        for column in &columns {
            writeln!(live, "{}", column[row]).expect("write to String");
        }
    }
    let drift: Vec<String> = PINS
        .lines()
        .zip(live.lines())
        .filter(|(pinned, now)| pinned != now)
        .map(|(pinned, now)| format!("  pinned: {pinned}\n  live:   {now}"))
        .collect();
    assert!(
        drift.is_empty() && PINS.lines().count() == live.lines().count(),
        "architecture pins drift:\n{}\n\nlive table:\n{live}",
        drift.join("\n")
    );
}
