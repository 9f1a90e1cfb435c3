//! Ledger parity on the resident-BDD backend: every pinned corpus record
//! under `corpus/ledger/` is re-evaluated with `Backend::SymbolicSet`
//! and must match the committed record field for field (outcome,
//! implementability report, CSC transformation, equation and netlist
//! digests, verification verdict and the deterministic operation
//! counters; only wall time is ignored). The CSC sweeps evaluate
//! candidates as explicit state graphs on either backend, so the
//! symbolic-set flow must reproduce the explicit flow's records exactly.

use asyncsynth::{Backend, SynthesisOptions};
use corpus::ledger::{self, LedgerRecord};

#[test]
fn symbolic_set_reproduces_every_pinned_record() {
    let options = SynthesisOptions {
        backend: Backend::SymbolicSet,
        ..SynthesisOptions::default()
    };
    let root = corpus::ledger_root();
    let mut drift: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for (family, spec) in corpus::all_specs() {
        let path = ledger::record_path(&root, family, spec.name());
        let pinned = ledger::load(&path)
            .unwrap_or_else(|e| panic!("{family}/{}: pinned record: {e}", spec.name()));
        let live = LedgerRecord::evaluate(family, &spec, &options);
        for d in pinned.diff(&live) {
            drift.push(format!("{family}/{}: {d}", spec.name()));
        }
        checked += 1;
    }
    assert_eq!(
        checked,
        ledger::load_all(&root).expect("ledger loads").len(),
        "every pinned record has a corpus spec"
    );
    assert!(
        drift.is_empty(),
        "symbolic-set records drift from the ledger:\n{}",
        drift.join("\n")
    );
}
