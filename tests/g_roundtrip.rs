//! `.g` round-trip property: for every corpus specification,
//! `parse_g(write_g(spec))` must have the *identical* canonical digest —
//! signals, kinds, explicit initial values, transitions, places,
//! markings all survive the text format. Until this suite the parser
//! was only exercised by the three committed VME files; the corpus
//! pushes dummies, explicit places, instance suffixes (`s+/2`) and the
//! `.initial` directive through it.

use proptest::prelude::*;
use stg::canon::{canonical_text, stg_digest};
use stg::parse::{parse_g, write_g};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Every corpus spec round-trips to an identical canonical digest.
#[test]
fn corpus_round_trips_byte_identically() {
    for (family, spec) in corpus::all_specs() {
        let text = write_g(&spec);
        let back = parse_g(&text).unwrap_or_else(|e| {
            panic!("{family}/{}: rewritten .g fails to parse: {e}", spec.name())
        });
        assert_eq!(
            canonical_text(&spec),
            canonical_text(&back),
            "{family}/{}: canonical text drifted through .g",
            spec.name()
        );
        assert_eq!(stg_digest(&spec).to_hex(), stg_digest(&back).to_hex());
    }
}

/// Rewriting is stable up to line order: the re-parsed STG emits
/// exactly the same `.g` lines (transition discovery order may permute
/// whole lines, but never their content — postsets, markings and
/// declarations are reproduced verbatim).
#[test]
fn rewrite_is_stable_up_to_line_order() {
    let sorted_lines = |text: &str| {
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    for (family, spec) in corpus::all_specs() {
        let first = write_g(&spec);
        let again = write_g(&parse_g(&first).expect("parses"));
        assert_eq!(
            sorted_lines(&first),
            sorted_lines(&again),
            "{family}/{} lines drifted",
            spec.name()
        );
    }
}

/// Explicit initial values survive the round trip — including the
/// `token_ring` examples, which set them programmatically and were
/// silently dropped by the writer before the `.initial` directive.
#[test]
fn initial_values_survive() {
    let spec = stg::examples::token_ring(3, 2);
    assert!(spec.initial_values().is_some(), "token rings pin values");
    let text = write_g(&spec);
    assert!(text.contains(".initial "), "writer emits the directive");
    let back = parse_g(&text).expect("parses");
    assert_eq!(spec.initial_values(), back.initial_values());
    assert_eq!(stg_digest(&spec).to_hex(), stg_digest(&back).to_hex());
}

/// Specs *without* explicit values must not grow a `.initial` line (the
/// digest of value-less specs is unchanged by the new directive).
#[test]
fn absent_initial_values_stay_absent() {
    let spec = stg::examples::vme_read();
    assert!(spec.initial_values().is_none());
    let text = write_g(&spec);
    assert!(
        !text.contains(".initial"),
        "no directive for inferred values"
    );
    let back = parse_g(&text).expect("parses");
    assert!(back.initial_values().is_none());
}

/// A specification the default flow resolves with two or more state
/// signals reads back from its `.g` text with CSC and the same state
/// count: every insertion names its link places after its own signal
/// (`csc0_plus_link`, `csc1_plus_link`, …), so no two places share a
/// name and merge on re-parse.
#[test]
fn multi_insertion_resolutions_read_back_csc_clean() {
    let mut checked = Vec::new();
    for (family, spec) in corpus::all_specs() {
        let Ok(verified) = asyncsynth::Synthesis::new(spec.clone()).run() else {
            continue;
        };
        if verified.spec.num_signals() < spec.num_signals() + 2 {
            continue;
        }
        let name = format!("{family}/{}", spec.name());
        let text = write_g(&verified.spec);
        let back = parse_g(&text).unwrap_or_else(|e| panic!("{name}: re-parse fails: {e}"));
        assert_eq!(
            back.net().num_places(),
            verified.spec.net().num_places(),
            "{name}: places merged on re-parse"
        );
        let checked_back = asyncsynth::Synthesis::new(back)
            .check()
            .unwrap_or_else(|e| panic!("{name}: re-parsed spec fails its check: {e}"));
        assert!(
            checked_back.report().complete_state_coding,
            "{name}: re-parsed spec lost CSC"
        );
        assert_eq!(
            checked_back.state_space().num_states(),
            verified.num_states(),
            "{name}: re-parsed state count"
        );
        checked.push(name);
    }
    assert!(
        checked.len() >= 2,
        "the corpus has multi-insertion resolutions: {checked:?}"
    );
}

/// Malformed `.initial` lines are rejected with a line number.
#[test]
fn malformed_initial_directives_are_rejected() {
    for bad in [
        ".model m\n.outputs x\n.initial x\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n.end\n",
        ".model m\n.outputs x\n.initial x=2\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n.end\n",
        ".model m\n.outputs x\n.initial y=1\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n.end\n",
    ] {
        let err = parse_g(bad).expect_err("bad .initial must fail");
        assert_eq!(err.line, 3, "error points at the .initial line: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Randomised corpus members round-trip too: the parameterised
    /// generators hit arc shapes (nested choice, dummies, shared
    /// places) the fixed grid may miss.
    #[test]
    fn generated_specs_round_trip(
        k in 2usize..7,
        branches in 1usize..5,
        depth in 1usize..4,
        shared in any::<bool>(),
    ) {
        for spec in [
            corpus::generators::handshake_chain(k, &[true, false, false]),
            corpus::generators::dispatcher(branches, !shared),
            corpus::generators::selector_tree(depth),
            corpus::generators::paralleliser(k.clamp(2, 5), shared),
        ] {
            let back = parse_g(&write_g(&spec)).expect("round trip parses");
            prop_assert_eq!(canonical_text(&spec), canonical_text(&back));
        }
    }
}
