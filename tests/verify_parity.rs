//! Verification-engine parity across both state-space backends: reports
//! must reproduce the seed engine's recorded output, the flow output
//! must be byte-identical across backends, and the engine must explore
//! the composed space of a large specification.

use asyncsynth::{Architecture, Backend, Circuit, Synthesis, SynthesisOptions, SynthesisSummary};
use stg::examples::{micropipeline, vme_read, vme_read_csc, vme_read_write};
use stg::{SignalEdge, SignalKind, StateGraph, Stg, StgBuilder};
use synth::{GateKind, NetId, Netlist};
use verify::{verify_with, VerificationReport, VerifyOptions};

const BACKENDS: [Backend; 2] = [Backend::Explicit, Backend::SymbolicSet];

const ARCHITECTURES: [Architecture; 4] = [
    Architecture::ComplexGate,
    Architecture::CElement,
    Architecture::RsLatch,
    Architecture::Decomposed,
];

fn specs() -> Vec<(&'static str, Stg)> {
    vec![
        ("vme_read", vme_read()),
        ("vme_read_csc", vme_read_csc()),
        ("vme_read_write", vme_read_write()),
        ("micropipeline2", micropipeline(2)),
    ]
}

/// One recorded verification: spec, architecture, `states_explored`,
/// the report's summary line, and the SHA-256 of [`render`]'s full
/// rendering (every hazard and violation with its decoded witness).
type SeedReference = (
    &'static str,
    Architecture,
    usize,
    &'static str,
    &'static str,
);

/// What the seed engine — the explicit state-graph walk over the
/// explicit backend's `ts()` view, since retired — reported for each
/// spec's circuit in each architecture (synthesised on the explicit
/// backend with verification skipped, so failing circuits are covered
/// too). The remaining engine must reproduce it byte for byte.
const SEED_REFERENCE: [SeedReference; 16] = [
    (
        "vme_read",
        Architecture::ComplexGate,
        16,
        OK_16,
        OK_16_DIGEST,
    ),
    ("vme_read", Architecture::CElement, 16, OK_16, OK_16_DIGEST),
    ("vme_read", Architecture::RsLatch, 16, OK_16, OK_16_DIGEST),
    (
        "vme_read",
        Architecture::Decomposed,
        20,
        OK_20,
        OK_20_DIGEST,
    ),
    (
        "vme_read_csc",
        Architecture::ComplexGate,
        16,
        OK_16,
        OK_16_DIGEST,
    ),
    (
        "vme_read_csc",
        Architecture::CElement,
        16,
        OK_16,
        OK_16_DIGEST,
    ),
    (
        "vme_read_csc",
        Architecture::RsLatch,
        16,
        OK_16,
        OK_16_DIGEST,
    ),
    (
        "vme_read_csc",
        Architecture::Decomposed,
        20,
        OK_20,
        OK_20_DIGEST,
    ),
    (
        "vme_read_write",
        Architecture::ComplexGate,
        24,
        OK_24,
        OK_24_DIGEST,
    ),
    (
        "vme_read_write",
        Architecture::CElement,
        24,
        OK_24,
        OK_24_DIGEST,
    ),
    (
        "vme_read_write",
        Architecture::RsLatch,
        24,
        OK_24,
        OK_24_DIGEST,
    ),
    (
        "vme_read_write",
        Architecture::Decomposed,
        13240,
        "FAILED: 25 hazard(s), 12368 conformance violation(s) over 13240 states",
        "268cde0238509cf16bc9eda42d3b44c96a817fbabde2efafe84feb6a80cea23a",
    ),
    (
        "micropipeline2",
        Architecture::ComplexGate,
        23,
        OK_23,
        OK_23_DIGEST,
    ),
    (
        "micropipeline2",
        Architecture::CElement,
        23,
        OK_23,
        OK_23_DIGEST,
    ),
    (
        "micropipeline2",
        Architecture::RsLatch,
        23,
        OK_23,
        OK_23_DIGEST,
    ),
    (
        "micropipeline2",
        Architecture::Decomposed,
        188,
        "FAILED: 7 hazard(s), 64 conformance violation(s) over 188 states",
        "dc06161854e7430888a9b429342f32979c801ae435fe60aed8f364d447bec17b",
    ),
];

const OK_16: &str = "speed-independent: OK (16 composed states)";
const OK_16_DIGEST: &str = "3fee71db041e5777e502f1b0783c4fff8226be9dab401de8a778bc9cd5493032";
const OK_20: &str = "speed-independent: OK (20 composed states)";
const OK_20_DIGEST: &str = "1e69d189575bb1a9d88a8f87556f8837d42d9f765ab0ddf5efbc514eb07cee05";
const OK_23: &str = "speed-independent: OK (23 composed states)";
const OK_23_DIGEST: &str = "c81e5953fc130214b2ba07b78ffbda24d814e9ef257131ac18715b2b55f05085";
const OK_24: &str = "speed-independent: OK (24 composed states)";
const OK_24_DIGEST: &str = "0908a105e85d647a44358b1e0b2a7e9761eb07af722aaa30d65643db5be49f27";

/// The report as text: the summary line, then one line per hazard and
/// per violation, each with its decoded witness state.
fn render(report: &VerificationReport) -> String {
    let mut lines = vec![report.summary()];
    for h in &report.hazards {
        lines.push(format!(
            "hazard {} by {} in {} ({})",
            h.gate_output, h.caused_by, h.state, h.witness
        ));
    }
    lines.extend(report.violations.iter().map(ToString::to_string));
    lines.join("\n")
}

fn seed_reference(name: &str, architecture: Architecture) -> SeedReference {
    *SEED_REFERENCE
        .iter()
        .find(|r| r.0 == name && r.1 == architecture)
        .unwrap_or_else(|| panic!("no seed reference for {name}/{architecture}"))
}

fn assert_matches_seed(report: &VerificationReport, seed: SeedReference, context: &str) {
    let (_, _, states_explored, summary, digest) = seed;
    assert_eq!(report.states_explored, states_explored, "{context}");
    assert_eq!(report.summary(), summary, "{context}");
    assert_eq!(
        stg::canon::digest_bytes(render(report).as_bytes()).to_hex(),
        digest,
        "{context}: rendered report"
    );
}

/// Engine-level reference check: every spec's circuit in every
/// architecture verifies to the seed's recorded report on the state
/// graph each backend's check hands on.
#[test]
fn reports_identical_across_strategies_and_backends() {
    for (name, spec) in specs() {
        for architecture in ARCHITECTURES {
            let options = SynthesisOptions {
                architecture,
                skip_verification: true,
                ..Default::default()
            };
            let synthesized = Synthesis::with_options(spec.clone(), options)
                .run()
                .unwrap_or_else(|e| panic!("{name}/{architecture}: {e}"));
            let final_spec = &synthesized.spec;
            let (netlist, nets) = match &synthesized.circuit {
                Circuit::Latch(latch) => latch.atomic_netlist(final_spec),
                circuit => (circuit.netlist().clone(), circuit.signal_nets(final_spec)),
            };
            let seed = seed_reference(name, architecture);
            for backend in BACKENDS {
                // The graph the flow verifies on after this backend's check.
                let graph = backend
                    .build(final_spec)
                    .and_then(|space| space.into_state_graph(final_spec))
                    .unwrap();
                let context = format!("{name}/{architecture} on {backend}");
                let report = verify_with(
                    final_spec,
                    &graph,
                    &netlist,
                    &nets,
                    &VerifyOptions::default(),
                );
                assert_matches_seed(&report, seed, &context);
            }
        }
    }
}

/// The backends the flow-level byte-parity matrix covers. Debug builds
/// stick to the explicit backend — the resident backend's CSC sweeps
/// take minutes unoptimised, and the `verify-differential` CI job runs
/// the full matrix in release — while the cheap engine-level reference
/// check above covers both backends in every profile.
fn flow_backends() -> &'static [Backend] {
    if cfg!(debug_assertions) {
        &[Backend::Explicit]
    } else {
        &BACKENDS
    }
}

/// Flow-level byte parity: the rendered `SynthesisSummary` JSON —
/// equations, netlist, verification, the whole event log — is identical
/// whatever the backend, and its verification matches the seed's
/// recorded complex-gate report.
#[test]
fn pipeline_output_byte_identical_across_strategies_and_backends() {
    for (name, spec) in specs() {
        let run = |backend: Backend| -> String {
            let options = SynthesisOptions {
                backend,
                ..Default::default()
            };
            let verified = Synthesis::with_options(spec.clone(), options.clone())
                .run()
                .unwrap_or_else(|e| panic!("{name} ({backend}): {e}"));
            let report = verified.verification.report().expect("verification ran");
            assert_matches_seed(
                report,
                seed_reference(name, Architecture::ComplexGate),
                &format!("{name} flow on {backend}"),
            );
            SynthesisSummary::from_verified(&verified, &options)
                .to_json()
                .render()
        };
        // The summary names its backend, so cross-backend comparison
        // normalises that one field; everything else — equations,
        // netlist, verification, the whole event log — must be
        // byte-equal.
        let neutral = |text: &str, backend: Backend| {
            text.replace(
                &format!("\"backend\":\"{}\"", backend.name()),
                "\"backend\":\"*\"",
            )
            .replace(&format!("({})", backend.name()), "(*)")
        };
        let reference = neutral(&run(Backend::Explicit), Backend::Explicit);
        for &backend in flow_backends() {
            assert_eq!(
                neutral(&run(backend), backend),
                reference,
                "{name}: {backend} flow bytes"
            );
        }
    }
}

/// The telemetry split: the deterministic metric set of the summary is
/// byte-identical across (in release, where the flow matrix runs) both
/// backends — while the advisory counters
/// legitimately vary and ride outside the summary, on
/// [`asyncsynth::Verified::advisory_metrics`].
#[test]
fn deterministic_metrics_identical_while_advisory_counters_ride_outside() {
    for (name, spec) in specs() {
        let run = |backend: Backend| {
            let options = SynthesisOptions {
                backend,
                ..Default::default()
            };
            let verified = Synthesis::with_options(spec.clone(), options.clone())
                .run()
                .unwrap_or_else(|e| panic!("{name} ({backend}): {e}"));
            let summary = SynthesisSummary::from_verified(&verified, &options);
            (
                summary.metrics.render(),
                verified.advisory_metrics().clone(),
            )
        };
        let (reference, _) = run(Backend::Explicit);
        for &backend in flow_backends() {
            let (metrics, advisory) = run(backend);
            assert_eq!(metrics, reference, "{name}: {backend} metrics");
            if backend != Backend::Explicit {
                assert!(
                    advisory.get("bdd_nodes").is_some(),
                    "{name}: the resident backend reports its BDD size: {advisory:?}"
                );
            }
        }
    }
}

/// A wide, CSC-clean controller whose state count is combinatorial:
/// `pairs` independent `x_i+ → y_i+ → x_i- → y_i-` handshakes (4 states
/// each, all codes distinct) plus one free-running output toggle `w`,
/// for `2 · 4^pairs` states.
fn wide_handshakes(pairs: usize) -> Stg {
    let mut b = StgBuilder::new(format!("wide-{pairs}"));
    let sigs: Vec<_> = (0..pairs)
        .map(|i| {
            (
                b.add_signal(format!("x{i}"), SignalKind::Input),
                b.add_signal(format!("y{i}"), SignalKind::Output),
            )
        })
        .collect();
    for (x, y) in sigs {
        let xp = b.add_edge(x, SignalEdge::Rise);
        let yp = b.add_edge(y, SignalEdge::Rise);
        let xm = b.add_edge(x, SignalEdge::Fall);
        let ym = b.add_edge(y, SignalEdge::Fall);
        b.connect(xp, yp);
        b.connect(yp, xm);
        b.connect(xm, ym);
        let p = b.connect(ym, xp);
        b.mark_place(p, 1);
    }
    let w = b.add_signal("w", SignalKind::Output);
    let wp = b.add_edge(w, SignalEdge::Rise);
    let wm = b.add_edge(w, SignalEdge::Fall);
    b.connect(wp, wm);
    let p = b.connect(wm, wp);
    b.mark_place(p, 1);
    b.build()
}

/// The circuit the wide controller implements: `y_i = buffer(x_i)`,
/// `w = ¬w`.
fn wide_circuit(spec: &Stg) -> (Netlist, Vec<NetId>) {
    use boolmin::Expr;
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = vec![NetId::from_index(0); spec.num_signals()];
    for s in spec.signals() {
        if spec.signal_kind(s) == SignalKind::Input {
            nets[s.index()] = n.add_input(spec.signal_name(s));
        }
    }
    for s in spec.signals() {
        if spec.signal_kind(s) == SignalKind::Input {
            continue;
        }
        let name = spec.signal_name(s).to_owned();
        nets[s.index()] = if name == "w" {
            let own = NetId::from_index(n.num_nets());
            n.add_gate("w", GateKind::Complex(Expr::not(Expr::Var(0))), vec![own])
        } else {
            let x = n.net_by_name(&name.replace('y', "x")).expect("input net");
            n.add_gate(&name, GateKind::Complex(Expr::Var(0)), vec![x])
        };
    }
    (n, nets)
}

/// A 131 072-state specification verifies from its state graph's
/// initial state: the engine follows the graph's arcs, so the composed
/// exploration covers `2 · 4⁸` states.
#[test]
fn verification_runs_on_a_large_state_graph() {
    let spec = wide_handshakes(8);
    let graph = StateGraph::build(&spec).expect("explicit build");
    assert_eq!(graph.num_states(), 1 << 17, "probe space size");
    let (netlist, nets) = wide_circuit(&spec);
    let report = verify_with(&spec, &graph, &netlist, &nets, &VerifyOptions::default());
    assert!(report.is_speed_independent(), "{}", report.summary());
    assert_eq!(report.states_explored, 2 * 4usize.pow(8));
}

/// A flow-level bound hit is reported as a *bounded* run: the failure
/// carries `Violation::StateLimit` and the event log gains the
/// distinguishing `VerificationBounded` entry.
#[test]
fn bounded_verification_is_surfaced_as_an_event() {
    let options = SynthesisOptions {
        verify: VerifyOptions::default().with_bound(10),
        ..Default::default()
    };
    let err = Synthesis::with_options(vme_read_csc(), options)
        .run()
        .expect_err("a 10-state bound cannot cover the composed space");
    match err {
        asyncsynth::PipelineError::CandidatesExhausted { last, events } => {
            match *last {
                asyncsynth::PipelineError::VerificationFailed(report) => {
                    assert!(report.hit_state_limit(), "{}", report.summary());
                }
                other => panic!("unexpected inner error: {other}"),
            }
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    asyncsynth::FlowEvent::VerificationBounded { bound: 10, .. }
                )),
                "bounded event missing from {events:?}"
            );
        }
        other => panic!("unexpected error: {other}"),
    }
}
