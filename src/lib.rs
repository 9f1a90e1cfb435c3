//! `asyncsynth` — Asynchronous interface specification, analysis and
//! synthesis.
//!
//! A from-scratch Rust reproduction of the DAC'98 tutorial
//! *"Asynchronous Interface Specification, Analysis and Synthesis"*
//! (Kishinevsky, Cortadella, Kondratyev, Lavagno): the Petri-net / Signal
//! Transition Graph design flow for speed-independent interface
//! controllers, in the style of the `petrify` tool family.
//!
//! The workspace is organised bottom-up:
//!
//! | crate | role |
//! |-------|------|
//! | [`petri`] | net kernel: token game, reachability, invariants, reductions, unfoldings, BDD traversal |
//! | `bdd` | hash-consed ROBDD package |
//! | [`boolmin`] | two-level logic: covers, exact/heuristic minimisation, factoring |
//! | [`stg`] | Signal Transition Graphs: `.g` parsing, state graphs ([`stg::StateGraph`]) and the check stage's pluggable state spaces ([`stg::StateSpace`]: explicit or resident-BDD [`stg::SymbolicSetSpace`]), consistency, CSC, persistency |
//! | [`synth`] | logic synthesis: regions, next-state functions, CSC resolution, latch architectures, decomposition, mapping |
//! | `regions` | theory of regions: PN extraction / back-annotation |
//! | [`timing`] | time separation of events, cycle time, relative-timing optimisation |
//! | `sim` | event-driven gate-level simulation with glitch monitors |
//! | [`verify`] | speed-independence and conformance checking |
//! | `server` | the synthesis service: job queue, worker pool, NDJSON protocol, CLI |
//!
//! This crate ties them together in [`pipeline`]: the §3 flow (property
//! checking → CSC resolution → synthesis in three architectures →
//! decomposition with hazard repair → verification) as a staged, typed
//! session — [`Synthesis`] advances through [`Checked`] → [`CscResolved`]
//! → [`Synthesized`] → [`Verified`], each stage exposing its artifacts
//! for inspection, caching and rerouting. The check stage runs on a
//! pluggable state-space [`Backend`]: `Explicit` breadth-first
//! reachability or `SymbolicSet` resident-BDD traversal. Past the check
//! the flow holds one explicit [`stg::StateGraph`] on either backend:
//! CSC resolution, logic synthesis and verification run on it.
//! [`run_batch`]
//! synthesises many controllers concurrently; [`FlowEvent`] gives
//! structured diagnostics.
//!
//! The flow is deterministic in its inputs, so results are
//! content-addressable: [`run_cached`] consults an on-disk
//! [`ResultCache`] (keys from [`stg::canon`], per-stage entries, atomic
//! self-verifying writes) before running anything, and the `server`
//! crate turns that into a persistent synthesis daemon with a job
//! queue and worker pool (`asyncsynth serve` / `asyncsynth submit`).
//!
//! # Quickstart
//!
//! ```
//! use asyncsynth::{Backend, Synthesis};
//!
//! let spec = stg::examples::vme_read(); // Fig. 3 of the paper
//!
//! // Stage by stage: inspect the implementability report, then let the
//! // pipeline resolve CSC, synthesise and verify.
//! let checked = Synthesis::new(spec).backend(Backend::SymbolicSet).check()?;
//! assert!(!checked.report().complete_state_coding, "Fig. 3 lacks CSC");
//! let result = checked.resolve_csc()?.synthesize()?.verify()?;
//! assert!(result.verification.passed(), "speed-independent");
//! println!("{}", result.equations_text);
//!
//! // Or all at once:
//! let result = Synthesis::new(stg::examples::vme_read_csc()).run()?;
//! assert!(result.transformation.is_none(), "Fig. 7 is already CSC-clean");
//! # Ok::<(), asyncsynth::PipelineError>(())
//! ```
//!
//! # Batching
//!
//! ```
//! use asyncsynth::{run_batch, SynthesisOptions};
//!
//! let specs = [stg::examples::vme_read(), stg::examples::vme_read_csc()];
//! let results = run_batch(&specs, &SynthesisOptions::default());
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

pub mod cache;
pub mod json;
pub mod pipeline;
pub mod summary;
pub mod trace;

/// The workspace's dependency-free telemetry substrate (spans, counter
/// maps, the process-wide registry), re-exported so downstream users
/// reach it as `asyncsynth::telemetry`.
pub use telemetry;

pub use cache::{CacheStats, ResultCache};
pub use json::Json;
pub use pipeline::{
    cache_key, flow_metrics, run_batch, run_cached, run_cached_with, Architecture, Backend,
    CacheOutcome, CacheStage, CachedRun, Checked, Circuit, CscCandidate, CscKind, CscResolved,
    CscStrategy, CscTransformation, FlowEvent, FlowObserver, NullObserver, PipelineError,
    SweepOptions, SweepStats, Synthesis, SynthesisOptions, Synthesized, Verification, Verified,
    VerifyOptions,
};
pub use summary::SynthesisSummary;
pub use trace::TraceBuilder;
