//! The staged synthesis pipeline: the §3 flow (property checking → CSC
//! resolution → synthesis → verification) as a typed state machine. The
//! configured [`Backend`] picks the engine of the check stage; every
//! later stage runs on one explicit [`StateGraph`].
//!
//! [`Synthesis`] is the entry point. Configure it with the builder
//! methods, then either advance stage by stage —
//!
//! ```
//! use asyncsynth::{Backend, Synthesis};
//!
//! let checked = Synthesis::new(stg::examples::vme_read_csc())
//!     .backend(Backend::SymbolicSet)
//!     .check()?;
//! assert!(checked.report().is_implementable());
//! let verified = checked.resolve_csc()?.synthesize()?.verify()?;
//! assert!(verified.verification.passed());
//! # Ok::<(), asyncsynth::PipelineError>(())
//! ```
//!
//! — or run everything at once with [`Synthesis::run`]. Each stage
//! ([`Checked`], [`CscResolved`], [`Synthesized`], [`Verified`]) exposes
//! its artifacts (implementability report, candidate CSC transformations,
//! equations, netlist, verification outcome) and the accumulated
//! [`FlowEvent`] log, and hands its state graph, report and verification
//! outcome forward for reuse. The check stage's space is checked once; CSC
//! resolution moves its graph on (the explicit backend) or builds the
//! one explicit graph the flow needs (after a resident check). That
//! graph is the CSC-clean candidate and the base every CSC sweep derives
//! from, and every candidate the synthesiser may try carries its
//! validated graph — no stage builds the same space twice. [`run_batch`]
//! synthesises many controllers concurrently on scoped threads.

use std::fmt;

use stg::properties::ImplementabilityReport;
use stg::{StateGraph, StateSpace, Stg};
use synth::complex_gate::{synthesize_complex_gates, ComplexGateCircuit};
use synth::csc::{CscResolution, MIXED_MAX_STEPS};
pub use synth::csc::{SweepOptions, SweepStats};
use synth::decompose::{decompose, resubstitute, DecomposedCircuit};
use synth::latch_arch::{synthesize_latch_circuit, LatchCircuit, LatchStyle};
use synth::library::{map_to_library, Library, Mapping};
use synth::NetId;
use verify::VerificationReport;
pub use verify::VerifyOptions;

pub use stg::Backend;

/// Target implementation architecture (§3.2 / Fig. 8 / Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Architecture {
    /// One atomic complex gate per signal (§3.2).
    #[default]
    ComplexGate,
    /// Set/reset networks + Muller C-element (Fig. 8a).
    CElement,
    /// Set/reset networks + reset-dominant RS latch (Fig. 8b).
    RsLatch,
    /// Fan-in-bounded decomposition with hazard repair (Fig. 9).
    Decomposed,
}

impl Architecture {
    /// The architecture's canonical CLI/protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Architecture::ComplexGate => "complex",
            Architecture::CElement => "celement",
            Architecture::RsLatch => "rs",
            Architecture::Decomposed => "decomposed",
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Architecture {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "complex" => Ok(Architecture::ComplexGate),
            "celement" => Ok(Architecture::CElement),
            "rs" => Ok(Architecture::RsLatch),
            "decomposed" => Ok(Architecture::Decomposed),
            other => Err(format!(
                "unknown architecture {other:?} (expected complex|celement|rs|decomposed)"
            )),
        }
    }
}

/// How CSC conflicts are resolved when the input specification has them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CscStrategy {
    /// Try state-signal insertion first, fall back to concurrency
    /// reduction (§2.1 lists both methods).
    #[default]
    Auto,
    /// Only state-signal insertion (Fig. 7).
    SignalInsertion,
    /// Only concurrency reduction.
    ConcurrencyReduction,
    /// Fail if CSC does not hold.
    Fail,
}

impl CscStrategy {
    /// The strategy's canonical CLI/protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CscStrategy::Auto => "auto",
            CscStrategy::SignalInsertion => "insertion",
            CscStrategy::ConcurrencyReduction => "reduction",
            CscStrategy::Fail => "fail",
        }
    }
}

impl fmt::Display for CscStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CscStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(CscStrategy::Auto),
            "insertion" => Ok(CscStrategy::SignalInsertion),
            "reduction" => Ok(CscStrategy::ConcurrencyReduction),
            "fail" => Ok(CscStrategy::Fail),
            other => Err(format!(
                "unknown csc strategy {other:?} (expected auto|insertion|reduction|fail)"
            )),
        }
    }
}

/// Options shared by [`Synthesis`] and [`run_batch`].
#[derive(Debug, Clone, Default)]
pub struct SynthesisOptions {
    /// State-space engine of the check stage (later stages run on an
    /// explicit state graph whichever engine checked).
    pub backend: Backend,
    /// Target architecture.
    pub architecture: Architecture,
    /// CSC resolution strategy.
    pub csc: CscStrategy,
    /// CSC candidate-sweep engine configuration (worker threads and
    /// the per-candidate state bound).
    /// The thread count never changes the flow's output and stays out
    /// of cache keys; the bound (can change results) participates.
    pub sweep: SweepOptions,
    /// Fan-in bound for [`Architecture::Decomposed`] (default 2, the
    /// two-input library of Fig. 9).
    pub max_fanin: Option<usize>,
    /// Skip the final speed-independence verification (it is exhaustive).
    /// [`Architecture::Decomposed`] still runs the composed verification
    /// of its naive decomposition, under [`SynthesisOptions::verify`],
    /// because that verdict decides whether resubstitution repairs it.
    pub skip_verification: bool,
    /// Verification engine configuration: the composed-state bound,
    /// which participates in cache keys (a limit hit changes results).
    pub verify: VerifyOptions,
}

/// Errors the pipeline can report.
#[derive(Debug)]
pub enum PipelineError {
    /// The specification failed a §2.1 implementability property that no
    /// automatic transformation fixes (unbounded, inconsistent,
    /// non-persistent, deadlocking).
    NotImplementable(Box<ImplementabilityReport>),
    /// CSC resolution failed under the requested strategy. Carries the
    /// diagnostic log up to the failure — including the sweep events
    /// whose counters say how many candidates were pruned and, more
    /// importantly, how many were skipped because their state space
    /// exceeded [`SweepOptions::bound`]: "no resolution" with
    /// bound-skipped candidates means raising the bound may find one.
    CscUnresolved {
        /// The diagnostic log up to the failure.
        events: Vec<FlowEvent>,
    },
    /// Synthesis failed (carries the underlying message).
    Synthesis(String),
    /// The synthesised circuit failed verification.
    VerificationFailed(Box<VerificationReport>),
    /// Every CSC candidate failed synthesis or verification. Carries the
    /// last candidate's error and the accumulated event log — including
    /// one [`FlowEvent::CandidateRejected`] per candidate, so the
    /// per-candidate diagnostics survive the failure.
    CandidatesExhausted {
        /// The error from the last candidate tried.
        last: Box<PipelineError>,
        /// The full diagnostic log up to the failure.
        events: Vec<FlowEvent>,
    },
    /// The run was cancelled between stages (service job cancellation —
    /// see [`FlowObserver::cancelled`]).
    Cancelled,
}

impl PipelineError {
    /// The diagnostic log accumulated before the failure, for the
    /// variants that carry one (empty for the others). Lets consumers —
    /// notably the corpus ledger — derive the deterministic operation
    /// counters of failed flows via [`flow_metrics`].
    #[must_use]
    pub fn events(&self) -> &[FlowEvent] {
        match self {
            PipelineError::CscUnresolved { events }
            | PipelineError::CandidatesExhausted { events, .. } => events,
            _ => &[],
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NotImplementable(r) => {
                write!(f, "specification not implementable:\n{r}")
            }
            PipelineError::CscUnresolved { events } => {
                write!(f, "could not resolve CSC conflicts")?;
                let skipped: usize = events
                    .iter()
                    .map(|e| match e {
                        FlowEvent::CscSweep { stats, .. } => stats.skipped_by_bound,
                        _ => 0,
                    })
                    .sum();
                if skipped > 0 {
                    write!(
                        f,
                        " ({skipped} candidate(s) exceeded the state bound — \
                         a higher --csc-bound may find a resolution)"
                    )?;
                }
                Ok(())
            }
            PipelineError::Synthesis(m) => write!(f, "synthesis failed: {m}"),
            PipelineError::VerificationFailed(r) => {
                write!(f, "verification failed: {}", r.summary())
            }
            PipelineError::CandidatesExhausted { last, events } => {
                let rejected = events
                    .iter()
                    .filter(|e| matches!(e, FlowEvent::CandidateRejected { .. }))
                    .count();
                write!(
                    f,
                    "all {rejected} CSC candidate(s) failed; last error: {last}"
                )?;
                // A bounded verification is inconclusive, not a proven
                // failure — say so instead of letting the two blur.
                let bounded = events.iter().find_map(|e| match e {
                    FlowEvent::VerificationBounded { bound, .. } => Some(*bound),
                    _ => None,
                });
                if let Some(bound) = bounded {
                    write!(
                        f,
                        " (verification hit the state bound {bound} — inconclusive; \
                         raise --verify-bound)"
                    )?;
                }
                Ok(())
            }
            PipelineError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Which §2.1 method produced a CSC transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CscKind {
    /// A fresh internal state signal was inserted (Fig. 7).
    SignalInsertion,
    /// An ordering arc removed the conflicting states.
    ConcurrencyReduction,
    /// A greedy mix of both methods (multi-conflict controllers).
    Mixed,
}

impl fmt::Display for CscKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CscKind::SignalInsertion => write!(f, "signal insertion"),
            CscKind::ConcurrencyReduction => write!(f, "concurrency reduction"),
            CscKind::Mixed => write!(f, "mixed"),
        }
    }
}

impl std::str::FromStr for CscKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "signal insertion" => Ok(CscKind::SignalInsertion),
            "concurrency reduction" => Ok(CscKind::ConcurrencyReduction),
            "mixed" => Ok(CscKind::Mixed),
            other => Err(format!("unknown csc kind {other:?}")),
        }
    }
}

/// A structured description of an applied CSC transformation.
#[derive(Debug, Clone)]
pub struct CscTransformation {
    /// The method used.
    pub kind: CscKind,
    /// Human-readable details (which transitions were split / ordered).
    pub description: String,
    /// State count of the transformed specification's state space.
    pub num_states: usize,
}

impl fmt::Display for CscTransformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} states): {}",
            self.kind, self.num_states, self.description
        )
    }
}

/// Outcome of the verification stage, decided when the circuit is
/// synthesised: a circuit that fails verification never leaves
/// [`Synthesis`]'s synthesis stage, so "checked and passed" and
/// "deliberately skipped" are the only outcomes.
#[derive(Debug, Clone)]
pub enum Verification {
    /// Verification ran and the circuit is speed-independent.
    Passed(VerificationReport),
    /// Verification was skipped on request
    /// ([`SynthesisOptions::skip_verification`]).
    Skipped,
}

impl Verification {
    /// `true` only when verification ran and passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        matches!(self, Verification::Passed(_))
    }

    /// The report, when verification ran.
    #[must_use]
    pub fn report(&self) -> Option<&VerificationReport> {
        match self {
            Verification::Passed(r) => Some(r),
            _ => None,
        }
    }
}

/// Structured diagnostics emitted by the pipeline stages.
#[derive(Debug, Clone)]
pub enum FlowEvent {
    /// A state space was built.
    StateSpaceBuilt {
        /// The backend that built it.
        backend: Backend,
        /// Number of states.
        num_states: usize,
    },
    /// The §2.1 property suite ran.
    PropertiesChecked {
        /// All properties hold without transformation.
        implementable: bool,
        /// Number of CSC-violating state pairs.
        csc_conflicts: usize,
    },
    /// A CSC candidate sweep ran; how its grid was cut down. The
    /// counters are deterministic (independent of the sweep's thread
    /// count), and `stats.skipped_by_bound` surfaces candidates whose
    /// state space exceeded [`SweepOptions::bound`] — they are reported
    /// here, never silently dropped.
    CscSweep {
        /// Which search swept (insertion grid, ordering arcs, mixed).
        kind: CscKind,
        /// The engine's counters.
        stats: SweepStats,
    },
    /// CSC candidates were gathered under a strategy.
    CscCandidates {
        /// The strategy used.
        strategy: CscStrategy,
        /// How many candidate transformations were found.
        count: usize,
    },
    /// A CSC transformation was applied to the specification.
    CscApplied(CscTransformation),
    /// A candidate was rejected during synthesis-with-backtracking.
    CandidateRejected {
        /// Index into [`CscResolved::candidates`].
        index: usize,
        /// Why the candidate failed.
        reason: String,
    },
    /// Logic equations were derived and minimised.
    EquationsDerived {
        /// One equation per non-input signal.
        count: usize,
    },
    /// A circuit was produced in the target architecture.
    CircuitSynthesized {
        /// The architecture.
        architecture: Architecture,
        /// Gate count of the netlist.
        gates: usize,
        /// Prime implicants generated by the two-level minimiser while
        /// deriving this candidate's logic (equations, latch covers,
        /// decomposition and resubstitution included) — a deterministic
        /// operation counter for the synthesis stage.
        primes: u64,
    },
    /// The netlist was mapped onto the technology library.
    LibraryMapped {
        /// Number of mapped cells.
        cells: usize,
    },
    /// Speed-independence verification passed.
    VerificationPassed {
        /// Composed states explored by the Muller-model checker.
        states_explored: usize,
    },
    /// Verification was skipped on request.
    VerificationSkipped,
    /// A verification run hit its composed-state bound
    /// ([`VerifyOptions::bound`]): the run is *bounded* — inconclusive
    /// within the budget — which this event keeps distinguishable from
    /// a genuine hazard/conformance failure (the report still carries
    /// `Violation::StateLimit`).
    VerificationBounded {
        /// The bound that was hit.
        bound: usize,
        /// Composed states explored before stopping.
        states_explored: usize,
    },
    /// The whole run was served from the result cache.
    CacheHit {
        /// The content-addressed cache key (hex).
        key: String,
    },
    /// The CSC stage was resumed from a cached checkpoint (the search
    /// was skipped; synthesis re-ran on the checkpointed specification).
    CscStageResumed {
        /// The checkpoint's cache key (hex).
        key: String,
    },
}

impl fmt::Display for FlowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowEvent::StateSpaceBuilt {
                backend,
                num_states,
            } => {
                write!(f, "state space built ({backend}): {num_states} states")
            }
            FlowEvent::PropertiesChecked {
                implementable,
                csc_conflicts,
            } => write!(
                f,
                "properties checked: implementable={implementable}, csc conflicts={csc_conflicts}"
            ),
            FlowEvent::CscSweep { kind, stats } => write!(
                f,
                "csc sweep ({kind}): grid={} pruned={} evaluated={} skipped-by-bound={} accepted={}",
                stats.grid, stats.pruned, stats.evaluated, stats.skipped_by_bound, stats.accepted
            ),
            FlowEvent::CscCandidates { strategy, count } => {
                write!(f, "csc candidates ({strategy}): {count}")
            }
            FlowEvent::CscApplied(t) => write!(f, "csc applied: {t}"),
            FlowEvent::CandidateRejected { index, reason } => {
                write!(f, "candidate {index} rejected: {reason}")
            }
            FlowEvent::EquationsDerived { count } => {
                write!(f, "{count} equation(s) derived")
            }
            FlowEvent::CircuitSynthesized {
                architecture,
                gates,
                primes,
            } => {
                write!(
                    f,
                    "circuit synthesised ({architecture}): {gates} gate(s), {primes} prime(s)"
                )
            }
            FlowEvent::LibraryMapped { cells } => write!(f, "mapped onto {cells} cell(s)"),
            FlowEvent::VerificationPassed { states_explored } => {
                write!(f, "verification passed ({states_explored} composed states)")
            }
            FlowEvent::VerificationSkipped => write!(f, "verification skipped"),
            FlowEvent::VerificationBounded {
                bound,
                states_explored,
            } => write!(
                f,
                "verification bounded: state limit {bound} hit after {states_explored} composed states (inconclusive, not a failure — raise --verify-bound)"
            ),
            FlowEvent::CacheHit { key } => write!(f, "cache hit: {key}"),
            FlowEvent::CscStageResumed { key } => {
                write!(f, "csc checkpoint resumed: {key}")
            }
        }
    }
}

/// Derives the **deterministic** operation counters of a flow from its
/// event log.
///
/// Every value comes from [`FlowEvent`]s, which the parity suites prove
/// byte-identical across sweep thread counts (and across backends
/// where flow parity holds) — so the result inherits those invariants
/// and is safe to pin in the corpus ledger and gate for drift. Counters
/// that depend on the backend (BDD nodes, decoded states) are
/// deliberately absent; see [`Verified::advisory_metrics`].
///
/// Only counters whose originating event appears are emitted, so a
/// check-stage slice carries `states` but no `sweep_*` keys. Keys:
/// `states` (first space built — the check stage's), `spaces_built`,
/// `csc_conflicts`, `sweep_grid` / `sweep_pruned` / `sweep_evaluated` /
/// `sweep_skipped_by_bound` / `sweep_accepted` (summed over sweeps),
/// `csc_candidates`, `csc_applied`, `candidates_rejected`, `equations`,
/// `gates`, `primes` (summed over tried candidates), `mapped_cells`,
/// `states_explored` (summed over verification runs, bounded ones
/// included), `verify_runs`, `verify_bounded`, `verify_skipped`,
/// `cache_full_hits`, `cache_csc_resumes`.
#[must_use]
pub fn flow_metrics(events: &[FlowEvent]) -> telemetry::Counters {
    let mut m = telemetry::Counters::new();
    for event in events {
        match event {
            FlowEvent::StateSpaceBuilt { num_states, .. } => {
                if m.get("states").is_none() {
                    m.set("states", *num_states as u64);
                }
                m.add("spaces_built", 1);
            }
            FlowEvent::PropertiesChecked { csc_conflicts, .. } => {
                m.set("csc_conflicts", *csc_conflicts as u64);
            }
            FlowEvent::CscSweep { stats, .. } => {
                m.add("sweep_grid", stats.grid as u64);
                m.add("sweep_pruned", stats.pruned as u64);
                m.add("sweep_evaluated", stats.evaluated as u64);
                m.add("sweep_skipped_by_bound", stats.skipped_by_bound as u64);
                m.add("sweep_accepted", stats.accepted as u64);
            }
            FlowEvent::CscCandidates { count, .. } => {
                m.set("csc_candidates", *count as u64);
            }
            FlowEvent::CscApplied(_) => m.add("csc_applied", 1),
            FlowEvent::CandidateRejected { .. } => m.add("candidates_rejected", 1),
            FlowEvent::EquationsDerived { count } => m.set("equations", *count as u64),
            FlowEvent::CircuitSynthesized { gates, primes, .. } => {
                // `gates`/`equations` keep the last (winning) value;
                // `primes` sums the work across every candidate tried.
                m.set("gates", *gates as u64);
                m.add("primes", *primes);
            }
            FlowEvent::LibraryMapped { cells } => m.set("mapped_cells", *cells as u64),
            FlowEvent::VerificationPassed { states_explored } => {
                m.add("states_explored", *states_explored as u64);
                m.add("verify_runs", 1);
            }
            FlowEvent::VerificationSkipped => m.add("verify_skipped", 1),
            FlowEvent::VerificationBounded {
                states_explored, ..
            } => {
                m.add("states_explored", *states_explored as u64);
                m.add("verify_bounded", 1);
            }
            FlowEvent::CacheHit { .. } => m.add("cache_full_hits", 1),
            FlowEvent::CscStageResumed { .. } => m.add("cache_csc_resumes", 1),
        }
    }
    m
}

/// The circuit produced by the pipeline, by architecture.
#[derive(Debug, Clone)]
pub enum Circuit {
    /// Complex-gate implementation.
    Complex(ComplexGateCircuit),
    /// Latch-based implementation.
    Latch(LatchCircuit),
    /// Decomposed implementation.
    Decomposed(DecomposedCircuit),
}

impl Circuit {
    /// The netlist of whichever architecture was produced.
    #[must_use]
    pub fn netlist(&self) -> &synth::Netlist {
        match self {
            Circuit::Complex(c) => c.netlist(),
            Circuit::Latch(c) => c.netlist(),
            Circuit::Decomposed(c) => c.netlist(),
        }
    }

    /// Net of each STG signal, in signal order.
    #[must_use]
    pub fn signal_nets(&self, spec: &Stg) -> Vec<NetId> {
        match self {
            Circuit::Complex(c) => spec.signals().map(|s| c.signal_net(s)).collect(),
            Circuit::Latch(c) => spec.signals().map(|s| c.signal_net(s)).collect(),
            Circuit::Decomposed(c) => spec.signals().map(|s| c.signal_net(s)).collect(),
        }
    }
}

/// The staged pipeline entry point: a builder over a specification.
#[derive(Debug)]
pub struct Synthesis {
    spec: Stg,
    options: SynthesisOptions,
}

impl Synthesis {
    /// Starts a pipeline session on `spec` with default options.
    #[must_use]
    pub fn new(spec: Stg) -> Self {
        Synthesis {
            spec,
            options: SynthesisOptions::default(),
        }
    }

    /// Starts a session with explicit options (the [`run_batch`] path).
    #[must_use]
    pub fn with_options(spec: Stg, options: SynthesisOptions) -> Self {
        Synthesis { spec, options }
    }

    /// Selects the state-space backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Selects the target architecture.
    #[must_use]
    pub fn architecture(mut self, architecture: Architecture) -> Self {
        self.options.architecture = architecture;
        self
    }

    /// Selects the CSC resolution strategy.
    #[must_use]
    pub fn csc(mut self, csc: CscStrategy) -> Self {
        self.options.csc = csc;
        self
    }

    /// Bounds gate fan-in for [`Architecture::Decomposed`].
    #[must_use]
    pub fn max_fanin(mut self, max_fanin: usize) -> Self {
        self.options.max_fanin = Some(max_fanin);
        self
    }

    /// Skips the final exhaustive verification.
    #[must_use]
    pub fn skip_verification(mut self, skip: bool) -> Self {
        self.options.skip_verification = skip;
        self
    }

    /// Stage 1 (§2.1): builds the state space and checks boundedness,
    /// consistency, persistency and deadlock-freedom.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NotImplementable`] when a property no automatic
    /// transformation fixes fails. CSC violations do *not* fail this
    /// stage — they are [`Checked::resolve_csc`]'s job.
    pub fn check(self) -> Result<Checked, PipelineError> {
        let mut events = Vec::new();
        let space = match self.options.backend.build(&self.spec) {
            Ok(space) => space,
            Err(e) => {
                return Err(PipelineError::NotImplementable(Box::new(
                    stg::properties::failure_report(e),
                )));
            }
        };
        events.push(FlowEvent::StateSpaceBuilt {
            backend: self.options.backend,
            num_states: space.num_states(),
        });
        let report = stg::properties::report_from_sg(&self.spec, &*space);
        events.push(FlowEvent::PropertiesChecked {
            implementable: report.is_implementable(),
            csc_conflicts: report.csc_conflict_pairs,
        });
        if !report.bounded || !report.consistent || !report.persistent || !report.deadlock_free {
            return Err(PipelineError::NotImplementable(Box::new(report)));
        }
        Ok(Checked {
            spec: self.spec,
            options: self.options,
            space,
            report,
            events,
        })
    }

    /// Runs all four stages: `check → resolve_csc → synthesize → verify`.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]. Notably, specifications whose only defect is
    /// CSC are repaired automatically under the default options.
    pub fn run(self) -> Result<Verified, PipelineError> {
        self.check()?.resolve_csc()?.synthesize()?.verify()
    }
}

/// Stage 1 artifact: the specification passed every non-CSC §2.1 check.
#[derive(Debug)]
pub struct Checked {
    spec: Stg,
    options: SynthesisOptions,
    space: Box<dyn StateSpace>,
    report: ImplementabilityReport,
    events: Vec<FlowEvent>,
}

impl Checked {
    /// The specification.
    #[must_use]
    pub fn spec(&self) -> &Stg {
        &self.spec
    }

    /// The full implementability report.
    #[must_use]
    pub fn report(&self) -> &ImplementabilityReport {
        &self.report
    }

    /// The state space built by the configured backend.
    #[must_use]
    pub fn state_space(&self) -> &dyn StateSpace {
        &*self.space
    }

    /// Diagnostics accumulated so far.
    #[must_use]
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Stage 2 (§3.1): gathers candidate CSC-clean specifications.
    ///
    /// When CSC already holds the original specification (and its state
    /// graph) is the single candidate; otherwise candidates come from
    /// state-signal insertion, concurrency reduction and the mixed greedy
    /// search, per the configured [`CscStrategy`], best first.
    ///
    /// # Errors
    ///
    /// [`PipelineError::CscUnresolved`] when no candidate exists under the
    /// requested strategy. [`PipelineError::NotImplementable`] when,
    /// after a resident check, the explicit state graph the later stages
    /// run on does not build — the refusal the explicit backend's check
    /// would have given. That cannot follow a successful check: both
    /// backends bound the same state count, so a spec either builds on
    /// both or on neither
    /// (`tests/backend_differential.rs::state_limit_errors_agree` pins
    /// this for every corpus spec).
    pub fn resolve_csc(self) -> Result<CscResolved, PipelineError> {
        let Checked {
            spec,
            options,
            space,
            report,
            mut events,
        } = self;
        let mut advisory = telemetry::Counters::new();
        record_space_counters(&*space, &mut advisory);
        // Past the check the flow runs on one explicit graph: the check
        // stage's own, or — after a resident check — one built here at
        // the check's bound. Either way the sweeps and synthesis see the
        // same graph on both backends, and this build is not counted as
        // a `StateSpaceBuilt`: the check already reported the space.
        let base = space.into_state_graph(&spec).map_err(|e| {
            PipelineError::NotImplementable(Box::new(stg::properties::failure_report(e)))
        })?;
        let candidates: Vec<CscCandidate> = if report.complete_state_coding {
            vec![CscCandidate {
                spec: spec.clone(),
                transformation: None,
                space: Some(base),
                report: Some(report),
            }]
        } else {
            let kinds: &[CscKind] = match options.csc {
                CscStrategy::Fail => &[],
                CscStrategy::SignalInsertion => &[CscKind::SignalInsertion],
                CscStrategy::ConcurrencyReduction => &[CscKind::ConcurrencyReduction],
                // The mixed fall-back serves controllers needing several
                // transformations (e.g. the READ+WRITE spec of Fig. 5
                // takes a reduction plus a state signal).
                CscStrategy::Auto => &[
                    CscKind::SignalInsertion,
                    CscKind::ConcurrencyReduction,
                    CscKind::Mixed,
                ],
            };
            let mut list: Vec<CscCandidate> = Vec::new();
            for &kind in kinds {
                let sweep = match kind {
                    CscKind::SignalInsertion => {
                        synth::csc::insertion_sweep(&spec, &options.sweep, &base)
                    }
                    CscKind::ConcurrencyReduction => {
                        synth::csc::concurrency_reduction_sweep(&spec, &options.sweep, &base)
                    }
                    CscKind::Mixed => synth::csc::resolve_mixed_sweep(
                        &spec,
                        MIXED_MAX_STEPS,
                        &options.sweep,
                        &base,
                    ),
                };
                events.push(FlowEvent::CscSweep {
                    kind,
                    stats: sweep.stats,
                });
                list.extend(
                    sweep
                        .candidates
                        .into_iter()
                        .map(|r| CscCandidate::from_resolution(r, kind)),
                );
            }
            events.push(FlowEvent::CscCandidates {
                strategy: options.csc,
                count: list.len(),
            });
            if list.is_empty() {
                return Err(PipelineError::CscUnresolved { events });
            }
            list
        };
        Ok(CscResolved {
            options,
            candidates,
            events,
            advisory,
        })
    }
}

/// A candidate CSC-clean specification, with the transformation that
/// produced it (`None` for the untransformed original).
#[derive(Debug)]
pub struct CscCandidate {
    /// The (possibly transformed) specification.
    pub spec: Stg,
    /// The applied transformation, if any.
    pub transformation: Option<CscTransformation>,
    /// The candidate's state graph, when already built (the identity
    /// candidate reuses the check stage's graph, swept candidates carry
    /// the graph their sweep validated).
    space: Option<StateGraph>,
    /// The candidate's implementability report, when already computed.
    report: Option<ImplementabilityReport>,
}

impl CscCandidate {
    fn from_resolution(r: CscResolution, kind: CscKind) -> Self {
        CscCandidate {
            spec: r.stg,
            transformation: Some(CscTransformation {
                kind,
                description: r.description,
                num_states: r.num_states,
            }),
            space: Some(r.space),
            report: None,
        }
    }
}

/// Stage 2 artifact: ranked CSC-clean candidates.
#[derive(Debug)]
pub struct CscResolved {
    options: SynthesisOptions,
    candidates: Vec<CscCandidate>,
    events: Vec<FlowEvent>,
    /// The check stage's space counters (see [`record_space_counters`]):
    /// past the check the flow runs on explicit graphs, so the check
    /// stage's space is the only one that has such counters.
    advisory: telemetry::Counters,
}

impl CscResolved {
    /// The candidate transformations, best first.
    #[must_use]
    pub fn candidates(&self) -> &[CscCandidate] {
        &self.candidates
    }

    /// Diagnostics accumulated so far.
    #[must_use]
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Stage 3 (§3.2–§3.4): synthesises the first candidate that yields a
    /// working circuit in the target architecture.
    ///
    /// Several resolutions can be acceptable at the specification level
    /// (e.g. a state signal and its complement); candidates are tried
    /// best-first and the first one whose synthesised circuit verifies
    /// (unless verification is skipped) wins. Rejections are recorded as
    /// [`FlowEvent::CandidateRejected`].
    ///
    /// # Errors
    ///
    /// The last candidate's error when all of them fail.
    pub fn synthesize(mut self) -> Result<Synthesized, PipelineError> {
        let mut last_error = PipelineError::CscUnresolved { events: Vec::new() };
        let candidates = std::mem::take(&mut self.candidates);
        for (index, candidate) in candidates.into_iter().enumerate() {
            match synthesize_candidate(candidate, &self.options) {
                Ok((mut synthesized, mut events)) => {
                    if let Some(t) = &synthesized.transformation {
                        self.events.push(FlowEvent::CscApplied(t.clone()));
                    }
                    self.events.append(&mut events);
                    synthesized.events = self.events;
                    synthesized.advisory = self.advisory;
                    return Ok(synthesized);
                }
                Err((e, mut events)) => {
                    // Keep the rejected candidate's diagnostics (notably
                    // bounded-verification events) in the log.
                    self.events.append(&mut events);
                    self.events.push(FlowEvent::CandidateRejected {
                        index,
                        reason: e.to_string(),
                    });
                    last_error = e;
                }
            }
        }
        // Surface the whole rejection log with the failure — even for a
        // single candidate it carries the per-candidate diagnostics
        // (notably bounded-verification events, which must never be
        // conflated with a real failure).
        Err(PipelineError::CandidatesExhausted {
            last: Box::new(last_error),
            events: self.events,
        })
    }
}

/// Records a space's backend-specific counters (BDD nodes, states
/// decoded on demand): real work done by this process, but
/// backend-dependent — advisory only.
fn record_space_counters(space: &dyn StateSpace, advisory: &mut telemetry::Counters) {
    if let Some(n) = space.bdd_node_count() {
        advisory.set("bdd_nodes", n as u64);
    }
    if let Some(d) = space.decoded_state_count() {
        advisory.set("decoded_states", d);
    }
}

/// Runs one verification. A bound hit is surfaced as
/// [`FlowEvent::VerificationBounded`] so it is never conflated with a
/// real failure.
fn run_verify(
    spec: &Stg,
    space: &StateGraph,
    netlist: &synth::Netlist,
    nets: &[NetId],
    options: &SynthesisOptions,
    events: &mut Vec<FlowEvent>,
) -> VerificationReport {
    let report = verify::verify_with(spec, space, netlist, nets, &options.verify);
    if report.hit_state_limit() {
        events.push(FlowEvent::VerificationBounded {
            bound: options.verify.bound,
            states_explored: report.states_explored,
        });
    }
    report
}

/// Synthesises and (unless skipped) verifies one candidate.
/// Errors carry the events accumulated up to the failure, so rejected
/// candidates keep their diagnostics in the flow log.
fn synthesize_candidate(
    candidate: CscCandidate,
    options: &SynthesisOptions,
) -> Result<(Synthesized, Vec<FlowEvent>), (PipelineError, Vec<FlowEvent>)> {
    let mut events = Vec::new();
    let CscCandidate {
        spec,
        transformation,
        space,
        report,
    } = candidate;
    let fail = |e: PipelineError, events: Vec<FlowEvent>| Err((e, events));
    // Everything below runs on this thread, so the delta of boolmin's
    // thread-local prime counter taken around the logic-synthesis block
    // is exact (and thread-count-invariant: sweep workers have already
    // finished, and their counters live on their own threads).
    let primes_before = boolmin::primes_generated();
    // The sweeps keep the graphs of as many candidates as the flow
    // tries, so only a candidate resumed from a cache checkpoint
    // arrives without one.
    let space = match space {
        Some(space) => space,
        None => match StateGraph::build(&spec) {
            Ok(space) => {
                events.push(FlowEvent::StateSpaceBuilt {
                    backend: Backend::Explicit,
                    num_states: space.num_states(),
                });
                space
            }
            Err(e) => return fail(PipelineError::Synthesis(e.to_string()), events),
        },
    };
    let report = match report {
        Some(report) => report,
        None => stg::properties::report_from_sg(&spec, &space),
    };

    // Next-state functions and equations (§3.2).
    let complex = match synthesize_complex_gates(&spec, &space) {
        Ok(c) => c,
        Err(e) => return fail(PipelineError::Synthesis(e.to_string()), events),
    };
    let equations_text = complex.display_equations(&spec);
    events.push(FlowEvent::EquationsDerived {
        count: complex.equations().len(),
    });

    // Architecture mapping (§3.4). A naive decomposition that passes
    // its verification carries that report, the verdict on this very
    // netlist.
    let max_fanin = options.max_fanin.unwrap_or(2);
    let mut passed_naive = None;
    let circuit = match options.architecture {
        Architecture::ComplexGate => Circuit::Complex(complex.clone()),
        Architecture::CElement => {
            match synthesize_latch_circuit(&spec, &space, LatchStyle::CElement) {
                Ok(c) => Circuit::Latch(c),
                Err(e) => return fail(PipelineError::Synthesis(e.to_string()), events),
            }
        }
        Architecture::RsLatch => {
            match synthesize_latch_circuit(&spec, &space, LatchStyle::RsLatch) {
                Ok(c) => Circuit::Latch(c),
                Err(e) => return fail(PipelineError::Synthesis(e.to_string()), events),
            }
        }
        Architecture::Decomposed => {
            // Fig. 9: try the naive decomposition; if it is hazardous,
            // repair by resubstitution (multiple acknowledgment).
            let naive = decompose(&spec, &complex, max_fanin);
            let nets: Vec<NetId> = spec.signals().map(|s| naive.signal_net(s)).collect();
            let naive_report =
                run_verify(&spec, &space, naive.netlist(), &nets, options, &mut events);
            // A failing report is dropped here: only its verdict
            // matters, and resubstitution need not keep it alive.
            match naive_report.is_speed_independent().then_some(naive_report) {
                Some(report) => {
                    passed_naive = Some(report);
                    Circuit::Decomposed(naive)
                }
                None => Circuit::Decomposed(resubstitute(&spec, &space, &naive)),
            }
        }
    };
    events.push(FlowEvent::CircuitSynthesized {
        architecture: options.architecture,
        gates: circuit.netlist().num_gates(),
        primes: boolmin::primes_generated() - primes_before,
    });

    // Technology-library sanity (standard library; the two-input library
    // only fits decomposed netlists).
    let library = match options.architecture {
        Architecture::Decomposed => Library::two_input(),
        _ => Library::standard(),
    };
    let mapping = map_to_library(circuit.netlist(), &library).ok();
    if let Some(m) = &mapping {
        events.push(FlowEvent::LibraryMapped {
            cells: m.num_cells(),
        });
    }

    // Verification (§2.1 "implementation verification"). Latch
    // architectures are certified via their atomic equivalent plus the
    // monotonous-cover condition (§3.4); gate-level netlists go through
    // the strict Muller-model checker directly.
    let verification = if options.skip_verification {
        Verification::Skipped
    } else if let Some(report) = passed_naive {
        Verification::Passed(report)
    } else {
        let v = match &circuit {
            Circuit::Latch(latch) => {
                let violations =
                    synth::latch_arch::monotonic_violations(&spec, &space, &latch.covers);
                if !violations.is_empty() {
                    return fail(
                        PipelineError::Synthesis(format!(
                            "{} monotonous-cover violation(s) in the latch networks",
                            violations.len()
                        )),
                        events,
                    );
                }
                let (atomic, nets) = latch.atomic_netlist(&spec);
                run_verify(&spec, &space, &atomic, &nets, options, &mut events)
            }
            _ => {
                let nets = circuit.signal_nets(&spec);
                run_verify(
                    &spec,
                    &space,
                    circuit.netlist(),
                    &nets,
                    options,
                    &mut events,
                )
            }
        };
        if !v.is_speed_independent() {
            return fail(PipelineError::VerificationFailed(Box::new(v)), events);
        }
        Verification::Passed(v)
    };

    Ok((
        Synthesized {
            spec,
            space,
            transformation,
            report,
            circuit,
            equations_text,
            mapping,
            verification,
            events: Vec::new(),
            advisory: telemetry::Counters::new(),
        },
        events,
    ))
}

/// Stage 3 artifact: a synthesised circuit with its equations, mapping
/// and verification outcome (passed, or skipped on request).
#[derive(Debug)]
pub struct Synthesized {
    spec: Stg,
    space: StateGraph,
    transformation: Option<CscTransformation>,
    report: ImplementabilityReport,
    circuit: Circuit,
    equations_text: String,
    mapping: Option<Mapping>,
    verification: Verification,
    events: Vec<FlowEvent>,
    advisory: telemetry::Counters,
}

impl Synthesized {
    /// The (possibly CSC-transformed) specification actually synthesised.
    #[must_use]
    pub fn spec(&self) -> &Stg {
        &self.spec
    }

    /// The applied CSC transformation, if any.
    #[must_use]
    pub fn transformation(&self) -> Option<&CscTransformation> {
        self.transformation.as_ref()
    }

    /// The implementability report of the final specification.
    #[must_use]
    pub fn report(&self) -> &ImplementabilityReport {
        &self.report
    }

    /// The synthesised circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Pretty-printed logic equations.
    #[must_use]
    pub fn equations_text(&self) -> &str {
        &self.equations_text
    }

    /// The library mapping, when the netlist fits the library.
    #[must_use]
    pub fn mapping(&self) -> Option<&Mapping> {
        self.mapping.as_ref()
    }

    /// The final specification's state graph.
    #[must_use]
    pub fn state_space(&self) -> &StateGraph {
        &self.space
    }

    /// Diagnostics accumulated so far.
    #[must_use]
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Stage 4: records the verification outcome in the event log.
    ///
    /// The verification itself ran during candidate selection (a
    /// candidate whose circuit fails it never reaches this stage), so
    /// nothing is recomputed. With
    /// [`SynthesisOptions::skip_verification`] the outcome is
    /// [`Verification::Skipped`].
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` keeps the stage API uniform and
    /// leaves room for re-verification policies.
    pub fn verify(self) -> Result<Verified, PipelineError> {
        let Synthesized {
            spec,
            space,
            transformation,
            report,
            circuit,
            equations_text,
            mapping,
            verification,
            mut events,
            advisory,
        } = self;
        events.push(match &verification {
            Verification::Passed(v) => FlowEvent::VerificationPassed {
                states_explored: v.states_explored,
            },
            Verification::Skipped => FlowEvent::VerificationSkipped,
        });
        Ok(Verified {
            spec,
            transformation,
            report,
            circuit,
            equations_text,
            mapping,
            verification,
            space,
            events,
            advisory,
        })
    }
}

/// Stage 4 artifact: everything the pipeline produced.
#[derive(Debug)]
pub struct Verified {
    /// The (possibly CSC-transformed) specification actually synthesised.
    pub spec: Stg,
    /// The applied CSC transformation, if any.
    pub transformation: Option<CscTransformation>,
    /// The implementability report of the final specification.
    pub report: ImplementabilityReport,
    /// The synthesised circuit.
    pub circuit: Circuit,
    /// Pretty-printed logic equations (complex-gate view of the spec).
    pub equations_text: String,
    /// Library mapping of the final netlist.
    pub mapping: Option<Mapping>,
    /// The verification outcome.
    pub verification: Verification,
    space: StateGraph,
    events: Vec<FlowEvent>,
    advisory: telemetry::Counters,
}

impl Verified {
    /// The final specification's state graph.
    #[must_use]
    pub fn state_space(&self) -> &StateGraph {
        &self.space
    }

    /// Number of states of the final specification.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.space.num_states()
    }

    /// The full diagnostic log, in stage order.
    #[must_use]
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Advisory operation counters for this run: BDD nodes and lazily
    /// decoded states. Unlike [`flow_metrics`] these vary by backend,
    /// so they never enter the summary, the cache or any drift-gated
    /// artifact.
    #[must_use]
    pub fn advisory_metrics(&self) -> &telemetry::Counters {
        &self.advisory
    }
}

/// Synthesises many controllers concurrently on scoped threads (one
/// worker per available core, work-stealing over the input list via
/// [`synth::par`], the same engine the CSC candidate sweep runs on).
///
/// Results are returned in input order; per-spec failures do not abort
/// the batch.
#[must_use]
pub fn run_batch(
    specs: &[Stg],
    options: &SynthesisOptions,
) -> Vec<Result<Verified, PipelineError>> {
    // The batch workers already occupy every core; nested per-core CSC
    // sweep workers would oversubscribe the machine quadratically (and
    // multiply each sweep's retained candidate spaces), so each spec's
    // sweep runs serially inside its batch worker. Thread count is
    // output-neutral, so results are identical either way.
    let mut options = options.clone();
    options.sweep.threads = 1;
    synth::par::par_map(specs, 0, |_, spec| {
        Synthesis::with_options(spec.clone(), options.clone()).run()
    })
}

// ---------------------------------------------------------------------
// The cached, observable flow (the synthesis service's entry point)
// ---------------------------------------------------------------------

use stg::canon::Digest;

use crate::cache::ResultCache;
use crate::json::Json;
use crate::summary::SynthesisSummary;

/// Schema tag folded into every cache key; bump whenever the meaning of
/// a cached payload changes so stale entries can never be served.
/// (v4: summaries carry the deterministic [`flow_metrics`] counters and
/// circuit events carry the minimiser's prime count. v3: verification
/// runs through the composed engine — summaries carry its event log,
/// rejected candidates keep their events, and the verify bound joined
/// the key. v2: next-state derivation feeds the minimiser
/// deduplicated, lexicographically sorted code cubes — cover-size ties
/// can resolve differently than v1's first-occurrence order.)
pub const CACHE_SCHEMA: &str = "asyncsynth-flow-v4";

/// Which stage's artifact a cache key addresses. Each stage salts its
/// key with exactly the options that influence its result, so e.g. a
/// `Check` entry is shared across architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStage {
    /// The §2.1 implementability report.
    Check,
    /// The CSC-resolution checkpoint (the winning transformed
    /// specification, before synthesis).
    Csc,
    /// The complete flow result ([`SynthesisSummary`]).
    Full,
}

impl CacheStage {
    fn tag(self) -> &'static str {
        match self {
            CacheStage::Check => "check",
            CacheStage::Csc => "csc",
            CacheStage::Full => "full",
        }
    }
}

/// The content-addressed cache key of one stage of the flow on
/// `(spec, options)`: a SHA-256 over the canonical specification, the
/// schema version, the stage tag and the options that stage depends on.
#[must_use]
pub fn cache_key(spec: &Stg, options: &SynthesisOptions, stage: CacheStage) -> Digest {
    let fanin = options
        .max_fanin
        .map_or_else(|| "default".to_owned(), |n| n.to_string());
    // The sweep's state bound can change the result (candidates above
    // it are skipped), so it salts the key. The thread count is fully
    // neutral — circuit *and* diagnostics are
    // byte-identical at any count (the parity tests assert it) — so it
    // stays out, and a cache warmed at one thread count serves every
    // other.
    let sweep_bound = options.sweep.bound.to_string();
    let mut extras: Vec<&str> = vec![CACHE_SCHEMA, stage.tag(), options.backend.name()];
    if matches!(stage, CacheStage::Csc | CacheStage::Full) {
        extras.push(options.csc.name());
        extras.push(&sweep_bound);
    }
    // The verify bound salts every Full key: a bounded run can fail
    // where a bigger budget would pass, and the Decomposed architecture
    // runs its naive verification under the bound even when the final
    // verification is skipped (the verdict decides the repair).
    let verify_bound = options.verify.bound.to_string();
    if matches!(stage, CacheStage::Full) {
        extras.push(options.architecture.name());
        extras.push(&fanin);
        extras.push(if options.skip_verification {
            "noverify"
        } else {
            "verify"
        });
        extras.push(&verify_bound);
    }
    stg::canon::keyed_digest(spec, &extras)
}

/// Observes a cached flow run: one callback per completed stage (with
/// the events that stage appended) plus a cancellation poll between
/// stages. The synthesis service uses this to stream [`FlowEvent`]s to
/// clients and to abort cancelled jobs without killing the worker.
pub trait FlowObserver {
    /// Called after each stage with the stage's name and new events.
    fn stage(&mut self, stage: &str, events: &[FlowEvent]);

    /// Polled between stages; returning `true` aborts the run with
    /// [`PipelineError::Cancelled`].
    fn cancelled(&self) -> bool {
        false
    }
}

/// The no-op observer ([`run_cached`]'s default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl FlowObserver for NullObserver {
    fn stage(&mut self, _stage: &str, _events: &[FlowEvent]) {}
}

/// How the cache participated in a [`run_cached`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The complete result was served from the cache; no synthesis
    /// stage ran.
    Hit,
    /// The CSC search was skipped thanks to a stage checkpoint; the
    /// remaining stages ran.
    CscResumed,
    /// Everything ran; the result was stored for next time.
    Miss,
    /// No cache was configured.
    Disabled,
}

impl CacheOutcome {
    /// Canonical protocol name (`hit`, `csc_resumed`, `miss`, `disabled`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::CscResumed => "csc_resumed",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Disabled => "disabled",
        }
    }
}

/// Result of [`run_cached`]: the serialisable summary plus how the
/// cache participated.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The flow's outcome.
    pub summary: SynthesisSummary,
    /// Hit / resumed / miss / disabled.
    pub outcome: CacheOutcome,
    /// The full-result cache key, when a cache was configured.
    pub key: Option<Digest>,
    /// Advisory counters for the work *this process* did (see
    /// [`Verified::advisory_metrics`]); empty on a full cache hit —
    /// a served result explored nothing.
    pub advisory: telemetry::Counters,
}

/// Runs the full flow through the content-addressed result cache.
///
/// Equivalent to [`run_cached_with`] with a no-op observer.
///
/// # Errors
///
/// See [`run_cached_with`].
pub fn run_cached(
    spec: &Stg,
    options: &SynthesisOptions,
    cache: &ResultCache,
) -> Result<CachedRun, PipelineError> {
    run_cached_with(spec, options, Some(cache), &mut NullObserver)
}

/// The resumable cached flow: consults the cache per stage, runs only
/// what is missing, and reports stage completions to `observer`.
///
/// * On a **full hit** the stored [`SynthesisSummary`] is returned as-is
///   and no synthesis stage runs (the observer sees a single `cache`
///   stage carrying [`FlowEvent::CacheHit`]).
/// * On a **CSC checkpoint hit** the O(T²) CSC candidate search is
///   skipped: synthesis restarts from the checkpointed winning
///   specification.
/// * On a **miss** everything runs, then both the checkpoint and the
///   full result are stored (atomically — concurrent workers race
///   benignly; last write wins with identical content).
///
/// # Errors
///
/// Any [`PipelineError`] of the underlying stages, plus
/// [`PipelineError::Cancelled`] when the observer requests cancellation
/// between stages. Cache I/O failures are deliberately swallowed (a
/// broken cache degrades to recomputation, never to a wrong answer).
pub fn run_cached_with(
    spec: &Stg,
    options: &SynthesisOptions,
    cache: Option<&ResultCache>,
    observer: &mut dyn FlowObserver,
) -> Result<CachedRun, PipelineError> {
    if observer.cancelled() {
        return Err(PipelineError::Cancelled);
    }
    let full_key = cache.map(|_| cache_key(spec, options, CacheStage::Full));
    if let (Some(cache), Some(key)) = (cache, full_key) {
        if let Some(payload) = cache.load(&key) {
            if let Ok(summary) = SynthesisSummary::from_json(&payload) {
                let event = FlowEvent::CacheHit { key: key.to_hex() };
                observer.stage("cache", std::slice::from_ref(&event));
                return Ok(CachedRun {
                    summary,
                    outcome: CacheOutcome::Hit,
                    key: Some(key),
                    advisory: telemetry::Counters::new(),
                });
            }
        }
    }

    // CSC stage checkpoint, if one is cached.
    let csc_key = cache.map(|_| cache_key(spec, options, CacheStage::Csc));
    let checkpoint = match (cache, csc_key) {
        (Some(cache), Some(key)) => cache
            .load(&key)
            .and_then(|p| decode_csc_checkpoint(&p))
            .map(|cp| (key, cp)),
        _ => None,
    };
    let (verified, resumed) = match checkpoint {
        Some(cp) => match run_stages(spec, options, cache, observer, Some(cp)) {
            Ok(v) => (v, true),
            Err(PipelineError::Cancelled) => return Err(PipelineError::Cancelled),
            // The checkpoint key is shared across architectures (the
            // CSC search does not depend on them), but resuming pins
            // the flow to the single checkpointed candidate — which a
            // different architecture, fan-in bound or verification
            // policy may reject even though the full search would
            // backtrack to another candidate. A failed resume therefore
            // falls back to the complete flow instead of failing a run
            // that would succeed cold.
            Err(_) => (run_stages(spec, options, cache, observer, None)?, false),
        },
        None => (run_stages(spec, options, cache, observer, None)?, false),
    };

    if let (Some(cache), Some(key)) = (cache, csc_key) {
        if !resumed {
            let _ = cache.store(&key, &encode_csc_checkpoint(&verified));
        }
    }
    let summary = SynthesisSummary::from_verified(&verified, options);
    if let (Some(cache), Some(key)) = (cache, full_key) {
        let _ = cache.store(&key, &summary.to_json());
    }
    Ok(CachedRun {
        summary,
        advisory: verified.advisory_metrics().clone(),
        outcome: if cache.is_none() {
            CacheOutcome::Disabled
        } else if resumed {
            CacheOutcome::CscResumed
        } else {
            CacheOutcome::Miss
        },
        key: full_key,
    })
}

/// One complete pass through the four stages, reporting each stage to
/// the observer; with a checkpoint, the CSC search is replaced by the
/// checkpointed winning candidate.
fn run_stages(
    spec: &Stg,
    options: &SynthesisOptions,
    cache: Option<&ResultCache>,
    observer: &mut dyn FlowObserver,
    checkpoint: Option<(Digest, (Stg, Option<CscTransformation>))>,
) -> Result<Verified, PipelineError> {
    let mut seen = 0usize;
    let emit =
        |observer: &mut dyn FlowObserver, stage: &str, events: &[FlowEvent], seen: &mut usize| {
            observer.stage(stage, &events[*seen..]);
            *seen = events.len();
        };

    let checked = Synthesis::with_options(spec.clone(), options.clone()).check()?;
    emit(observer, "check", checked.events(), &mut seen);
    if let Some(cache) = cache {
        // The check stage's artifact is cacheable on its own (shared by
        // every architecture); used by the service's `check` operation.
        let key = cache_key(spec, options, CacheStage::Check);
        let _ = cache.store(&key, &crate::summary::report_to_json(checked.report()));
    }
    if observer.cancelled() {
        return Err(PipelineError::Cancelled);
    }

    let resolved = match checkpoint {
        // An untransformed checkpoint of a CSC-clean spec resumes
        // exactly as the cold run continues: on the check's graph and
        // report, without a second build.
        Some((key, (_, None))) if checked.report().complete_state_coding => {
            let mut resolved = checked.resolve_csc()?;
            resolved
                .events
                .push(FlowEvent::CscStageResumed { key: key.to_hex() });
            resolved
        }
        Some((key, (csc_spec, transformation))) => {
            let Checked {
                options,
                space,
                mut events,
                ..
            } = checked;
            events.push(FlowEvent::CscStageResumed { key: key.to_hex() });
            let mut advisory = telemetry::Counters::new();
            record_space_counters(&*space, &mut advisory);
            CscResolved {
                options,
                candidates: vec![CscCandidate {
                    spec: csc_spec,
                    transformation,
                    space: None,
                    report: None,
                }],
                events,
                advisory,
            }
        }
        None => checked.resolve_csc()?,
    };
    emit(observer, "csc", resolved.events(), &mut seen);
    if observer.cancelled() {
        return Err(PipelineError::Cancelled);
    }

    let synthesized = resolved.synthesize()?;
    emit(observer, "synthesize", synthesized.events(), &mut seen);
    if observer.cancelled() {
        return Err(PipelineError::Cancelled);
    }

    let verified = synthesized.verify()?;
    emit(observer, "verify", verified.events(), &mut seen);
    Ok(verified)
}

/// Encodes the CSC stage checkpoint: the winning (possibly transformed)
/// specification and the transformation that produced it.
fn encode_csc_checkpoint(verified: &Verified) -> Json {
    Json::obj(vec![
        ("spec", Json::str(stg::parse::write_g(&verified.spec))),
        (
            "transformation",
            verified.transformation.as_ref().map_or(Json::Null, |t| {
                Json::obj(vec![
                    ("kind", Json::str(t.kind.to_string())),
                    ("description", Json::str(&t.description)),
                    ("states", Json::num(t.num_states)),
                ])
            }),
        ),
    ])
}

/// Decodes a CSC checkpoint; `None` on any mismatch (treated as a miss).
fn decode_csc_checkpoint(payload: &Json) -> Option<(Stg, Option<CscTransformation>)> {
    let spec = stg::parse::parse_g(payload.get("spec")?.as_str()?).ok()?;
    let transformation = match payload.get("transformation")? {
        Json::Null => None,
        t => Some(CscTransformation {
            kind: t.get("kind")?.as_str()?.parse().ok()?,
            description: t.get("description")?.as_str()?.to_owned(),
            num_states: t.get("states")?.as_usize()?,
        }),
    };
    Some((spec, transformation))
}
