//! Report types of the Muller-model composition checker; the checker
//! itself is [`crate::verify_with`].

use std::fmt;

/// A decoded composed state, attached to every hazard and conformance
/// witness so reports are actionable straight from the CLI/JSON output
/// (no opaque internal state indices to chase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessState {
    /// Every net's value at the offending composed state, in net-id
    /// order (signals and decomposition internals alike).
    pub nets: Vec<(String, bool)>,
    /// The specification code at that state — the projection of the net
    /// values onto the signal nets, as a `0`/`1` string in signal
    /// order.
    pub spec_code: String,
}

impl fmt::Display for WitnessState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "code {} [", self.spec_code)?;
        for (i, (name, value)) in self.nets.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={}", u8::from(*value))?;
        }
        f.write_str("]")
    }
}

/// A semimodularity (hazard) witness: gate `gate_output` was excited,
/// the event in `caused_by` occurred, and the gate lost its excitation
/// without switching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardWitness {
    /// Index of the composed state (exploration order).
    pub state: usize,
    /// The de-excited gate's output net name.
    pub gate_output: String,
    /// Description of the event that caused the de-excitation.
    pub caused_by: String,
    /// The decoded composed state the hazard was observed in.
    pub witness: WitnessState,
}

/// A conformance violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The circuit switched a specification signal the spec did not allow
    /// in that state.
    UnexpectedOutput {
        /// Net name of the offending signal.
        signal: String,
        /// Composed state index.
        state: usize,
        /// The decoded composed state.
        witness: WitnessState,
    },
    /// A stable circuit state (no excited gate) while the specification
    /// still expects non-input activity.
    OutputStuck {
        /// Composed state index.
        state: usize,
        /// The expected-but-unproducible spec labels.
        expected: Vec<String>,
        /// The decoded composed state.
        witness: WitnessState,
    },
    /// Internal nets failed to settle from the initial signal values.
    UnsettledInitialState,
    /// The exploration hit the composed-state limit
    /// ([`crate::VerifyOptions::bound`]); the run is *bounded*, not
    /// failed — the pipeline surfaces it as a distinct `FlowEvent`.
    StateLimit(usize),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnexpectedOutput {
                signal,
                state,
                witness,
            } => {
                write!(
                    f,
                    "unexpected output transition on {signal} in composed state {state} ({witness})"
                )
            }
            Violation::OutputStuck {
                state,
                expected,
                witness,
            } => {
                write!(
                    f,
                    "circuit stable in state {state} ({witness}) but spec expects {}",
                    expected.join(", ")
                )
            }
            Violation::UnsettledInitialState => {
                write!(f, "internal nets oscillate before any input arrives")
            }
            Violation::StateLimit(n) => write!(f, "state limit {n} exceeded"),
        }
    }
}

/// Outcome of the composed exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Hazards (semimodularity violations).
    pub hazards: Vec<HazardWitness>,
    /// Conformance violations.
    pub violations: Vec<Violation>,
    /// Number of composed states explored.
    pub states_explored: usize,
}

impl VerificationReport {
    /// `true` if the circuit is speed-independent and conformant.
    #[must_use]
    pub fn is_speed_independent(&self) -> bool {
        self.hazards.is_empty() && self.violations.is_empty()
    }

    /// `true` when the exploration was cut by the state bound — the
    /// verdict is then *inconclusive*, not a proven failure.
    #[must_use]
    pub fn hit_state_limit(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, Violation::StateLimit(_)))
    }

    /// A one-line summary.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_speed_independent() {
            format!(
                "speed-independent: OK ({} composed states)",
                self.states_explored
            )
        } else {
            format!(
                "FAILED: {} hazard(s), {} conformance violation(s) over {} states",
                self.hazards.len(),
                self.violations.len(),
                self.states_explored
            )
        }
    }
}
