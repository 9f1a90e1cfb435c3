//! Implementation verification (§2.1: *"After design is done ... it is
//! often desirable to check that the implementation is correct with
//! respect to the given specification"*).
//!
//! The core is the Muller-model composition of a gate [`synth::Netlist`]
//! with its STG environment: the joint state space of (specification
//! state, net values) is explored exhaustively, checking
//!
//! * **semimodularity** — an excited gate must never be de-excited by
//!   another event firing first (this is exactly the absence of hazards
//!   under the unbounded gate-delay model, §2.1's persistency argument
//!   lifted to the implementation);
//! * **conformance** — the circuit only produces output edges the
//!   specification allows, and reaches no stable state while the
//!   specification still requires outputs.
//!
//! Together these make the circuit *speed-independent* with respect to its
//! environment. The Fig. 9 experiment (accepting decomposition (a),
//! rejecting (b)) runs on this checker.
//!
//! The checker is an engine over packed composed states that tracks
//! the specification as backend-agnostic `(marking, code)` pairs, so it
//! runs against resident symbolic state spaces of any size. Every
//! verification is one full exploration through [`verify_with`].

mod circuit;
mod engine;

pub use circuit::{verify_circuit, HazardWitness, VerificationReport, Violation, WitnessState};
pub use engine::{verify_with, VerifyOptions, DEFAULT_VERIFY_BOUND};

#[cfg(test)]
mod tests;
