//! Pluggable state-space engines for the §2.1 implementability check.
//!
//! The check stage builds a [`StateSpace`] with the engine [`Backend`]
//! selects and asks it for the check's answers. There are two engines:
//!
//! * [`StateGraph`] — the explicit breadth-first token-game construction
//!   of §1.4, and the only representation with per-state structure
//!   (markings by reference, the transition system). Everything past the
//!   check — CSC sweeps, logic synthesis, the monotonous-cover check,
//!   simulation, waveforms, verification — takes `&StateGraph`;
//! * [`SymbolicSetSpace`] — the resident-BDD engine (§2.2): the
//!   characteristic function of the reachable (marking, code) pairs stays
//!   in its manager and the report comes from cube intersections and
//!   satisfying-assignment counts, never from enumerating states.
//!
//! # The check's contract
//!
//! [`StateSpace`] is exactly what the check stage and the CLI's `check`
//! need: the state count, the §2.1 report, the CSC conflict witnesses,
//! the duplication excess that gates the witness listing, two advisory
//! counters, and the hand-over of an explicit graph to the rest of the
//! flow. Each engine answers natively: the explicit verdicts are free
//! functions over [`StateGraph`] ([`crate::encoding`],
//! [`crate::persistency`]), the symbolic ones are methods of
//! [`SymbolicSetSpace`]. Nothing outside an engine handles another
//! engine's sets.

use std::fmt;
use std::str::FromStr;

use crate::encoding::{self, EncodingConflict};
use crate::model::Stg;
use crate::persistency;
use crate::properties::ImplementabilityReport;
use crate::state_graph::{StateGraph, StgError};
use crate::symbolic_set::SymbolicSetSpace;

/// The default state bound of every unbounded `build` entry point
/// ([`Backend::build`], [`StateGraph::build`], [`SymbolicSetSpace::build`]):
/// builds that exceed it fail with `StgError::Reach(ReachError::StateLimit)`.
///
/// The CSC candidate sweeps deliberately use a *tighter* default
/// (`synth::csc::DEFAULT_SWEEP_BOUND`, 200 000): a sweep builds hundreds
/// of candidate spaces and a candidate five times larger than this bound
/// is never a useful resolution, while a single user-requested build may
/// legitimately be large. Both defaults are overridable (`build_bounded`,
/// `--csc-bound`); only the sweep bound participates in cache keys.
pub const DEFAULT_STATE_BOUND: usize = 1_000_000;

/// A built state space, as the §2.1 check consumes it.
///
/// States are dense indices `0..num_states()` with state `0` initial;
/// witnesses name states by these indices, which differ between engines.
pub trait StateSpace: fmt::Debug + Send + Sync {
    /// Which backend produced this space.
    fn backend(&self) -> Backend;

    /// Number of states (saturated at `usize::MAX`).
    fn num_states(&self) -> usize;

    /// The §2.1 implementability report of `stg`, whose space this is.
    fn report(&self, stg: &Stg) -> ImplementabilityReport;

    /// The CSC conflict witnesses: same-code state pairs disagreeing on
    /// some non-input excitation, ordered by code, then by state pair.
    /// This decodes the states of every duplicated code, so callers gate
    /// it on [`StateSpace::duplication_excess`].
    fn csc_conflicts(&self, stg: &Stg) -> Vec<EncodingConflict>;

    /// States minus distinct codes: a lower bound on the number of
    /// same-code state pairs, and so on the cost of
    /// [`StateSpace::csc_conflicts`].
    fn duplication_excess(&self) -> u128;

    /// BDD nodes allocated in the manager backing this space, for the
    /// resident-BDD backend. Advisory telemetry only: the value varies by
    /// backend, so it must never join the deterministic (drift-gated)
    /// metric set.
    fn bdd_node_count(&self) -> Option<usize> {
        None
    }

    /// States decoded on demand so far, for backends that materialise
    /// lazily. Advisory telemetry only, for the same reason.
    fn decoded_state_count(&self) -> Option<u64> {
        None
    }

    /// The explicit state graph of `stg` the rest of the flow runs on:
    /// this space itself when it is one, otherwise built here (the
    /// default state bound, as the check's own build).
    ///
    /// # Errors
    ///
    /// The explicit builder's [`StgError`].
    fn into_state_graph(self: Box<Self>, stg: &Stg) -> Result<StateGraph, StgError>;
}

impl StateSpace for StateGraph {
    fn backend(&self) -> Backend {
        Backend::Explicit
    }

    fn num_states(&self) -> usize {
        StateGraph::num_states(self)
    }

    fn report(&self, stg: &Stg) -> ImplementabilityReport {
        let usc = encoding::has_usc(stg, self);
        let csc_pairs = if usc {
            0
        } else {
            encoding::csc_conflict_pair_count(stg, self)
        };
        ImplementabilityReport::of_built_space(
            self.num_states(),
            usc,
            csc_pairs,
            persistency::blocking_violation_count(stg, self),
            self.has_deadlock(),
        )
    }

    fn csc_conflicts(&self, stg: &Stg) -> Vec<EncodingConflict> {
        encoding::csc_conflicts(stg, self)
    }

    fn duplication_excess(&self) -> u128 {
        (self.num_states() - self.code_classes().count()) as u128
    }

    fn into_state_graph(self: Box<Self>, _stg: &Stg) -> Result<StateGraph, StgError> {
        Ok(*self)
    }
}

/// Selects the engine used to build [`StateSpace`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Explicit breadth-first reachability ([`StateGraph`], §1.4).
    #[default]
    Explicit,
    /// Resident-BDD symbolic state space answering set-level queries
    /// without enumeration ([`SymbolicSetSpace`]).
    SymbolicSet,
}

impl Backend {
    /// The backend's canonical lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Explicit => "explicit",
            Backend::SymbolicSet => "symbolic-set",
        }
    }

    /// Builds the state space of `stg` with this backend, bounded by
    /// [`DEFAULT_STATE_BOUND`].
    ///
    /// # Errors
    ///
    /// Returns [`StgError`] exactly as the explicit builder does: unsafe
    /// nets report boundedness failures, inconsistent specifications
    /// report the offending edge or state.
    pub fn build(self, stg: &Stg) -> Result<Box<dyn StateSpace>, StgError> {
        self.build_bounded(stg, DEFAULT_STATE_BOUND)
    }

    /// Like [`Backend::build`] with an explicit state limit.
    ///
    /// # Errors
    ///
    /// See [`Backend::build`].
    pub fn build_bounded(
        self,
        stg: &Stg,
        max_states: usize,
    ) -> Result<Box<dyn StateSpace>, StgError> {
        Ok(match self {
            Backend::Explicit => Box::new(StateGraph::build_bounded(stg, max_states)?),
            Backend::SymbolicSet => Box::new(SymbolicSetSpace::build_bounded(stg, max_states)?),
        })
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "explicit" => Ok(Backend::Explicit),
            "symbolic-set" | "symbolic_set" => Ok(Backend::SymbolicSet),
            other => Err(format!(
                "unknown backend {other:?} (expected \"explicit\" or \"symbolic-set\")"
            )),
        }
    }
}
