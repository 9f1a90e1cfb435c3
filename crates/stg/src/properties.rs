//! Aggregated implementability report (§2.1: boundedness, consistency,
//! complete state coding, persistency — *"If all the above properties are
//! satisfied, then the STG specification can be implemented as a, so
//! called, speed-independent circuit"*).

use std::fmt;

use crate::model::Stg;
use crate::state_graph::StgError;
use crate::state_space::{Backend, StateSpace};

/// The per-property outcome of the implementability analysis.
#[derive(Debug, Clone)]
pub struct ImplementabilityReport {
    /// The net is safe and its state space finite (boundedness).
    pub bounded: bool,
    /// Rising/falling edges alternate per signal (consistency). `false`
    /// also covers unbounded nets where the check could not run.
    pub consistent: bool,
    /// Error describing why boundedness/consistency failed, if it did.
    pub error: Option<StgError>,
    /// Number of states in the state graph (0 when it could not be built).
    pub num_states: usize,
    /// No two states share a binary code.
    pub unique_state_coding: bool,
    /// States sharing a code agree on non-input excitations.
    pub complete_state_coding: bool,
    /// Number of CSC-violating state pairs.
    pub csc_conflict_pairs: usize,
    /// No non-input transition is ever disabled; inputs only disabled by
    /// inputs.
    pub persistent: bool,
    /// Number of blocking persistency violations.
    pub persistency_violations: usize,
    /// No reachable deadlock.
    pub deadlock_free: bool,
}

impl ImplementabilityReport {
    /// The report of a space that built: bounded and consistent, with the
    /// engine's verdicts on the rest.
    pub(crate) fn of_built_space(
        num_states: usize,
        usc: bool,
        csc_pairs: usize,
        violations: usize,
        deadlock: bool,
    ) -> Self {
        ImplementabilityReport {
            bounded: true,
            consistent: true,
            error: None,
            num_states,
            unique_state_coding: usc,
            complete_state_coding: csc_pairs == 0,
            csc_conflict_pairs: csc_pairs,
            persistent: violations == 0,
            persistency_violations: violations,
            deadlock_free: !deadlock,
        }
    }

    /// `true` if a speed-independent implementation exists without further
    /// transformation (all of §2.1's properties hold).
    #[must_use]
    pub fn is_implementable(&self) -> bool {
        self.bounded
            && self.consistent
            && self.complete_state_coding
            && self.persistent
            && self.deadlock_free
    }
}

impl fmt::Display for ImplementabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let yes_no = |b: bool| if b { "yes" } else { "NO" };
        writeln!(f, "bounded (safe):        {}", yes_no(self.bounded))?;
        writeln!(f, "consistent:            {}", yes_no(self.consistent))?;
        writeln!(f, "states:                {}", self.num_states)?;
        writeln!(
            f,
            "unique state coding:   {}",
            yes_no(self.unique_state_coding)
        )?;
        writeln!(
            f,
            "complete state coding: {} ({} conflict pair(s))",
            yes_no(self.complete_state_coding),
            self.csc_conflict_pairs
        )?;
        writeln!(
            f,
            "persistent:            {} ({} blocking violation(s))",
            yes_no(self.persistent),
            self.persistency_violations
        )?;
        writeln!(f, "deadlock-free:         {}", yes_no(self.deadlock_free))?;
        write!(
            f,
            "=> implementable as a speed-independent circuit: {}",
            yes_no(self.is_implementable())
        )
    }
}

/// Runs the full §2.1 property suite with the chosen state-space backend.
#[must_use]
pub fn check_implementability(stg: &Stg, backend: Backend) -> ImplementabilityReport {
    match backend.build(stg) {
        Ok(space) => report_from_sg(stg, &*space),
        Err(e) => failure_report(e),
    }
}

/// The all-failed report for a specification whose state space could not
/// be built. Exposed so callers already holding the build error (e.g. the
/// pipeline's check stage) need not rebuild the space to produce it.
#[must_use]
pub fn failure_report(e: StgError) -> ImplementabilityReport {
    ImplementabilityReport {
        bounded: !matches!(e, StgError::Reach(_)),
        consistent: false,
        error: Some(e),
        num_states: 0,
        unique_state_coding: false,
        complete_state_coding: false,
        csc_conflict_pairs: 0,
        persistent: false,
        persistency_violations: 0,
        deadlock_free: false,
    }
}

/// The report for an already-built state space (any backend): the
/// engine's own [`StateSpace::report`]. The resident-BDD backend produces
/// it without enumerating a single state.
#[must_use]
pub fn report_from_sg<S: StateSpace + ?Sized>(stg: &Stg, sg: &S) -> ImplementabilityReport {
    sg.report(stg)
}
