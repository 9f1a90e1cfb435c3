//! Pluggable state-space backends for the §2.1 implementability check.
//!
//! The check stage consumes a [`StateSpace`] — the set-level view of the
//! binary-coded reachable states — so that it can run on either of two
//! implementations:
//!
//! * [`StateGraph`] — the explicit breadth-first token-game construction
//!   of §1.4, and the only representation with per-state structure
//!   (markings by reference, the transition system). Everything past the
//!   check — CSC sweeps, logic synthesis, the monotonous-cover check,
//!   simulation, waveforms — takes `&StateGraph`;
//! * [`crate::SymbolicSetSpace`] — the resident-BDD backend (§2.2): the
//!   characteristic function of the reachable (marking, code) pairs stays
//!   in the manager and queries are answered as cube intersections and
//!   satisfying-assignment counts, never by enumerating states.
//!
//! [`Backend`] selects between them at run time: it picks the engine of
//! the staged `Synthesis` pipeline's check stage and of the CLI's
//! `check`.
//!
//! # The set-level API
//!
//! Queries are phrased over [`StateSet`] handles: excitation regions,
//! code lookups, counts, unions/intersections. Each backend implements
//! them natively — the explicit graph over sorted index lists, the
//! resident-BDD backend with BDD operations. The per-state queries
//! ([`StateSpace::decode_code`], [`StateSpace::decode_marking`],
//! [`StateSpace::excitations`]) serve witnesses (conflict pairs,
//! rendered states); the resident backend answers them by decoding
//! single states through a small LRU of unranked blocks.

use std::fmt;
use std::str::FromStr;

use petri::{Marking, TransitionId};

use crate::model::{SignalEdge, SignalId, Stg};
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

/// A handle to a set of states of one [`StateSpace`].
///
/// Handles are backend-owned: a set produced by one space must only be
/// passed back to that same space. Explicit backends use sorted index
/// lists; the resident-BDD backend wraps the characteristic function of
/// the set's markings.
#[derive(Debug, Clone)]
pub enum StateSet {
    /// Sorted, deduplicated dense state indices (explicit backends).
    Indices(Vec<usize>),
    /// A characteristic-function handle into the owning backend's BDD
    /// manager (the resident-BDD backend). Meaningless outside it.
    Symbolic(bdd::Bdd),
}

impl StateSet {
    /// The indices of an explicit set.
    ///
    /// # Panics
    ///
    /// Panics when handed a symbolic handle — that handle only means
    /// something to the backend that produced it.
    #[must_use]
    pub fn as_indices(&self) -> &[usize] {
        match self {
            StateSet::Indices(v) => v,
            StateSet::Symbolic(_) => {
                panic!("symbolic state-set handle used with an enumerating backend")
            }
        }
    }
}

/// The state space of an STG: binary-coded reachable states over a
/// labelled transition structure, queried at set level.
///
/// States are dense indices `0..num_states()` with state `0` initial.
/// Implementations must satisfy the same invariants the explicit
/// [`StateGraph`] establishes: every state is reachable from state `0`,
/// codes are consistent along arcs, and arcs are labelled with net
/// transitions.
pub trait StateSpace: fmt::Debug + Send + Sync {
    /// Number of states (saturated at `usize::MAX`; see
    /// [`StateSpace::marking_count`] for the exact count).
    fn num_states(&self) -> usize;

    /// Number of signals in each binary code.
    fn num_signals(&self) -> usize;

    /// The (possibly inferred) initial signal values.
    fn initial_values(&self) -> &[bool];

    /// Which backend produced this space.
    fn backend(&self) -> Backend;

    /// This space as an explicit [`StateGraph`], when it is one — the
    /// only way to reach per-state structure (markings by reference, the
    /// transition system).
    fn as_state_graph(&self) -> Option<&StateGraph> {
        None
    }

    /// This space as an explicit [`StateGraph`], moved out of its box,
    /// when it is one (the flow continues on the check stage's own graph
    /// without copying it).
    fn into_state_graph(self: Box<Self>) -> Option<StateGraph> {
        None
    }

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

    // -----------------------------------------------------------------
    // Per-state queries
    // -----------------------------------------------------------------

    /// Value of signal `sig` in state `i`.
    fn value(&self, i: usize, sig: SignalId) -> bool {
        self.decode_code(i)[sig.index()]
    }

    /// The signal edges enabled (excited) in state `i`, as
    /// `(transition, signal, edge)` triples sorted by transition; dummies
    /// are skipped.
    fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)>;

    /// The paper's state rendering: binary code with `*` after each
    /// excited signal.
    fn code_string(&self, stg: &Stg, i: usize) -> String {
        let excited: Vec<SignalId> = self
            .excitations(stg, i)
            .iter()
            .map(|&(_, s, _)| s)
            .collect();
        let code = self.decode_code(i);
        let mut out = String::new();
        for s in stg.signals() {
            out.push(if code[s.index()] { '1' } else { '0' });
            if excited.contains(&s) {
                out.push('*');
            }
        }
        out
    }

    /// The plain binary code of state `i` as a `0`/`1` string.
    fn plain_code_string(&self, i: usize) -> String {
        self.decode_code(i)
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// The binary code of state `i`, indexed by [`SignalId`].
    fn decode_code(&self, i: usize) -> Vec<bool>;

    /// The net marking of state `i`.
    fn decode_marking(&self, i: usize) -> Marking;

    /// The initial marking (state `0`'s marking).
    fn initial_marking(&self) -> Marking {
        self.decode_marking(0)
    }

    /// States whose code equals `code`, ascending.
    fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        self.set_states(&self.states_with_code_set(code), usize::MAX)
    }

    // -----------------------------------------------------------------
    // Set-level queries
    // -----------------------------------------------------------------

    /// Exact number of reachable states (not saturated).
    fn marking_count(&self) -> u128 {
        self.num_states() as u128
    }

    /// The set of all states.
    fn all_states(&self) -> StateSet;

    /// Number of states in a set.
    fn set_count(&self, set: &StateSet) -> u128;

    /// `true` when the set is empty.
    fn set_is_empty(&self, set: &StateSet) -> bool {
        self.set_count(set) == 0
    }

    /// Union of two sets.
    fn set_union(&self, a: &StateSet, b: &StateSet) -> StateSet;

    /// Intersection of two sets.
    fn set_intersect(&self, a: &StateSet, b: &StateSet) -> StateSet;

    /// Difference `a ∖ b`.
    fn set_minus(&self, a: &StateSet, b: &StateSet) -> StateSet;

    /// Materialises up to `limit` state indices of a set, ascending. This
    /// is the witness extractor: set-level consumers only call it on sets
    /// already known (or expected) to be small.
    fn set_states(&self, set: &StateSet, limit: usize) -> Vec<usize>;

    /// The distinct binary codes of a set's states. Explicit backends
    /// report them in order of first occurrence (ascending state index);
    /// the resident-BDD backend in lexicographic code order. Consumers
    /// needing a canonical order sort the result.
    fn set_codes(&self, set: &StateSet) -> Vec<Vec<bool>>;

    /// Number of distinct codes across the whole space.
    fn distinct_code_count(&self) -> u128;

    /// `true` when some code occurs in both sets (the CSC-conflict
    /// primitive: two states with equal codes in different excitation
    /// classes).
    fn sets_share_code(&self, a: &StateSet, b: &StateSet) -> bool;

    /// States whose code equals `code`, as a set.
    fn states_with_code_set(&self, code: &[bool]) -> StateSet;

    /// Codes shared by two or more states, each with its (ascending)
    /// state list, sorted by code — the grist of USC/CSC conflict
    /// reporting. The resident-BDD backend only decodes witnesses for
    /// the (typically few) genuinely duplicated codes.
    fn duplicate_code_classes(&self) -> Vec<(Vec<bool>, Vec<usize>)>;

    /// The excitation region of `(signal, edge)`: states where some
    /// transition labelled with that edge is enabled.
    fn excitation_region(&self, stg: &Stg, signal: SignalId, edge: SignalEdge) -> StateSet;

    /// `true` when some reachable state enables no transition.
    fn has_deadlock(&self) -> bool;

    /// Number of states where `t` and `u` are both enabled and firing `u`
    /// disables `t` — the persistency primitive, counted per ordered
    /// transition pair so the report never enumerates states.
    fn disabling_count(&self, t: TransitionId, u: TransitionId) -> u128;
}

/// Merges two sorted, deduplicated index slices.
fn merge_sorted(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let x = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(x);
    }
}

impl StateSpace for StateGraph {
    fn num_states(&self) -> usize {
        StateGraph::num_states(self)
    }

    fn num_signals(&self) -> usize {
        StateGraph::num_signals(self)
    }

    fn initial_values(&self) -> &[bool] {
        StateGraph::initial_values(self)
    }

    fn backend(&self) -> Backend {
        Backend::Explicit
    }

    fn as_state_graph(&self) -> Option<&StateGraph> {
        Some(self)
    }

    fn into_state_graph(self: Box<Self>) -> Option<StateGraph> {
        Some(*self)
    }

    fn value(&self, i: usize, sig: SignalId) -> bool {
        StateGraph::value(self, i, sig)
    }

    fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)> {
        StateGraph::excitations(self, stg, i)
    }

    fn decode_code(&self, i: usize) -> Vec<bool> {
        self.code(i)
    }

    fn decode_marking(&self, i: usize) -> Marking {
        self.marking(i)
    }

    fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        StateGraph::states_with_code(self, code)
    }

    fn all_states(&self) -> StateSet {
        StateSet::Indices((0..self.num_states()).collect())
    }

    fn set_count(&self, set: &StateSet) -> u128 {
        set.as_indices().len() as u128
    }

    fn set_union(&self, a: &StateSet, b: &StateSet) -> StateSet {
        let (a, b) = (a.as_indices(), b.as_indices());
        let mut out = Vec::with_capacity(a.len() + b.len());
        merge_sorted(a, b, &mut out);
        StateSet::Indices(out)
    }

    fn set_intersect(&self, a: &StateSet, b: &StateSet) -> StateSet {
        let (a, b) = (a.as_indices(), b.as_indices());
        let mut out = Vec::new();
        let mut j = 0;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j < b.len() && b[j] == x {
                out.push(x);
            }
        }
        StateSet::Indices(out)
    }

    fn set_minus(&self, a: &StateSet, b: &StateSet) -> StateSet {
        let (a, b) = (a.as_indices(), b.as_indices());
        let mut out = Vec::new();
        let mut j = 0;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j >= b.len() || b[j] != x {
                out.push(x);
            }
        }
        StateSet::Indices(out)
    }

    fn set_states(&self, set: &StateSet, limit: usize) -> Vec<usize> {
        let idx = set.as_indices();
        idx[..idx.len().min(limit)].to_vec()
    }

    fn set_codes(&self, set: &StateSet) -> Vec<Vec<bool>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &i in set.as_indices() {
            if seen.insert(self.code_words(i)) {
                out.push(self.code(i));
            }
        }
        out
    }

    fn distinct_code_count(&self) -> u128 {
        self.code_classes().count() as u128
    }

    fn sets_share_code(&self, a: &StateSet, b: &StateSet) -> bool {
        let codes: std::collections::HashSet<&[u64]> =
            a.as_indices().iter().map(|&i| self.code_words(i)).collect();
        b.as_indices()
            .iter()
            .any(|&i| codes.contains(self.code_words(i)))
    }

    fn states_with_code_set(&self, code: &[bool]) -> StateSet {
        StateSet::Indices(StateGraph::states_with_code(self, code))
    }

    fn duplicate_code_classes(&self) -> Vec<(Vec<bool>, Vec<usize>)> {
        // The index runs in code order already.
        self.code_classes()
            .filter(|states| states.len() > 1)
            .map(|states| (self.code(states[0]), states.to_vec()))
            .collect()
    }

    fn excitation_region(&self, stg: &Stg, signal: SignalId, edge: SignalEdge) -> StateSet {
        StateSet::Indices(
            (0..self.num_states())
                .filter(|&i| {
                    self.ts().successors(i).any(|(&t, _)| {
                        stg.label(t)
                            .is_some_and(|l| l.signal == signal && l.edge == edge)
                    })
                })
                .collect(),
        )
    }

    fn has_deadlock(&self) -> bool {
        !self.ts().deadlocks().is_empty()
    }

    fn disabling_count(&self, t: TransitionId, u: TransitionId) -> u128 {
        if t == u {
            return 0;
        }
        let mut count = 0u128;
        for s in 0..self.num_states() {
            let Some(next) = self.successor(s, u) else {
                continue;
            };
            if self.successor(s, t).is_some() && self.successor(next, t).is_none() {
                count += 1;
            }
        }
        count
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
