//! Binary-encoded state graphs (§1.4: *"A TS with states labeled with
//! binary codes of signals is called a state graph of an STG. State graphs
//! are of primary importance since they form the basis of logic
//! synthesis."*).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

use petri::reach::{ReachError, ReachabilityGraph};
use petri::{Marking, TransitionId, TransitionSystem};

use crate::model::{SignalEdge, SignalId, Stg};
use crate::state_space::StateSpace;

/// Errors raised while building a state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// The underlying net is not safe / exceeded the state limit.
    Reach(ReachError),
    /// A signal edge fired from the wrong value (e.g. `a+` while `a = 1`):
    /// the STG is not *consistent* (§2.1).
    InconsistentEdge {
        /// The offending transition's label text.
        transition: String,
        /// Index of the state graph state where it fired.
        state: usize,
    },
    /// Two paths assign different binary codes to the same marking — also a
    /// consistency violation.
    InconsistentCode {
        /// Index of the state that was re-reached with a different code.
        state: usize,
    },
    /// A signal never settles: different first-edge polarities on
    /// different paths made initial-value inference contradictory.
    AmbiguousInitialValue {
        /// The signal name.
        signal: String,
    },
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Reach(e) => write!(f, "reachability failure: {e}"),
            StgError::InconsistentEdge { transition, state } => {
                write!(f, "inconsistent edge {transition} fired in state s{state}")
            }
            StgError::InconsistentCode { state } => {
                write!(f, "state s{state} reached with two different binary codes")
            }
            StgError::AmbiguousInitialValue { signal } => {
                write!(f, "cannot infer a unique initial value for signal {signal}")
            }
        }
    }
}

impl std::error::Error for StgError {}

impl From<ReachError> for StgError {
    fn from(e: ReachError) -> Self {
        StgError::Reach(e)
    }
}

/// One state of a [`StateGraph`]: a marking plus the binary code of all
/// signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgState {
    /// The marking of the underlying net.
    pub marking: Marking,
    /// Signal values, indexed by [`SignalId`].
    pub code: Vec<bool>,
}

/// The state graph of an STG: reachable markings with binary signal codes,
/// as produced by the token game of Fig. 4.
#[derive(Debug, Clone)]
pub struct StateGraph {
    states: Vec<SgState>,
    ts: TransitionSystem<TransitionId>,
    initial_values: Vec<bool>,
    num_signals: usize,
    /// Lazily built code → states index (see [`StateGraph::code_index`]).
    code_index: OnceLock<HashMap<Vec<bool>, Vec<usize>>>,
}

impl StateGraph {
    /// Builds the state graph, inferring initial signal values when the STG
    /// does not fix them, and checking consistency along the way.
    ///
    /// # Errors
    ///
    /// Returns [`StgError`] if the net is unsafe, a rising edge fires at
    /// value 1 (or falling at 0), or a marking is re-reached with a
    /// different code.
    pub fn build(stg: &Stg) -> Result<Self, StgError> {
        Self::build_bounded(stg, crate::state_space::DEFAULT_STATE_BOUND)
    }

    /// Like [`StateGraph::build`] with an explicit state limit.
    ///
    /// # Errors
    ///
    /// See [`StateGraph::build`].
    pub fn build_bounded(stg: &Stg, max_states: usize) -> Result<Self, StgError> {
        let rg = ReachabilityGraph::build_bounded(stg.net(), 1, max_states)?;
        let initial_values = match stg.initial_values() {
            Some(v) => v.to_vec(),
            None => infer_initial_values(stg, rg.ts()),
        };
        let n = stg.num_signals();
        let codes = propagate_codes(stg, rg.ts(), &initial_values)?;
        let states: Vec<SgState> = rg
            .markings()
            .iter()
            .cloned()
            .zip(codes)
            .map(|(marking, code)| SgState { marking, code })
            .collect();
        Ok(StateGraph {
            states,
            ts: rg.ts().clone(),
            initial_values,
            num_signals: n,
            code_index: OnceLock::new(),
        })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of signals in the code.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.num_signals
    }

    /// A state by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> &SgState {
        &self.states[i]
    }

    /// All states.
    #[must_use]
    pub fn states(&self) -> &[SgState] {
        &self.states
    }

    /// The transition system over net-transition labels (state 0 initial).
    #[must_use]
    pub fn ts(&self) -> &TransitionSystem<TransitionId> {
        &self.ts
    }

    /// The (possibly inferred) initial signal values.
    #[must_use]
    pub fn initial_values(&self) -> &[bool] {
        &self.initial_values
    }

    // The query helpers below delegate to the `StateSpace` defaults so
    // the logic exists exactly once and every backend renders/answers
    // identically; the inherent copies survive only so callers need not
    // import the trait.

    /// Value of signal `sig` in state `i`.
    #[must_use]
    pub fn value(&self, i: usize, sig: SignalId) -> bool {
        StateSpace::value(self, i, sig)
    }

    /// The signal edges enabled (excited) in state `i`, as
    /// `(transition, signal, edge)` triples; dummies are skipped.
    #[must_use]
    pub fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)> {
        StateSpace::excitations(self, stg, i)
    }

    /// `true` if signal `sig` is excited (has an enabled edge) in state `i`.
    #[must_use]
    pub fn is_excited(&self, stg: &Stg, i: usize, sig: SignalId) -> bool {
        StateSpace::is_excited(self, stg, i, sig)
    }

    /// The paper's state rendering: binary code with `*` after each excited
    /// signal, e.g. `10.11*.0` — here without grouping dots: `1011*0`.
    #[must_use]
    pub fn code_string(&self, stg: &Stg, i: usize) -> String {
        StateSpace::code_string(self, stg, i)
    }

    /// The plain binary code of state `i` as a `0`/`1` string.
    #[must_use]
    pub fn plain_code_string(&self, i: usize) -> String {
        StateSpace::plain_code_string(self, i)
    }

    /// Successor state along a given transition, if enabled.
    #[must_use]
    pub fn successor(&self, state: usize, t: TransitionId) -> Option<usize> {
        StateSpace::successor(self, state, t)
    }

    /// States whose code equals `code`.
    #[must_use]
    pub fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        StateSpace::states_with_code(self, code)
    }

    /// The code → states index, built on first use. One hash map build
    /// replaces the linear scans that used to serve every
    /// `states_with_code` call (hot in CSC conflict detection).
    pub(crate) fn code_index(&self) -> &HashMap<Vec<bool>, Vec<usize>> {
        self.code_index
            .get_or_init(|| build_code_index(&self.states))
    }
}

/// Infers initial signal values from first-edge polarities (a signal whose
/// first reachable edge is rising starts at 0; falling starts at 1;
/// never-switching signals default to 0).
fn infer_initial_values(stg: &Stg, ts: &TransitionSystem<TransitionId>) -> Vec<bool> {
    let n = stg.num_signals();
    let mut first_edge: Vec<Option<SignalEdge>> = vec![None; n];
    // BFS over the transition structure; the first edge of each signal
    // seen in BFS order decides. A genuinely contradictory STG will then
    // fail the consistency propagation in `propagate_codes`, which
    // re-validates everything, so BFS order cannot smuggle in a wrong
    // answer silently.
    let mut visited = vec![false; ts.num_states()];
    let mut queue = VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    while let Some(s) = queue.pop_front() {
        for (&t, to) in ts.successors(s) {
            if let Some(l) = stg.label(t) {
                let slot = &mut first_edge[l.signal.index()];
                if slot.is_none() {
                    *slot = Some(l.edge);
                }
            }
            if !visited[to] {
                visited[to] = true;
                queue.push_back(to);
            }
        }
    }
    first_edge
        .into_iter()
        .map(|e| match e {
            Some(SignalEdge::Rise) | None => false,
            Some(SignalEdge::Fall) => true,
        })
        .collect()
}

/// Propagates binary codes from state `0` over the transition structure,
/// validating consistency (§2.1) along the way. Shared by every
/// state-space backend: each backend supplies its own reachable-state
/// structure; the signal interpretation is identical.
fn propagate_codes(
    stg: &Stg,
    ts: &TransitionSystem<TransitionId>,
    initial_values: &[bool],
) -> Result<Vec<Vec<bool>>, StgError> {
    let mut codes: Vec<Option<Vec<bool>>> = vec![None; ts.num_states()];
    codes[0] = Some(initial_values.to_vec());
    let mut queue = VecDeque::new();
    queue.push_back(0usize);
    while let Some(s) = queue.pop_front() {
        let code = codes[s].clone().expect("queued states are coded");
        for (&t, to) in ts.successors(s) {
            let mut next = code.clone();
            if let Some(label) = stg.label(t) {
                let idx = label.signal.index();
                let expected_before = !label.edge.value_after();
                if next[idx] != expected_before {
                    return Err(StgError::InconsistentEdge {
                        transition: stg.label_string(t),
                        state: s,
                    });
                }
                next[idx] = label.edge.value_after();
            }
            match &codes[to] {
                Some(existing) => {
                    if *existing != next {
                        return Err(StgError::InconsistentCode { state: to });
                    }
                }
                None => {
                    codes[to] = Some(next);
                    queue.push_back(to);
                }
            }
        }
    }
    Ok(codes
        .into_iter()
        .map(|c| c.expect("state spaces are connected from state 0"))
        .collect())
}

/// Builds the code → states index (state indices per code, in
/// ascending order).
fn build_code_index(states: &[SgState]) -> HashMap<Vec<bool>, Vec<usize>> {
    let mut map: HashMap<Vec<bool>, Vec<usize>> = HashMap::new();
    for (i, s) in states.iter().enumerate() {
        map.entry(s.code.clone()).or_default().push(i);
    }
    map
}

/// Result alias used throughout the crate.
pub type Result<T, E = StgError> = std::result::Result<T, E>;
