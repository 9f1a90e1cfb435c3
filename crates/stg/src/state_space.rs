//! Pluggable state-space backends.
//!
//! Every synthesis and verification stage consumes a [`StateSpace`] — the
//! abstract "binary-coded reachable states + transition structure" view —
//! instead of a concrete [`StateGraph`]. Two implementations exist:
//!
//! * [`StateGraph`] — the explicit breadth-first token-game construction
//!   of §1.4 (the seed implementation);
//! * [`crate::SymbolicSetSpace`] — the resident-BDD backend (§2.2): the
//!   characteristic function of the reachable (marking, code) pairs stays
//!   in the manager and queries are answered as cube intersections and
//!   satisfying-assignment counts, never by enumerating states.
//!
//! [`Backend`] selects between them at run time and is what the staged
//! `Synthesis` pipeline and the CLI expose.
//!
//! # The set-level API
//!
//! Consumers that used to iterate `0..num_states()` now phrase their
//! queries over [`StateSet`] handles: excitation and quiescent regions,
//! code lookups, counts, unions/intersections. Every set-level method has
//! a default implementation in terms of the per-state accessors, so
//! explicit backends ([`StateGraph`]) work unchanged; the resident-BDD
//! backend overrides them with BDD operations and only falls back to
//! per-state decode ([`StateSpace::decode_code`] /
//! [`StateSpace::decode_marking`], served from a small LRU of materialised
//! blocks) where a *witness* state is genuinely needed.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use petri::{Marking, TransitionId, TransitionSystem};

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
/// labelled transition structure.
///
/// States are dense indices `0..num_states()` with state `0` initial.
/// Implementations must satisfy the same invariants the explicit
/// [`StateGraph`] establishes: every state is reachable from state `0`,
/// codes are consistent along arcs, and arcs are labelled with net
/// transitions.
///
/// The per-state reference accessors (`code`, `marking`, `ts`) are only
/// guaranteed on *materialising* backends; the resident-BDD backend
/// serves them from a lazily materialised view for small spaces and
/// panics beyond its materialisation limit — scale-conscious consumers
/// use the set-level methods and the owned decode accessors instead.
pub trait StateSpace: fmt::Debug + Send + Sync {
    /// Number of states (saturated at `usize::MAX`; see
    /// [`StateSpace::marking_count`] for the exact count).
    fn num_states(&self) -> usize;

    /// Number of signals in each binary code.
    fn num_signals(&self) -> usize;

    /// The binary code of state `i`, indexed by [`SignalId`].
    fn code(&self, i: usize) -> &[bool];

    /// The net marking of state `i`.
    fn marking(&self, i: usize) -> &Marking;

    /// The transition structure (state `0` initial, arcs labelled with net
    /// transitions).
    fn ts(&self) -> &TransitionSystem<TransitionId>;

    /// The (possibly inferred) initial signal values.
    fn initial_values(&self) -> &[bool];

    /// Which backend produced this space.
    fn backend(&self) -> Backend;

    /// This space as an explicit [`StateGraph`], when it is one (the CSC
    /// sweeps derive their candidates' graphs from it).
    fn as_state_graph(&self) -> Option<&StateGraph> {
        None
    }

    /// BDD nodes allocated in the manager backing this space, for the
    /// resident-BDD backend. Advisory telemetry only: the value varies by
    /// backend and by what else shared the manager, so it must never
    /// join the deterministic (drift-gated) metric set.
    fn bdd_node_count(&self) -> Option<usize> {
        None
    }

    /// States decoded on demand so far, for backends that materialise
    /// lazily. Advisory telemetry only, for the same reason.
    fn decoded_state_count(&self) -> Option<u64> {
        None
    }

    // -----------------------------------------------------------------
    // Per-state queries (defaults in terms of the accessors above)
    // -----------------------------------------------------------------

    /// Value of signal `sig` in state `i`.
    fn value(&self, i: usize, sig: SignalId) -> bool {
        self.code(i)[sig.index()]
    }

    /// Successor state along a given transition, if enabled.
    fn successor(&self, state: usize, t: TransitionId) -> Option<usize> {
        self.ts().successor_by_label(state, &t)
    }

    /// The signal edges enabled (excited) in state `i`, as
    /// `(transition, signal, edge)` triples; dummies are skipped.
    fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)> {
        let mut out = Vec::new();
        for (&t, _) in self.ts().successors(i) {
            if let Some(l) = stg.label(t) {
                out.push((t, l.signal, l.edge));
            }
        }
        out.sort_by_key(|&(t, _, _)| t);
        out.dedup();
        out
    }

    /// `true` if signal `sig` is excited (has an enabled edge) in state `i`.
    fn is_excited(&self, stg: &Stg, i: usize, sig: SignalId) -> bool {
        self.excitations(stg, i).iter().any(|&(_, s, _)| s == sig)
    }

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

    /// The binary code of state `i`, by value. Unlike [`StateSpace::code`]
    /// this never requires materialised per-state storage — the
    /// resident-BDD backend decodes it on demand (through its LRU).
    fn decode_code(&self, i: usize) -> Vec<bool> {
        self.code(i).to_vec()
    }

    /// The marking of state `i`, by value (see [`StateSpace::decode_code`]).
    fn decode_marking(&self, i: usize) -> Marking {
        self.marking(i).clone()
    }

    /// The initial marking (state `0`'s marking). Unlike
    /// [`StateSpace::marking`] this never requires materialised
    /// per-state storage — the resident-BDD backend serves it from the
    /// net, so the composed verification engine can anchor its
    /// marking-tracked exploration on any backend at any scale.
    fn initial_marking(&self) -> Marking {
        self.marking(0).clone()
    }

    /// States whose code equals `code`.
    fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        (0..self.num_states())
            .filter(|&i| self.code(i) == code)
            .collect()
    }

    // -----------------------------------------------------------------
    // Set-level queries
    // -----------------------------------------------------------------

    /// Exact number of reachable states (not saturated).
    fn marking_count(&self) -> u128 {
        self.num_states() as u128
    }

    /// The set of all states.
    fn all_states(&self) -> StateSet {
        StateSet::Indices((0..self.num_states()).collect())
    }

    /// Number of states in a set.
    fn set_count(&self, set: &StateSet) -> u128 {
        set.as_indices().len() as u128
    }

    /// `true` when the set is empty.
    fn set_is_empty(&self, set: &StateSet) -> bool {
        self.set_count(set) == 0
    }

    /// Union of two sets.
    fn set_union(&self, a: &StateSet, b: &StateSet) -> StateSet {
        let (a, b) = (a.as_indices(), b.as_indices());
        let mut out = Vec::with_capacity(a.len() + b.len());
        merge_sorted(a, b, &mut out);
        StateSet::Indices(out)
    }

    /// Intersection of two sets.
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

    /// Difference `a ∖ b`.
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

    /// Materialises up to `limit` state indices of a set, ascending. This
    /// is the witness extractor: set-level consumers only call it on sets
    /// already known (or expected) to be small.
    fn set_states(&self, set: &StateSet, limit: usize) -> Vec<usize> {
        let idx = set.as_indices();
        idx[..idx.len().min(limit)].to_vec()
    }

    /// The distinct binary codes of a set's states. Explicit backends
    /// report them in order of first occurrence (ascending state index);
    /// the resident-BDD backend in lexicographic code order. Consumers
    /// needing a canonical order sort the result.
    fn set_codes(&self, set: &StateSet) -> Vec<Vec<bool>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &i in set.as_indices() {
            let code = self.code(i).to_vec();
            if seen.insert(code.clone()) {
                out.push(code);
            }
        }
        out
    }

    /// Number of distinct codes across the whole space.
    fn distinct_code_count(&self) -> u128 {
        let mut seen = std::collections::HashSet::new();
        for i in 0..self.num_states() {
            seen.insert(self.code(i).to_vec());
        }
        seen.len() as u128
    }

    /// `true` when some code occurs in both sets (the CSC-conflict
    /// primitive: two states with equal codes in different excitation
    /// classes).
    fn sets_share_code(&self, a: &StateSet, b: &StateSet) -> bool {
        let codes: std::collections::HashSet<Vec<bool>> = a
            .as_indices()
            .iter()
            .map(|&i| self.code(i).to_vec())
            .collect();
        b.as_indices().iter().any(|&i| codes.contains(self.code(i)))
    }

    /// States whose code equals `code`, as a set.
    fn states_with_code_set(&self, code: &[bool]) -> StateSet {
        StateSet::Indices(self.states_with_code(code))
    }

    /// Codes shared by two or more states, each with its (ascending)
    /// state list, sorted by code — the grist of USC/CSC conflict
    /// reporting. The resident-BDD backend only decodes witnesses for
    /// the (typically few) genuinely duplicated codes.
    fn duplicate_code_classes(&self) -> Vec<(Vec<bool>, Vec<usize>)> {
        let mut by_code: HashMap<Vec<bool>, Vec<usize>> = HashMap::new();
        for i in 0..self.num_states() {
            by_code.entry(self.code(i).to_vec()).or_default().push(i);
        }
        let mut out: Vec<(Vec<bool>, Vec<usize>)> = by_code
            .into_iter()
            .filter(|(_, states)| states.len() > 1)
            .collect();
        out.sort();
        out
    }

    /// The excitation region of `(signal, edge)`: states where some
    /// transition labelled with that edge is enabled.
    fn excitation_region(&self, stg: &Stg, signal: SignalId, edge: SignalEdge) -> StateSet {
        let mut out = Vec::new();
        for i in 0..self.num_states() {
            if self
                .excitations(stg, i)
                .iter()
                .any(|&(_, s, e)| s == signal && e == edge)
            {
                out.push(i);
            }
        }
        StateSet::Indices(out)
    }

    /// The states where `signal` has the given value (`ON`/`OFF` sets).
    fn value_region(&self, signal: SignalId, value: bool) -> StateSet {
        StateSet::Indices(
            (0..self.num_states())
                .filter(|&i| self.code(i)[signal.index()] == value)
                .collect(),
        )
    }

    /// `true` when some reachable state enables no transition.
    fn has_deadlock(&self) -> bool {
        !self.ts().deadlocks().is_empty()
    }

    /// Number of states where `t` and `u` are both enabled and firing `u`
    /// disables `t` — the persistency primitive, counted per ordered
    /// transition pair so the report never enumerates states.
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

    /// `true` if some path `from → to` (of length ≥ 1) fires neither
    /// avoided transition — the CSC sweep pruner's reachability probe.
    fn reaches_avoiding(
        &self,
        from: usize,
        to: usize,
        avoid: (TransitionId, TransitionId),
    ) -> bool {
        let ts = self.ts();
        let mut visited = vec![false; ts.num_states()];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(s) = queue.pop_front() {
            for (&t, succ) in ts.successors(s) {
                if t == avoid.0 || t == avoid.1 {
                    continue;
                }
                if succ == to {
                    return true;
                }
                if !visited[succ] {
                    visited[succ] = true;
                    queue.push_back(succ);
                }
            }
        }
        false
    }

    /// `true` when this backend answers the set-level queries natively
    /// (resident symbolic representation) rather than by enumerating
    /// states. Dispatch hint for consumers that keep a specialised
    /// enumeration path for explicit backends.
    fn set_level_native(&self) -> bool {
        false
    }
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

    fn code(&self, i: usize) -> &[bool] {
        &self.state(i).code
    }

    fn marking(&self, i: usize) -> &Marking {
        &self.state(i).marking
    }

    fn ts(&self) -> &TransitionSystem<TransitionId> {
        StateGraph::ts(self)
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

    fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        // Indexed override: one lazily built code → states map instead of
        // a linear scan per call (hot in CSC conflict detection).
        self.code_index().get(code).cloned().unwrap_or_default()
    }

    fn duplicate_code_classes(&self) -> Vec<(Vec<bool>, Vec<usize>)> {
        let mut out: Vec<(Vec<bool>, Vec<usize>)> = self
            .code_index()
            .iter()
            .filter(|(_, states)| states.len() > 1)
            .map(|(code, states)| (code.clone(), states.clone()))
            .collect();
        out.sort();
        out
    }

    fn distinct_code_count(&self) -> u128 {
        self.code_index().len() as u128
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
        self.build_bounded_in(stg, max_states, &mut BuildContext::default())
    }

    /// Like [`Backend::build_bounded`] with reusable cross-build scratch.
    ///
    /// Repeated builds of structurally similar STGs (the CSC candidate
    /// sweep: every candidate shares the base net's place layout) pass
    /// the same [`BuildContext`] so the resident-BDD backend keeps one BDD
    /// manager — unique table and operation caches included — across
    /// the whole sweep. The produced space is identical to a
    /// fresh-context build; the explicit backend has no scratch and
    /// ignores the context.
    ///
    /// # Errors
    ///
    /// See [`Backend::build`].
    pub fn build_bounded_in(
        self,
        stg: &Stg,
        max_states: usize,
        ctx: &mut BuildContext,
    ) -> Result<Box<dyn StateSpace>, StgError> {
        match self {
            Backend::Explicit => Ok(Box::new(StateGraph::build_bounded(stg, max_states)?)),
            Backend::SymbolicSet => {
                // The resident backend's counting is robust to leftover
                // variables from other shapes, so one manager serves the
                // whole sweep regardless of candidate shape.
                let shared = ctx.manager();
                Ok(Box::new(SymbolicSetSpace::build_bounded_in(
                    stg, max_states, shared,
                )?))
            }
        }
    }
}

/// Reusable scratch for repeated [`Backend::build_bounded_in`] calls:
/// the resident-BDD backend's shared BDD manager. That backend brings
/// its own per-build variable map and shape-robust counting, so one
/// manager serves every build regardless of net shape.
#[derive(Debug, Default)]
pub struct BuildContext {
    manager: Option<Arc<Mutex<bdd::Manager>>>,
    /// Largest node count observed across every manager this context
    /// has held, including ones already retired by the reset policy.
    peak_nodes: usize,
}

impl BuildContext {
    /// The held manager, creating one if necessary, and starting fresh
    /// once the table has grown past [`MANAGER_RESET_NODES`] — the node
    /// store never garbage-collects, so a long sweep of rejected
    /// candidates would otherwise accumulate dead nodes without bound.
    /// (Spaces already built keep their own `Arc` to the old manager,
    /// so their handles stay valid.)
    fn manager(&mut self) -> Arc<Mutex<bdd::Manager>> {
        let oversized = self.manager.as_ref().is_some_and(|m| {
            m.lock().expect("BDD manager poisoned").node_count() > MANAGER_RESET_NODES
        });
        if self.manager.is_none() || oversized {
            self.note_peak();
            self.manager = Some(Arc::new(Mutex::new(bdd::Manager::new())));
        }
        Arc::clone(self.manager.as_ref().expect("manager just ensured"))
    }

    /// Fold the held manager's current size into the peak.
    fn note_peak(&mut self) {
        if let Some(m) = &self.manager {
            let n = m.lock().expect("BDD manager poisoned").node_count();
            self.peak_nodes = self.peak_nodes.max(n);
        }
    }

    /// Node count of the currently held shared manager (0 when the
    /// context holds none, e.g. pure explicit-backend use).
    #[must_use]
    pub fn bdd_nodes(&self) -> usize {
        self.manager
            .as_ref()
            .map_or(0, |m| m.lock().expect("BDD manager poisoned").node_count())
    }

    /// Peak node count over every manager this context has held —
    /// retired managers included — so resident-backend memory growth is
    /// visible per stage even across the reset policy. Advisory
    /// telemetry: depends on backend and sweep partitioning.
    #[must_use]
    pub fn peak_bdd_nodes(&mut self) -> usize {
        self.note_peak();
        self.peak_nodes
    }
}

/// Node count past which [`BuildContext`] retires a shared resident-BDD
/// manager instead of handing it to the next build (~tens of MB of
/// never-collected nodes; memoisation across candidates is a win well
/// below this).
const MANAGER_RESET_NODES: usize = 4_000_000;

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
