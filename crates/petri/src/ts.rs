//! Labelled transition systems — the abstract state-graph shape shared by
//! reachability graphs, state graphs and circuit state spaces (§1.4).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;

/// A finite labelled transition system with a designated initial state.
///
/// States are dense indices `0..num_states()`; labels are any hashable
/// type (transition ids for reachability graphs, signal transitions for
/// state graphs).
///
/// # Example
///
/// ```
/// use petri::TransitionSystem;
/// let mut ts = TransitionSystem::new(2, 0);
/// ts.add_arc(0, "a", 1);
/// ts.add_arc(1, "b", 0);
/// assert_eq!(ts.successors(0).count(), 1);
/// assert!(ts.is_deterministic());
/// ```
#[derive(Debug, Clone)]
pub struct TransitionSystem<L> {
    num_states: usize,
    initial: usize,
    arcs: Vec<(usize, L, usize)>,
    /// Outgoing arcs per state as a list threaded through the arcs, in
    /// insertion order: the state's first and last arc ([`NO_ARC`] when
    /// it has none) and, per arc, the state's next one. No per-state
    /// allocation, which keeps building a system as cheap as pushing
    /// its arcs.
    first_out: Vec<usize>,
    last_out: Vec<usize>,
    next_out: Vec<usize>,
}

/// End of an outgoing-arc list.
const NO_ARC: usize = usize::MAX;

impl<L: Clone + Eq + Hash> TransitionSystem<L> {
    /// Creates a system with `num_states` states and no arcs.
    ///
    /// # Panics
    ///
    /// Panics if `initial >= num_states` (unless both are zero).
    #[must_use]
    pub fn new(num_states: usize, initial: usize) -> Self {
        assert!(initial < num_states || num_states == 0);
        TransitionSystem {
            num_states,
            initial,
            arcs: Vec::new(),
            first_out: vec![NO_ARC; num_states],
            last_out: vec![NO_ARC; num_states],
            next_out: Vec::new(),
        }
    }

    /// Reserves room for at least `states` more states and `arcs` more
    /// arcs, so a system whose size is known in advance is built without
    /// growing its tables.
    pub fn reserve(&mut self, states: usize, arcs: usize) {
        self.first_out.reserve(states);
        self.last_out.reserve(states);
        self.arcs.reserve(arcs);
        self.next_out.reserve(arcs);
    }

    /// Adds a state, returning its index.
    pub fn add_state(&mut self) -> usize {
        self.first_out.push(NO_ARC);
        self.last_out.push(NO_ARC);
        self.num_states += 1;
        self.num_states - 1
    }

    /// Adds an arc `from --label--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_arc(&mut self, from: usize, label: L, to: usize) {
        assert!(from < self.num_states && to < self.num_states);
        let idx = self.arcs.len();
        self.arcs.push((from, label, to));
        self.next_out.push(NO_ARC);
        match self.last_out[from] {
            NO_ARC => self.first_out[from] = idx,
            last => self.next_out[last] = idx,
        }
        self.last_out[from] = idx;
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of arcs.
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// All arcs as `(from, label, to)` triples.
    #[must_use]
    pub fn arcs(&self) -> &[(usize, L, usize)] {
        &self.arcs
    }

    /// Outgoing arcs of a state as `(label, target)` pairs.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = (&L, usize)> + '_ {
        let mut next = self.first_out[state];
        std::iter::from_fn(move || {
            let i = next;
            if i == NO_ARC {
                return None;
            }
            next = self.next_out[i];
            let (_, ref l, to) = self.arcs[i];
            Some((l, to))
        })
    }

    /// The target of the `label` arc out of `state`, if exactly one exists.
    #[must_use]
    pub fn successor_by_label(&self, state: usize, label: &L) -> Option<usize> {
        let mut found = None;
        for (l, to) in self.successors(state) {
            if l == label {
                if found.is_some() {
                    return None;
                }
                found = Some(to);
            }
        }
        found
    }

    /// Labels enabled (outgoing) at a state, deduplicated.
    #[must_use]
    pub fn enabled_labels(&self, state: usize) -> Vec<L> {
        // Out-degrees are small: a linear scan beats hashing.
        let mut out: Vec<L> = Vec::new();
        for (l, _) in self.successors(state) {
            if !out.contains(l) {
                out.push(l.clone());
            }
        }
        out
    }

    /// `true` if no state has two outgoing arcs with the same label.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        for s in 0..self.num_states {
            let mut seen = HashSet::new();
            for (l, _) in self.successors(s) {
                if !seen.insert(l.clone()) {
                    return false;
                }
            }
        }
        true
    }

    /// States with no outgoing arcs (deadlocks).
    #[must_use]
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.num_states)
            .filter(|&s| self.first_out[s] == NO_ARC)
            .collect()
    }

    /// All states reachable from the initial state.
    #[must_use]
    pub fn reachable_states(&self) -> HashSet<usize> {
        let mut seen = HashSet::new();
        if self.num_states == 0 {
            return seen;
        }
        let mut queue = VecDeque::new();
        seen.insert(self.initial);
        queue.push_back(self.initial);
        while let Some(s) = queue.pop_front() {
            for (_, to) in self.successors(s) {
                if seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        seen
    }

    /// The set of labels occurring on any arc.
    #[must_use]
    pub fn alphabet(&self) -> HashSet<L> {
        self.arcs.iter().map(|(_, l, _)| l.clone()).collect()
    }

    /// Checks whether two deterministic systems accept the same language
    /// when viewed as automata with all states accepting, by a simultaneous
    /// walk. Returns `false` for nondeterministic inputs.
    ///
    /// Used to verify back-annotation (§4): the extracted PN's reachability
    /// graph must be trace-equivalent to the original state graph.
    #[must_use]
    pub fn trace_equivalent(&self, other: &TransitionSystem<L>) -> bool {
        if !self.is_deterministic() || !other.is_deterministic() {
            return false;
        }
        let mut visited: HashSet<(usize, usize)> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((self.initial, other.initial));
        visited.insert((self.initial, other.initial));
        while let Some((a, b)) = queue.pop_front() {
            let la: HashSet<L> = self.enabled_labels(a).into_iter().collect();
            let lb: HashSet<L> = other.enabled_labels(b).into_iter().collect();
            if la != lb {
                return false;
            }
            for l in la {
                let na = self.successor_by_label(a, &l).expect("deterministic");
                let nb = other.successor_by_label(b, &l).expect("deterministic");
                if visited.insert((na, nb)) {
                    queue.push_back((na, nb));
                }
            }
        }
        true
    }

    /// Builds the system obtained by relabelling every arc.
    #[must_use]
    pub fn map_labels<M: Clone + Eq + Hash>(
        &self,
        mut f: impl FnMut(&L) -> M,
    ) -> TransitionSystem<M> {
        let mut ts = TransitionSystem::new(self.num_states, self.initial);
        for (from, l, to) in &self.arcs {
            ts.add_arc(*from, f(l), *to);
        }
        ts
    }

    /// Restriction to the reachable part, renumbering states densely.
    /// Returns the new system and the old→new state map.
    #[must_use]
    pub fn restrict_to_reachable(&self) -> (TransitionSystem<L>, HashMap<usize, usize>) {
        let reach = self.reachable_states();
        let mut order: Vec<usize> = reach.into_iter().collect();
        order.sort_unstable();
        let map: HashMap<usize, usize> = order
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let mut ts = TransitionSystem::new(order.len(), map[&self.initial]);
        for (from, l, to) in &self.arcs {
            if let (Some(&f), Some(&t)) = (map.get(from), map.get(to)) {
                ts.add_arc(f, l.clone(), t);
            }
        }
        (ts, map)
    }
}

impl<L: Clone + Eq + Hash + fmt::Display> TransitionSystem<L> {
    /// Multi-line rendering: one line per arc.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ts: {} states, {} arcs, initial s{}",
            self.num_states,
            self.arcs.len(),
            self.initial
        );
        for (from, l, to) in &self.arcs {
            let _ = writeln!(s, "  s{from} --{l}--> s{to}");
        }
        s
    }
}
