//! Explicit reachability-graph generation (§1.4: "Playing the token game
//! one can generate a Transition System").

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::marking::Marking;
use crate::net::{PetriNet, TransitionId};
use crate::ts::TransitionSystem;

/// Why reachability-graph construction stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// A marking exceeded the requested bound: the net is not `k`-bounded.
    ///
    /// Carries the offending marking; the paper's flows require safe
    /// (1-bounded) nets (§1.1).
    BoundExceeded(Marking),
    /// More states were found than the configured limit; the graph is cut
    /// off to protect against state explosion (§2.2).
    StateLimit(usize),
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::BoundExceeded(m) => {
                write!(f, "net is not bounded at the requested bound: marking {m}")
            }
            ReachError::StateLimit(n) => write!(f, "state limit of {n} states exceeded"),
        }
    }
}

impl std::error::Error for ReachError {}

/// The reachability graph of a net: a [`TransitionSystem`] whose states are
/// markings and whose arcs are labelled with fired transitions.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    ts: TransitionSystem<TransitionId>,
}

impl ReachabilityGraph {
    /// Builds the full reachability graph of a safe net.
    ///
    /// Equivalent to [`ReachabilityGraph::build_bounded`] with `bound = 1`
    /// and a one-million-state limit.
    ///
    /// # Errors
    ///
    /// See [`ReachabilityGraph::build_bounded`].
    pub fn build(net: &PetriNet) -> Result<Self, ReachError> {
        Self::build_bounded(net, 1, 1_000_000)
    }

    /// Builds the reachability graph by breadth-first token play.
    ///
    /// # Errors
    ///
    /// * [`ReachError::BoundExceeded`] if any reachable marking puts more
    ///   than `bound` tokens in a place;
    /// * [`ReachError::StateLimit`] if more than `max_states` markings are
    ///   reached.
    pub fn build_bounded(
        net: &PetriNet,
        bound: u32,
        max_states: usize,
    ) -> Result<Self, ReachError> {
        let (counts, ts) = token_game(net, bound, max_states)?;
        let places = net.num_places();
        let markings: Vec<Marking> = (0..ts.num_states())
            .map(|s| Marking::from_counts(counts[s * places..(s + 1) * places].to_vec()))
            .collect();
        Ok(ReachabilityGraph { markings, ts })
    }

    /// Number of reachable markings.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.markings.len()
    }

    /// The marking of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn marking(&self, state: usize) -> &Marking {
        &self.markings[state]
    }

    /// All markings in state order.
    #[must_use]
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// The underlying transition system (state 0 is the initial marking).
    #[must_use]
    pub fn ts(&self) -> &TransitionSystem<TransitionId> {
        &self.ts
    }

    /// States with no enabled transitions.
    #[must_use]
    pub fn deadlocks(&self) -> Vec<usize> {
        self.ts.deadlocks()
    }

    /// `true` if every transition of the net fires on some arc
    /// (no dead transitions — a liveness smoke test).
    #[must_use]
    pub fn all_transitions_fire(&self, net: &PetriNet) -> bool {
        let fired: std::collections::HashSet<TransitionId> =
            self.ts.arcs().iter().map(|(_, t, _)| *t).collect();
        net.transitions().all(|t| fired.contains(&t))
    }

    /// `true` if from every reachable state every transition can eventually
    /// fire again (strong liveness for strongly-connected behaviours).
    ///
    /// Interface controllers are cyclic, so their reachability graphs are
    /// expected to be strongly connected; this checks exactly that plus
    /// the absence of dead transitions.
    #[must_use]
    pub fn is_live_and_cyclic(&self, net: &PetriNet) -> bool {
        self.all_transitions_fire(net) && self.is_strongly_connected()
    }

    fn is_strongly_connected(&self) -> bool {
        let n = self.num_states();
        if n == 0 {
            return true;
        }
        // Forward reachability from 0.
        if self.ts.reachable_states().len() != n {
            return false;
        }
        // Backward: build the reverse system.
        let mut rev = TransitionSystem::new(n, 0);
        for (from, t, to) in self.ts.arcs() {
            rev.add_arc(*to, *t, *from);
        }
        rev.reachable_states().len() == n
    }
}

/// Plays the token game breadth-first from the initial marking into one
/// flat table: the reachable markings' token counts, `net.num_places()`
/// per state in state order, and the transition system over them.
///
/// States are numbered on first sight and each state tries its
/// transitions in id order, so state and arc order are breadth-first
/// discovery order. No object is allocated per marking: successors are
/// fired into one scratch row and looked up in an open-addressing table
/// of state indices into the counts.
///
/// # Errors
///
/// * [`ReachError::BoundExceeded`] if any reachable marking puts more
///   than `bound` tokens in a place;
/// * [`ReachError::StateLimit`] if more than `max_states` markings are
///   reached.
pub fn token_game(
    net: &PetriNet,
    bound: u32,
    max_states: usize,
) -> Result<(Vec<u32>, TransitionSystem<TransitionId>), ReachError> {
    let m0 = net.initial_marking();
    if !m0.is_k_bounded(bound) {
        return Err(ReachError::BoundExceeded(m0));
    }
    let places = net.num_places();
    let mut counts = m0.as_counts().to_vec();
    let mut seen = SeenTable::new();
    let home = seen
        .find(&counts, places, &counts)
        .expect_err("the table is empty");
    seen.fill(home, 0, &counts, places);
    let mut ts = TransitionSystem::new(1, 0);
    let mut next = vec![0u32; places];
    let mut s = 0;
    while s < ts.num_states() {
        for t in net.transitions() {
            let m = &counts[s * places..(s + 1) * places];
            if !net.preset(t).iter().all(|p| m[p.index()] > 0) {
                continue;
            }
            next.copy_from_slice(m);
            for p in net.preset(t) {
                next[p.index()] -= 1;
            }
            for p in net.postset(t) {
                next[p.index()] += 1;
            }
            // `m` is within the bound, so only an output place can exceed it.
            if net.postset(t).iter().any(|p| next[p.index()] > bound) {
                return Err(ReachError::BoundExceeded(Marking::from_counts(next)));
            }
            let to = match seen.find(&counts, places, &next) {
                Ok(to) => to,
                Err(slot) => {
                    if ts.num_states() >= max_states {
                        return Err(ReachError::StateLimit(max_states));
                    }
                    let to = ts.add_state();
                    counts.extend_from_slice(&next);
                    seen.fill(slot, to, &counts, places);
                    to
                }
            };
            ts.add_arc(s, t, to);
        }
        s += 1;
    }
    Ok((counts, ts))
}

/// The token game's seen-set: state indices in an open-addressing table
/// with linear probing, hashed and compared by their rows of the flat
/// count table (no key is stored apart from the table). Rows are hashed
/// with the standard library's randomly keyed hasher, as `HashMap` would:
/// nets may come from outside the program.
struct SeenTable {
    hasher: RandomState,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
    len: usize,
}

/// An empty slot.
const EMPTY: u32 = u32::MAX;

impl SeenTable {
    fn new() -> Self {
        SeenTable {
            hasher: RandomState::new(),
            slots: vec![EMPTY; 64],
            shift: 64 - 6,
            len: 0,
        }
    }

    /// The state whose row equals `row`, or the empty slot where it
    /// belongs.
    fn find(&self, counts: &[u32], places: usize, row: &[u32]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (self.hasher.hash_one(row) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                s => {
                    let s = s as usize;
                    if &counts[s * places..(s + 1) * places] == row {
                        return Ok(s);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Records `state` (whose row is already in `counts`) at the empty
    /// `slot` [`SeenTable::find`] returned, growing the table past half
    /// full.
    fn fill(&mut self, slot: usize, state: usize, counts: &[u32], places: usize) {
        self.slots[slot] = u32::try_from(state).expect("state count fits u32");
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let grown = vec![EMPTY; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, grown);
            self.shift -= 1;
            for s in old.into_iter().filter(|&s| s != EMPTY) {
                let s = s as usize;
                let Err(slot) = self.find(counts, places, &counts[s * places..(s + 1) * places])
                else {
                    unreachable!("rows in the table are distinct");
                };
                self.slots[slot] = s as u32;
            }
        }
    }
}
