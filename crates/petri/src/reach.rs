//! Explicit reachability-graph generation (§1.4: "Playing the token game
//! one can generate a Transition System").

use std::collections::{HashMap, VecDeque};
use std::fmt;

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
    index: HashMap<Marking, usize>,
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
        let m0 = net.initial_marking();
        if !m0.is_k_bounded(bound) {
            return Err(ReachError::BoundExceeded(m0));
        }
        let mut markings = vec![m0.clone()];
        let mut index = HashMap::new();
        index.insert(m0.clone(), 0usize);
        let mut arcs: Vec<(usize, TransitionId, usize)> = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        while let Some(s) = queue.pop_front() {
            let m = markings[s].clone();
            for t in net.transitions() {
                let Some(next) = net.fire(&m, t) else {
                    continue;
                };
                if !next.is_k_bounded(bound) {
                    return Err(ReachError::BoundExceeded(next));
                }
                let to = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if markings.len() >= max_states {
                            return Err(ReachError::StateLimit(max_states));
                        }
                        let i = markings.len();
                        markings.push(next.clone());
                        index.insert(next, i);
                        queue.push_back(i);
                        i
                    }
                };
                arcs.push((s, t, to));
            }
        }
        let mut ts = TransitionSystem::new(markings.len(), 0);
        for (from, t, to) in arcs {
            ts.add_arc(from, t, to);
        }
        Ok(ReachabilityGraph {
            markings,
            index,
            ts,
        })
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

    /// The markings (in state order) and the transition system, without
    /// copying either.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Marking>, TransitionSystem<TransitionId>) {
        (self.markings, self.ts)
    }

    /// The state index of a marking, if reachable.
    #[must_use]
    pub fn state_of(&self, m: &Marking) -> Option<usize> {
        self.index.get(m).copied()
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
