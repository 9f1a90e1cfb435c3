//! McMillan finite complete prefixes of safe nets (§2.2).
//!
//! *"Unfoldings are finite acyclic prefixes of the PN behavior,
//! representing all reachable markings. They are often more compact than
//! the reachability graph and ... well-suited for extracting ordering
//! relations between places and transitions (concurrency, conflict and
//! preceding)."*

use std::collections::{BTreeSet, HashSet};

use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};

/// Index of a condition (place instance) in an [`Unfolding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CondId(u32);

/// Index of an event (transition instance) in an [`Unfolding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u32);

#[derive(Debug, Clone)]
struct Condition {
    /// The place this condition instantiates.
    place: PlaceId,
    /// The event that produced it (`None` for initial conditions).
    producer: Option<EventId>,
}

#[derive(Debug, Clone)]
struct Event {
    /// The transition this event instantiates.
    transition: TransitionId,
    /// Consumed conditions.
    preset: Vec<CondId>,
    /// Produced conditions.
    postset: Vec<CondId>,
    /// Local configuration: this event and all its causal predecessors.
    local_config: BTreeSet<EventId>,
    /// Marking reached by firing the local configuration.
    cut_marking: Marking,
    /// `true` if the event was cut off by McMillan's criterion.
    cutoff: bool,
}

/// The ordering relation between two events of an unfolding (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// The first event causally precedes the second.
    Precedes,
    /// The second event causally precedes the first.
    Follows,
    /// The events are in conflict (mutually exclusive).
    Conflict,
    /// The events are concurrent (may occur in either order / together).
    Concurrent,
}

/// A finite complete prefix of the branching-process unfolding of a safe
/// net, built with McMillan's size-based cutoff criterion.
///
/// # Example
///
/// ```
/// use petri::{generators, unfold::Unfolding};
/// let net = generators::pipeline(3);
/// let u = Unfolding::build(&net, 10_000).unwrap();
/// assert!(u.is_complete(&net));
/// ```
#[derive(Debug, Clone)]
pub struct Unfolding {
    conditions: Vec<Condition>,
    events: Vec<Event>,
    initial_cut: Vec<CondId>,
}

impl Unfolding {
    /// Unfolds `net` until every extension is a cutoff, or `max_events` is
    /// hit.
    ///
    /// # Errors
    ///
    /// Returns an error string if the event limit is exceeded (unbounded or
    /// excessively concurrent nets) — the prefix would be incomplete.
    pub fn build(net: &PetriNet, max_events: usize) -> Result<Self, String> {
        let mut u = Unfolding {
            conditions: Vec::new(),
            events: Vec::new(),
            initial_cut: Vec::new(),
        };
        // Initial conditions: one per token of m0 (safe nets: 0/1).
        let m0 = net.initial_marking();
        for p in net.places() {
            if m0.is_marked(p) {
                let c = u.add_condition(p, None);
                u.initial_cut.push(c);
            }
        }
        // Possible-extensions loop. Keep a frontier of candidate events,
        // smallest local configuration first (McMillan order).
        while let Some((t, preset)) = u.find_extension(net) {
            if u.events.len() >= max_events {
                return Err(format!("unfolding exceeded {max_events} events"));
            }
            u.add_event(net, t, preset);
        }
        Ok(u)
    }

    fn add_condition(&mut self, place: PlaceId, producer: Option<EventId>) -> CondId {
        let id = CondId(u32::try_from(self.conditions.len()).expect("too many conditions"));
        self.conditions.push(Condition { place, producer });
        id
    }

    /// Finds one non-cutoff-extendable (transition, co-set) pair not yet in
    /// the prefix, choosing the candidate with the smallest local
    /// configuration (the adequate order that makes McMillan cutoffs safe).
    fn find_extension(&self, net: &PetriNet) -> Option<(TransitionId, Vec<CondId>)> {
        let mut best: Option<(usize, TransitionId, Vec<CondId>)> = None;
        for t in net.transitions() {
            let places = net.preset(t);
            // Candidate conditions per preset place, excluding conditions
            // produced by cutoff events' descendants (they are never
            // extended).
            let mut cands: Vec<Vec<CondId>> = Vec::with_capacity(places.len());
            for &p in places {
                let cs: Vec<CondId> = (0..self.conditions.len())
                    .map(|i| CondId(i as u32))
                    .filter(|&c| self.conditions[c.0 as usize].place == p && !self.below_cutoff(c))
                    .collect();
                if cs.is_empty() {
                    cands.clear();
                    break;
                }
                cands.push(cs);
            }
            if cands.is_empty() {
                continue;
            }
            // Enumerate combinations; keep concurrent ones not already used.
            let mut idx = vec![0usize; cands.len()];
            'combo: loop {
                let combo: Vec<CondId> = idx.iter().zip(&cands).map(|(&i, cs)| cs[i]).collect();
                if self.is_co_set(&combo) && !self.event_exists(t, &combo) {
                    let size = self.config_size_of(&combo);
                    if best.as_ref().is_none_or(|(bs, _, _)| size < *bs) {
                        best = Some((size, t, combo));
                    }
                }
                // Advance the mixed-radix counter.
                for k in 0..idx.len() {
                    idx[k] += 1;
                    if idx[k] < cands[k].len() {
                        continue 'combo;
                    }
                    idx[k] = 0;
                }
                break;
            }
        }
        best.map(|(_, t, c)| (t, c))
    }

    /// `true` if the condition was produced by a cutoff event (or any of
    /// its descendants — sufficient to test the direct producer because
    /// cutoff events never get successors).
    fn below_cutoff(&self, c: CondId) -> bool {
        match self.conditions[c.0 as usize].producer {
            Some(e) => self.events[e.0 as usize].cutoff,
            None => false,
        }
    }

    fn event_exists(&self, t: TransitionId, preset: &[CondId]) -> bool {
        let set: BTreeSet<CondId> = preset.iter().copied().collect();
        self.events
            .iter()
            .any(|e| e.transition == t && e.preset.iter().copied().collect::<BTreeSet<_>>() == set)
    }

    /// Size of the local configuration an event with this preset would have.
    fn config_size_of(&self, preset: &[CondId]) -> usize {
        self.union_config(preset).len() + 1
    }

    fn union_config(&self, preset: &[CondId]) -> BTreeSet<EventId> {
        let mut cfg = BTreeSet::new();
        for &c in preset {
            if let Some(e) = self.conditions[c.0 as usize].producer {
                cfg.extend(self.events[e.0 as usize].local_config.iter().copied());
            }
        }
        cfg
    }

    /// `true` if the conditions are pairwise concurrent: no causal order
    /// between any two and no conflict between their producing histories.
    fn is_co_set(&self, conds: &[CondId]) -> bool {
        for (i, &a) in conds.iter().enumerate() {
            for &b in &conds[i + 1..] {
                if a == b || !self.conditions_concurrent(a, b) {
                    return false;
                }
            }
        }
        true
    }

    fn conditions_concurrent(&self, a: CondId, b: CondId) -> bool {
        if self.condition_precedes(a, b) || self.condition_precedes(b, a) {
            return false;
        }
        // Conflict: the union of producer histories consumes some
        // condition twice via different events.
        let cfg_a = self.producer_config(a);
        let cfg_b = self.producer_config(b);
        let union: BTreeSet<EventId> = cfg_a.union(&cfg_b).copied().collect();
        let mut consumed: HashSet<CondId> = HashSet::new();
        for &e in &union {
            for &c in &self.events[e.0 as usize].preset {
                if !consumed.insert(c) {
                    return false;
                }
            }
        }
        // Also: neither condition may be consumed by the other's history.
        for &e in &cfg_b {
            if self.events[e.0 as usize].preset.contains(&a) {
                return false;
            }
        }
        for &e in &cfg_a {
            if self.events[e.0 as usize].preset.contains(&b) {
                return false;
            }
        }
        true
    }

    fn producer_config(&self, c: CondId) -> BTreeSet<EventId> {
        match self.conditions[c.0 as usize].producer {
            Some(e) => self.events[e.0 as usize].local_config.clone(),
            None => BTreeSet::new(),
        }
    }

    /// `a` strictly precedes `b` through the producer chain.
    fn condition_precedes(&self, a: CondId, b: CondId) -> bool {
        match self.conditions[b.0 as usize].producer {
            None => false,
            Some(eb) => {
                // a ≤ some condition consumed to eventually produce b.
                let cfg = &self.events[eb.0 as usize].local_config;
                cfg.iter()
                    .any(|&e| self.events[e.0 as usize].preset.contains(&a))
                    || self.events[eb.0 as usize].preset.contains(&a)
            }
        }
    }

    fn add_event(&mut self, net: &PetriNet, t: TransitionId, preset: Vec<CondId>) {
        let mut local_config = self.union_config(&preset);
        let id = EventId(u32::try_from(self.events.len()).expect("too many events"));
        local_config.insert(id);
        // Compute the cut marking: fire the local configuration.
        let cut_marking = self.marking_after(net, &local_config, &preset, t);
        // McMillan cutoff: some existing event with a strictly smaller
        // local configuration reaches the same marking — or the initial
        // marking itself is reached again.
        let cutoff = self.events.iter().any(|e| {
            !e.cutoff && e.cut_marking == cut_marking && e.local_config.len() < local_config.len()
        }) || cut_marking == net.initial_marking();
        let mut ev = Event {
            transition: t,
            preset,
            postset: Vec::new(),
            local_config,
            cut_marking,
            cutoff,
        };
        for &p in net.postset(t) {
            let c = self.add_condition(p, Some(id));
            ev.postset.push(c);
        }
        self.events.push(ev);
    }

    /// The marking reached after firing exactly the events of `config`
    /// (plus consuming `preset` and firing `t`), starting from m0.
    fn marking_after(
        &self,
        net: &PetriNet,
        config: &BTreeSet<EventId>,
        _preset: &[CondId],
        _t: TransitionId,
    ) -> Marking {
        // Count produced-but-not-consumed conditions restricted to the
        // configuration (the "cut"), projected to places.
        let mut consumed: HashSet<CondId> = HashSet::new();
        for &e in config {
            if e.0 as usize >= self.events.len() {
                continue; // the event being added; handled below
            }
            for &c in &self.events[e.0 as usize].preset {
                consumed.insert(c);
            }
        }
        // The new event (last id in config that is out of range) consumes
        // `_preset`.
        for &c in _preset {
            consumed.insert(c);
        }
        let mut m = Marking::empty(net.num_places());
        // Initial conditions not consumed.
        for &c in &self.initial_cut {
            if !consumed.contains(&c) {
                m.add_token(self.conditions[c.0 as usize].place);
            }
        }
        // Conditions produced by config events, not consumed.
        for &e in config {
            if e.0 as usize >= self.events.len() {
                continue;
            }
            for &c in &self.events[e.0 as usize].postset {
                if !consumed.contains(&c) {
                    m.add_token(self.conditions[c.0 as usize].place);
                }
            }
        }
        // The new event's postset (its conditions do not exist yet).
        for &p in net.postset(_t) {
            m.add_token(p);
        }
        m
    }

    /// Number of events in the prefix.
    #[must_use]
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of conditions in the prefix.
    #[must_use]
    pub fn num_conditions(&self) -> usize {
        self.conditions.len()
    }

    /// Number of cutoff events.
    #[must_use]
    pub fn num_cutoffs(&self) -> usize {
        self.events.iter().filter(|e| e.cutoff).count()
    }

    /// The transition an event instantiates.
    ///
    /// # Panics
    ///
    /// Panics if the event id is out of range.
    #[must_use]
    pub fn event_transition(&self, e: EventId) -> TransitionId {
        self.events[e.0 as usize].transition
    }

    /// All event ids.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.events.len()).map(|i| EventId(i as u32))
    }

    /// Ordering relation between two events (§2.2: concurrency, conflict
    /// and preceding).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn ordering(&self, a: EventId, b: EventId) -> Ordering {
        if a == b {
            return Ordering::Precedes; // reflexive by convention
        }
        let ea = &self.events[a.0 as usize];
        let eb = &self.events[b.0 as usize];
        if eb.local_config.contains(&a) {
            return Ordering::Precedes;
        }
        if ea.local_config.contains(&b) {
            return Ordering::Follows;
        }
        // Conflict: union of configs consumes a condition twice.
        let union: BTreeSet<EventId> = ea.local_config.union(&eb.local_config).copied().collect();
        let mut consumed: HashSet<CondId> = HashSet::new();
        for &e in &union {
            for &c in &self.events[e.0 as usize].preset {
                if !consumed.insert(c) {
                    return Ordering::Conflict;
                }
            }
        }
        Ordering::Concurrent
    }

    /// Completeness check: every reachable marking of the (explicitly
    /// enumerated) net occurs among the prefix's configuration cuts.
    ///
    /// Exponential in the concurrency degree — a test/validation helper,
    /// not a production query.
    #[must_use]
    pub fn is_complete(&self, net: &PetriNet) -> bool {
        let Ok(rg) = crate::reach::ReachabilityGraph::build(net) else {
            return false;
        };
        let reachable: HashSet<Marking> = rg.markings().iter().cloned().collect();
        let represented = self.all_cut_markings(net);
        reachable.is_subset(&represented)
    }

    /// All markings represented by *any* configuration of the prefix,
    /// enumerated by exploring the prefix like a net (exponential; used by
    /// [`Unfolding::is_complete`] and tests).
    #[must_use]
    pub fn all_cut_markings(&self, net: &PetriNet) -> HashSet<Marking> {
        // Explore sets of conditions (cuts) starting from the initial cut,
        // firing prefix events.
        let mut seen_cuts: HashSet<BTreeSet<CondId>> = HashSet::new();
        let mut out: HashSet<Marking> = HashSet::new();
        let initial: BTreeSet<CondId> = self.initial_cut.iter().copied().collect();
        let mut stack = vec![initial.clone()];
        seen_cuts.insert(initial);
        while let Some(cut) = stack.pop() {
            out.insert(self.cut_to_marking(net, &cut));
            for (i, e) in self.events.iter().enumerate() {
                let _ = i;
                if e.preset.iter().all(|c| cut.contains(c)) {
                    let mut next = cut.clone();
                    for c in &e.preset {
                        next.remove(c);
                    }
                    for &c in &e.postset {
                        next.insert(c);
                    }
                    if seen_cuts.insert(next.clone()) {
                        stack.push(next);
                    }
                }
            }
        }
        out
    }

    fn cut_to_marking(&self, net: &PetriNet, cut: &BTreeSet<CondId>) -> Marking {
        let mut m = Marking::empty(net.num_places());
        for &c in cut {
            m.add_token(self.conditions[c.0 as usize].place);
        }
        m
    }
}
