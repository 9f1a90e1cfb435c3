//! The net structure: places, transitions, arcs and the token game.

use std::fmt;

use crate::marking::Marking;

/// Identifier of a place within one [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// Index of the place in the net's place list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. The caller must ensure the index is
    /// in range for the net it is used with.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        PlaceId(u32::try_from(i).expect("place index fits u32"))
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p#{}", self.0)
    }
}

/// Identifier of a transition within one [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub(crate) u32);

impl TransitionId {
    /// Index of the transition in the net's transition list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. The caller must ensure the index is
    /// in range for the net it is used with.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        TransitionId(u32::try_from(i).expect("transition index fits u32"))
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Place {
    name: String,
    initial: u32,
    /// Transitions consuming from this place.
    post: Vec<TransitionId>,
    /// Transitions producing into this place.
    pre: Vec<TransitionId>,
}

#[derive(Debug, Clone)]
struct Transition {
    name: String,
    /// Input places (preset).
    pre: Vec<PlaceId>,
    /// Output places (postset).
    post: Vec<PlaceId>,
}

/// An ordinary (arc-weight 1) place/transition net with an initial marking.
///
/// This is the model of §1 of the paper: places hold tokens, a transition
/// is enabled when all input places are marked, and firing moves tokens
/// atomically. The nets of interest are *safe* (1-bounded); the token game
/// itself supports arbitrary token counts so that boundedness violations
/// can be detected rather than assumed away.
#[derive(Debug, Clone, Default)]
pub struct PetriNet {
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl PetriNet {
    /// Creates an empty net.
    #[must_use]
    pub fn new() -> Self {
        PetriNet::default()
    }

    /// Adds a place with an initial token count and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>, initial_tokens: u32) -> PlaceId {
        let id = PlaceId(u32::try_from(self.places.len()).expect("too many places"));
        self.places.push(Place {
            name: name.into(),
            initial: initial_tokens,
            post: Vec::new(),
            pre: Vec::new(),
        });
        id
    }

    /// Adds a transition and returns its id.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransitionId {
        let id = TransitionId(u32::try_from(self.transitions.len()).expect("too many transitions"));
        self.transitions.push(Transition {
            name: name.into(),
            pre: Vec::new(),
            post: Vec::new(),
        });
        id
    }

    /// Adds an arc from a place to a transition (the place joins the
    /// transition's preset). Duplicate arcs are ignored (ordinary nets).
    pub fn add_arc_place_to_transition(&mut self, p: PlaceId, t: TransitionId) {
        if !self.transitions[t.index()].pre.contains(&p) {
            self.transitions[t.index()].pre.push(p);
            self.places[p.index()].post.push(t);
        }
    }

    /// Adds an arc from a transition to a place (the place joins the
    /// transition's postset). Duplicate arcs are ignored.
    pub fn add_arc_transition_to_place(&mut self, t: TransitionId, p: PlaceId) {
        if !self.transitions[t.index()].post.contains(&p) {
            self.transitions[t.index()].post.push(p);
            self.places[p.index()].pre.push(t);
        }
    }

    /// Convenience: adds an implicit place between two transitions
    /// (`t1 → p → t2`), the arc notation of Fig. 5 in the paper.
    pub fn add_causal_arc(&mut self, t1: TransitionId, t2: TransitionId) -> PlaceId {
        let name = format!(
            "<{},{}>",
            self.transition_name(t1),
            self.transition_name(t2)
        );
        let p = self.add_place(name, 0);
        self.add_arc_transition_to_place(t1, p);
        self.add_arc_place_to_transition(p, t2);
        p
    }

    /// Number of places.
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Iterator over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(|i| PlaceId(i as u32))
    }

    /// Iterator over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.transitions.len()).map(|i| TransitionId(i as u32))
    }

    /// Name of a place.
    #[must_use]
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.places[p.index()].name
    }

    /// Name of a transition.
    #[must_use]
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.transitions[t.index()].name
    }

    /// Renames a transition.
    pub fn set_transition_name(&mut self, t: TransitionId, name: impl Into<String>) {
        self.transitions[t.index()].name = name.into();
    }

    /// Looks a transition up by name.
    #[must_use]
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(|i| TransitionId(i as u32))
    }

    /// Preset of a transition (its input places).
    #[must_use]
    pub fn preset(&self, t: TransitionId) -> &[PlaceId] {
        &self.transitions[t.index()].pre
    }

    /// Postset of a transition (its output places).
    #[must_use]
    pub fn postset(&self, t: TransitionId) -> &[PlaceId] {
        &self.transitions[t.index()].post
    }

    /// Preset of a place (transitions producing into it).
    #[must_use]
    pub fn place_preset(&self, p: PlaceId) -> &[TransitionId] {
        &self.places[p.index()].pre
    }

    /// Postset of a place (transitions consuming from it).
    #[must_use]
    pub fn place_postset(&self, p: PlaceId) -> &[TransitionId] {
        &self.places[p.index()].post
    }

    /// Initial token count of a place.
    #[must_use]
    pub fn initial_tokens(&self, p: PlaceId) -> u32 {
        self.places[p.index()].initial
    }

    /// Sets the initial token count of a place.
    pub fn set_initial_tokens(&mut self, p: PlaceId, tokens: u32) {
        self.places[p.index()].initial = tokens;
    }

    /// The initial marking.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        Marking::from_counts(self.places.iter().map(|p| p.initial).collect())
    }

    /// `true` if `t` is enabled at `m` (every input place marked).
    #[must_use]
    pub fn is_enabled(&self, m: &Marking, t: TransitionId) -> bool {
        self.preset(t).iter().all(|&p| m.tokens(p) > 0)
    }

    /// Fires `t` at `m`, returning the successor marking, or `None` if `t`
    /// is not enabled. Firing is the atomic token move of §1.2.
    #[must_use]
    pub fn fire(&self, m: &Marking, t: TransitionId) -> Option<Marking> {
        if !self.is_enabled(m, t) {
            return None;
        }
        let mut next = m.clone();
        for &p in self.preset(t) {
            next.remove_token(p);
        }
        for &p in self.postset(t) {
            next.add_token(p);
        }
        Some(next)
    }

    /// Fires a sequence of transitions from `m`; returns the final marking
    /// or the index of the first disabled transition.
    ///
    /// # Errors
    ///
    /// Returns `Err(i)` if the `i`-th transition in the sequence is not
    /// enabled when reached.
    pub fn fire_sequence(&self, m: &Marking, seq: &[TransitionId]) -> Result<Marking, usize> {
        let mut cur = m.clone();
        for (i, &t) in seq.iter().enumerate() {
            cur = self.fire(&cur, t).ok_or(i)?;
        }
        Ok(cur)
    }

    /// Two transitions are in *structural conflict* if they share an input
    /// place (they may disable each other, §1.5).
    #[must_use]
    pub fn in_structural_conflict(&self, t1: TransitionId, t2: TransitionId) -> bool {
        t1 != t2 && self.preset(t1).iter().any(|p| self.preset(t2).contains(p))
    }

    /// Removes a place and all its arcs. Ids of other places shift down;
    /// use only during structural rewriting (see [`crate::reduce`]).
    pub(crate) fn remove_place(&mut self, p: PlaceId) {
        self.places.remove(p.index());
        for t in &mut self.transitions {
            t.pre.retain(|&q| q != p);
            t.post.retain(|&q| q != p);
            for q in t.pre.iter_mut().chain(t.post.iter_mut()) {
                if q.0 > p.0 {
                    q.0 -= 1;
                }
            }
        }
    }

    /// Removes a transition and all its arcs. Ids of other transitions
    /// shift down.
    pub(crate) fn remove_transition(&mut self, t: TransitionId) {
        self.transitions.remove(t.index());
        for p in &mut self.places {
            p.pre.retain(|&u| u != t);
            p.post.retain(|&u| u != t);
            for u in p.pre.iter_mut().chain(p.post.iter_mut()) {
                if u.0 > t.0 {
                    u.0 -= 1;
                }
            }
        }
    }

    /// A human-readable multi-line structural summary.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "net: {} places, {} transitions",
            self.num_places(),
            self.num_transitions()
        );
        for t in self.transitions() {
            let pre: Vec<&str> = self.preset(t).iter().map(|&p| self.place_name(p)).collect();
            let post: Vec<&str> = self
                .postset(t)
                .iter()
                .map(|&p| self.place_name(p))
                .collect();
            let _ = writeln!(
                s,
                "  {}: {{{}}} -> {{{}}}",
                self.transition_name(t),
                pre.join(","),
                post.join(",")
            );
        }
        let marked: Vec<&str> = self
            .places()
            .filter(|&p| self.initial_tokens(p) > 0)
            .map(|p| self.place_name(p))
            .collect();
        let _ = writeln!(s, "  m0 = {{{}}}", marked.join(","));
        s
    }
}
