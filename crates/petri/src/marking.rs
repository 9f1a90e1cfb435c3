//! Markings: token distributions over the places of a net.

use std::fmt;

use crate::net::PlaceId;

/// A marking: a token count per place (§1.1 — "a set of all places
/// currently marked with a token corresponds to a current global state").
///
/// Counts are kept exactly (not clamped to 1) so that safeness violations
/// surface during reachability analysis instead of being masked.
///
/// # Example
///
/// ```
/// use petri::{Marking, PetriNet};
/// let mut net = PetriNet::new();
/// let p = net.add_place("p", 1);
/// let m = net.initial_marking();
/// assert_eq!(m.tokens(p), 1);
/// assert!(m.is_safe());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking {
    counts: Vec<u32>,
}

impl Marking {
    /// A marking with the given per-place counts.
    #[must_use]
    pub fn from_counts(counts: Vec<u32>) -> Self {
        Marking { counts }
    }

    /// The empty marking over `n` places.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Marking { counts: vec![0; n] }
    }

    /// Number of places.
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.counts.len()
    }

    /// Token count at a place.
    ///
    /// # Panics
    ///
    /// Panics if the place is out of range.
    #[must_use]
    pub fn tokens(&self, p: PlaceId) -> u32 {
        self.counts[p.index()]
    }

    /// `true` if the place holds at least one token.
    #[must_use]
    pub fn is_marked(&self, p: PlaceId) -> bool {
        self.tokens(p) > 0
    }

    /// Adds one token to a place.
    pub fn add_token(&mut self, p: PlaceId) {
        self.counts[p.index()] += 1;
    }

    /// Removes one token from a place.
    ///
    /// # Panics
    ///
    /// Panics if the place is empty (the caller must check enabledness).
    pub fn remove_token(&mut self, p: PlaceId) {
        assert!(
            self.counts[p.index()] > 0,
            "removing token from empty place"
        );
        self.counts[p.index()] -= 1;
    }

    /// `true` if no place holds more than one token (1-boundedness of this
    /// particular marking).
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.counts.iter().all(|&c| c <= 1)
    }

    /// `true` if no place holds more than `k` tokens.
    #[must_use]
    pub fn is_k_bounded(&self, k: u32) -> bool {
        self.counts.iter().all(|&c| c <= k)
    }

    /// Total number of tokens.
    #[must_use]
    pub fn total_tokens(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// The set of marked places (ascending).
    #[must_use]
    pub fn marked_places(&self) -> Vec<PlaceId> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| PlaceId(i as u32))
            .collect()
    }

    /// Raw counts.
    #[must_use]
    pub fn as_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Extends the marking with extra (empty) places, for nets that grew.
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.counts.len());
        self.counts.resize(new_len, 0);
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                if c == 1 {
                    format!("p{i}")
                } else {
                    format!("p{i}×{c}")
                }
            })
            .collect();
        write!(f, "{{{}}}", parts.join(","))
    }
}
