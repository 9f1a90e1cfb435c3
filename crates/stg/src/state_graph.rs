//! Binary-encoded state graphs (§1.4: *"A TS with states labeled with
//! binary codes of signals is called a state graph of an STG. State graphs
//! are of primary importance since they form the basis of logic
//! synthesis."*).
//!
//! A [`StateGraph`] stores its states as two flat tables next to the
//! transition system: packed binary codes (bit words) and marking token
//! counts, one fixed-width row per state. There is no per-state object;
//! see the type's docs for the layout and its accessors.

use std::fmt;
use std::sync::OnceLock;

use petri::reach::ReachError;
use petri::{Marking, PlaceId, TransitionId, TransitionSystem};

use crate::model::{SignalEdge, SignalId, Stg};

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

/// A structural edit of an STG whose state graph [`StateGraph::derive`]
/// computes from the unedited STG's graph: the two CSC repairs of
/// §2.1/§3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StgEdit {
    /// A causal place `a → b`, initially empty, appended after the base
    /// places: `b` now also waits for `a` (concurrency reduction).
    OrderingArc(TransitionId, TransitionId),
    /// A fresh internal signal `x` whose rising edge precedes `t⁺` and
    /// whose falling edge precedes `t⁻`. Each edge takes over the input
    /// places of its transition that have no other consumer and marks a
    /// link place the transition then consumes. With `T` transitions and
    /// `P` places in the base, `x⁺`/`x⁻` are transitions `T`/`T + 1` and
    /// their link places are `P`/`P + 1`.
    Insertion(TransitionId, TransitionId),
}

/// The state graph of an STG: reachable markings with binary signal codes,
/// as produced by the token game of Fig. 4.
///
/// # Layout
///
/// States are rows of two flat tables, numbered `0..num_states()` with
/// state `0` initial:
///
/// * **codes** — `⌈signals / 64⌉` words per state (at least one). Signal
///   `k` is bit `63 − k mod 64` of word `k / 64`, most significant bit
///   first, and unused bits are zero, so comparing two states' words
///   compares their codes as [`Vec<bool>`]s compare. Read them with
///   [`StateGraph::code_words`], [`StateGraph::value`] (one bit test) or
///   [`StateGraph::code`];
/// * **markings** — one token count per place of the net, per state.
///   Read them with [`StateGraph::marking_counts`] or
///   [`StateGraph::marking`].
///
/// Every graph has one state per reachable marking, and
/// [`StateGraph::ts`] lists each state's outgoing arcs in transition-id
/// order: the token game tries transitions in id order, and
/// [`StateGraph::derive`] keeps that order (base arcs by id, then an
/// insertion's two edges, the highest ids). Readers may rely on it; the
/// composed verification (`verify::verify_with`) takes a state's spec
/// moves in this order, which fixes its exploration order and reports.
///
/// There is no per-state object. The CSC sweeps derive, check and drop
/// one graph per candidate, thousands per search, so a graph costs the
/// same few allocations however many states it has, and a derived one
/// skips its marking table until a sweep keeps it ([`DerivedGraph`]).
/// Consistency checks, conflict keys and code lookups compare whole
/// words.
#[derive(Debug, Clone)]
pub struct StateGraph {
    /// Packed codes, `words` per state.
    codes: Vec<u64>,
    words: usize,
    /// Token counts, `num_places` per state.
    markings: Vec<u32>,
    num_places: usize,
    ts: TransitionSystem<TransitionId>,
    initial_values: Vec<bool>,
    num_signals: usize,
    /// Lazily built code index (see [`StateGraph::code_classes`]).
    code_order: OnceLock<Vec<usize>>,
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
        let (markings, ts) = petri::reach::token_game(stg.net(), 1, max_states)?;
        Self::from_reachability(stg, ts, stg.net().num_places(), markings)
    }

    /// The state graph of `base`'s STG after `edit`, computed from `base`
    /// alone in O(|SG|): no STG is built, no transition fired and no
    /// marking hashed.
    ///
    /// `labels` carries the edited STG's signals and transition labels
    /// over the *base* net: for [`StgEdit::OrderingArc`] it is the base
    /// STG itself; for [`StgEdit::Insertion`] it is the base net with the
    /// new signal's two edges appended as unconnected transitions
    /// (`synth::csc::insertion_labels`).
    ///
    /// The candidate's reachable markings are the base markings times the
    /// edit's extra tokens. An ordering arc adds one place bit: `a` sets
    /// it, `b` needs and clears it, and a second `a` overflows it. An
    /// insertion adds a pending flag per inserted edge: `x±` fires once
    /// the input places it takes over from `t±` (those with no other
    /// consumer) are marked, and `t±` then fires only from the pending
    /// copy. States are numbered in the token game's breadth-first order
    /// (base successors by transition id, then `x⁺`, `x⁻`), and the build
    /// ends in the same initial-value inference and code propagation as
    /// [`StateGraph::build_bounded`], so the result — markings, codes, arc
    /// order, and the error on failure — equals building the edited STG
    /// with the same `max_states`. The walk's last step writes the
    /// marking table; [`DerivedGraph::new`] stops before it.
    ///
    /// # Errors
    ///
    /// As [`StateGraph::build_bounded`] on the edited STG.
    ///
    /// # Panics
    ///
    /// Panics if an insertion's `t⁺` equals its `t⁻`.
    pub fn derive(
        base: &StateGraph,
        labels: &Stg,
        edit: StgEdit,
        max_states: usize,
    ) -> Result<Self, StgError> {
        DerivedGraph::new(base, labels, edit, max_states).map(DerivedGraph::into_graph)
    }

    /// The build's tail shared by the token game and [`StateGraph::derive`]:
    /// initial values (the STG's, or inferred) and consistent codes over
    /// the transition system. `markings` is the flat marking table
    /// (`num_places` counts per state), or empty for a [`DerivedGraph`]
    /// that writes it last.
    fn from_reachability(
        stg: &Stg,
        ts: TransitionSystem<TransitionId>,
        num_places: usize,
        markings: Vec<u32>,
    ) -> Result<Self, StgError> {
        let initial_values = match stg.initial_values() {
            Some(v) => v.to_vec(),
            None => infer_initial_values(stg, &ts),
        };
        let num_signals = stg.num_signals();
        let words = num_signals.div_ceil(64).max(1);
        let codes = propagate_codes(stg, &ts, &initial_values, words)?;
        Ok(StateGraph {
            codes,
            words,
            markings,
            num_places,
            ts,
            initial_values,
            num_signals,
            code_order: OnceLock::new(),
        })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.ts.num_states()
    }

    /// Number of signals in the code.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.num_signals
    }

    /// The packed code of state `i`: signal `k` is bit `63 − k mod 64` of
    /// word `k / 64` (see the type's docs).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn code_words(&self, i: usize) -> &[u64] {
        &self.codes[i * self.words..(i + 1) * self.words]
    }

    /// The binary code of state `i`, indexed by [`SignalId`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn code(&self, i: usize) -> Vec<bool> {
        let words = self.code_words(i);
        (0..self.num_signals)
            .map(|k| {
                let (w, bit) = code_bit(k);
                words[w] & bit != 0
            })
            .collect()
    }

    /// The token count of every place in state `i`, indexed by
    /// [`PlaceId`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn marking_counts(&self, i: usize) -> &[u32] {
        &self.markings[i * self.num_places..(i + 1) * self.num_places]
    }

    /// The marking of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn marking(&self, i: usize) -> Marking {
        Marking::from_counts(self.marking_counts(i).to_vec())
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

    /// Value of signal `sig` in state `i`: one bit test.
    #[must_use]
    pub fn value(&self, i: usize, sig: SignalId) -> bool {
        debug_assert!(sig.index() < self.num_signals, "signal out of range");
        let (w, bit) = code_bit(sig.index());
        self.codes[i * self.words + w] & bit != 0
    }

    /// The signal edges enabled (excited) in state `i`, as
    /// `(transition, signal, edge)` triples sorted by transition; dummies
    /// are skipped.
    #[must_use]
    pub fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)> {
        let mut out: Vec<(TransitionId, SignalId, SignalEdge)> = self
            .ts
            .successors(i)
            .filter_map(|(&t, _)| stg.label(t).map(|l| (t, l.signal, l.edge)))
            .collect();
        out.sort_by_key(|&(t, _, _)| t);
        out.dedup();
        out
    }

    /// The paper's state rendering: binary code with `*` after each excited
    /// signal, e.g. `10.11*.0` — here without grouping dots: `1011*0`.
    #[must_use]
    pub fn code_string(&self, stg: &Stg, i: usize) -> String {
        let excited: Vec<SignalId> = self
            .excitations(stg, i)
            .iter()
            .map(|&(_, s, _)| s)
            .collect();
        let mut out = String::new();
        for s in stg.signals() {
            out.push(if self.value(i, s) { '1' } else { '0' });
            if excited.contains(&s) {
                out.push('*');
            }
        }
        out
    }

    /// The plain binary code of state `i` as a `0`/`1` string.
    #[must_use]
    pub fn plain_code_string(&self, i: usize) -> String {
        self.code(i)
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// `true` when some reachable state enables no transition.
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        (0..self.num_states()).any(|s| self.ts.successors(s).next().is_none())
    }

    /// Successor state along a given transition, if enabled.
    #[must_use]
    pub fn successor(&self, state: usize, t: TransitionId) -> Option<usize> {
        self.ts.successor_by_label(state, &t)
    }

    /// States whose code equals `code`, ascending: a binary search of
    /// the code index, the states sorted by code words (built on first
    /// use).
    #[must_use]
    pub fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        if code.len() != self.num_signals {
            return Vec::new();
        }
        let mut key = vec![0; self.words];
        pack_code(code, &mut key);
        let order = self.code_order();
        let start = order.partition_point(|&s| self.code_words(s) < key.as_slice());
        order[start..]
            .iter()
            .copied()
            .take_while(|&s| self.code_words(s) == key.as_slice())
            .collect()
    }

    /// The states grouped by code: one ascending state list per distinct
    /// code, in code order. The index behind it is one permutation of
    /// the states sorted by packed code words, built on first use; it
    /// serves [`StateGraph::states_with_code`], the distinct-code count
    /// and the duplicate-code classes.
    pub(crate) fn code_classes(&self) -> impl Iterator<Item = &[usize]> {
        self.code_order()
            .chunk_by(|&a, &b| self.code_words(a) == self.code_words(b))
    }

    /// The states sorted by (code words, index), built on first use.
    fn code_order(&self) -> &[usize] {
        self.code_order.get_or_init(|| {
            let mut order: Vec<usize> = (0..self.num_states()).collect();
            // Stable, so each code's states stay ascending.
            order.sort_by(|&a, &b| self.code_words(a).cmp(self.code_words(b)));
            order
        })
    }
}

/// A state graph [`StateGraph::derive`] computed, before the last step
/// of its walk: the marking table.
///
/// [`DerivedGraph::graph`] has the states, arcs, initial values and codes
/// of the derived graph, everything the CSC checks read, but an empty
/// marking table: [`StateGraph::marking_counts`] and
/// [`StateGraph::marking`] panic on it. [`DerivedGraph::into_graph`]
/// writes the table from the walk's product rows and returns the graph
/// [`StateGraph::derive`] returns. A CSC sweep scores every candidate on
/// the first and completes only the ones it keeps.
#[derive(Debug)]
pub struct DerivedGraph<'a> {
    base: &'a StateGraph,
    product: Product,
    /// Each state's base state and extra tokens, in state order.
    states: Vec<(usize, u32)>,
    graph: StateGraph,
}

/// An [`StgEdit`] resolved against the base net. A product state is a
/// base state plus `extra`: the arc place's token count, or the
/// insertion's pending flags (bit `i` for inserted edge `i`).
#[derive(Debug)]
enum Product {
    Arc(TransitionId, TransitionId),
    Insertion {
        split: [TransitionId; 2],
        edges: [TransitionId; 2],
        taken_over: [Vec<PlaceId>; 2],
    },
}

impl Product {
    /// Appends the marking of product state `(s, extra)` over `base` to
    /// `out`.
    fn write_marking(&self, base: &StateGraph, out: &mut Vec<u32>, s: usize, extra: u32) {
        let row = out.len();
        out.extend_from_slice(base.marking_counts(s));
        match self {
            Product::Arc(..) => out.push(extra),
            Product::Insertion { taken_over, .. } => {
                for (bit, places) in taken_over.iter().enumerate() {
                    if extra >> bit & 1 == 1 {
                        for p in places {
                            out[row + p.index()] -= 1;
                        }
                    }
                }
                out.extend([extra & 1, extra >> 1]);
            }
        }
    }
}

impl<'a> DerivedGraph<'a> {
    /// The walk of [`StateGraph::derive`] up to its marking table.
    ///
    /// # Errors
    ///
    /// As [`StateGraph::derive`].
    ///
    /// # Panics
    ///
    /// As [`StateGraph::derive`].
    pub fn new(
        base: &'a StateGraph,
        labels: &Stg,
        edit: StgEdit,
        max_states: usize,
    ) -> Result<Self, StgError> {
        let net = labels.net();
        let product = match edit {
            StgEdit::OrderingArc(a, b) => Product::Arc(a, b),
            StgEdit::Insertion(plus, minus) => {
                assert_ne!(plus, minus, "an insertion splits two distinct transitions");
                let taken_over = |t: TransitionId| -> Vec<PlaceId> {
                    net.preset(t)
                        .iter()
                        .copied()
                        .filter(|&p| net.place_postset(p).len() <= 1)
                        .collect()
                };
                let first = net.num_transitions() - 2;
                Product::Insertion {
                    split: [plus, minus],
                    edges: [
                        TransitionId::from_index(first),
                        TransitionId::from_index(first + 1),
                    ],
                    taken_over: [taken_over(plus), taken_over(minus)],
                }
            }
        };
        let (copies, extra_places) = match product {
            Product::Arc(..) => (2, 1),
            Product::Insertion { .. } => (4, 2),
        };
        let unsafe_at = |s: usize, extra: u32, place: usize| -> StgError {
            let mut counts = Vec::with_capacity(base.num_places + extra_places);
            product.write_marking(base, &mut counts, s, extra);
            counts[place] = 2;
            ReachError::BoundExceeded(Marking::from_counts(counts)).into()
        };

        // Breadth-first over the product, numbering each state on first
        // sight as the token game does. The tables start at the base's
        // sizes, which a candidate's rarely exceed.
        let mut states: Vec<(usize, u32)> = Vec::with_capacity(base.num_states());
        states.push((0, 0));
        let mut index = vec![u32::MAX; base.num_states() * copies];
        index[0] = 0;
        let mut ts = TransitionSystem::new(1, 0);
        ts.reserve(base.num_states().saturating_sub(1), base.ts.num_arcs());
        let mut visit = |states: &mut Vec<(usize, u32)>,
                         from: usize,
                         t: TransitionId,
                         s: usize,
                         extra: u32|
         -> Result<(), StgError> {
            let slot = &mut index[s * copies + extra as usize];
            if *slot == u32::MAX {
                if states.len() >= max_states {
                    return Err(ReachError::StateLimit(max_states).into());
                }
                *slot = u32::try_from(ts.add_state()).expect("state count fits u32");
                states.push((s, extra));
            }
            ts.add_arc(from, t, *slot as usize);
            Ok(())
        };
        let mut from = 0;
        while from < states.len() {
            let (s, extra) = states[from];
            match &product {
                &Product::Arc(a, b) => {
                    for (&t, to) in base.ts.successors(s) {
                        if t == b && extra == 0 {
                            continue;
                        }
                        let tokens = extra - u32::from(t == b) + u32::from(t == a);
                        if tokens > 1 {
                            return Err(unsafe_at(to, extra, net.num_places()));
                        }
                        visit(&mut states, from, t, to, tokens)?;
                    }
                }
                Product::Insertion {
                    split,
                    edges,
                    taken_over,
                } => {
                    for (&t, to) in base.ts.successors(s) {
                        let pending = match split.iter().position(|&u| u == t) {
                            Some(bit) => 1 << bit,
                            None => 0,
                        };
                        if extra & pending == pending {
                            visit(&mut states, from, t, to, extra & !pending)?;
                        }
                    }
                    let m = base.marking_counts(s);
                    for bit in 0..2 {
                        let flag = 1 << bit;
                        if extra & flag == 0 {
                            if taken_over[bit].iter().all(|p| m[p.index()] > 0) {
                                visit(&mut states, from, edges[bit], s, extra | flag)?;
                            }
                        } else if taken_over[bit].is_empty() {
                            // The pending edge has no input place: it fires
                            // again, putting a second token on its link.
                            return Err(unsafe_at(s, extra, net.num_places() + bit));
                        }
                    }
                }
            }
            from += 1;
        }
        let num_places = base.num_places + extra_places;
        let graph = StateGraph::from_reachability(labels, ts, num_places, Vec::new())?;
        Ok(DerivedGraph {
            base,
            product,
            states,
            graph,
        })
    }

    /// The derived graph without its marking table (see the type's docs).
    #[must_use]
    pub fn graph(&self) -> &StateGraph {
        &self.graph
    }

    /// Writes the marking table and returns the complete graph: the one
    /// [`StateGraph::derive`] returns.
    #[must_use]
    pub fn into_graph(self) -> StateGraph {
        let DerivedGraph {
            base,
            product,
            states,
            mut graph,
        } = self;
        let mut markings = Vec::with_capacity(states.len() * graph.num_places);
        for (s, extra) in states {
            product.write_marking(base, &mut markings, s, extra);
        }
        graph.markings = markings;
        graph
    }
}

/// The word and the bit of signal `k` in a packed code (see
/// [`StateGraph`]'s layout).
pub(crate) fn code_bit(k: usize) -> (usize, u64) {
    (k / 64, 1 << (63 - k % 64))
}

/// Sets the bits of `code`'s true signals in `words`.
fn pack_code(code: &[bool], words: &mut [u64]) {
    for (k, _) in code.iter().enumerate().filter(|(_, &v)| v) {
        let (w, bit) = code_bit(k);
        words[w] |= bit;
    }
}

/// Infers initial signal values from first-edge polarities (a signal whose
/// first reachable edge is rising starts at 0; falling starts at 1;
/// never-switching signals default to 0).
///
/// The first edge of each signal in breadth-first order from state 0
/// decides. `ts` is numbered in breadth-first discovery order with each
/// state's arcs in exploration order (the token game and
/// [`StateGraph::derive`] both build it so), so its arc list already is
/// that order. A genuinely contradictory STG then fails the consistency
/// propagation in `propagate_codes`, which re-validates everything, so
/// the order cannot smuggle in a wrong answer silently.
fn infer_initial_values(stg: &Stg, ts: &TransitionSystem<TransitionId>) -> Vec<bool> {
    let mut first_edge: Vec<Option<SignalEdge>> = vec![None; stg.num_signals()];
    let mut unseen = first_edge.len();
    for &(_, t, _) in ts.arcs() {
        if unseen == 0 {
            break;
        }
        if let Some(l) = stg.label(t) {
            let slot = &mut first_edge[l.signal.index()];
            if slot.is_none() {
                *slot = Some(l.edge);
                unseen -= 1;
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

/// Propagates binary codes from state `0` over the transition structure in
/// breadth-first order (the arc order, as for `infer_initial_values`),
/// validating consistency (§2.1) along the way: the first violating arc
/// in that order is the one reported. Codes are packed `words` per state
/// (see [`StateGraph`]'s layout), so a state's code is copied, and a
/// re-reached state's code compared, a word at a time.
fn propagate_codes(
    stg: &Stg,
    ts: &TransitionSystem<TransitionId>,
    initial_values: &[bool],
    words: usize,
) -> Result<Vec<u64>, StgError> {
    let n = ts.num_states();
    let mut codes = vec![0u64; n * words];
    let mut coded = vec![false; n];
    pack_code(initial_values, &mut codes[..words]);
    coded[0] = true;
    for &(s, t, to) in ts.arcs() {
        debug_assert!(coded[s], "arcs leave states already reached");
        let (from, into) = (s * words, to * words);
        // The edge `t` flips bit `bit` of word `w`.
        let mut flip = None;
        if let Some(label) = stg.label(t) {
            let (w, bit) = code_bit(label.signal.index());
            if (codes[from + w] & bit != 0) == label.edge.value_after() {
                return Err(StgError::InconsistentEdge {
                    transition: stg.label_string(t),
                    state: s,
                });
            }
            flip = Some((w, bit));
        }
        let after = |k: usize| match flip {
            Some((w, bit)) if w == k => codes[from + k] ^ bit,
            _ => codes[from + k],
        };
        if coded[to] {
            if (0..words).any(|k| codes[into + k] != after(k)) {
                return Err(StgError::InconsistentCode { state: to });
            }
        } else {
            codes.copy_within(from..from + words, into);
            if let Some((w, bit)) = flip {
                codes[into + w] ^= bit;
            }
            coded[to] = true;
        }
    }
    Ok(codes)
}

/// Result alias used throughout the crate.
pub type Result<T, E = StgError> = std::result::Result<T, E>;
