//! Complete-state-coding resolution (§2.1, §3.1).
//!
//! The paper gives two methods for eliminating CSC conflicts:
//!
//! 1. *"inserting an additional state signal whose value should
//!    distinguish two conflict states"* — [`insertion_sweep`] searches
//!    transition-splitting insertions of a fresh internal signal (Fig. 7
//!    inserts `csc0+` right before `LDS+` and `csc0-` right before `D-`);
//! 2. *"concurrency reduction"* — [`concurrency_reduction_sweep`] adds an
//!    ordering arc that removes the conflicting state (the paper delays
//!    `DTACK-` until `LDS-` fires). *"The environment should usually stay
//!    untouched ... therefore delaying input signals is not allowed."*
//!
//! [`resolve_mixed_sweep`] combines both greedily, one move per step, for
//! controllers that need several transformations.
//!
//! # The candidate sweep engine
//!
//! Every search here is a sweep over a candidate grid — `(t⁺, t⁻)`
//! insertion pairs, `a → b` ordering arcs — where each candidate's state
//! space is validated in full. That makes the sweeps the flow's dominant
//! cost, so they run through one engine ([`SweepOptions`]) that
//!
//! * **derives** candidate state graphs: every candidate is an explicit
//!   [`StateGraph`] computed from the base graph in O(|SG|)
//!   ([`StateGraph::derive`]) and checked against a label template (the
//!   base STG for arcs, [`insertion_labels`] for insertions), so no
//!   candidate STG is built and no token game replayed until a candidate
//!   is accepted. A derived graph is two flat tables (packed code words,
//!   marking counts) written row by row from the base's rows, so a
//!   candidate costs a few allocations whatever its size, and the
//!   conflict count sorts its stored code words directly. The sweeps
//!   take no backend: the pipeline hands them the same base graph
//!   whichever backend its check stage ran on;
//! * **parallelises** the grid on scoped work-stealing workers
//!   ([`crate::par`]), merging per-worker rankings deterministically so
//!   the output is byte-identical to a serial sweep at any thread count;
//! * **prunes** by conflict locality: a pair `(t⁺, t⁻)` whose inserted
//!   signal provably cannot distinguish a CSC-conflicting state pair is
//!   skipped before any space is built (see `ConflictPruner`'s
//!   internal docs for the soundness argument — pruning never changes
//!   the result set, only the work);
//! * **memoises** across candidates: the base specification's state
//!   graph seeds the pruner and the derivations instead of being rebuilt,
//!   and the greedy loop carries the winning candidate's graph into the
//!   next step instead of rebuilding it;
//! * **diagnoses** instead of dropping: candidates whose space exceeds
//!   [`SweepOptions::bound`] are counted in
//!   [`SweepStats::skipped_by_bound`] so callers can surface them (the
//!   pipeline emits a `FlowEvent`), never silently report "no CSC
//!   resolution" when one may exist beyond the bound.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use petri::reach::ReachError;
use petri::TransitionId;
use stg::{SignalEdge, SignalKind, StateGraph, Stg, StgEdit, StgError};

use crate::par;

/// Outcome of a successful CSC resolution, carrying the candidate's
/// already-built state graph through to synthesis.
///
/// The search routines validate a full state graph for every candidate
/// they rank; keeping it saves the flow driver a rebuild before
/// synthesis. Deliberately **not** `Clone`, so the graph is moved, not
/// duplicated, on its way downstream.
#[derive(Debug)]
pub struct CscResolutionWithSpace {
    /// The transformed STG (CSC holds on its state space).
    pub stg: Stg,
    /// Human-readable description of the applied transformation.
    pub description: String,
    /// State count of the new state space.
    pub num_states: usize,
    /// The validated state graph of `stg`, when the search still holds
    /// it (the ranking sweeps keep the graphs of the top
    /// [`CSC_CANDIDATE_LIMIT`] candidates to bound memory).
    pub space: Option<StateGraph>,
}

// ---------------------------------------------------------------------
// Sweep configuration and diagnostics
// ---------------------------------------------------------------------

/// Configuration of the candidate sweep engine.
///
/// `threads` can never change a sweep's output — only its wall-clock
/// cost (the parity tests assert byte-identical output), so the flow's
/// cache keys leave it out. `bound` can change the candidates: one
/// whose state space exceeds it is skipped (and counted), so the cache
/// keys salt it. Conflict-locality pruning is always on; it changes
/// only the work, never the candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads for the candidate grid; `0` = one per core.
    pub threads: usize,
    /// Per-candidate state-space bound. Candidates above it are counted
    /// in [`SweepStats::skipped_by_bound`], never silently dropped.
    pub bound: usize,
}

/// How many ranked CSC candidates the flow's synthesis stage tries (its
/// backtracking depth), and therefore how many top-ranked candidates
/// of a sweep keep their validated state graph, so that no tried
/// candidate is rebuilt (memory bound: one full graph each).
pub const CSC_CANDIDATE_LIMIT: usize = 12;

/// The default per-candidate state bound of the CSC sweeps.
///
/// Deliberately tighter than the single-build default
/// ([`stg::DEFAULT_STATE_BOUND`], 1 000 000): a sweep builds hundreds of
/// candidate spaces, and a candidate several times larger than its base
/// specification is never a useful resolution. Standalone `build` calls
/// use the larger bound; only this one participates in cache keys
/// (candidates above it are skipped — and counted, never silently
/// dropped).
pub const DEFAULT_SWEEP_BOUND: usize = 200_000;

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            bound: DEFAULT_SWEEP_BOUND,
        }
    }
}

/// Deterministic counters of one sweep: how the candidate grid was cut
/// down. Independent of the thread count by construction (every grid
/// item is classified identically no matter which worker takes it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total candidate pairs in the grid.
    pub grid: usize,
    /// Pairs skipped by conflict-locality pruning (no space built).
    pub pruned: usize,
    /// Pairs whose space was actually built and validated.
    pub evaluated: usize,
    /// Pairs skipped because their space exceeded [`SweepOptions::bound`].
    pub skipped_by_bound: usize,
    /// Pairs that passed every check (ranked candidates / greedy moves).
    pub accepted: usize,
}

impl SweepStats {
    fn absorb(&mut self, other: SweepStats) {
        self.grid += other.grid;
        self.pruned += other.pruned;
        self.evaluated += other.evaluated;
        self.skipped_by_bound += other.skipped_by_bound;
        self.accepted += other.accepted;
    }
}

/// Result of [`insertion_sweep`]: the ranked candidates plus the
/// engine's diagnostics.
#[derive(Debug)]
pub struct Sweep {
    /// Acceptable insertions, best first (see [`insertion_sweep`] for the
    /// ranking).
    pub candidates: Vec<CscResolutionWithSpace>,
    /// What the engine did to the grid.
    pub stats: SweepStats,
}

// ---------------------------------------------------------------------
// Conflict-locality pruning
// ---------------------------------------------------------------------

/// Decides, from the *base* specification's state space alone, which
/// insertion pairs `(t⁺, t⁻)` cannot separate a CSC-conflicting state
/// pair — before any candidate space is built.
///
/// Soundness: the inserted signal rises just before `t⁺` and falls just
/// before `t⁻`, so its value only changes when one of them fires. If the
/// base space has a path between two conflicting states `s₁ → s₂` that
/// fires neither `t⁺` nor `t⁻`, then the transformed STG reaches images
/// of both states with the *same* inserted-signal value (the insertion
/// only delays `t⁺`/`t⁻`; every other transition's preset is untouched,
/// so the avoiding path replays verbatim). Those images still share a
/// code, and their non-input excitations still differ — any excitation
/// "lost" by delaying `t⁺`/`t⁻` reappears as an excitation of the
/// inserted signal itself, with the edge polarity ruling out accidental
/// agreement. The pair therefore still violates CSC and the candidate
/// would be rejected by the full check; skipping it changes nothing but
/// the work. (Candidates whose transformed STG fails to build — e.g. the
/// insertion makes it inconsistent — are rejected by both paths alike.)
struct ConflictPruner<'a> {
    space: &'a StateGraph,
    /// CSC-conflicting state pairs of the base space.
    conflicts: Vec<(usize, usize)>,
}

/// Per-worker reusable BFS scratch for the pruner: generation-stamped
/// visited marks plus the work queue, so the per-pair reachability
/// probes allocate nothing after a worker's first call.
#[derive(Default)]
struct PruneScratch {
    stamp: u64,
    visited: Vec<u64>,
    queue: VecDeque<usize>,
}

impl<'a> ConflictPruner<'a> {
    /// A pruner over the base space's conflicts; `None` when the space
    /// has no CSC conflicts (nothing to reason about — prune nothing).
    fn new(stg: &Stg, space: &'a StateGraph) -> Option<Self> {
        let conflicts: Vec<(usize, usize)> = stg::encoding::csc_conflicts(stg, space)
            .into_iter()
            .map(|c| c.states)
            .collect();
        (!conflicts.is_empty()).then_some(ConflictPruner { space, conflicts })
    }

    /// `true` if some path `from → to` avoids both split transitions: a
    /// scratch-reusing BFS over the base graph's transition system (the
    /// pruner fires one probe per (pair, conflict, direction)).
    fn connects_avoiding(
        &self,
        scratch: &mut PruneScratch,
        from: usize,
        to: usize,
        tp: TransitionId,
        tm: TransitionId,
    ) -> bool {
        let ts = self.space.ts();
        scratch.visited.resize(ts.num_states(), 0);
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.queue.clear();
        scratch.visited[from] = stamp;
        scratch.queue.push_back(from);
        while let Some(s) = scratch.queue.pop_front() {
            for (&t, succ) in ts.successors(s) {
                if t == tp || t == tm {
                    continue;
                }
                if succ == to {
                    return true;
                }
                if scratch.visited[succ] != stamp {
                    scratch.visited[succ] = stamp;
                    scratch.queue.push_back(succ);
                }
            }
        }
        false
    }

    /// The conflict pair stays conflicting under `(tp, tm)`: a path
    /// avoiding both split transitions connects its states (in either
    /// direction), forcing equal inserted-signal values on their images.
    fn unseparated(
        &self,
        scratch: &mut PruneScratch,
        pair: (usize, usize),
        tp: TransitionId,
        tm: TransitionId,
    ) -> bool {
        self.connects_avoiding(scratch, pair.0, pair.1, tp, tm)
            || self.connects_avoiding(scratch, pair.1, pair.0, tp, tm)
    }

    /// At least one conflict survives `(tp, tm)` — the insertion can
    /// never reach full CSC, so the exhaustive sweep may skip it.
    fn any_unseparated(
        &self,
        scratch: &mut PruneScratch,
        tp: TransitionId,
        tm: TransitionId,
    ) -> bool {
        self.conflicts
            .iter()
            .any(|&p| self.unseparated(scratch, p, tp, tm))
    }

    /// *Every* conflict survives `(tp, tm)` — the insertion cannot even
    /// reduce the conflict count, so the greedy progress-seeking loop
    /// may skip it.
    fn all_unseparated(
        &self,
        scratch: &mut PruneScratch,
        tp: TransitionId,
        tm: TransitionId,
    ) -> bool {
        self.conflicts
            .iter()
            .all(|&p| self.unseparated(scratch, p, tp, tm))
    }
}

// ---------------------------------------------------------------------
// Candidate state spaces
// ---------------------------------------------------------------------

/// Derives the state graphs of one base specification's candidates.
///
/// Every candidate's graph is derived from the base graph
/// ([`StateGraph::derive`]) and checked against the step's label
/// template: arc candidates share the base STG's labels, insertion
/// candidates share [`insertion_labels`]. The candidate STG is built
/// ([`apply_edit`]) only for moves that pass.
struct Candidates<'a> {
    stg: &'a Stg,
    bound: usize,
    base: &'a StateGraph,
    insertion_labels: OnceLock<Stg>,
}

impl<'a> Candidates<'a> {
    fn new(stg: &'a Stg, bound: usize, base: &'a StateGraph) -> Self {
        Candidates {
            stg,
            bound,
            base,
            insertion_labels: OnceLock::new(),
        }
    }

    /// The candidate's state graph; a `StateLimit` error means it exceeds
    /// the sweep bound.
    fn space(&self, edit: StgEdit) -> Result<StateGraph, StgError> {
        StateGraph::derive(self.base, self.labels(edit), edit, self.bound)
    }

    /// The label template the candidate's checks read.
    fn labels(&self, edit: StgEdit) -> &Stg {
        match edit {
            StgEdit::OrderingArc(..) => self.stg,
            StgEdit::Insertion(..) => self
                .insertion_labels
                .get_or_init(|| insertion_labels(self.stg)),
        }
    }
}

/// The STG `edit` turns `stg` into.
#[must_use]
pub fn apply_edit(stg: &Stg, edit: StgEdit) -> Stg {
    match edit {
        StgEdit::OrderingArc(a, b) => add_ordering_arc(stg, a, b),
        StgEdit::Insertion(plus, minus) => insert_state_signal(stg, plus, minus),
    }
}

// ---------------------------------------------------------------------
// Signal-insertion sweep
// ---------------------------------------------------------------------

/// The single-signal insertion sweep: all acceptable insertions of one
/// internal state signal, best first.
///
/// The search space is pairs `(t⁺, t⁻)` of non-input transitions: the new
/// signal's rising edge is inserted *before* `t⁺` (splitting all of its
/// input arcs) and its falling edge before `t⁻`. A candidate is accepted
/// when the transformed STG is consistent, safe, CSC, deadlock-free and
/// output-persistent. Candidates are ranked by `(state count, synthesised
/// literal cost, transition ids)`: among equally small state graphs the
/// insertion with the cheapest logic wins. Several rankings can tie up to
/// signal polarity (the paper's `csc0` and its complement are both
/// returned); downstream architecture-specific validation picks between
/// them (see the flow driver).
///
/// The best [`CSC_CANDIDATE_LIMIT`] candidates carry their
/// validated state space ([`CscResolutionWithSpace::space`]) so the flow
/// driver does not rebuild it before synthesis; the rest carry `None`
/// (keeping every swept space alive would be O(T²) memory).
///
/// `base` is the state graph of `stg`: it feeds the pruner and the
/// derivations.
///
/// Output is byte-identical for any `threads` setting; see
/// [`SweepOptions`].
#[must_use]
pub fn insertion_sweep(stg: &Stg, options: &SweepOptions, base: &StateGraph) -> Sweep {
    let pairs: Vec<(TransitionId, TransitionId)> = greedy_moves(stg)
        .into_iter()
        .filter_map(|edit| match edit {
            StgEdit::Insertion(tp, tm) => Some((tp, tm)),
            StgEdit::OrderingArc(..) => None,
        })
        .collect();

    let candidates = Candidates::new(stg, options.bound, base);
    let pruner = ConflictPruner::new(stg, base);

    type Key = (usize, usize, TransitionId, TransitionId);
    struct Acc {
        ranked: Vec<(Key, Stg)>,
        /// Local best spaces, sorted by key, truncated to `keep`.
        spaces: Vec<(Key, StateGraph)>,
        scratch: PruneScratch,
        stats: SweepStats,
    }
    let keep = CSC_CANDIDATE_LIMIT;
    let accs = par::par_fold(
        &pairs,
        options.threads,
        || Acc {
            ranked: Vec::new(),
            spaces: Vec::new(),
            scratch: PruneScratch::default(),
            stats: SweepStats::default(),
        },
        |acc, _i, &(tp, tm)| {
            if let Some(pruner) = &pruner {
                if pruner.any_unseparated(&mut acc.scratch, tp, tm) {
                    acc.stats.pruned += 1;
                    return;
                }
            }
            acc.stats.evaluated += 1;
            let edit = StgEdit::Insertion(tp, tm);
            let space = match candidates.space(edit) {
                Ok(space) => space,
                Err(StgError::Reach(ReachError::StateLimit(_))) => {
                    acc.stats.skipped_by_bound += 1;
                    return;
                }
                Err(_) => return,
            };
            let labels = candidates.labels(edit);
            if !stg::encoding::has_csc(labels, &space) {
                return;
            }
            if space.has_deadlock() {
                return;
            }
            if !stg::persistency::is_persistent(labels, &space) {
                return;
            }
            let states = space.num_states();
            let Ok(equations) = crate::nextstate::all_equations(labels, &space) else {
                return;
            };
            let cost: usize = equations.iter().map(|e| e.cover.literal_count()).sum();
            let key = (states, cost, tp, tm);
            acc.stats.accepted += 1;
            acc.ranked.push((key, apply_edit(stg, edit)));
            let at = acc.spaces.partition_point(|(k, _)| *k < key);
            if at < keep {
                acc.spaces.insert(at, (key, space));
                acc.spaces.truncate(keep);
            }
        },
    );

    // Deterministic merge: keys embed `(tp, tm)`, so the total order is
    // independent of how workers split the grid — the concatenated
    // ranking sorts to exactly the serial sweep's order, and the global
    // top-`keep` spaces are a subset of the workers' local tops.
    let mut stats = SweepStats::default();
    let mut ranked: Vec<(Key, Stg)> = Vec::new();
    let mut spaces: Vec<(Key, StateGraph)> = Vec::new();
    for acc in accs {
        stats.absorb(acc.stats);
        ranked.extend(acc.ranked);
        spaces.extend(acc.spaces);
    }
    stats.grid = pairs.len();
    ranked.sort_by_key(|r| r.0);
    spaces.sort_by_key(|s| s.0);
    spaces.truncate(keep);

    let mut spaces = VecDeque::from(spaces);
    let candidates = ranked
        .into_iter()
        .map(|((num_states, cost, tp, tm), new_stg)| {
            let key = (num_states, cost, tp, tm);
            let space = match spaces.front() {
                Some((k, _)) if *k == key => spaces.pop_front().map(|(_, s)| s),
                _ => None,
            };
            CscResolutionWithSpace {
                description: format!(
                    "inserted csc signal: + before {}, - before {}",
                    stg.label_string(tp),
                    stg.label_string(tm)
                ),
                num_states,
                stg: new_stg,
                space,
            }
        })
        .collect();
    Sweep { candidates, stats }
}

/// Builds the STG with a fresh internal signal whose rising edge precedes
/// `before_plus` and whose falling edge precedes `before_minus` (the
/// transition-splitting insertion of §2.1/§3.1, [`StgEdit::Insertion`]).
/// The link places from the inserted edges to the split transitions are
/// named after the new signal (`csc1_plus_link`, `csc1_minus_link`), so
/// repeated insertions keep place names unique.
#[must_use]
pub fn insert_state_signal(
    stg: &Stg,
    before_plus: TransitionId,
    before_minus: TransitionId,
) -> Stg {
    build_insertion(stg, Some((before_plus, before_minus)))
}

/// The label template shared by every insertion into `stg`: the signals
/// and transition labels of [`insert_state_signal`]'s result (whichever
/// transitions it splits) over `stg`'s own net, with the new signal's
/// two edges appended as unconnected transitions. This is the `labels`
/// argument of [`StateGraph::derive`] for an [`StgEdit::Insertion`].
#[must_use]
pub fn insertion_labels(stg: &Stg) -> Stg {
    build_insertion(stg, None)
}

fn build_insertion(stg: &Stg, split: Option<(TransitionId, TransitionId)>) -> Stg {
    // Rebuild the STG from scratch, mirroring nets and labels, adding the
    // new signal. Rebuilding keeps `StgBuilder` the only mutation path.
    let mut b = stg::StgBuilder::new(format!("{}-csc", stg.name()));
    // Signals.
    let mut signal_map = Vec::with_capacity(stg.num_signals());
    for s in stg.signals() {
        signal_map.push(b.add_signal(stg.signal_name(s), stg.signal_kind(s)));
    }
    let name = next_csc_name(stg);
    let csc = b.add_signal(name.as_str(), SignalKind::Internal);
    // Transitions.
    let net = stg.net();
    let mut t_map = Vec::with_capacity(net.num_transitions());
    for t in net.transitions() {
        let nt = match stg.label(t) {
            Some(l) => b.add_edge(signal_map[l.signal.index()], l.edge),
            None => b.add_dummy(net.transition_name(t)),
        };
        t_map.push(nt);
    }
    let csc_plus = b.add_edge(csc, SignalEdge::Rise);
    let csc_minus = b.add_edge(csc, SignalEdge::Fall);
    // Places and arcs. Input places of the split transitions are
    // redirected to the inserted edge; a fresh place then links it to the
    // original. Shared places (choice places — more than one consumer)
    // are left untouched so the insertion never competes with, and can
    // never disable, the other branch of a choice.
    for p in net.places() {
        let np = b.add_place(net.place_name(p), net.initial_tokens(p));
        let shared = net.place_postset(p).len() > 1;
        for &t in net.place_preset(p) {
            b.arc_tp(t_map[t.index()], np);
        }
        for &t in net.place_postset(p) {
            let target = match split {
                Some((plus, _)) if t == plus && !shared => csc_plus,
                Some((_, minus)) if t == minus && !shared => csc_minus,
                _ => t_map[t.index()],
            };
            b.arc_pt(np, target);
        }
    }
    // Link the inserted edges to the originals.
    if let Some((plus, minus)) = split {
        let link_p = b.add_place(format!("{name}_plus_link"), 0);
        b.arc_tp(csc_plus, link_p);
        b.arc_pt(link_p, t_map[plus.index()]);
        let link_m = b.add_place(format!("{name}_minus_link"), 0);
        b.arc_tp(csc_minus, link_m);
        b.arc_pt(link_m, t_map[minus.index()]);
    }
    b.build()
}

fn next_csc_name(stg: &Stg) -> String {
    let mut i = 0;
    loop {
        let name = format!("csc{i}");
        if stg.signal_by_name(&name).is_none() {
            return name;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Concurrency-reduction sweep
// ---------------------------------------------------------------------

/// The concurrency-reduction sweep: restores CSC by adding one causal arc
/// `a → b` (with `b` non-input, so the environment is untouched) that
/// removes the conflicting states. A candidate is acceptable when its
/// transformed STG is consistent, safe, CSC, deadlock-free,
/// output-persistent and its state count shrinks.
///
/// Returns the first acceptable candidate in grid order — the same
/// winner the serial scan finds — along with deterministic sweep
/// diagnostics. The scan keeps the serial search's early exit in
/// parallel form: once some worker accepts grid index `w`, indices
/// beyond the best accepted one are skipped (a shared atomic
/// best-index), and the reported counters cover exactly the indices up
/// to the winner, so they are identical at any thread count. `base` is
/// the state graph of `stg`: the derivations start from it and its
/// state count is the one to beat. The caller is expected to have
/// already established that CSC fails on the base.
#[must_use]
pub fn concurrency_reduction_sweep(
    stg: &Stg,
    options: &SweepOptions,
    base: &StateGraph,
) -> (Option<CscResolutionWithSpace>, SweepStats) {
    let base_states = base.num_states();
    let candidates = Candidates::new(stg, options.bound, base);

    let pairs: Vec<(TransitionId, TransitionId)> = greedy_moves(stg)
        .into_iter()
        .filter_map(|edit| match edit {
            StgEdit::OrderingArc(a, b_t) => Some((a, b_t)),
            StgEdit::Insertion(..) => None,
        })
        .collect();

    /// How one evaluated grid index ended (for deterministic counting).
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        Rejected,
        SkippedByBound,
        Accepted,
    }
    struct Acc {
        /// Lowest grid index accepted by this worker, with its artifacts.
        best: Option<(usize, CscResolutionWithSpace)>,
        /// Per-index outcomes; filtered to `index ≤ winner` at merge so
        /// racy evaluations beyond the winner never leak into stats.
        outcomes: Vec<(usize, Outcome)>,
    }
    // The early-exit signal: the lowest grid index accepted so far. It
    // only ever shrinks towards the final winner, and every index at or
    // below the final winner is always evaluated (the skip test can
    // only fire for indices above some accepted one), so the winner and
    // the ≤-winner counters are thread-independent.
    let best_seen = AtomicUsize::new(usize::MAX);
    let accs = par::par_fold(
        &pairs,
        options.threads,
        || Acc {
            best: None,
            outcomes: Vec::new(),
        },
        |acc, i, &(a, b_t)| {
            if i > best_seen.load(Ordering::Relaxed) {
                return; // a better candidate is already accepted
            }
            let edit = StgEdit::OrderingArc(a, b_t);
            let space = match candidates.space(edit) {
                Ok(space) => space,
                Err(StgError::Reach(ReachError::StateLimit(_))) => {
                    acc.outcomes.push((i, Outcome::SkippedByBound));
                    return;
                }
                Err(_) => {
                    acc.outcomes.push((i, Outcome::Rejected));
                    return;
                }
            };
            let labels = candidates.labels(edit);
            let acceptable = stg::encoding::has_csc(labels, &space)
                && !space.has_deadlock()
                && stg::persistency::is_persistent(labels, &space)
                && space.num_states() < base_states; // must be a reduction
            if !acceptable {
                acc.outcomes.push((i, Outcome::Rejected));
                return;
            }
            acc.outcomes.push((i, Outcome::Accepted));
            best_seen.fetch_min(i, Ordering::Relaxed);
            if acc.best.as_ref().is_none_or(|(bi, _)| i < *bi) {
                acc.best = Some((
                    i,
                    CscResolutionWithSpace {
                        description: format!(
                            "concurrency reduction: {} now waits for {}",
                            stg.label_string(b_t),
                            stg.label_string(a)
                        ),
                        num_states: space.num_states(),
                        stg: apply_edit(stg, edit),
                        space: Some(space),
                    },
                ));
            }
        },
    );

    let mut best: Option<(usize, CscResolutionWithSpace)> = None;
    let mut outcomes: Vec<(usize, Outcome)> = Vec::new();
    for acc in accs {
        outcomes.extend(acc.outcomes);
        if let Some((i, r)) = acc.best {
            if best.as_ref().is_none_or(|(bi, _)| i < *bi) {
                best = Some((i, r));
            }
        }
    }
    let winner_index = best.as_ref().map_or(usize::MAX, |(i, _)| *i);
    let mut stats = SweepStats {
        grid: pairs.len(),
        ..SweepStats::default()
    };
    for (i, outcome) in outcomes {
        if i > winner_index {
            continue; // evaluated only by losing a race with the winner
        }
        stats.evaluated += 1;
        match outcome {
            Outcome::Rejected => {}
            Outcome::SkippedByBound => stats.skipped_by_bound += 1,
            Outcome::Accepted => stats.accepted += 1,
        }
    }
    (best.map(|(_, r)| r), stats)
}

/// Adds an initially empty causal place `a → b`, so every firing of `b`
/// waits for a firing of `a`. Candidates that deadlock under the empty
/// place (`b` must fire before `a` can) are rejected upstream.
#[must_use]
pub fn add_ordering_arc(stg: &Stg, a: TransitionId, b_t: TransitionId) -> Stg {
    let mut b = stg.clone().into_builder();
    b.connect(a, b_t);
    b.build()
}

// ---------------------------------------------------------------------
// Greedy multi-step search
// ---------------------------------------------------------------------

/// A greedy move's score: `(remaining conflicts, states)`.
type MoveKey = (usize, usize);

/// The best greedy move seen so far: `(key, grid index, the move, its
/// validated state graph)`.
type BestMove = Option<(MoveKey, usize, StgEdit, StateGraph)>;

/// Keeps the move with the smallest `(key, grid index)`, so the parallel
/// minimum always reproduces the serial scan's choice.
fn merge_best_move(best: &mut BestMove, other: BestMove) {
    if let Some(b) = other {
        if best
            .as_ref()
            .is_none_or(|(bk, bi, ..)| (b.0, b.1) < (*bk, *bi))
        {
            *best = Some(b);
        }
    }
}

/// The candidate grid on `stg`, in scan order: every ordering arc
/// `a → b` with `b` non-input (the environment is never delayed), then
/// every insertion pair `(t⁺, t⁻)` of distinct non-input transitions.
/// One greedy step of [`resolve_mixed_sweep`] scans all of it; the
/// insertion and concurrency-reduction sweeps scan their half.
#[must_use]
pub fn greedy_moves(stg: &Stg) -> Vec<StgEdit> {
    let transitions: Vec<TransitionId> = stg.net().transitions().collect();
    let splittable: Vec<TransitionId> = transitions
        .iter()
        .copied()
        .filter(|&t| {
            stg.label(t)
                .is_some_and(|l| stg.signal_kind(l.signal).is_non_input())
        })
        .collect();
    let mut moves: Vec<StgEdit> = Vec::new();
    for &a in &transitions {
        for &b_t in &splittable {
            if a != b_t {
                moves.push(StgEdit::OrderingArc(a, b_t));
            }
        }
    }
    for &tp in &splittable {
        for &tm in &splittable {
            if tp != tm {
                moves.push(StgEdit::Insertion(tp, tm));
            }
        }
    }
    moves
}

/// Mixed greedy CSC resolution: at every step considers both concurrency
/// reductions (ordering arcs) and state-signal insertions, applies the
/// candidate that removes the most CSC-conflicting pairs, and repeats
/// until CSC holds (or `max_steps` transformations were applied).
///
/// This combines the paper's two §2.1 methods; controllers with choice
/// (the READ+WRITE specification of Fig. 5) typically need a reduction
/// for the cross-branch conflicts and an insertion for the in-branch one.
///
/// Every step's combined move grid (ordering arcs first, then
/// insertions — the serial scan order) is evaluated in parallel,
/// insertion moves are pruned by conflict locality, every move is
/// derived from the step's base graph, and the chosen move's state graph
/// is carried into the next step instead of being rebuilt. `base` is
/// the state graph of `stg`, the first step's base.
#[must_use]
pub fn resolve_mixed_sweep(
    stg: &Stg,
    max_steps: usize,
    options: &SweepOptions,
    base: &StateGraph,
) -> (Option<CscResolutionWithSpace>, SweepStats) {
    let mut stats = SweepStats::default();
    let mut current = stg.clone();
    let mut descriptions: Vec<String> = Vec::new();
    let mut sg: Cow<'_, StateGraph> = Cow::Borrowed(base);
    for _ in 0..=max_steps {
        let conflicts = stg::encoding::csc_conflict_pair_count(&current, &sg);
        if conflicts == 0 {
            return (
                Some(CscResolutionWithSpace {
                    num_states: sg.num_states(),
                    space: Some(sg.into_owned()),
                    stg: current,
                    description: if descriptions.is_empty() {
                        "CSC already holds".to_owned()
                    } else {
                        descriptions.join("; ")
                    },
                }),
                stats,
            );
        }
        if descriptions.len() == max_steps {
            return (None, stats);
        }

        let moves = greedy_moves(&current);
        let pruner = ConflictPruner::new(&current, &sg);
        let candidates = Candidates::new(&current, options.bound, &sg);

        // Ties in the move score fall to the earliest move in scan order,
        // so the parallel minimum over `(key, grid index)` reproduces the
        // serial scan exactly.
        struct Acc {
            best: BestMove,
            scratch: PruneScratch,
            stats: SweepStats,
        }
        let accs = par::par_fold(
            &moves,
            options.threads,
            || Acc {
                best: None,
                scratch: PruneScratch::default(),
                stats: SweepStats::default(),
            },
            |acc, i, &edit| {
                if let (StgEdit::Insertion(tp, tm), Some(pruner)) = (edit, &pruner) {
                    if pruner.all_unseparated(&mut acc.scratch, tp, tm) {
                        acc.stats.pruned += 1;
                        return;
                    }
                }
                acc.stats.evaluated += 1;
                let space = match candidates.space(edit) {
                    Ok(space) => space,
                    Err(StgError::Reach(ReachError::StateLimit(_))) => {
                        acc.stats.skipped_by_bound += 1;
                        return;
                    }
                    Err(_) => return,
                };
                let labels = candidates.labels(edit);
                if space.has_deadlock() {
                    return;
                }
                if !stg::persistency::is_persistent(labels, &space) {
                    return;
                }
                let rem = stg::encoding::csc_conflict_pair_count(labels, &space);
                if rem >= conflicts {
                    return;
                }
                acc.stats.accepted += 1;
                let key = (rem, space.num_states());
                if acc
                    .best
                    .as_ref()
                    .is_none_or(|(bk, bi, ..)| (key, i) < (*bk, *bi))
                {
                    acc.best = Some((key, i, edit, space));
                }
            },
        );

        let mut best: BestMove = None;
        let mut step_stats = SweepStats::default();
        for acc in accs {
            step_stats.absorb(acc.stats);
            merge_best_move(&mut best, acc.best);
        }
        step_stats.grid = moves.len();
        stats.absorb(step_stats);
        let Some((_, _, edit, space)) = best else {
            return (None, stats);
        };
        descriptions.push(match edit {
            StgEdit::OrderingArc(a, b_t) => format!(
                "concurrency reduction: {} waits for {}",
                current.label_string(b_t),
                current.label_string(a)
            ),
            StgEdit::Insertion(tp, tm) => format!(
                "inserted csc signal: + before {}, - before {}",
                current.label_string(tp),
                current.label_string(tm)
            ),
        });
        current = apply_edit(&current, edit);
        sg = Cow::Owned(space);
    }
    (None, stats)
}
