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
//! cost, so all three run through one evaluator, configured by
//! [`SweepOptions`]. The sweeps differ only in their policy: the test a
//! candidate must pass and how the accepted ones are ranked. Each
//! returns a [`Sweep`]: at most [`CSC_CANDIDATE_LIMIT`] candidates, best
//! first, each with the state graph its sweep validated. The evaluator
//!
//! * **derives** candidate state graphs: every candidate is an explicit
//!   [`StateGraph`] computed from the base graph in O(|SG|)
//!   ([`StateGraph::derive`]) and checked against a label template (the
//!   base STG for arcs, [`insertion_labels`] for insertions), so no
//!   candidate STG is built and no token game replayed until a candidate
//!   wins. A candidate is scored on its [`DerivedGraph`]: transition
//!   system and packed code words, in tables sized from the base graph,
//!   with no marking table. Only a candidate a worker keeps in its
//!   ranked list has its markings written ([`DerivedGraph::into_graph`]),
//!   so every graph a sweep returns is complete. The conflict count
//!   sorts one packed key per state (code, then excited non-input
//!   signals). The sweeps take no backend: the pipeline hands them the
//!   same base graph whichever backend its check stage ran on;
//! * **parallelises** the grid on scoped work-stealing workers
//!   ([`crate::par`]); each worker keeps only its best candidates, and
//!   the merge orders them by `(key, grid index)`, a total order, so the
//!   output is byte-identical to a serial sweep at any thread count;
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
use stg::{DerivedGraph, SignalEdge, SignalKind, StateGraph, Stg, StgEdit, StgError};

use crate::par;

/// A CSC resolution a sweep accepted, carrying the state graph the sweep
/// validated through to synthesis, so the flow driver never rebuilds it.
/// Deliberately **not** `Clone`, so the graph is moved, not duplicated,
/// on its way downstream.
#[derive(Debug)]
pub struct CscResolution {
    /// The transformed STG (CSC holds on its state space).
    pub stg: Stg,
    /// Human-readable description of the applied transformation.
    pub description: String,
    /// State count of the new state space.
    pub num_states: usize,
    /// The validated state graph of `stg`.
    pub space: StateGraph,
}

impl CscResolution {
    fn new(stg: Stg, description: String, space: StateGraph) -> Self {
        CscResolution {
            stg,
            description,
            num_states: space.num_states(),
            space,
        }
    }
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

/// The most candidates a sweep returns, and so the depth of the flow's
/// synthesis backtracking per sweep. Each returned candidate holds one
/// full state graph (the memory bound), so that no tried candidate is
/// rebuilt.
pub const CSC_CANDIDATE_LIMIT: usize = 12;

/// The greedy steps the flow lets [`resolve_mixed_sweep`] take.
pub const MIXED_MAX_STEPS: usize = 5;

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

/// What every sweep returns: its candidates, best first (at most
/// [`CSC_CANDIDATE_LIMIT`], each with its validated state graph), plus
/// the engine's diagnostics.
#[derive(Debug)]
pub struct Sweep {
    /// The accepted resolutions, best first (see each sweep for its
    /// ranking).
    pub candidates: Vec<CscResolution>,
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

    /// `true` when the insertion `(tp, tm)` cannot meet `goal`: some
    /// conflict survives it (it can never reach full CSC), or, for
    /// [`Goal::Progress`], every conflict does (it cannot even reduce the
    /// conflict count).
    fn skips(
        &self,
        scratch: &mut PruneScratch,
        goal: Goal,
        tp: TransitionId,
        tm: TransitionId,
    ) -> bool {
        let mut unseparated = self
            .conflicts
            .iter()
            .map(|&p| self.unseparated(scratch, p, tp, tm));
        match goal {
            Goal::Csc => unseparated.any(|u| u),
            Goal::Progress => unseparated.all(|u| u),
        }
    }
}

// ---------------------------------------------------------------------
// The candidate evaluator
// ---------------------------------------------------------------------

/// What a sweep's accepted moves must achieve, which decides the
/// insertions the conflict-locality prune may skip.
#[derive(Clone, Copy)]
enum Goal {
    /// Full CSC (the insertion and reduction sweeps).
    Csc,
    /// Fewer conflicting pairs than the base (a mixed step).
    Progress,
}

/// How a sweep ranks the moves it accepts.
#[derive(Clone, Copy)]
enum Rank {
    /// The `n` smallest `(key, grid index)` over the whole grid.
    Best(usize),
    /// The first accepted move in grid order. The scan skips the indices
    /// past the lowest one accepted so far, and the counters cover only
    /// the indices up to the winner.
    First,
}

/// An accepted move: its ranking key, grid index, the move and its
/// validated state graph.
type Ranked<K> = (K, usize, StgEdit, StateGraph);

/// Evaluates the candidates of one base specification.
///
/// Every candidate's graph is derived from the base graph
/// ([`StateGraph::derive`]) and checked against the step's label
/// template: arc candidates share the base STG's labels, insertion
/// candidates share [`insertion_labels`]. The candidate STG is built
/// ([`apply_edit`]) only for the moves a sweep returns.
struct Candidates<'a> {
    stg: &'a Stg,
    bound: usize,
    base: &'a StateGraph,
    goal: Goal,
    /// Built on the first insertion; `None` when the base has no conflict.
    pruner: OnceLock<Option<ConflictPruner<'a>>>,
    insertion_labels: OnceLock<Stg>,
}

impl<'a> Candidates<'a> {
    fn new(stg: &'a Stg, bound: usize, base: &'a StateGraph, goal: Goal) -> Self {
        Candidates {
            stg,
            bound,
            base,
            goal,
            pruner: OnceLock::new(),
            insertion_labels: OnceLock::new(),
        }
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

    /// Sweeps `moves` on `threads` workers, returning the moves `rank`
    /// keeps, best first, with the sweep's counters. `accept` is the
    /// sweep's test: it reads the candidate's labels and graph and gives
    /// the ranking key of a move it accepts.
    ///
    /// Each worker keeps only its own best entries. Their merge sorts by
    /// `(key, grid index)`, a total order that does not depend on how the
    /// workers split the grid, so the result is the serial scan's at any
    /// thread count.
    fn evaluate<K: Ord + Copy + Send>(
        &self,
        moves: &[StgEdit],
        threads: usize,
        rank: Rank,
        accept: impl Fn(&Stg, &StateGraph) -> Option<K> + Sync,
    ) -> (Vec<Ranked<K>>, SweepStats) {
        let (keep, first) = match rank {
            Rank::Best(n) => (n, false),
            Rank::First => (1, true),
        };
        struct Acc<K> {
            /// Best first, at most `keep` entries.
            best: Vec<Ranked<K>>,
            scratch: PruneScratch,
            stats: SweepStats,
            /// [`Rank::First`]'s counters per grid index, cut to the
            /// winner's prefix at the merge.
            by_index: Vec<(usize, SweepStats)>,
        }
        // [`Rank::First`]'s early exit: the lowest grid index accepted so
        // far. It only shrinks towards the winner, and no index at or
        // below the winner is ever skipped, so the winner and its
        // prefix's counters do not depend on the thread count.
        let first_accepted = AtomicUsize::new(usize::MAX);
        let accs = par::par_fold(
            moves,
            threads,
            || Acc {
                best: Vec::new(),
                scratch: PruneScratch::default(),
                stats: SweepStats::default(),
                by_index: Vec::new(),
            },
            |acc, i, &edit| {
                if first && i > first_accepted.load(Ordering::Relaxed) {
                    return;
                }
                let mut stats = SweepStats::default();
                let accepted = self.evaluate_move(&mut acc.scratch, &mut stats, edit, &accept);
                if first {
                    acc.by_index.push((i, stats));
                } else {
                    acc.stats.absorb(stats);
                }
                let Some((key, derived)) = accepted else {
                    return;
                };
                first_accepted.fetch_min(i, Ordering::Relaxed);
                let at = acc.best.partition_point(|r| (r.0, r.1) < (key, i));
                if at < keep {
                    acc.best.insert(at, (key, i, edit, derived.into_graph()));
                    acc.best.truncate(keep);
                }
            },
        );

        let mut best: Vec<Ranked<K>> = Vec::new();
        let mut stats = SweepStats::default();
        let mut by_index = Vec::new();
        for acc in accs {
            best.extend(acc.best);
            stats.absorb(acc.stats);
            by_index.extend(acc.by_index);
        }
        best.sort_by_key(|r| (r.0, r.1));
        best.truncate(keep);
        let winner = best.first().map_or(usize::MAX, |r| r.1);
        for (_, s) in by_index.into_iter().filter(|&(i, _)| i <= winner) {
            stats.absorb(s);
        }
        stats.grid = moves.len();
        (best, stats)
    }

    /// One move of a sweep, counted in `stats`: the conflict-locality
    /// prune (insertions only), the derive, the bound accounting and
    /// `accept`'s verdict. Returns the accepted move's key and derived
    /// graph, whose marking table is written only if a worker keeps it.
    fn evaluate_move<K>(
        &self,
        scratch: &mut PruneScratch,
        stats: &mut SweepStats,
        edit: StgEdit,
        accept: impl FnOnce(&Stg, &StateGraph) -> Option<K>,
    ) -> Option<(K, DerivedGraph<'a>)> {
        if let StgEdit::Insertion(tp, tm) = edit {
            let pruner = self
                .pruner
                .get_or_init(|| ConflictPruner::new(self.stg, self.base));
            if pruner
                .as_ref()
                .is_some_and(|p| p.skips(scratch, self.goal, tp, tm))
            {
                stats.pruned += 1;
                return None;
            }
        }
        stats.evaluated += 1;
        let labels = self.labels(edit);
        let derived = match DerivedGraph::new(self.base, labels, edit, self.bound) {
            Ok(derived) => derived,
            Err(StgError::Reach(ReachError::StateLimit(_))) => {
                stats.skipped_by_bound += 1;
                return None;
            }
            Err(_) => return None,
        };
        let key = accept(labels, derived.graph())?;
        stats.accepted += 1;
        Some((key, derived))
    }

    /// The [`Sweep`] that `evaluate`'s result stands for: each ranked
    /// move's STG, described, with its graph.
    fn sweep<K>(&self, (ranked, stats): (Vec<Ranked<K>>, SweepStats)) -> Sweep {
        let candidates = ranked
            .into_iter()
            .map(|(_, _, edit, space)| {
                CscResolution::new(apply_edit(self.stg, edit), describe(self.stg, edit), space)
            })
            .collect();
        Sweep { candidates, stats }
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

/// How every sweep describes the move `edit` on `stg`.
fn describe(stg: &Stg, edit: StgEdit) -> String {
    match edit {
        StgEdit::OrderingArc(a, b) => format!(
            "concurrency reduction: {} waits for {}",
            stg.label_string(b),
            stg.label_string(a)
        ),
        StgEdit::Insertion(tp, tm) => format!(
            "inserted csc signal: + before {}, - before {}",
            stg.label_string(tp),
            stg.label_string(tm)
        ),
    }
}

/// The `greedy_moves` of `stg` that `keep` selects, in grid order.
fn moves_where(stg: &Stg, keep: impl Fn(&StgEdit) -> bool) -> Vec<StgEdit> {
    greedy_moves(stg).into_iter().filter(keep).collect()
}

// ---------------------------------------------------------------------
// Signal-insertion sweep
// ---------------------------------------------------------------------

/// The single-signal insertion sweep: the best acceptable insertions of
/// one internal state signal.
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
/// them (see the flow driver). The best [`CSC_CANDIDATE_LIMIT`] are
/// returned; [`SweepStats::accepted`] counts them all.
///
/// `base` is the state graph of `stg`: it feeds the pruner and the
/// derivations.
///
/// Output is byte-identical for any `threads` setting; see
/// [`SweepOptions`].
#[must_use]
pub fn insertion_sweep(stg: &Stg, options: &SweepOptions, base: &StateGraph) -> Sweep {
    let moves = moves_where(stg, |edit| matches!(edit, StgEdit::Insertion(..)));
    let candidates = Candidates::new(stg, options.bound, base, Goal::Csc);
    // The grid runs `(tp, tm)` in lexicographic order, so the grid index
    // breaks ties like the transition ids.
    candidates.sweep(candidates.evaluate(
        &moves,
        options.threads,
        Rank::Best(CSC_CANDIDATE_LIMIT),
        |labels, space| {
            if !stg::encoding::has_csc(labels, space)
                || space.has_deadlock()
                || !stg::persistency::is_persistent(labels, space)
            {
                return None;
            }
            let equations = crate::nextstate::all_equations(labels, space).ok()?;
            let cost: usize = equations.iter().map(|e| e.cover.literal_count()).sum();
            Some((space.num_states(), cost))
        },
    ))
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
/// Returns the first acceptable candidate in grid order (if any) — the
/// same winner the serial scan finds — along with deterministic sweep
/// diagnostics. The scan keeps the serial search's early exit in
/// parallel form: indices beyond the lowest accepted one are skipped,
/// and the counters cover exactly the indices up to the winner, so they
/// are identical at any thread count. `base` is the state graph of
/// `stg`: the derivations start from it and its state count is the one
/// to beat. The caller is expected to have already established that CSC
/// fails on the base.
#[must_use]
pub fn concurrency_reduction_sweep(stg: &Stg, options: &SweepOptions, base: &StateGraph) -> Sweep {
    let base_states = base.num_states();
    let moves = moves_where(stg, |edit| matches!(edit, StgEdit::OrderingArc(..)));
    let candidates = Candidates::new(stg, options.bound, base, Goal::Csc);
    candidates.sweep(
        candidates.evaluate(&moves, options.threads, Rank::First, |labels, space| {
            (stg::encoding::has_csc(labels, space)
                && !space.has_deadlock()
                && stg::persistency::is_persistent(labels, space)
                && space.num_states() < base_states)
                .then_some(())
        }),
    )
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
/// candidate that leaves the fewest CSC-conflicting pairs (then the
/// fewest states, then the earliest in grid order), and repeats until CSC
/// holds (or `max_steps` transformations were applied; the flow allows
/// [`MIXED_MAX_STEPS`]). The result holds one candidate, the final STG
/// with its state graph, or none.
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
/// the state graph of `stg`, the first step's base. The counters sum
/// over the steps.
#[must_use]
pub fn resolve_mixed_sweep(
    stg: &Stg,
    max_steps: usize,
    options: &SweepOptions,
    base: &StateGraph,
) -> Sweep {
    let mut stats = SweepStats::default();
    let mut current = stg.clone();
    let mut descriptions: Vec<String> = Vec::new();
    let mut sg: Cow<'_, StateGraph> = Cow::Borrowed(base);
    loop {
        let conflicts = stg::encoding::csc_conflict_pair_count(&current, &sg);
        if conflicts == 0 {
            let description = if descriptions.is_empty() {
                "CSC already holds".to_owned()
            } else {
                descriptions.join("; ")
            };
            let resolution = CscResolution::new(current, description, sg.into_owned());
            return Sweep {
                candidates: vec![resolution],
                stats,
            };
        }
        if descriptions.len() == max_steps {
            break;
        }

        let candidates = Candidates::new(&current, options.bound, &sg, Goal::Progress);
        let (mut best, step) = candidates.evaluate(
            &greedy_moves(&current),
            options.threads,
            Rank::Best(1),
            |labels, space| {
                if space.has_deadlock() || !stg::persistency::is_persistent(labels, space) {
                    return None;
                }
                let remaining = stg::encoding::csc_conflict_pair_count(labels, space);
                (remaining < conflicts).then_some((remaining, space.num_states()))
            },
        );
        stats.absorb(step);
        let Some((_, _, edit, space)) = best.pop() else {
            break;
        };
        descriptions.push(describe(&current, edit));
        current = apply_edit(&current, edit);
        sg = Cow::Owned(space);
    }
    Sweep {
        candidates: Vec::new(),
        stats,
    }
}
