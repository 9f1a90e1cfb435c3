//! The resident-BDD state-space backend (§2.2).
//!
//! The reachable states are computed by a BDD fixed point and the
//! characteristic function stays resident in its BDD manager; the
//! implementability queries of the check stage are answered
//! symbolically:
//!
//! * the state vector is the **joint** (marking, signal code) pair: one
//!   BDD variable per place *and* per signal, interleaved by a
//!   structural anchor heuristic so each signal's variable sits next to
//!   the places of its own handshake (keeping the marking ↔ code
//!   correlation narrow). One more variable per non-input signal, its
//!   *excited* variable `xₛ`, sits directly below the deepest preset
//!   place of `s`'s transitions; the build never touches these, only the
//!   CSC conflict count does;
//! * the build is one fixed point over that pair with the
//!   [`petri::symbolic`] image kernel — a labelled transition's signal
//!   is its extra literal — checking the state limit and consistency on
//!   every iteration and safeness on the result. Only an inconsistent
//!   specification pays for a second, place-only fixed point: it decides
//!   the state limit and safeness first, the precedence the explicit
//!   builder has;
//! * the space answers the check itself ([`crate::StateSpace::report`]):
//!   excitation regions, code lookups, USC/CSC verdicts, persistency and
//!   deadlock checks are cube intersections, projections and
//!   satisfying-assignment counts over that one function — no state is
//!   ever enumerated. The CSC conflict-pair count is one walk over node
//!   pairs of `reached ∧ ⋀ₛ (xₛ ↔ s excited)`, counting the pairs of
//!   states that share a code but not their excited signals, for all
//!   codes at once. Sets of states are plain [`Bdd`]s over this
//!   space's place variables; the methods that take or return them
//!   belong to this type, so no other engine can be handed one;
//! * when the check genuinely needs a *witness* (a conflict pair, an
//!   error state), individual states are decoded on demand by BDD
//!   unranking, served from a small LRU of materialised blocks
//!   ([`SymbolicSetSpace::decode_code`] and
//!   [`SymbolicSetSpace::decode_marking`] work at any scale). Everything
//!   past the check (CSC sweeps, logic synthesis, simulation,
//!   verification) runs on a [`crate::StateGraph`] instead, which
//!   [`crate::StateSpace::into_state_graph`] builds.
//!
//! State numbering: index 0 is the initial marking, the rest follow the
//! lexicographic order of the BDD enumeration (with the initial
//! marking's slot swapped), so witnesses are stable and reproducible.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use bdd::{Bdd, BddMap, Manager, VarId};
use petri::reach::ReachError;
use petri::symbolic::{self, TransitionImage};
use petri::{Marking, PetriNet, TransitionId};

use crate::encoding::{self, EncodingConflict};
use crate::model::{SignalEdge, SignalId, Stg};
use crate::persistency;
use crate::properties::ImplementabilityReport;
use crate::state_graph::{StateGraph, StgError};
use crate::state_space::{Backend, StateSpace, DEFAULT_STATE_BOUND};

/// Statistics of the symbolic traversal that produced a state space.
#[derive(Debug, Clone, Copy)]
pub struct SymbolicStats {
    /// Number of reachable markings counted on the BDD.
    pub num_markings: u128,
    /// Image-computation iterations until the fixed point.
    pub iterations: usize,
    /// Nodes allocated in the BDD manager.
    pub bdd_nodes: usize,
}

/// States decoded together when a witness block is materialised.
const DECODE_BLOCK: usize = 256;

/// Blocks kept in the decode LRU (so repeated nearby witness lookups
/// never re-run the unranking).
const DECODE_LRU_BLOCKS: usize = 32;

/// The variable layout of one build: one variable per place and per
/// signal, interleaved by structural anchor, plus one "excited" variable
/// per non-input signal that only the CSC conflict count uses.
#[derive(Debug, Clone)]
struct VarMap {
    place: Vec<VarId>,
    sig: Vec<VarId>,
    /// `(signal, xₛ)` per non-input signal, in signal order: `xₛ` is
    /// true in a state exactly when an edge of `s` is enabled there. It
    /// sits directly below the deepest preset place of `s`'s transitions,
    /// where the places that decide it are already fixed (appended at the
    /// bottom of the order instead, the conjunction the count walks grows
    /// 5–57× on micropipelines and token rings). The build's fixed point
    /// never touches it.
    excited: Vec<(SignalId, VarId)>,
}

impl VarMap {
    /// Interleaves signal variables among place variables: each signal is
    /// anchored at the smallest place index adjacent to any of its
    /// transitions, so the marking ↔ value correlation stays local in
    /// the variable order (the difference between a linear-sized and an
    /// exponentially wide reached set). Each non-input signal's excited
    /// variable follows the deepest preset place of its transitions.
    fn build(stg: &Stg) -> VarMap {
        let net = stg.net();
        let num_places = net.num_places();
        let num_signals = stg.num_signals();
        let mut anchor = vec![usize::MAX; num_signals];
        let mut deepest: Vec<Option<usize>> = vec![None; num_signals];
        for t in net.transitions() {
            if let Some(l) = stg.label(t) {
                let near = net
                    .preset(t)
                    .iter()
                    .chain(net.postset(t))
                    .map(|p| p.index())
                    .min();
                if let Some(a) = near {
                    let slot = &mut anchor[l.signal.index()];
                    *slot = (*slot).min(a);
                }
                let deep = net.preset(t).iter().map(|p| p.index()).max();
                let slot = &mut deepest[l.signal.index()];
                *slot = (*slot).max(deep);
            }
        }
        // Entities sorted by (anchor, places-signals-excited, index). The
        // relative order of places is preserved (their anchor is their
        // own index), so lexicographic enumeration by variable id visits
        // places in index order.
        let mut entities: Vec<(usize, u8, usize)> = (0..num_places).map(|i| (i, 0, i)).collect();
        entities.extend((0..num_signals).map(|j| (anchor[j], 1, j)));
        // Excited variables are indexed by their position among the
        // non-input signals, which follows signal order.
        let non_inputs = stg.non_input_signals();
        entities.extend(non_inputs.iter().enumerate().map(|(k, s)| {
            let j = s.index();
            (deepest[j].unwrap_or(anchor[j]), 2, k)
        }));
        entities.sort_unstable();
        let mut map = VarMap {
            place: vec![0; num_places],
            sig: vec![0; num_signals],
            excited: non_inputs.into_iter().map(|s| (s, 0)).collect(),
        };
        for (pos, &(_, kind, idx)) in entities.iter().enumerate() {
            let var = u32::try_from(pos).expect("variable id fits u32");
            match kind {
                0 => map.place[idx] = var,
                1 => map.sig[idx] = var,
                _ => map.excited[idx].1 = var,
            }
        }
        map
    }

    /// Every place and signal variable, ascending: the variables of a
    /// state (the excited variables are not among them).
    fn all(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self.place.iter().chain(&self.sig).copied().collect();
        vars.sort_unstable();
        vars
    }
}

/// Memo of satisfying-assignment counts over place-variable suffixes,
/// per node (the unranking tables; see [`count_vars_from`]).
type SuffixCounts = BddMap<Bdd, u128>;

/// One materialised decode block: the `(marking, code)` pairs of a
/// contiguous rank range.
type DecodedBlock = Arc<Vec<(Marking, Vec<bool>)>>;

/// Per-build query caches (all lazily filled, all behind one lock).
#[derive(Debug, Default)]
struct QueryCache {
    /// `markings ∧ preset-cube(t)` per transition index.
    enabled: HashMap<usize, Bdd>,
    /// Excitation regions per `(signal index, edge is Rise)`.
    excitation: HashMap<(usize, bool), Bdd>,
    /// ON marking sets per signal index (the decoder reads codes off
    /// them).
    on: HashMap<usize, Bdd>,
    /// Per-node satisfying-assignment counts over place-variable
    /// suffixes (the unranking tables). Valid for any BDD whose support
    /// is the current place variables.
    suffix_counts: SuffixCounts,
    /// Materialised decode blocks: block index → states of that rank
    /// range.
    blocks: HashMap<usize, DecodedBlock>,
    /// LRU order of `blocks`.
    block_order: VecDeque<usize>,
    /// Probe counter: states decoded through the block cache so far.
    decoded_states: u64,
    /// Cached deadlock verdict.
    deadlock: Option<bool>,
}

/// A state space kept resident in its BDD manager; see the module docs.
#[derive(Debug)]
pub struct SymbolicSetSpace {
    manager: Mutex<Manager>,
    net: PetriNet,
    vars: VarMap,
    /// Characteristic function of the reachable (marking, code) pairs,
    /// over the current place + signal variables.
    reached: Bdd,
    /// Its projection to the place variables: the reachable markings.
    markings: Bdd,
    num_markings: u128,
    /// Lexicographic rank of the initial marking (index 0 swaps with it).
    initial_rank: u128,
    initial_values: Vec<bool>,
    num_signals: usize,
    stats: SymbolicStats,
    cache: Mutex<QueryCache>,
}

impl SymbolicSetSpace {
    /// Builds the resident state space, bounded by
    /// [`DEFAULT_STATE_BOUND`].
    ///
    /// # Errors
    ///
    /// The same [`StgError`]s as [`crate::StateGraph::build`]: unsafe
    /// nets report boundedness failures (with a witness marking),
    /// over-limit spaces report `StateLimit`, inconsistent
    /// specifications report the offending edge or state.
    pub fn build(stg: &Stg) -> Result<Self, StgError> {
        Self::build_bounded(stg, DEFAULT_STATE_BOUND)
    }

    /// Like [`SymbolicSetSpace::build`] with an explicit state limit.
    ///
    /// # Errors
    ///
    /// See [`SymbolicSetSpace::build`].
    pub fn build_bounded(stg: &Stg, max_states: usize) -> Result<Self, StgError> {
        let net = stg.net().clone();
        let m0 = net.initial_marking();
        if !m0.is_safe() {
            return Err(StgError::Reach(ReachError::BoundExceeded(m0)));
        }
        let vars = VarMap::build(stg);
        let num_signals = stg.num_signals();
        let limit = max_states as u128;
        let state_limit = || StgError::Reach(ReachError::StateLimit(max_states));

        let mut mgr = Manager::new();
        let m = &mut mgr;
        for &v in vars.place.iter().chain(&vars.sig) {
            m.var(v);
        }
        let place_init = symbolic::initial_cube(m, &net, &vars.place);

        let initial_values = match stg.initial_values() {
            Some(v) => v.to_vec(),
            // Inference walks the token game breadth-first until every
            // signal's first edge is seen. Small nets (every CSC sweep
            // candidate) finish in a budgeted explicit walk; only when
            // the budget blows does the layered symbolic BFS take over —
            // scale workloads fix their initial values explicitly and
            // skip inference altogether.
            None => infer_initial_values_bounded(stg)
                .unwrap_or_else(|| infer_initial_values_symbolic(m, stg, &vars, place_init)),
        };

        // One fixed point over (marking, code): each transition's image
        // kernel, with a labelled edge's signal as the extra literal
        // (driven from ¬after to after). Requiring the source value
        // mirrors the explicit token game, which never *follows* an
        // inconsistent firing — it reports it, as the checks below do on
        // every new frontier: without that early exit an inconsistent
        // specification could pile up to 2^signals codes per marking.
        let images: Vec<TransitionImage> = net
            .transitions()
            .map(|t| {
                let extra = stg
                    .label(t)
                    .map(|l| (vars.sig[l.signal.index()], l.edge.value_after()));
                TransitionImage::new(m, &net, t, &vars.place, extra)
            })
            .collect();
        let code: Vec<(VarId, bool)> = (0..num_signals)
            .map(|j| (vars.sig[j], initial_values[j]))
            .collect();
        let code = m.cube(&code);
        let init = m.and(place_init, code);
        let edge_checks: Vec<(TransitionId, Bdd)> = net
            .transitions()
            .filter_map(|t| {
                let l = stg.label(t)?;
                let mut cube = m.literal(vars.sig[l.signal.index()], l.edge.value_after());
                for &p in net.preset(t) {
                    let v = m.var(vars.place[p.index()]);
                    cube = m.and(cube, v);
                }
                Some((t, cube))
            })
            .collect();
        let all_vars = vars.all();
        let mut counts = SuffixCounts::default();
        let joint = symbolic::fixed_point(m, &images, init, |m, reached, frontier| {
            let mk = m.exists(reached, &vars.sig);
            let marking_count = count_vars_from(m, mk, &vars.place, 0, &mut counts);
            if marking_count > limit {
                return Err(state_limit());
            }
            let witness_index = |m: &Manager, witness: Bdd, counts: &mut SuffixCounts| {
                let witness = symbolic::first_marking(m, witness, &vars.place);
                let rank = lex_rank(m, mk, &vars, &witness, counts);
                let initial = lex_rank(m, mk, &vars, &m0, counts);
                state_index_of_rank(rank, initial, &witness, &m0)
            };
            // An edge enabled at the wrong source value on any new pair
            // is the explicit builder's InconsistentEdge, caught the
            // iteration the pair appears (the first visit checks the
            // initial pair itself).
            for &(t, cube) in &edge_checks {
                let bad = m.and(frontier, cube);
                if !bad.is_zero() {
                    return Err(StgError::InconsistentEdge {
                        transition: stg.label_string(t),
                        state: witness_index(m, bad, &mut counts),
                    });
                }
            }
            // More pairs than markings: some marking carries two codes.
            if count_over(m, reached, &all_vars) > marking_count {
                for &sig in &vars.sig {
                    let sv = m.var(sig);
                    let on_pairs = m.and(reached, sv);
                    let on = m.exists(on_pairs, &vars.sig);
                    let off_pairs = m.diff(reached, sv);
                    let off = m.exists(off_pairs, &vars.sig);
                    let both = m.and(on, off);
                    if !both.is_zero() {
                        return Err(StgError::InconsistentCode {
                            state: witness_index(m, both, &mut counts),
                        });
                    }
                }
                unreachable!("a code-multiplicity excess implies a two-valued signal");
            }
            Ok(())
        });
        let (reached, iterations) = match joint {
            Ok(fixed) => fixed,
            Err(e @ StgError::Reach(_)) => return Err(e),
            // Inconsistent: the explicit builder decides boundedness over
            // the full marking set before it reads any code, so the
            // place-only fixed point runs (here, and only here) to report
            // a state limit or an unsafe net ahead of the inconsistency.
            Err(inconsistent) => {
                let place_images = symbolic::place_images(m, &net, &vars.place);
                let (markings, _) =
                    symbolic::fixed_point(m, &place_images, place_init, |m, reached, _| {
                        if count_vars_from(m, reached, &vars.place, 0, &mut counts) > limit {
                            return Err(state_limit());
                        }
                        Ok(())
                    })?;
                if let Some(after) = symbolic::unsafe_witness(m, &net, markings, &vars.place) {
                    return Err(StgError::Reach(ReachError::BoundExceeded(after)));
                }
                return Err(inconsistent);
            }
        };
        let markings = m.exists(reached, &vars.sig);
        // The kernel never fires onto a marked pure output place, so the
        // fixed point covers only the safe fragment; a reached marking
        // that enables such a firing witnesses an unsafe net.
        if let Some(after) = symbolic::unsafe_witness(m, &net, markings, &vars.place) {
            return Err(StgError::Reach(ReachError::BoundExceeded(after)));
        }
        counts.clear(); // drop nodes of intermediate marking sets
        let num_markings = count_vars_from(m, markings, &vars.place, 0, &mut counts);
        let initial_rank = lex_rank(m, markings, &vars, &m0, &mut counts);

        let stats = SymbolicStats {
            num_markings,
            iterations,
            bdd_nodes: m.node_count(),
        };
        Ok(SymbolicSetSpace {
            manager: Mutex::new(mgr),
            net,
            vars,
            reached,
            markings,
            num_markings,
            initial_rank,
            initial_values,
            num_signals,
            stats,
            cache: Mutex::new(QueryCache {
                suffix_counts: counts,
                ..QueryCache::default()
            }),
        })
    }

    /// Statistics of the underlying BDD traversal.
    #[must_use]
    pub fn stats(&self) -> SymbolicStats {
        self.stats
    }

    /// Exact number of reachable markings (the BDD count — never
    /// saturated, never enumerated).
    #[must_use]
    pub fn num_markings(&self) -> u128 {
        self.num_markings
    }

    /// Probe: how many individual states have been decoded through the
    /// witness block cache so far.
    #[must_use]
    pub fn decoded_states(&self) -> u64 {
        self.cache.lock().expect("cache poisoned").decoded_states
    }

    /// The (possibly inferred) initial signal values.
    #[must_use]
    pub fn initial_values(&self) -> &[bool] {
        &self.initial_values
    }

    /// The initial marking (state `0`'s), straight from the net: no
    /// decode.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        self.net.initial_marking()
    }

    /// The binary code of state `i`, indexed by [`SignalId`], decoded
    /// through the witness block cache.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a state index of this space.
    #[must_use]
    pub fn decode_code(&self, i: usize) -> Vec<bool> {
        self.decode(i).1
    }

    /// The net marking of state `i`, decoded like
    /// [`SymbolicSetSpace::decode_code`].
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a state index of this space.
    #[must_use]
    pub fn decode_marking(&self, i: usize) -> Marking {
        self.decode(i).0
    }

    // -----------------------------------------------------------------
    // Set-level queries. A set of states is a BDD over the place
    // variables of this space's manager: the characteristic function of
    // its markings (each reachable marking carries one code). The sets
    // mean nothing outside the space that made them.
    // -----------------------------------------------------------------

    /// The set of all reachable states.
    #[must_use]
    pub fn all_states(&self) -> Bdd {
        self.markings
    }

    /// Number of states in a set.
    #[must_use]
    pub fn set_count(&self, set: Bdd) -> u128 {
        let mut cache = self.cache.lock().expect("cache poisoned");
        let m = self.mgr();
        self.count_markings(&m, &mut cache.suffix_counts, set)
    }

    /// The distinct binary codes of a set's states, in lexicographic
    /// order.
    #[must_use]
    pub fn set_codes(&self, set: Bdd) -> Vec<Vec<bool>> {
        let mut m = self.mgr();
        let codes = self.codes_of(&mut m, set);
        let mut out = enumerate_codes(&m, codes, &self.vars);
        out.sort_unstable();
        out
    }

    /// The three excitation classes of `signal`: the states where a
    /// rising edge of it is enabled (`ER(z+)`), where a falling edge is,
    /// and the rest.
    #[must_use]
    pub fn excitation_classes(&self, stg: &Stg, signal: SignalId) -> [Bdd; 3] {
        let mut cache = self.cache.lock().expect("cache poisoned");
        let mut m = self.mgr();
        self.excitation_classes_in(&mut m, &mut cache, stg, signal)
    }

    /// States whose code equals `code`, ascending.
    #[must_use]
    pub fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        let set = self.states_with_code_set(code);
        let mut cache = self.cache.lock().expect("cache poisoned");
        let m = self.mgr();
        self.set_states(&m, &mut cache.suffix_counts, set)
    }

    /// States whose code equals `code`, as a set.
    #[must_use]
    pub fn states_with_code_set(&self, code: &[bool]) -> Bdd {
        let mut m = self.mgr();
        self.code_set(&mut m, code)
    }

    /// `true` if the space has *Unique State Coding*: the number of
    /// distinct codes equals the number of states (two BDD counts).
    #[must_use]
    pub fn has_usc(&self) -> bool {
        self.distinct_code_count() == self.num_markings
    }

    /// `true` if the space has *Complete State Coding*: no two of a
    /// non-input signal's three excitation classes (rising, falling,
    /// unexcited) share a code.
    #[must_use]
    pub fn has_csc(&self, stg: &Stg) -> bool {
        if self.has_usc() {
            return true;
        }
        let mut cache = self.cache.lock().expect("cache poisoned");
        let mut m = self.mgr();
        for s in stg.non_input_signals() {
            let classes = self.excitation_classes_in(&mut m, &mut cache, stg, s);
            let [rise, fall, none] = classes.map(|set| self.codes_of(&mut m, set));
            if !m.and(rise, fall).is_zero()
                || !m.and(rise, none).is_zero()
                || !m.and(fall, none).is_zero()
            {
                return false;
            }
        }
        true
    }

    /// `true` if the space is persistent (see
    /// [`crate::persistency::is_persistent`]): each blocking-classified
    /// transition pair is refuted by one disabling count, with an early
    /// exit on the first violation.
    #[must_use]
    pub fn is_persistent(&self, stg: &Stg) -> bool {
        persistency::blocking_pairs(stg).all(|(t, u)| self.disabling_count(t, u) == 0)
    }

    /// `true` when some reachable state enables no transition.
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        let mut cache = self.cache.lock().expect("cache poisoned");
        let mut m = self.mgr();
        if let Some(d) = cache.deadlock {
            return d;
        }
        let mut dead = self.markings;
        for t in self.net.transitions() {
            if dead.is_zero() {
                break;
            }
            let en = self.enabled_set_bdd(&mut m, &mut cache, t);
            dead = m.diff(dead, en);
        }
        let d = !dead.is_zero();
        cache.deadlock = Some(d);
        d
    }

    /// Number of distinct codes across the whole space.
    fn distinct_code_count(&self) -> u128 {
        let mut m = self.mgr();
        let codes = m.exists(self.reached, &self.vars.place);
        let mut sig_sorted = self.vars.sig.clone();
        sig_sorted.sort_unstable();
        count_over(&m, codes, &sig_sorted)
    }

    /// Number of CSC-violating state pairs, counted for all codes at once
    /// without enumerating a code or decoding a state.
    ///
    /// Two states of one code are in CSC conflict exactly when some
    /// non-input signal is excited in one and not in the other: within one
    /// code an excited signal's edge is fixed by its value, so the excited
    /// *set* decides the excitation profile. With
    /// `F = reached ∧ ⋀ₛ (xₛ ↔ ER(s+) ∨ ER(s−))` over the excited
    /// variables, and `P_K(F)` the number of ordered pairs of satisfying
    /// assignments of `F` that agree on the variables `K`,
    ///
    /// `csc_pairs = (P_sig(F) − P_{sig ∪ x}(F)) / 2`:
    ///
    /// `P_sig` counts the ordered pairs sharing a code, `P_{sig ∪ x}` the
    /// ones that also share an excitation profile (the self-pairs cancel),
    /// and halving turns ordered pairs into unordered ones.
    fn csc_conflict_pair_count(&self, stg: &Stg) -> usize {
        let mut m = self.mgr();
        // The links are local in the variable order, so their conjunction
        // stays small and meets `reached` in one AND.
        let mut links = Manager::one();
        for &(s, x) in &self.vars.excited {
            // On reached states, `s` is excited exactly where some
            // transition of it has its whole preset marked (the build's
            // safeness check makes a marked preset mean enabled).
            let mut excited = Manager::zero();
            for t in self.net.transitions() {
                if stg.label(t).is_some_and(|l| l.signal == s) {
                    let mut cube = Manager::one();
                    for &p in self.net.preset(t) {
                        let v = m.var(self.vars.place[p.index()]);
                        cube = m.and(cube, v);
                    }
                    excited = m.or(excited, cube);
                }
            }
            let xv = m.var(x);
            let link = m.iff(xv, excited);
            links = m.and(links, link);
        }
        let f = m.and(self.reached, links);
        // Places are free throughout, signals are keys; the excited
        // variables are free for `P_sig` and keys for `P_{sig ∪ x}`.
        let universe = |excited_key: bool| {
            let places = self.vars.place.iter().map(|&v| (v, false));
            let mut vars: Vec<(VarId, bool)> = places
                .chain(self.vars.sig.iter().map(|&v| (v, true)))
                .chain(self.vars.excited.iter().map(|&(_, v)| (v, excited_key)))
                .collect();
            vars.sort_unstable();
            vars
        };
        let same_code = agreeing_pair_count(&m, f, &universe(false));
        let same_profile = agreeing_pair_count(&m, f, &universe(true));
        usize::try_from((same_code - same_profile) / 2).expect("conflict pair count fits usize")
    }

    /// Number of blocking disabling occurrences, the count
    /// [`crate::persistency::blocking_violation_count`] gives explicitly,
    /// phrased per transition pair so it is counted, never enumerated.
    fn blocking_violation_count(&self, stg: &Stg) -> usize {
        let total: u128 = persistency::blocking_pairs(stg)
            .map(|(t, u)| self.disabling_count(t, u))
            .sum();
        usize::try_from(total).expect("violation count fits usize")
    }

    /// Number of states where `t` and `u` are both enabled and firing `u`
    /// disables `t` — the persistency primitive.
    fn disabling_count(&self, t: TransitionId, u: TransitionId) -> u128 {
        if t == u {
            return 0;
        }
        let mut cache = self.cache.lock().expect("cache poisoned");
        let mut m = self.mgr();
        let en_t = self.enabled_set_bdd(&mut m, &mut cache, t);
        let en_u = self.enabled_set_bdd(&mut m, &mut cache, u);
        let mut both = m.and(en_t, en_u);
        if both.is_zero() {
            return 0;
        }
        // `t` still enabled after firing `u`: each preset place of `t`
        // must be marked in the successor — produced by `u`, or marked
        // now and not consumed by `u`.
        let pre_u = self.net.preset(u);
        let post_u = self.net.postset(u);
        let mut after = Manager::one();
        for &p in self.net.preset(t) {
            if post_u.contains(&p) {
                continue; // marked after u regardless
            }
            if pre_u.contains(&p) {
                after = Manager::zero(); // consumed: t disabled for sure
                break;
            }
            let v = m.var(self.vars.place[p.index()]);
            after = m.and(after, v);
        }
        both = m.diff(both, after);
        self.count_markings(&m, &mut cache.suffix_counts, both)
    }

    /// Codes shared by two or more states, each with its ascending state
    /// list, sorted by code. Only the (typically few) genuinely
    /// duplicated codes have their states decoded to indices.
    fn duplicate_code_classes(&self) -> Vec<(Vec<bool>, Vec<usize>)> {
        let mut cache = self.cache.lock().expect("cache poisoned");
        let mut m = self.mgr();
        let codes_bdd = m.exists(self.reached, &self.vars.place);
        let mut out = Vec::new();
        for code in enumerate_codes(&m, codes_bdd, &self.vars) {
            let set = self.code_set(&mut m, &code);
            if self.count_markings(&m, &mut cache.suffix_counts, set) > 1 {
                let states = self.set_states(&m, &mut cache.suffix_counts, set);
                out.push((code, states));
            }
        }
        out.sort();
        out
    }

    /// The signal edges enabled in state `i`, as `(transition, signal,
    /// edge)` triples sorted by transition; dummies are skipped.
    fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)> {
        let (marking, _) = self.decode(i);
        self.net
            .transitions()
            .filter(|&t| self.net.is_enabled(&marking, t))
            .filter_map(|t| stg.label(t).map(|l| (t, l.signal, l.edge)))
            .collect()
    }

    /// The codes of a set's states, as a BDD over the signal variables.
    fn codes_of(&self, m: &mut Manager, set: Bdd) -> Bdd {
        let pairs = m.and(self.reached, set);
        m.exists(pairs, &self.vars.place)
    }

    /// The states whose code equals `code`.
    fn code_set(&self, m: &mut Manager, code: &[bool]) -> Bdd {
        let literals: Vec<(VarId, bool)> = (0..self.num_signals)
            .map(|j| (self.vars.sig[j], code[j]))
            .collect();
        let cube = m.cube(&literals);
        m.and_exists(self.reached, cube, &self.vars.sig)
    }

    /// The state indices of a set, ascending. A witness extractor: the
    /// check calls it only on the states of one duplicated code.
    fn set_states(&self, m: &Manager, suffix_counts: &mut SuffixCounts, set: Bdd) -> Vec<usize> {
        let m0 = self.net.initial_marking();
        let mut out = Vec::new();
        let mut counts = vec![0u32; self.num_places()];
        descend_markings(m, set, &self.vars, 0, &mut counts, &mut |marking| {
            let rank = lex_rank(m, self.markings, &self.vars, &marking, suffix_counts);
            out.push(state_index_of_rank(rank, self.initial_rank, &marking, &m0));
        });
        out.sort_unstable();
        out
    }

    fn mgr(&self) -> MutexGuard<'_, Manager> {
        self.manager.lock().expect("BDD manager poisoned")
    }

    fn num_places(&self) -> usize {
        self.net.num_places()
    }

    /// `markings ∧ preset-cube(t)` — the enabled set of a transition.
    /// Valid as an enabledness test because the build's safeness check
    /// guarantees no reached marking enables a firing onto a marked
    /// output place.
    fn enabled_set_bdd(&self, m: &mut Manager, cache: &mut QueryCache, t: TransitionId) -> Bdd {
        if let Some(&b) = cache.enabled.get(&t.index()) {
            return b;
        }
        let mut b = self.markings;
        for &p in self.net.preset(t) {
            let v = m.var(self.vars.place[p.index()]);
            b = m.and(b, v);
        }
        cache.enabled.insert(t.index(), b);
        b
    }

    /// ON marking set of a signal: markings whose (unique) code sets it.
    fn on_set_bdd(&self, m: &mut Manager, cache: &mut QueryCache, sig: usize) -> Bdd {
        if let Some(&b) = cache.on.get(&sig) {
            return b;
        }
        let sv = m.var(self.vars.sig[sig]);
        let pairs = m.and(self.reached, sv);
        let b = m.exists(pairs, &self.vars.sig);
        cache.on.insert(sig, b);
        b
    }

    fn excitation_bdd(
        &self,
        m: &mut Manager,
        cache: &mut QueryCache,
        stg: &Stg,
        signal: SignalId,
        edge: SignalEdge,
    ) -> Bdd {
        let key = (signal.index(), edge == SignalEdge::Rise);
        if let Some(&b) = cache.excitation.get(&key) {
            return b;
        }
        let mut b = Manager::zero();
        for t in self.net.transitions() {
            if stg
                .label(t)
                .is_some_and(|l| l.signal == signal && l.edge == edge)
            {
                let en = self.enabled_set_bdd(m, cache, t);
                b = m.or(b, en);
            }
        }
        cache.excitation.insert(key, b);
        b
    }

    fn excitation_classes_in(
        &self,
        m: &mut Manager,
        cache: &mut QueryCache,
        stg: &Stg,
        signal: SignalId,
    ) -> [Bdd; 3] {
        let rise = self.excitation_bdd(m, cache, stg, signal, SignalEdge::Rise);
        let fall = self.excitation_bdd(m, cache, stg, signal, SignalEdge::Fall);
        let excited = m.or(rise, fall);
        let none = m.diff(self.markings, excited);
        [rise, fall, none]
    }

    /// Count of markings in a place-variable set, through the space's
    /// suffix-count memo.
    fn count_markings(&self, m: &Manager, counts: &mut SuffixCounts, f: Bdd) -> u128 {
        count_vars_from(m, f, &self.vars.place, 0, counts)
    }

    /// The decoded `(marking, code)` of state `i`, through the LRU block
    /// cache.
    fn decode(&self, i: usize) -> (Marking, Vec<bool>) {
        assert!(
            (i as u128) < self.num_markings,
            "state index {i} out of range"
        );
        let block = i / DECODE_BLOCK;
        let mut cache = self.cache.lock().expect("cache poisoned");
        if let Some(entries) = cache.blocks.get(&block) {
            let entries = Arc::clone(entries);
            // Refresh recency so a hot block outlives cold inserts.
            cache.block_order.retain(|&b| b != block);
            cache.block_order.push_back(block);
            return entries[i - block * DECODE_BLOCK].clone();
        }
        // Materialise the block: unrank each index, then evaluate the
        // per-signal ON sets on the marking bits.
        let mut m = self.mgr();
        let on_sets: Vec<Bdd> = (0..self.num_signals)
            .map(|j| self.on_set_bdd(&mut m, &mut cache, j))
            .collect();
        let lo = block * DECODE_BLOCK;
        let hi = (lo + DECODE_BLOCK).min(usize::try_from(self.num_markings).unwrap_or(usize::MAX));
        let mut entries = Vec::with_capacity(hi - lo);
        for rank in lo..hi {
            let marking = self.unrank_state(&m, &mut cache.suffix_counts, rank as u128);
            let code = self.code_of_marking(&m, &on_sets, &marking);
            entries.push((marking, code));
        }
        drop(m);
        cache.decoded_states += (hi - lo) as u64;
        let entries = Arc::new(entries);
        cache.blocks.insert(block, Arc::clone(&entries));
        cache.block_order.push_back(block);
        if cache.block_order.len() > DECODE_LRU_BLOCKS {
            if let Some(evicted) = cache.block_order.pop_front() {
                cache.blocks.remove(&evicted);
            }
        }
        entries[i - lo].clone()
    }

    /// The marking at state index `i` (index 0 is the initial marking,
    /// swapped with its lexicographic slot).
    fn unrank_state(&self, m: &Manager, counts: &mut SuffixCounts, i: u128) -> Marking {
        let m0 = self.net.initial_marking();
        if i == 0 {
            return m0;
        }
        let lex = if i == self.initial_rank { 0 } else { i };
        lex_unrank(m, self.markings, &self.vars, self.num_places(), lex, counts)
    }

    /// Evaluates the per-signal ON sets at a marking to read its code.
    fn code_of_marking(&self, m: &Manager, on_sets: &[Bdd], marking: &Marking) -> Vec<bool> {
        let mut assignment = vec![false; m.var_count() as usize];
        for p in self.net.places() {
            if marking.is_marked(p) {
                assignment[self.vars.place[p.index()] as usize] = true;
            }
        }
        on_sets.iter().map(|&b| m.eval(b, &assignment)).collect()
    }
}

impl StateSpace for SymbolicSetSpace {
    fn backend(&self) -> Backend {
        Backend::SymbolicSet
    }

    fn num_states(&self) -> usize {
        usize::try_from(self.num_markings).unwrap_or(usize::MAX)
    }

    fn report(&self, stg: &Stg) -> ImplementabilityReport {
        let usc = self.has_usc();
        let csc_pairs = if usc {
            0
        } else {
            self.csc_conflict_pair_count(stg)
        };
        ImplementabilityReport::of_built_space(
            self.num_states(),
            usc,
            csc_pairs,
            self.blocking_violation_count(stg),
            self.has_deadlock(),
        )
    }

    fn csc_conflicts(&self, stg: &Stg) -> Vec<EncodingConflict> {
        let classes = self.duplicate_code_classes();
        let mut out = encoding::conflicts_in_classes(stg, classes, |i| self.excitations(stg, i));
        out.retain(EncodingConflict::is_csc);
        out
    }

    fn duplication_excess(&self) -> u128 {
        self.num_markings - self.distinct_code_count()
    }

    fn bdd_node_count(&self) -> Option<usize> {
        Some(self.stats().bdd_nodes)
    }

    fn decoded_state_count(&self) -> Option<u64> {
        Some(self.decoded_states())
    }

    fn into_state_graph(self: Box<Self>, stg: &Stg) -> Result<StateGraph, StgError> {
        StateGraph::build(stg)
    }
}

// ---------------------------------------------------------------------
// Free helpers (kept out of the impl so build can use them before a
// space exists)
// ---------------------------------------------------------------------

/// Number of satisfying assignments of `f` over the given ascending
/// variable list, which must cover `f`'s support. Counting walks the
/// diagram against the list directly — no full-universe `sat_count`
/// followed by a shift, which would silently overflow `u128` once the
/// manager's variable universe grows past 128 variables (state vectors
/// of ~60+ places/signals, exactly the scale this backend exists for).
fn count_over(m: &Manager, f: Bdd, vars: &[VarId]) -> u128 {
    count_vars_from(m, f, vars, 0, &mut SuffixCounts::default())
}

/// Count over the suffix `vars[pos..]` (memo keyed per node: a node's
/// count over the suffix starting at its own variable is
/// position-independent).
fn count_vars_from(
    m: &Manager,
    f: Bdd,
    vars: &[VarId],
    pos: usize,
    memo: &mut SuffixCounts,
) -> u128 {
    fn var_pos(m: &Manager, f: Bdd, vars: &[VarId]) -> usize {
        match m.root_var(f) {
            Some(v) => vars
                .binary_search(&v)
                .unwrap_or_else(|_| panic!("variable {v} outside the counting subspace")),
            None => vars.len(),
        }
    }
    fn rec(m: &Manager, f: Bdd, vars: &[VarId], memo: &mut SuffixCounts) -> u128 {
        if f.is_zero() {
            return 0;
        }
        if f.is_one() {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let pos = var_pos(m, f, vars);
        let (lo, hi) = (m.low(f), m.high(f));
        let clo = rec(m, lo, vars, memo);
        let chi = rec(m, hi, vars, memo);
        let gap_lo = var_pos(m, lo, vars) - pos - 1;
        let gap_hi = var_pos(m, hi, vars) - pos - 1;
        let c = (clo << gap_lo) + (chi << gap_hi);
        memo.insert(f, c);
        c
    }
    let c = rec(m, f, vars, memo);
    c << (var_pos(m, f, vars) - pos)
}

/// `P_K(f)`: the number of ordered pairs `(a, b)` of satisfying
/// assignments of `f` that agree on the key variables `K`. `vars` lists
/// the counting universe ascending, each variable flagged `true` when it
/// is a key; it must cover `f`'s support.
///
/// One memoised walk over node pairs `(f₁, f₂)` (symmetric, so
/// canonicalised as `(min, max)`): at the topmost variable of the pair a
/// key variable sends both sides down the same branch, a free one sums
/// all four branch combinations. A variable both sides skip multiplies
/// the count by 2 (key: one shared value) or 4 (free: two independent
/// values), kept as a shift by the variable's weight, 1 or 2.
pub(crate) fn agreeing_pair_count(m: &Manager, f: Bdd, vars: &[(VarId, bool)]) -> u128 {
    struct Walk<'a> {
        m: &'a Manager,
        vars: &'a [(VarId, bool)],
        /// `weight[i]`: summed log2 factors of `vars[..i]`.
        weight: Vec<u32>,
        memo: BddMap<(Bdd, Bdd), u128>,
    }
    impl Walk<'_> {
        /// Position of a node's root variable in `vars` (`vars.len()` for
        /// constants).
        fn pos(&self, f: Bdd) -> usize {
            match self.m.root_var(f) {
                Some(v) => self
                    .vars
                    .binary_search_by_key(&v, |&(var, _)| var)
                    .unwrap_or_else(|_| panic!("variable {v} outside the counting universe")),
                None => self.vars.len(),
            }
        }

        /// Pairs of `(f, g)` over `vars[from..]`.
        fn from(&mut self, f: Bdd, g: Bdd, from: usize) -> u128 {
            if f.is_zero() || g.is_zero() {
                return 0;
            }
            let top = self.pos(f).min(self.pos(g));
            self.at(f, g, top) << (self.weight[top] - self.weight[from])
        }

        /// Pairs of `(f, g)` over `vars[top..]`, where `top` is the
        /// topmost root position of the pair.
        fn at(&mut self, f: Bdd, g: Bdd, top: usize) -> u128 {
            if top == self.vars.len() {
                return 1; // both sides are the constant one
            }
            let key = (f.min(g), f.max(g));
            if let Some(&c) = self.memo.get(&key) {
                return c;
            }
            let split = |w: &Self, h: Bdd| {
                if w.pos(h) == top {
                    (w.m.low(h), w.m.high(h))
                } else {
                    (h, h)
                }
            };
            let (f0, f1) = split(self, f);
            let (g0, g1) = split(self, g);
            let next = top + 1;
            let c = if self.vars[top].1 {
                self.from(f0, g0, next) + self.from(f1, g1, next)
            } else {
                self.from(f0, g0, next)
                    + self.from(f0, g1, next)
                    + self.from(f1, g0, next)
                    + self.from(f1, g1, next)
            };
            self.memo.insert(key, c);
            c
        }
    }
    let mut weight = Vec::with_capacity(vars.len() + 1);
    let mut total = 0;
    weight.push(total);
    for &(_, key) in vars {
        total += if key { 1 } else { 2 };
        weight.push(total);
    }
    let mut walk = Walk {
        m,
        vars,
        weight,
        memo: BddMap::default(),
    };
    walk.from(f, f, 0)
}

/// Budgeted explicit first-edge inference: breadth-first token game up
/// to a fixed number of markings, deciding each signal's polarity from
/// the first enabled edge (lowest transition id per state). Returns
/// `None` when the budget blows or the walk ends with signals undecided
/// that a full traversal might still reach — the symbolic fallback then
/// decides.
fn infer_initial_values_bounded(stg: &Stg) -> Option<Vec<bool>> {
    const BUDGET: usize = 4096;
    let net = stg.net();
    let num_signals = stg.num_signals();
    let mut first_edge: Vec<Option<SignalEdge>> = vec![None; num_signals];
    let mut undecided = num_signals;
    let m0 = net.initial_marking();
    let mut visited = std::collections::HashSet::new();
    let mut queue = VecDeque::new();
    visited.insert(m0.clone());
    queue.push_back(m0);
    while let Some(mk) = queue.pop_front() {
        for t in net.transitions() {
            if !net.is_enabled(&mk, t) {
                continue;
            }
            if let Some(l) = stg.label(t) {
                let slot = &mut first_edge[l.signal.index()];
                if slot.is_none() {
                    *slot = Some(l.edge);
                    undecided -= 1;
                }
            }
            if undecided == 0 {
                break;
            }
            if let Some(next) = net.fire(&mk, t) {
                if next.is_safe() && !visited.contains(&next) {
                    if visited.len() >= BUDGET {
                        return None;
                    }
                    visited.insert(next.clone());
                    queue.push_back(next);
                }
            }
        }
        if undecided == 0 {
            break;
        }
    }
    Some(
        first_edge
            .into_iter()
            .map(|e| match e {
                Some(SignalEdge::Rise) | None => false,
                Some(SignalEdge::Fall) => true,
            })
            .collect(),
    )
}

/// Infers initial signal values by a layered symbolic BFS over the
/// place-only token game: the first layer at which an edge of a signal
/// becomes enabled decides its polarity (rising ⟹ starts 0), mirroring
/// the explicit builder's first-edge rule. Ties within one layer fall to
/// the lowest transition id — the one place the backends can legitimately
/// disagree: the explicit builder breaks the same tie by its (arbitrary)
/// BFS arc-iteration order. For *consistent* specifications any
/// first-edge answer is the unique correct one, so this only matters for
/// specs that are ambiguous anyway (the wrong guess then fails the main
/// fixed point's consistency check, as it does on the explicit path);
/// scale workloads should fix initial values explicitly.
fn infer_initial_values_symbolic(
    m: &mut Manager,
    stg: &Stg,
    vars: &VarMap,
    init: Bdd,
) -> Vec<bool> {
    let net = stg.net();
    let num_signals = stg.num_signals();
    let mut first_edge: Vec<Option<SignalEdge>> = vec![None; num_signals];
    let mut undecided = num_signals;
    let images = symbolic::place_images(m, net, &vars.place);
    // The traversal stops (`Err`) once every signal is decided.
    let _ = symbolic::fixed_point(m, &images, init, |m, _, frontier| {
        for t in net.transitions() {
            let Some(l) = stg.label(t) else { continue };
            if first_edge[l.signal.index()].is_some() {
                continue;
            }
            let mut enabled = frontier;
            for &p in net.preset(t) {
                let v = m.var(vars.place[p.index()]);
                enabled = m.and(enabled, v);
            }
            if !enabled.is_zero() {
                first_edge[l.signal.index()] = Some(l.edge);
                undecided -= 1;
            }
        }
        if undecided == 0 {
            Err(())
        } else {
            Ok(())
        }
    });
    first_edge
        .into_iter()
        .map(|e| match e {
            Some(SignalEdge::Rise) | None => false,
            Some(SignalEdge::Fall) => true,
        })
        .collect()
}

/// Lexicographic rank of `marking` within the set `f` (by place index,
/// 0 before 1). The marking need not be in the set for the arithmetic
/// to be well-defined, but callers only rank reachable markings.
fn lex_rank(
    m: &Manager,
    f: Bdd,
    vars: &VarMap,
    marking: &Marking,
    memo: &mut SuffixCounts,
) -> u128 {
    let num_places = vars.place.len();
    let mut rank = 0u128;
    let mut cur = f;
    for pos in 0..num_places {
        let v = vars.place[pos];
        let bit = marking.tokens(petri::PlaceId::from_index(pos)) > 0;
        let (lo, hi) = if m.root_var(cur) == Some(v) {
            (m.low(cur), m.high(cur))
        } else {
            (cur, cur)
        };
        if bit {
            rank += count_vars_from(m, lo, &vars.place, pos + 1, memo);
            cur = hi;
        } else {
            cur = lo;
        }
    }
    rank
}

/// The `i`-th marking of the set `f` in lexicographic order.
fn lex_unrank(
    m: &Manager,
    f: Bdd,
    vars: &VarMap,
    num_places: usize,
    mut i: u128,
    memo: &mut SuffixCounts,
) -> Marking {
    let mut counts = vec![0u32; num_places];
    let mut cur = f;
    for (pos, slot) in counts.iter_mut().enumerate() {
        let v = vars.place[pos];
        let (lo, hi) = if m.root_var(cur) == Some(v) {
            (m.low(cur), m.high(cur))
        } else {
            (cur, cur)
        };
        let c0 = count_vars_from(m, lo, &vars.place, pos + 1, memo);
        if i < c0 {
            cur = lo;
        } else {
            i -= c0;
            *slot = 1;
            cur = hi;
        }
    }
    debug_assert!(cur.is_one() && i == 0, "rank within the set's count");
    Marking::from_counts(counts)
}

/// Maps a lexicographic rank to a state index under the initial-marking
/// swap (index 0 ↔ the initial marking's lexicographic slot).
fn state_index_of_rank(rank: u128, initial_rank: u128, marking: &Marking, m0: &Marking) -> usize {
    let index = if marking == m0 {
        0
    } else if rank == 0 {
        initial_rank
    } else {
        rank
    };
    usize::try_from(index).expect("witness index fits usize")
}

/// Visits every marking of a place-variable set, in lexicographic order.
fn descend_markings(
    m: &Manager,
    f: Bdd,
    vars: &VarMap,
    pos: usize,
    counts: &mut Vec<u32>,
    visit: &mut impl FnMut(Marking),
) {
    if f.is_zero() {
        return;
    }
    if pos == counts.len() {
        debug_assert!(f.is_one(), "support is the current place variables");
        visit(Marking::from_counts(counts.clone()));
        return;
    }
    let v = vars.place[pos];
    let (lo, hi) = if m.root_var(f) == Some(v) {
        (m.low(f), m.high(f))
    } else {
        (f, f)
    };
    counts[pos] = 0;
    descend_markings(m, lo, vars, pos + 1, counts, visit);
    counts[pos] = 1;
    descend_markings(m, hi, vars, pos + 1, counts, visit);
    counts[pos] = 0;
}

/// Enumerates the codes of a signal-variable set (indexed by signal id,
/// free variables branching both ways).
fn enumerate_codes(m: &Manager, f: Bdd, vars: &VarMap) -> Vec<Vec<bool>> {
    // Signal variables in ascending id order, with the signal index each
    // one belongs to (the anchor interleaving permutes them).
    let mut sig_order: Vec<(VarId, usize)> =
        vars.sig.iter().enumerate().map(|(j, &v)| (v, j)).collect();
    sig_order.sort_unstable();
    let mut out = Vec::new();
    let mut code = vec![false; vars.sig.len()];
    descend_codes(m, f, &sig_order, 0, &mut code, &mut out);
    out
}

fn descend_codes(
    m: &Manager,
    f: Bdd,
    sig_order: &[(VarId, usize)],
    pos: usize,
    code: &mut Vec<bool>,
    out: &mut Vec<Vec<bool>>,
) {
    if f.is_zero() {
        return;
    }
    if pos == sig_order.len() {
        debug_assert!(f.is_one(), "support is the current signal variables");
        out.push(code.clone());
        return;
    }
    let (v, j) = sig_order[pos];
    let (lo, hi) = if m.root_var(f) == Some(v) {
        (m.low(f), m.high(f))
    } else {
        (f, f)
    };
    code[j] = false;
    descend_codes(m, lo, sig_order, pos + 1, code, out);
    code[j] = true;
    descend_codes(m, hi, sig_order, pos + 1, code, out);
    code[j] = false;
}
