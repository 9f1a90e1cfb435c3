//! Relative-timing assumptions and lazy-transition retiming (§5, Fig. 11).
//!
//! *"Timing constraints always reduce the set of reachable states and
//! hence increase the number of don't care states. Moreover this
//! concurrency reduction does not introduce new dependencies between
//! signals since it is fully based on timing not on logic ordering."*

use stg::{StateGraph, Stg};

/// A relative-timing assumption `sep(earlier, later) < 0`: in every
/// execution, `earlier` fires before the corresponding occurrence of
/// `later` (the paper's `sep(LDTACK−, DSr+) < 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingAssumption {
    /// Label text of the earlier transition (e.g. `"LDTACK-"`).
    pub earlier: String,
    /// Label text of the later transition (e.g. `"DSr+"`).
    pub later: String,
}

impl TimingAssumption {
    /// Convenience constructor.
    #[must_use]
    pub fn new(earlier: impl Into<String>, later: impl Into<String>) -> Self {
        TimingAssumption {
            earlier: earlier.into(),
            later: later.into(),
        }
    }
}

/// Errors from applying assumptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// A label named in an assumption does not exist in the STG.
    UnknownLabel(String),
    /// Applying the assumptions broke the specification (deadlock or
    /// inconsistency) both with an unmarked and a marked ordering place.
    Breaks(String),
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::UnknownLabel(l) => write!(f, "no transition labelled {l}"),
            TimingError::Breaks(why) => write!(f, "assumption breaks the specification: {why}"),
        }
    }
}

impl std::error::Error for TimingError {}

fn find_transition(stg: &Stg, label: &str) -> Option<petri::TransitionId> {
    stg.net()
        .transitions()
        .find(|&t| stg.label_string(t) == label)
}

/// Applies timing assumptions to an STG as environment-side ordering arcs,
/// producing the *timed* STG whose state graph excludes the timing-
/// impossible states (Fig. 11's don't-care enlargement).
///
/// Each assumption adds a causal place `earlier → later`; if the unmarked
/// place deadlocks the specification (the first `later` precedes the first
/// `earlier` in the initial marking's future), a marked place is used
/// instead.
///
/// # Errors
///
/// [`TimingError::UnknownLabel`] for labels not in the STG;
/// [`TimingError::Breaks`] when neither polarity of the ordering place
/// yields a consistent, live specification.
pub fn apply_assumptions(stg: &Stg, assumptions: &[TimingAssumption]) -> Result<Stg, TimingError> {
    let mut current = stg.clone();
    for a in assumptions {
        let earlier = find_transition(&current, &a.earlier)
            .ok_or_else(|| TimingError::UnknownLabel(a.earlier.clone()))?;
        let later = find_transition(&current, &a.later)
            .ok_or_else(|| TimingError::UnknownLabel(a.later.clone()))?;
        let mut ok = None;
        for marked in [false, true] {
            let mut b = current.clone().into_builder();
            let p = b.connect(earlier, later);
            if marked {
                b.mark_place(p, 1);
            }
            let candidate = b.build();
            match StateGraph::build_bounded(&candidate, 200_000) {
                Ok(sg) if sg.ts().deadlocks().is_empty() => {
                    ok = Some(candidate);
                    break;
                }
                _ => {}
            }
        }
        current = ok.ok_or_else(|| TimingError::Breaks(format!("{} -> {}", a.earlier, a.later)))?;
    }
    Ok(current)
}

/// Lazy-transition retiming (Fig. 11b): starts enabling `target` from
/// `new_trigger` instead of `old_trigger`, on the promise (to be
/// discharged by separation analysis) that the old trigger still completes
/// first physically.
///
/// Structurally: every place on the `old_trigger → target` path with
/// single producer/consumer is removed and replaced by a place
/// `new_trigger → target`.
///
/// # Errors
///
/// [`TimingError::UnknownLabel`] if a label is missing;
/// [`TimingError::Breaks`] if no direct `old_trigger → target` place
/// exists or the result is not a valid STG.
pub fn retime_trigger(
    stg: &Stg,
    target: &str,
    old_trigger: &str,
    new_trigger: &str,
) -> Result<Stg, TimingError> {
    let t_target =
        find_transition(stg, target).ok_or_else(|| TimingError::UnknownLabel(target.to_owned()))?;
    let t_old = find_transition(stg, old_trigger)
        .ok_or_else(|| TimingError::UnknownLabel(old_trigger.to_owned()))?;
    let t_new = find_transition(stg, new_trigger)
        .ok_or_else(|| TimingError::UnknownLabel(new_trigger.to_owned()))?;
    // Find the direct place old → target.
    let net = stg.net();
    let place = net
        .preset(t_target)
        .iter()
        .copied()
        .find(|&p| {
            net.place_preset(p) == [t_old]
                && net.place_postset(p) == [t_target]
                && net.initial_tokens(p) == 0
        })
        .ok_or_else(|| TimingError::Breaks(format!("no direct place {old_trigger} -> {target}")))?;
    // Rebuild without that place, with a new trigger arc.
    let mut b = stg::StgBuilder::new(format!("{}-lazy", stg.name()));
    let mut signal_map = Vec::new();
    for s in stg.signals() {
        signal_map.push(b.add_signal(stg.signal_name(s), stg.signal_kind(s)));
    }
    let mut t_map = Vec::new();
    for t in net.transitions() {
        let nt = match stg.label(t) {
            Some(l) => b.add_edge(signal_map[l.signal.index()], l.edge),
            None => b.add_dummy(net.transition_name(t)),
        };
        t_map.push(nt);
    }
    for p in net.places() {
        if p == place {
            continue;
        }
        let np = b.add_place(net.place_name(p), net.initial_tokens(p));
        for &t in net.place_preset(p) {
            b.arc_tp(t_map[t.index()], np);
        }
        for &t in net.place_postset(p) {
            b.arc_pt(np, t_map[t.index()]);
        }
    }
    b.connect(t_map[t_new.index()], t_map[t_target.index()]);
    let result = b.build();
    match StateGraph::build_bounded(&result, 200_000) {
        Ok(sg) if sg.ts().deadlocks().is_empty() => Ok(result),
        Ok(_) => Err(TimingError::Breaks("retiming deadlocks".to_owned())),
        Err(e) => Err(TimingError::Breaks(format!(
            "retiming breaks consistency: {e}"
        ))),
    }
}
