//! ASCII waveform rendering of firing traces (Fig. 2 of the paper shows
//! the READ cycle as a timing diagram; STGs are "a formalization of timing
//! diagrams", §1.1 — this module goes back the other way).

use petri::TransitionId;

use crate::model::Stg;
use crate::state_graph::StateGraph;

/// Renders the signal waveforms along a transition sequence starting at
/// the initial state, one row per signal, two characters per step:
///
/// ```text
///   DSr ___//~~~~~~\\____
/// ```
///
/// (`_` low, `~` high, `//` rising edge, `\\` falling edge.)
///
/// Transitions not enabled where expected stop the rendering early.
#[must_use]
pub fn render_waveforms(stg: &Stg, sg: &StateGraph, trace: &[TransitionId]) -> String {
    let width = stg
        .signals()
        .map(|s| stg.signal_name(s).len())
        .max()
        .unwrap_or(0);
    // Follow the trace collecting codes.
    let mut states = vec![0usize];
    for &t in trace {
        let cur = *states.last().expect("non-empty");
        match sg.successor(cur, t) {
            Some(next) => states.push(next),
            None => break,
        }
    }
    let mut out = String::new();
    for s in stg.signals() {
        let name = stg.signal_name(s);
        out.push_str(&format!("{name:>width$} "));
        let mut prev = sg.value(states[0], s);
        // Initial half-step shows the starting level.
        out.push_str(if prev { "~~" } else { "__" });
        for &st in &states[1..] {
            let cur = sg.value(st, s);
            match (prev, cur) {
                (false, true) => out.push_str("/~"),
                (true, false) => out.push_str("\\_"),
                (false, false) => out.push_str("__"),
                (true, true) => out.push_str("~~"),
            }
            prev = cur;
        }
        out.push('\n');
    }
    out
}

/// Renders the trace header matching [`render_waveforms`] columns: each
/// fired transition name, one per step.
#[must_use]
pub fn render_trace_header(stg: &Stg, trace: &[TransitionId]) -> String {
    let labels: Vec<String> = trace.iter().map(|&t| stg.label_string(t)).collect();
    labels.join(" ")
}

/// A canonical full cycle of the READ example (Fig. 2's waveform order):
/// the shortest firing sequence leading from the initial state back to it,
/// found by breadth-first search (ties broken by transition id, so the
/// result is deterministic). Returns an empty trace if no cycle through
/// the initial state exists within `max_steps` arcs.
#[must_use]
pub fn canonical_cycle(sg: &StateGraph, max_steps: usize) -> Vec<TransitionId> {
    use std::collections::VecDeque;
    // BFS over states, remembering the arc that discovered each state.
    let n = sg.num_states();
    let mut parent: Vec<Option<(usize, TransitionId)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    // Seed with the successors of state 0 so the path has length ≥ 1.
    let mut first_arcs: Vec<(TransitionId, usize)> =
        sg.ts().successors(0).map(|(&t, to)| (t, to)).collect();
    first_arcs.sort_by_key(|&(t, _)| t);
    for (t, to) in first_arcs {
        if to == 0 {
            return vec![t];
        }
        if !visited[to] {
            visited[to] = true;
            parent[to] = Some((0, t));
            queue.push_back(to);
        }
    }
    let mut steps = 0usize;
    while let Some(s) = queue.pop_front() {
        steps += 1;
        if steps > max_steps.max(n) {
            break;
        }
        let mut arcs: Vec<(TransitionId, usize)> =
            sg.ts().successors(s).map(|(&t, to)| (t, to)).collect();
        arcs.sort_by_key(|&(t, _)| t);
        for (t, to) in arcs {
            if to == 0 {
                // Reconstruct the path 0 → … → s, then append t.
                let mut path = vec![t];
                let mut cur = s;
                while let Some((prev, arc)) = parent[cur] {
                    path.push(arc);
                    cur = prev;
                }
                path.reverse();
                return path;
            }
            if !visited[to] {
                visited[to] = true;
                parent[to] = Some((s, t));
                queue.push_back(to);
            }
        }
    }
    Vec::new()
}
