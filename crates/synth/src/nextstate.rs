//! Next-state function derivation and minimisation (§3.2).
//!
//! The next-state function of signal `z` is 1 on `ER(z+) ∪ QR(z+)`, 0 on
//! `ER(z−) ∪ QR(z−)`, and don't-care on binary codes that label no state
//! of the SG (*"s can be considered as a don't care condition for boolean
//! minimization"*).

use std::fmt;

use boolmin::{minimize_exact, minimize_heuristic, Cover, Cube, IncompleteFunction};
use stg::{SignalId, StateGraph, Stg};

use crate::regions::signal_regions;

/// Why next-state derivation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// Two states with the same code disagree on the function value: the
    /// SG violates Complete State Coding for this signal (§2.1's conflict).
    CscConflict {
        /// The signal whose function is contradictory.
        signal: String,
        /// The shared binary code, as a 0/1 string.
        code: String,
    },
    /// The signal is an input: inputs are driven by the environment and
    /// have no next-state function.
    InputSignal {
        /// The signal name.
        signal: String,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::CscConflict { signal, code } => {
                write!(f, "CSC conflict on signal {signal} at code {code}")
            }
            SynthesisError::InputSignal { signal } => {
                write!(f, "signal {signal} is an input; nothing to synthesise")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// A synthesised logic equation for one signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Equation {
    /// The implemented signal.
    pub signal: SignalId,
    /// Minimised sum-of-products over the signal variables.
    pub cover: Cover,
    /// The incompletely specified function the cover implements.
    pub function: IncompleteFunction,
}

impl Equation {
    /// Renders as `z = <sop>` with signal names.
    #[must_use]
    pub fn display(&self, stg: &Stg) -> String {
        let names = stg.signal_names();
        format!(
            "{} = {}",
            stg.signal_name(self.signal),
            self.cover.to_expr_string(&names)
        )
    }
}

/// Derives the incompletely specified next-state function of `signal` from
/// the state graph (§3.2's table).
///
/// # Errors
///
/// [`SynthesisError::InputSignal`] for inputs;
/// [`SynthesisError::CscConflict`] if two equal-coded states imply
/// different function values.
pub fn derive_function(
    stg: &Stg,
    sg: &StateGraph,
    signal: SignalId,
) -> Result<IncompleteFunction, SynthesisError> {
    if !stg.signal_kind(signal).is_non_input() {
        return Err(SynthesisError::InputSignal {
            signal: stg.signal_name(signal).to_owned(),
        });
    }
    let n = sg.num_signals();
    // The function is defined by the *codes* of `ER(z+) ∪ QR(z+)` (on)
    // and `ER(z−) ∪ QR(z−)` (off), each distinct code once. They are
    // put in canonical (lexicographic) order: exact minimisation breaks
    // cover-size ties by input order, so the order decides which of
    // several equally minimal equations comes out. Packed code words
    // compare as the codes do, so sorting states by their words sorts
    // the codes.
    let regions = signal_regions(stg, sg, signal);
    let codes = |excited: &[usize], quiescent: &[usize]| -> Vec<Vec<bool>> {
        let mut states = [excited, quiescent].concat();
        states.sort_unstable_by(|&a, &b| sg.code_words(a).cmp(sg.code_words(b)));
        states.dedup_by(|a, b| sg.code_words(*a) == sg.code_words(*b));
        states.into_iter().map(|s| sg.code(s)).collect()
    };
    let on_codes = codes(&regions.er_plus, &regions.qr_plus);
    let off_codes = codes(&regions.er_minus, &regions.qr_minus);
    // Detect contradictions: same code required both on and off.
    let off_lookup: std::collections::HashSet<&Vec<bool>> = off_codes.iter().collect();
    if let Some(code) = on_codes.iter().find(|c| off_lookup.contains(c)) {
        return Err(SynthesisError::CscConflict {
            signal: stg.signal_name(signal).to_owned(),
            code: code.iter().map(|&b| if b { '1' } else { '0' }).collect(),
        });
    }
    let on_cubes: Vec<Cube> = on_codes.iter().map(|c| Cube::from_minterm(c)).collect();
    let off_cubes: Vec<Cube> = off_codes.iter().map(|c| Cube::from_minterm(c)).collect();
    let mut on = Cover::from_cubes(n, on_cubes);
    on.remove_contained();
    let mut off = Cover::from_cubes(n, off_cubes);
    off.remove_contained();
    // dc = ¬(on ∪ off): all unreachable codes.
    let dc = on.union(&off).complement();
    Ok(IncompleteFunction::new(on, dc))
}

/// Derives and exactly minimises the equation of one signal.
///
/// # Errors
///
/// See [`derive_function`].
pub fn equation_exact(
    stg: &Stg,
    sg: &StateGraph,
    signal: SignalId,
) -> Result<Equation, SynthesisError> {
    let function = derive_function(stg, sg, signal)?;
    let cover = minimize_exact(&function);
    Ok(Equation {
        signal,
        cover,
        function,
    })
}

/// Derives and heuristically minimises the equation of one signal (for
/// larger controllers where exact covering is too slow).
///
/// # Errors
///
/// See [`derive_function`].
pub fn equation_heuristic(
    stg: &Stg,
    sg: &StateGraph,
    signal: SignalId,
) -> Result<Equation, SynthesisError> {
    let function = derive_function(stg, sg, signal)?;
    let cover = minimize_heuristic(&function);
    Ok(Equation {
        signal,
        cover,
        function,
    })
}

/// Equations for all non-input signals (exact minimisation).
///
/// # Errors
///
/// Fails on the first CSC conflict, identifying the offending signal.
pub fn all_equations(stg: &Stg, sg: &StateGraph) -> Result<Vec<Equation>, SynthesisError> {
    stg.non_input_signals()
        .into_iter()
        .map(|s| equation_exact(stg, sg, s))
        .collect()
}
