//! Signal Transition Graphs (STGs): Petri nets whose transitions are
//! interpreted as rising/falling signal edges (§1.1 of the DAC'98 tutorial:
//! *"Petri Nets with such signal interpretations are called Signal
//! Transition Graphs"*).
//!
//! This crate layers the signal interpretation on top of the [`petri`]
//! kernel and provides everything §1–§2 of the paper needs:
//!
//! * [`Stg`] — the model: typed signals (input/output/internal/dummy),
//!   labelled transitions, construction API ([`StgBuilder`]);
//! * [`parse`] — reader/writer for the `.g` (astg, petrify) text format;
//! * [`canon`] — canonical serialisation and SHA-256 content hashing
//!   (the identity the synthesis-service result cache is addressed by);
//! * [`StateSpace`] — the §2.1 implementability check's contract (the
//!   report, the CSC conflict witnesses, the hand-over of an explicit
//!   graph), with two engines selected by [`Backend`] that each answer it
//!   natively: the explicit [`StateGraph`] (§1.4, Fig. 4) and the
//!   resident-BDD [`SymbolicSetSpace`] (§2.2). Synthesis, simulation,
//!   waveforms and verification take the explicit [`StateGraph`];
//! * [`encoding`] — USC/CSC conflict detection on a [`StateGraph`]
//!   (§2.1, §3.1);
//! * [`persistency`] — output-persistency analysis on a [`StateGraph`]
//!   (§2.1);
//! * [`properties`] — the aggregated implementability report;
//! * [`examples`] — the VME-bus controller specifications of Figs. 3/5/7;
//! * [`waveform`] — ASCII waveform rendering of firing traces (Fig. 2).
//!
//! # Example
//!
//! ```
//! use stg::{examples, StateGraph};
//!
//! let vme = examples::vme_read();
//! let sg = StateGraph::build(&vme)?;
//! assert_eq!(sg.num_states(), 14); // Fig. 4 of the paper
//! # Ok::<(), stg::StgError>(())
//! ```

pub mod canon;
pub mod encoding;
pub mod examples;
mod model;
pub mod parse;
pub mod persistency;
pub mod properties;
mod state_graph;
mod state_space;
mod symbolic_set;
pub mod waveform;

pub use model::{SignalEdge, SignalId, SignalKind, Stg, StgBuilder, TransitionLabel};
pub use state_graph::{StateGraph, StgEdit, StgError};
pub use state_space::{Backend, StateSpace, DEFAULT_STATE_BOUND};
pub use symbolic_set::{SymbolicSetSpace, SymbolicStats};

#[cfg(test)]
mod tests;
