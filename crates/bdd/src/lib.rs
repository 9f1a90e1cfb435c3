//! Reduced ordered binary decision diagrams (ROBDDs), built from scratch.
//!
//! This crate is the symbolic-analysis substrate for the `asyncsynth`
//! workspace (DAC'98 *Asynchronous Interface Specification, Analysis and
//! Synthesis* reproduction). Section 2.2 of the paper relies on
//! "Symbolic Binary Decision Diagram-based traversal of a reachability
//! graph"; this crate provides the BDD package that traversal is built on.
//!
//! The design is a classic hash-consed unique table with a memoizing
//! if-then-else (ITE) operator, in the style of Brace/Rudell/Bryant:
//!
//! * [`Manager`] owns the node table and caches,
//! * [`Bdd`] is a lightweight handle (index) into a manager,
//! * all boolean connectives, quantification, substitution and
//!   satisfying-assignment counting are methods on [`Manager`].
//!
//! # Tables
//!
//! * The unique table and the memo maps hash through [`BddHasher`], a
//!   multiplicative hasher: their keys are node triples and handles the
//!   manager allocates itself, so SipHash's flooding resistance buys
//!   nothing.
//! * ITE, quantification and the relational product share one computed
//!   table: direct-mapped and lossy, a power of two in size that grows
//!   with the node table up to a fixed cap (2^18 slots). A colliding
//!   entry overwrites the old one. Quantifications key on an interned
//!   variable-set id, so two distinct sets never share an entry.
//! * Handles do not depend on what the computed table holds: a
//!   recomputation after a miss finds each node it builds already in the
//!   unique table, so it allocates nothing new, and a given sequence of
//!   operations yields the same handles and node count at any table size.
//! * Nodes are never garbage collected; only the computed table is
//!   bounded.
//!
//! # Example
//!
//! ```
//! use bdd::Manager;
//!
//! let mut m = Manager::new();
//! let a = m.var(0);
//! let b = m.var(1);
//! let f = m.and(a, b);
//! let g = m.or(a, b);
//! let h = m.implies(f, g); // (a & b) -> (a | b) is a tautology
//! assert_eq!(h, Manager::one());
//! assert_eq!(m.sat_count(f, 2), 1);
//! ```

mod cache;
mod manager;
mod ops;

pub use cache::{BddHasher, BddMap};
pub use manager::{Bdd, Manager, VarId};

#[cfg(test)]
mod tests;
