//! Two-level boolean logic: cubes, covers, minimisation, factoring.
//!
//! This crate is the boolean-minimisation substrate required by §3.2 of the
//! DAC'98 tutorial (*"Once the next-state function has been derived, boolean
//! minimization can be performed to obtain a logic equation... it is crucial
//! to make an efficient use of the don't care conditions"*).
//!
//! It provides:
//!
//! * [`Cube`] / [`Cover`] — the classic positional-cube algebra
//!   (intersection, containment, cofactors, tautology, complement, …);
//! * [`IncompleteFunction`] — an incompletely specified single-output
//!   function (on-set, dc-set) with exact ([`minimize_exact`]) and
//!   heuristic ([`minimize_heuristic`]) two-level minimisers;
//! * [`factor`](crate::factor::factor_cover) — algebraic factoring of a
//!   minimised cover into a fan-in-bounded expression tree, used by the
//!   hazard-free decomposition step (§3.4).
//!
//! # Representation
//!
//! A [`Cube`] is a positional cube, as in Espresso: two bits per
//! variable (`Zero = 01`, `One = 10`, `DontCare = 11`, unused fields
//! `00`), variable 0 in the top bits of the first 64-bit word. Up to 64
//! variables the words are stored inline, with no heap allocation;
//! wider cubes (a spec with more than 64 signals, or a resubstitution
//! over more than 64 signals and internal nets) keep the rest in a
//! boxed tail. Cube operations are word operations, and
//! [`Cover::most_binate_var`] counts phases word by word.
//!
//! The derived order on cubes is the lexicographic order of their
//! literal sequences (`Zero < One < DontCare`). Prime generation sorts
//! by it and the exact covering's tie-breaks follow from it, so the
//! chosen primes — and every equation and netlist the flow prints —
//! depend on this order staying fixed.
//!
//! # Example
//!
//! ```
//! use boolmin::{Cover, Cube, IncompleteFunction};
//!
//! // f(a,b) with on-set {11}, dc-set {10}: minimises to just "a".
//! let on = Cover::from_cubes(2, vec![Cube::parse("11").unwrap()]);
//! let dc = Cover::from_cubes(2, vec![Cube::parse("10").unwrap()]);
//! let f = IncompleteFunction::new(on, dc);
//! let min = boolmin::minimize_exact(&f);
//! assert_eq!(min.cubes().len(), 1);
//! assert_eq!(min.cubes()[0].to_string(), "1-");
//! ```

mod cover;
mod cube;
pub mod expr;
pub mod factor;
mod function;
mod minimize;

pub use cover::Cover;
pub use cube::{Cube, Literal};
pub use expr::Expr;
pub use function::IncompleteFunction;
pub use minimize::{minimize_exact, minimize_heuristic, primes_generated, primes_of};

#[cfg(test)]
mod tests;
