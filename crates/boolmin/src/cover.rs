//! Covers: sums of cubes, with the unate-recursive tautology/complement
//! paradigm.

use std::fmt;

use crate::cube::{field_indices, Cube, Literal, FIELDS};

/// A sum (union) of [`Cube`]s over a fixed variable count.
///
/// # Example
///
/// ```
/// use boolmin::{Cover, Cube};
/// let f = Cover::from_cubes(2, vec![
///     Cube::parse("1-").unwrap(),
///     Cube::parse("-1").unwrap(),
/// ]);
/// assert!(f.covers_minterm(&[false, true]));
/// assert!(!f.covers_minterm(&[false, false]));
/// assert!(!f.is_tautology());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant false) over `n` variables.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Cover {
            num_vars: n,
            cubes: Vec::new(),
        }
    }

    /// The universal cover (constant true) over `n` variables.
    #[must_use]
    pub fn universe(n: usize) -> Self {
        Cover {
            num_vars: n,
            cubes: vec![Cube::universe(n)],
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if any cube ranges over a different variable count.
    #[must_use]
    pub fn from_cubes(n: usize, cubes: Vec<Cube>) -> Self {
        for c in &cubes {
            assert_eq!(c.num_vars(), n, "cube arity mismatch");
        }
        Cover { num_vars: n, cubes }
    }

    /// Parses a newline/whitespace-separated list of espresso-style cube
    /// strings, e.g. `"1-0 011"`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed token, if any.
    pub fn parse(n: usize, text: &str) -> Result<Self, String> {
        let mut cubes = Vec::new();
        for tok in text.split_whitespace() {
            let c = Cube::parse(tok).map_err(|ch| format!("bad character {ch:?} in {tok:?}"))?;
            if c.num_vars() != n {
                return Err(format!("cube {tok:?} has arity {} != {n}", c.num_vars()));
            }
            cubes.push(c);
        }
        Ok(Cover { num_vars: n, cubes })
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the cover.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// `true` if the cover has no cubes (constant false).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total literal count over all cubes (a standard cost measure).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Adds a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube arity differs from the cover's.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube arity mismatch");
        self.cubes.push(cube);
    }

    /// `true` if some cube covers the assignment.
    #[must_use]
    pub fn covers_minterm(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.covers_minterm(assignment))
    }

    /// Union of two covers.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    #[must_use]
    pub fn union(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Pairwise intersection of two covers.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    #[must_use]
    pub fn intersect(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.intersect(b) {
                    cubes.push(c);
                }
            }
        }
        let mut out = Cover {
            num_vars: self.num_vars,
            cubes,
        };
        out.remove_contained();
        out
    }

    /// Removes cubes covered by other single cubes of the cover
    /// (single-cube containment cleanup).
    pub fn remove_contained(&mut self) {
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        for c in cubes {
            if kept.iter().any(|k| k.covers(&c)) {
                continue;
            }
            kept.retain(|k| !c.covers(k));
            kept.push(c);
        }
        self.cubes = kept;
    }

    /// Cofactor of the cover with respect to the literal `(var = value)`.
    #[must_use]
    pub fn cofactor_literal(&self, var: usize, value: bool) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor_literal(var, value))
            .collect();
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Cofactor of the cover with respect to a cube (Shannon generalised).
    #[must_use]
    pub fn cofactor_cube(&self, cube: &Cube) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor_cube(cube))
            .collect();
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// `true` if the cover is a tautology (covers every minterm).
    ///
    /// Implemented with the unate-recursive paradigm: unate covers are
    /// tautologies iff they contain the universal cube; binate covers are
    /// split on their most binate variable.
    #[must_use]
    pub fn is_tautology(&self) -> bool {
        // Quick exits.
        if self.cubes.iter().any(|c| c.literal_count() == 0) {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        match self.most_binate_var() {
            None => {
                // Unate cover without the universal cube: a unate cover is
                // a tautology iff it contains the universal cube.
                false
            }
            Some(var) => {
                self.cofactor_literal(var, false).is_tautology()
                    && self.cofactor_literal(var, true).is_tautology()
            }
        }
    }

    /// `true` if `self` ⊇ `other` as sets of minterms.
    #[must_use]
    pub fn covers_cover(&self, other: &Cover) -> bool {
        other.cubes.iter().all(|c| self.covers_cube(c))
    }

    /// `true` if the cover covers every minterm of `cube`
    /// (cofactor-tautology test).
    #[must_use]
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        self.cofactor_cube(cube).is_tautology()
    }

    /// Complement of the cover, by the unate-recursive paradigm.
    #[must_use]
    pub fn complement(&self) -> Cover {
        if self.cubes.is_empty() {
            return Cover::universe(self.num_vars);
        }
        if self.cubes.iter().any(|c| c.literal_count() == 0) {
            return Cover::empty(self.num_vars);
        }
        if self.cubes.len() == 1 {
            return self.complement_single_cube(&self.cubes[0]);
        }
        let var = self.most_binate_var().unwrap_or_else(|| {
            // Unate: split on any constrained variable (first found).
            self.cubes
                .iter()
                .flat_map(|c| c.literals().map(|(v, _)| v))
                .next()
                .expect("non-empty non-universal cover has a literal")
        });
        let c0 = self.cofactor_literal(var, false).complement();
        let c1 = self.cofactor_literal(var, true).complement();
        // Merge: ¬f = ¬x·¬f0 + x·¬f1.
        let mut cubes = Vec::with_capacity(c0.cubes.len() + c1.cubes.len());
        for c in c0.cubes {
            cubes.push(c.with(var, Literal::Zero));
        }
        for c in c1.cubes {
            cubes.push(c.with(var, Literal::One));
        }
        let mut out = Cover {
            num_vars: self.num_vars,
            cubes,
        };
        out.remove_contained();
        out
    }

    fn complement_single_cube(&self, cube: &Cube) -> Cover {
        // De Morgan: complement of a product is the sum of complemented
        // literals.
        let mut cubes = Vec::new();
        for (var, lit) in cube.literals() {
            let flipped = match lit {
                Literal::Zero => Literal::One,
                Literal::One => Literal::Zero,
                Literal::DontCare => unreachable!("literals() yields no don't-cares"),
            };
            cubes.push(Cube::universe(self.num_vars).with(var, flipped));
        }
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// The variable appearing most often in both phases, or `None` if the
    /// cover is unate.
    ///
    /// Ties go to the highest such variable. The phases are read word by
    /// word: a first pass ORs each word's positive and negative fields
    /// over the cubes, and only the binate fields of a word are counted.
    #[must_use]
    pub fn most_binate_var(&self) -> Option<usize> {
        let first = self.cubes.first()?;
        // (occurrences, var) of the best binate variable so far.
        let mut best: Option<(u32, usize)> = None;
        for w in 0..first.num_words() {
            let (pos, neg) = self.cubes.iter().fold((0, 0), |(pos, neg), c| {
                let (p, n) = c.phases(w);
                (pos | p, neg | n)
            });
            let binate = pos & neg;
            if binate == 0 {
                continue;
            }
            let mut counts = [0u32; FIELDS];
            for c in &self.cubes {
                let (p, n) = c.phases(w);
                for k in field_indices((p | n) & binate) {
                    counts[k] += 1;
                }
            }
            for k in field_indices(binate) {
                if best.is_none_or(|(b, _)| counts[k] >= b) {
                    best = Some((counts[k], w * FIELDS + k));
                }
            }
        }
        best.map(|(_, var)| var)
    }

    /// Enumerates all covered minterms (deduplicated, sorted).
    ///
    /// Cost is exponential in the don't-care positions; intended for the
    /// small functions of interface controllers and for tests.
    #[must_use]
    pub fn minterms(&self) -> Vec<Vec<bool>> {
        let mut out: Vec<Vec<bool>> = self.cubes.iter().flat_map(|c| c.minterms()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// `self ∧ ¬other`, as a new cover (sharp operation).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    #[must_use]
    pub fn subtract(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        self.intersect(&other.complement())
    }

    /// `true` if the two covers denote the same function.
    #[must_use]
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.covers_cover(other) && other.covers_cover(self)
    }

    /// Renders as a sum-of-products over named variables, e.g. `a b' + c`.
    ///
    /// # Panics
    ///
    /// Panics if `names` is shorter than the variable count.
    #[must_use]
    pub fn to_expr_string(&self, names: &[String]) -> String {
        if self.cubes.is_empty() {
            return "0".to_owned();
        }
        self.cubes
            .iter()
            .map(|c| c.to_expr_string(names))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "(empty)");
        }
        let strs: Vec<String> = self.cubes.iter().map(ToString::to_string).collect();
        write!(f, "{}", strs.join(" "))
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty (the arity cannot be inferred) or if
    /// cube arities disagree. Prefer [`Cover::from_cubes`] when the arity is
    /// statically known.
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let n = cubes
            .first()
            .map(Cube::num_vars)
            .expect("cannot infer arity of an empty cover; use Cover::empty");
        Cover::from_cubes(n, cubes)
    }
}
