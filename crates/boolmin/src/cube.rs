//! Cubes (product terms) over a fixed set of boolean variables, stored as
//! positional-cube bit fields.

use std::fmt;

/// The value a cube assigns to one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// The variable must be 0 (negative literal).
    Zero,
    /// The variable must be 1 (positive literal).
    One,
    /// The variable is unconstrained in this cube.
    DontCare,
}

impl Literal {
    /// `true` if this position constrains its variable.
    #[must_use]
    pub fn is_literal(self) -> bool {
        self != Literal::DontCare
    }

    /// The literal's 2-bit field: `Zero = 01`, `One = 10`,
    /// `DontCare = 11` (a field is the set of values the variable may
    /// take, so the field codes order like the enum).
    fn code(self) -> u64 {
        match self {
            Literal::Zero => ZERO,
            Literal::One => ONE,
            Literal::DontCare => DONT_CARE,
        }
    }

    /// The literal of a used (non-`00`) field.
    fn decode(field: u64) -> Literal {
        match field {
            ZERO => Literal::Zero,
            ONE => Literal::One,
            DONT_CARE => Literal::DontCare,
            _ => unreachable!("a used field is never 00"),
        }
    }
}

const ZERO: u64 = 0b01;
const ONE: u64 = 0b10;
const DONT_CARE: u64 = 0b11;
/// Variables per 64-bit word.
pub(crate) const FIELDS: usize = 32;
/// The low bit of every field.
const LO: u64 = 0x5555_5555_5555_5555;
/// Words stored inline: cubes over at most `INLINE * FIELDS` (64)
/// variables never touch the heap.
const INLINE: usize = 2;

/// Bit offset of variable `var`'s field within its word (variable 0 of
/// a word sits in the top two bits).
fn shift(var: usize) -> usize {
    62 - 2 * (var % FIELDS)
}

/// The mask of the used fields of word `word` in a cube over `n`
/// variables.
fn used_mask(n: usize, word: usize) -> u64 {
    match n.saturating_sub(word * FIELDS).min(FIELDS) {
        0 => 0,
        FIELDS => !0,
        k => !(!0u64 >> (2 * k)),
    }
}

/// Low bits of the fields where `a` and `b` hold opposite literals: the
/// used fields (those non-`00` in `a`) that `a & b` empties.
fn empty_fields(a: u64, b: u64) -> u64 {
    let c = a & b;
    used(a) & !used(c)
}

/// Low bits of the used (non-`00`) fields of `w`.
fn used(w: u64) -> u64 {
    (w | w >> 1) & LO
}

/// Low bits of the constrained (`01` or `10`) fields of `w`.
fn constrained(w: u64) -> u64 {
    (w ^ w >> 1) & LO
}

/// Indices within a word, in variable order, of the fields whose low
/// bit is set in `lo_bits`.
pub(crate) fn field_indices(mut lo_bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (lo_bits != 0).then(|| {
            let k = lo_bits.leading_zeros() as usize / 2;
            lo_bits &= !(1 << shift(k));
            k
        })
    })
}

/// A product term over `n` variables, e.g. `a·¬c` over `{a,b,c}` = `1-0`.
///
/// Cubes use the textual convention of espresso PLA files: `0` for a
/// negative literal, `1` for a positive literal, `-` for an absent one.
///
/// # Layout
///
/// A cube is a positional cube: two bits per variable, `Zero = 01`,
/// `One = 10`, `DontCare = 11` (the set of values the variable may
/// take), with the fields past the last variable `00`. Variable 0 sits
/// in the top two bits of word 0, variable 32 in the top bits of word 1,
/// and so on. The first two words are stored inline, so a cube over at
/// most 64 variables owns no heap memory; wider cubes keep the remaining
/// words in a boxed tail. The variable count is not stored: it is the
/// number of used fields, so a cube takes three words. Containment,
/// intersection, distance, consensus and supercube are word operations
/// (`a & b == b`, `a & b` with an empty-field test, popcounts, `a | b`).
///
/// # Order
///
/// The derived order compares the words from variable 0 on, so it is the
/// lexicographic order of the literal sequences (`Zero < One <
/// DontCare`, a proper prefix first), the same order as comparing
/// `Vec<Literal>`s. Prime generation sorts by it and the exact covering's
/// tie-breaks follow it, so minimisation results depend on it.
///
/// # Example
///
/// ```
/// use boolmin::Cube;
/// let c = Cube::parse("1-0").unwrap();
/// assert!(c.covers_minterm(&[true, true, false]));
/// assert!(!c.covers_minterm(&[true, true, true]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    // Field order matters: the derived `Ord` must compare the inline
    // words before the tail (see "Order" above).
    head: [u64; INLINE],
    /// Words past the inline ones; `None` up to 64 variables.
    tail: Option<Box<Tail>>,
}

/// The words of a wide cube past the inline ones (boxed behind one thin
/// pointer, so that narrow cubes stay three words long).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Tail(Box<[u64]>);

impl Cube {
    /// A cube over `n` variables with every word set to `fill` on its
    /// used fields.
    fn filled(n: usize, fill: u64) -> Self {
        let words = n.div_ceil(FIELDS).max(INLINE);
        Cube {
            head: [fill & used_mask(n, 0), fill & used_mask(n, 1)],
            tail: (words > INLINE).then(|| {
                Box::new(Tail(
                    (INLINE..words).map(|w| fill & used_mask(n, w)).collect(),
                ))
            }),
        }
    }

    /// The universal cube (all don't-cares) over `n` variables.
    #[must_use]
    pub fn universe(n: usize) -> Self {
        Cube::filled(n, !0)
    }

    /// Builds a cube from explicit literal values.
    #[must_use]
    pub fn from_literals(vals: Vec<Literal>) -> Self {
        let mut cube = Cube::universe(vals.len());
        for (var, lit) in vals.into_iter().enumerate() {
            cube.set(var, lit);
        }
        cube
    }

    /// Builds the minterm cube for a complete assignment.
    #[must_use]
    pub fn from_minterm(assignment: &[bool]) -> Self {
        let mut cube = Cube::filled(assignment.len(), 0);
        for (w, chunk) in assignment.chunks(FIELDS).enumerate() {
            *cube.word_mut(w) = minterm_word(chunk);
        }
        cube
    }

    /// Parses the espresso notation (`0`, `1`, `-`).
    ///
    /// # Errors
    ///
    /// Returns `Err` with the offending character if any position is not
    /// one of `0`, `1`, `-`.
    pub fn parse(s: &str) -> Result<Self, char> {
        let mut vals = Vec::with_capacity(s.len());
        for ch in s.chars() {
            vals.push(match ch {
                '0' => Literal::Zero,
                '1' => Literal::One,
                '-' => Literal::DontCare,
                other => return Err(other),
            });
        }
        Ok(Cube::from_literals(vals))
    }

    /// Number of variables this cube ranges over.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.words().map(|w| used(w).count_ones() as usize).sum()
    }

    /// Number of stored words (at least the inline ones).
    pub(crate) fn num_words(&self) -> usize {
        INLINE + self.tail_words().len()
    }

    fn tail_words(&self) -> &[u64] {
        self.tail.as_deref().map_or(&[], |t| &t.0)
    }

    /// Word `w` of the packed fields.
    pub(crate) fn word(&self, w: usize) -> u64 {
        if w < INLINE {
            self.head[w]
        } else {
            self.tail_words()[w - INLINE]
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < INLINE {
            &mut self.head[w]
        } else {
            &mut self
                .tail
                .as_deref_mut()
                .expect("word past the inline ones")
                .0[w - INLINE]
        }
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.head.iter().chain(self.tail_words()).copied()
    }

    /// The tails of `self` and `other` side by side (empty up to 64
    /// variables).
    fn tail_pairs<'a>(&'a self, other: &'a Cube) -> impl Iterator<Item = (u64, u64)> + 'a {
        debug_assert_eq!(self.num_vars(), other.num_vars(), "cube arity mismatch");
        self.tail_words()
            .iter()
            .copied()
            .zip(other.tail_words().iter().copied())
    }

    /// `true` if `f` holds for every pair of corresponding words.
    #[inline]
    fn all_pairs(&self, other: &Cube, f: impl Fn(u64, u64) -> bool) -> bool {
        f(self.head[0], other.head[0])
            && f(self.head[1], other.head[1])
            && (self.tail.is_none() || self.tail_pairs(other).all(|(a, b)| f(a, b)))
    }

    /// The cube whose words are `f` of the two cubes' words.
    #[inline]
    fn zip_words(&self, other: &Cube, f: impl Fn(u64, u64) -> u64) -> Cube {
        Cube {
            head: [
                f(self.head[0], other.head[0]),
                f(self.head[1], other.head[1]),
            ],
            tail: self
                .tail
                .as_ref()
                .map(|_| Box::new(Tail(self.tail_pairs(other).map(|(a, b)| f(a, b)).collect()))),
        }
    }

    /// The 2-bit field of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range (its field is unused or past the
    /// stored words).
    fn field(&self, var: usize) -> u64 {
        let w = var / FIELDS;
        let word = if w < self.num_words() {
            self.word(w)
        } else {
            0
        };
        let field = word >> shift(var) & 0b11;
        assert!(
            field != 0,
            "variable {var} out of range 0..{}",
            self.num_vars()
        );
        field
    }

    /// The literal at position `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    #[must_use]
    pub fn literal(&self, var: usize) -> Literal {
        Literal::decode(self.field(var))
    }

    /// Sets the literal at position `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set(&mut self, var: usize, lit: Literal) {
        self.field(var);
        let s = shift(var);
        let w = self.word_mut(var / FIELDS);
        *w = *w & !(0b11 << s) | lit.code() << s;
    }

    /// Returns a copy with position `var` replaced by `lit`.
    #[must_use]
    pub fn with(&self, var: usize, lit: Literal) -> Self {
        let mut c = self.clone();
        c.set(var, lit);
        c
    }

    /// Number of literals (constrained positions).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        let count = |w: u64| constrained(w).count_ones() as usize;
        count(self.head[0])
            + count(self.head[1])
            + self.tail_words().iter().map(|&w| count(w)).sum::<usize>()
    }

    /// Iterates over `(var, Literal)` for the constrained positions.
    pub fn literals(&self) -> impl Iterator<Item = (usize, Literal)> + '_ {
        self.words().enumerate().flat_map(|(i, w)| {
            field_indices(constrained(w))
                .map(move |k| (i * FIELDS + k, Literal::decode(w >> shift(k) & 0b11)))
        })
    }

    /// Low bits of the positive (`One`) and negative (`Zero`) fields of
    /// word `w`.
    pub(crate) fn phases(&self, w: usize) -> (u64, u64) {
        let word = self.word(w);
        (word >> 1 & !word & LO, word & !(word >> 1) & LO)
    }

    /// `true` if the cube covers the given complete assignment.
    #[must_use]
    pub fn covers_minterm(&self, assignment: &[bool]) -> bool {
        let assignment = &assignment[..assignment.len().min(self.num_vars())];
        self.words()
            .zip(assignment.chunks(FIELDS))
            .all(|(w, chunk)| {
                let m = minterm_word(chunk);
                w & m == m
            })
    }

    /// `true` if `self` covers `other` (every minterm of `other` is in
    /// `self`).
    #[must_use]
    pub fn covers(&self, other: &Cube) -> bool {
        self.all_pairs(other, |a, b| a & b == b)
    }

    /// `true` if the two cubes share a minterm.
    pub(crate) fn intersects(&self, other: &Cube) -> bool {
        self.all_pairs(other, |a, b| empty_fields(a, b) == 0)
    }

    /// Intersection of two cubes, or `None` if they are disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        self.intersects(other)
            .then(|| self.zip_words(other, |a, b| a & b))
    }

    /// Number of variables on which the cubes have opposing literals.
    #[must_use]
    pub fn distance(&self, other: &Cube) -> usize {
        let head = empty_fields(self.head[0], other.head[0]).count_ones()
            + empty_fields(self.head[1], other.head[1]).count_ones();
        let tail: u32 = self
            .tail_pairs(other)
            .map(|(a, b)| empty_fields(a, b).count_ones())
            .sum();
        (head + tail) as usize
    }

    /// Consensus of two cubes at distance 1, else `None`.
    ///
    /// The consensus merges the two cubes across their single conflicting
    /// variable — the merging step of iterated-consensus prime generation.
    #[must_use]
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        if self.distance(other) != 1 {
            return None;
        }
        Some(self.zip_words(other, |a, b| {
            let e = empty_fields(a, b);
            a & b | e | e << 1
        }))
    }

    /// Smallest cube containing both inputs.
    #[must_use]
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.zip_words(other, |a, b| a | b)
    }

    /// Cofactor of `self` with respect to a literal `(var = value)`:
    /// the restriction of this cube to the half-space, with the variable
    /// freed; `None` if the cube does not intersect the half-space.
    #[must_use]
    pub fn cofactor_literal(&self, var: usize, value: bool) -> Option<Cube> {
        let wanted = if value { ONE } else { ZERO };
        (self.field(var) & wanted != 0).then(|| self.with(var, Literal::DontCare))
    }

    /// Cofactor of `self` with respect to the cube `d`: `self` with every
    /// variable constrained in `d` freed, or `None` if the cubes are
    /// disjoint. Equals cofactoring by each literal of `d` in turn.
    pub(crate) fn cofactor_cube(&self, d: &Cube) -> Option<Cube> {
        self.intersects(d).then(|| {
            self.zip_words(d, |a, b| {
                let freed = constrained(b);
                a | freed | freed << 1
            })
        })
    }

    /// The first variable free in `self` but constrained in `p`, if any.
    pub(crate) fn first_var_free_but_constrained_in(&self, p: &Cube) -> Option<usize> {
        (0..self.num_words()).find_map(|i| {
            let (r, p) = (self.word(i), p.word(i));
            field_indices(r & r >> 1 & constrained(p))
                .next()
                .map(|k| i * FIELDS + k)
        })
    }

    /// Number of minterms the cube covers, as a power of two.
    ///
    /// # Panics
    ///
    /// Panics if the cube is free in 128 or more variables, whose minterm
    /// count does not fit a `u128`.
    #[must_use]
    pub fn minterm_count(&self) -> u128 {
        let free = self.num_vars() - self.literal_count();
        assert!(
            free < 128,
            "minterm_count: a cube free in {free} variables has more than u128::MAX minterms"
        );
        1u128 << free
    }

    /// Enumerates all minterms covered by the cube (each as a `Vec<bool>`).
    ///
    /// Intended for small variable counts; cost is `2^(free positions)`.
    ///
    /// # Panics
    ///
    /// Panics if the cube is free in 64 or more variables, whose minterms
    /// cannot be counted in a `u64`.
    #[must_use]
    pub fn minterms(&self) -> Vec<Vec<bool>> {
        let n = self.num_vars();
        let free: Vec<usize> = (0..n)
            .filter(|&i| self.literal(i) == Literal::DontCare)
            .collect();
        assert!(
            free.len() < 64,
            "minterms: a cube free in {} variables has more than u64::MAX minterms",
            free.len()
        );
        let base: Vec<bool> = (0..n).map(|i| self.literal(i) == Literal::One).collect();
        let mut out = Vec::with_capacity(1 << free.len());
        for bits in 0..(1u64 << free.len()) {
            let mut m = base.clone();
            for (k, &i) in free.iter().enumerate() {
                m[i] = (bits >> k) & 1 == 1;
            }
            out.push(m);
        }
        out
    }

    /// Renders the cube as a product of named literals, e.g. `a·¬c`;
    /// the universal cube renders as `1`.
    ///
    /// # Panics
    ///
    /// Panics if `names` is shorter than the cube.
    #[must_use]
    pub fn to_expr_string(&self, names: &[String]) -> String {
        let parts: Vec<String> = self
            .literals()
            .map(|(i, lit)| match lit {
                Literal::One => names[i].clone(),
                _ => format!("{}'", names[i]),
            })
            .collect();
        if parts.is_empty() {
            "1".to_owned()
        } else {
            parts.join(" ")
        }
    }
}

/// The packed word of up to 32 assigned variables (`One` or `Zero`
/// fields; `00` past the chunk).
fn minterm_word(chunk: &[bool]) -> u64 {
    chunk
        .iter()
        .enumerate()
        .fold(0, |w, (k, &b)| w | (if b { ONE } else { ZERO }) << shift(k))
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text: String = (0..self.num_vars())
            .map(|i| match self.literal(i) {
                Literal::Zero => '0',
                Literal::One => '1',
                Literal::DontCare => '-',
            })
            .collect();
        f.write_str(&text)
    }
}

impl fmt::Debug for Cube {
    /// Prints the literal sequence, as `Cube { vals: [One, DontCare] }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vals: Vec<Literal> = (0..self.num_vars()).map(|i| self.literal(i)).collect();
        f.debug_struct("Cube").field("vals", &vals).finish()
    }
}
