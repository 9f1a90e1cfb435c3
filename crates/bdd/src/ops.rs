//! Boolean operations, quantification, substitution and enumeration.

use crate::cache::{BddMap, Op};
use crate::manager::{Bdd, Manager, VarId, TERMINAL_VAR};

impl Manager {
    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// This is the universal connective every other operation reduces to.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_one() {
            return g;
        }
        if f.is_zero() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_one() && h.is_zero() {
            return f;
        }
        if let Some(r) = self.computed.get(Op::Ite, f.0, g.0, h.0) {
            return r;
        }
        let top = self.top_var3(f, g, h);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.computed.put(Op::Ite, f.0, g.0, h.0, r);
        r
    }

    /// Logical negation `¬f`.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Manager::zero(), Manager::one())
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // Commutative: one operand order, one computed-table key.
        self.ite(f.min(g), f.max(g), Manager::zero())
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f.min(g), Manager::one(), f.max(g))
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Manager::one())
    }

    /// Equivalence `f ↔ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// Conjunction over an iterator of diagrams (`⊤` for an empty one).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Manager::one();
        for b in items {
            acc = self.and(acc, b);
            if acc.is_zero() {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator of diagrams (`⊥` for an empty one).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Manager::zero();
        for b in items {
            acc = self.or(acc, b);
            if acc.is_one() {
                break;
            }
        }
        acc
    }

    /// Returns `true` iff `f → g` is a tautology (`f` is contained in `g`).
    pub fn leq(&mut self, f: Bdd, g: Bdd) -> bool {
        self.implies(f, g).is_one()
    }

    fn top_var3(&self, f: Bdd, g: Bdd, h: Bdd) -> VarId {
        let vf = self.node(f).var;
        let vg = self.node(g).var;
        let vh = self.node(h).var;
        vf.min(vg).min(vh)
    }

    /// Shannon cofactors of `b` with respect to `var`, assuming `var` is at
    /// or above `b`'s root in the order.
    pub(crate) fn cofactors(&self, b: Bdd, var: VarId) -> (Bdd, Bdd) {
        if b.is_const() {
            return (b, b);
        }
        let n = self.node(b);
        if n.var == var {
            (n.lo, n.hi)
        } else {
            debug_assert!(n.var > var);
            (b, b)
        }
    }

    /// Restrict (generalised cofactor on a literal): `f[var := value]`.
    pub fn restrict(&mut self, f: Bdd, var: VarId, value: bool) -> Bdd {
        if f.is_const() {
            return f;
        }
        let n = self.node(f);
        if n.var > var {
            return f;
        }
        if n.var == var {
            return if value { n.hi } else { n.lo };
        }
        let lo = self.restrict(n.lo, var, value);
        let hi = self.restrict(n.hi, var, value);
        self.mk(n.var, lo, hi)
    }

    /// Existential quantification `∃ vars . f`.
    ///
    /// `vars` may be given in any order; duplicates are ignored.
    pub fn exists(&mut self, f: Bdd, vars: &[VarId]) -> Bdd {
        let set = self.intern_vars(vars);
        self.quantify(f, set, Op::Exists)
    }

    /// Universal quantification `∀ vars . f`.
    pub fn forall(&mut self, f: Bdd, vars: &[VarId]) -> Bdd {
        let set = self.intern_vars(vars);
        self.quantify(f, set, Op::Forall)
    }

    /// `true` when no variable of `set` lies at or below `b`'s root.
    fn past_set(&self, b: Bdd, set: u32) -> bool {
        self.var_sets[set as usize]
            .last()
            .is_none_or(|&last| self.node(b).var > last)
    }

    fn quantify(&mut self, f: Bdd, set: u32, op: Op) -> Bdd {
        if f.is_const() || self.past_set(f, set) {
            return f;
        }
        if let Some(r) = self.computed.get(op, f.0, set, 0) {
            return r;
        }
        let n = self.node(f);
        let lo = self.quantify(n.lo, set, op);
        let hi = self.quantify(n.hi, set, op);
        let r = if self.var_sets[set as usize].binary_search(&n.var).is_err() {
            self.mk(n.var, lo, hi)
        } else if op == Op::Exists {
            self.or(lo, hi)
        } else {
            self.and(lo, hi)
        };
        self.computed.put(op, f.0, set, 0, r);
        r
    }

    /// Relational product `∃ vars . (f ∧ g)` — the workhorse of image
    /// computation. Computed without building `f ∧ g` in full.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[VarId]) -> Bdd {
        let set = self.intern_vars(vars);
        self.and_exists_rec(f, g, set)
    }

    fn and_exists_rec(&mut self, f: Bdd, g: Bdd, set: u32) -> Bdd {
        if f.is_zero() || g.is_zero() {
            return Manager::zero();
        }
        if f.is_one() {
            return self.quantify(g, set, Op::Exists);
        }
        if g.is_one() {
            return self.quantify(f, set, Op::Exists);
        }
        if self.past_set(f, set) && self.past_set(g, set) {
            return self.and(f, g);
        }
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.computed.get(Op::AndExists, f.0, g.0, set) {
            return r;
        }
        let top = self.node(f).var.min(self.node(g).var);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let lo = self.and_exists_rec(f0, g0, set);
        let r = if self.var_sets[set as usize].binary_search(&top).is_err() {
            let hi = self.and_exists_rec(f1, g1, set);
            self.mk(top, lo, hi)
        } else if lo.is_one() {
            Manager::one()
        } else {
            let hi = self.and_exists_rec(f1, g1, set);
            self.or(lo, hi)
        };
        self.computed.put(Op::AndExists, f.0, g.0, set, r);
        r
    }

    /// Simultaneous variable renaming: replaces each `from[i]` with `to[i]`.
    ///
    /// The substitution must be order-compatible (a simple shift between two
    /// interleaved rails is the intended use, as in current-state /
    /// next-state encodings).
    ///
    /// # Panics
    ///
    /// Panics if `from` and `to` have different lengths.
    pub fn rename(&mut self, f: Bdd, from: &[VarId], to: &[VarId]) -> Bdd {
        assert_eq!(from.len(), to.len(), "rename rails must have equal length");
        let map: BddMap<VarId, VarId> = from.iter().copied().zip(to.iter().copied()).collect();
        let mut cache = BddMap::default();
        self.rename_rec(f, &map, &mut cache)
    }

    fn rename_rec(
        &mut self,
        f: Bdd,
        map: &BddMap<VarId, VarId>,
        cache: &mut BddMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.node(f);
        let lo = self.rename_rec(n.lo, map, cache);
        let hi = self.rename_rec(n.hi, map, cache);
        let var = map.get(&n.var).copied().unwrap_or(n.var);
        // Rebuild via ite on the (possibly re-ordered) variable so the
        // result stays canonical even if the renaming is not a shift.
        let v = self.var(var);
        let r = self.ite(v, hi, lo);
        cache.insert(f, r);
        r
    }

    /// Evaluates `f` under a total assignment (index = variable id).
    ///
    /// Variables beyond the end of `assignment` default to `false`.
    #[must_use]
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur.is_const() {
                return cur.is_one();
            }
            let n = self.node(cur);
            let v = assignment.get(n.var as usize).copied().unwrap_or(false);
            cur = if v { n.hi } else { n.lo };
        }
    }

    /// Number of satisfying assignments over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is smaller than the manager's variable count
    /// ([`Manager::var_count`]); counts are always taken over at least all
    /// variables the manager has ever seen.
    #[must_use]
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> u128 {
        assert!(
            num_vars >= self.num_vars,
            "num_vars ({num_vars}) smaller than manager variable count ({})",
            self.num_vars
        );
        let mut memo: BddMap<Bdd, u128> = BddMap::default();
        let total = self.sat_count_rec(f, &mut memo);
        // sat_count_rec counts over the variable suffix starting at the
        // root; scale by variables above the root and by any extra
        // variables the caller has beyond the manager's own count.
        let root_var = if f.is_const() {
            self.num_vars
        } else {
            self.node(f).var
        };
        (total << root_var) << (num_vars - self.num_vars)
    }

    /// Counts assignments of variables in `(node.var, num_vars)` implicitly;
    /// returns count over the suffix starting *at* the node's variable.
    fn sat_count_rec(&self, f: Bdd, memo: &mut BddMap<Bdd, u128>) -> u128 {
        if f.is_zero() {
            return 0;
        }
        if f.is_one() {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.node(f);
        let lo = self.sat_count_rec(n.lo, memo);
        let hi = self.sat_count_rec(n.hi, memo);
        let gap_lo = self.var_gap(n.var, n.lo);
        let gap_hi = self.var_gap(n.var, n.hi);
        let c = (lo << gap_lo) + (hi << gap_hi);
        memo.insert(f, c);
        c
    }

    fn var_gap(&self, parent: VarId, child: Bdd) -> u32 {
        let child_var = if child.is_const() {
            self.num_vars
        } else {
            self.node(child).var
        };
        child_var - parent - 1
    }

    /// Iterator over all satisfying assignments of `f`, each yielded as a
    /// fully expanded `Vec<bool>` of length `num_vars`.
    ///
    /// Intended for small care sets (state-graph sized); the iterator
    /// expands don't-care variables eagerly.
    #[must_use]
    pub fn sat_assignments(&self, f: Bdd, num_vars: u32) -> SatAssignments<'_> {
        SatAssignments {
            manager: self,
            num_vars,
            stack: vec![(f, Vec::new())],
            pending: Vec::new(),
        }
    }

    /// One satisfying assignment of `f`, if any (don't-cares set to `false`).
    #[must_use]
    pub fn any_sat(&self, f: Bdd, num_vars: u32) -> Option<Vec<bool>> {
        self.sat_assignments(f, num_vars).next()
    }

    /// Number of distinct nodes reachable from `f` (a size measure).
    #[must_use]
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            let n = self.node(b);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.len() + 2
    }

    /// The set of variables `f` actually depends on, ascending.
    #[must_use]
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            let n = self.node(b);
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars.into_iter().collect()
    }

    /// Builds the conjunction of literals described by `(var, value)` pairs.
    pub fn cube(&mut self, literals: &[(VarId, bool)]) -> Bdd {
        let mut sorted: Vec<(VarId, bool)> = literals.to_vec();
        sorted.sort_unstable_by_key(|&(v, _)| std::cmp::Reverse(v));
        let mut acc = Manager::one();
        for (v, positive) in sorted {
            let lit = self.literal(v, positive);
            acc = self.and(lit, acc);
        }
        acc
    }
}

/// Iterator over satisfying assignments; see [`Manager::sat_assignments`].
pub struct SatAssignments<'a> {
    manager: &'a Manager,
    num_vars: u32,
    /// Stack of (subdiagram, partial assignment as (var,value) pairs).
    stack: Vec<(Bdd, Vec<(VarId, bool)>)>,
    /// Fully-specified assignments waiting to be yielded (from expanding
    /// don't-care gaps).
    pending: Vec<Vec<bool>>,
}

impl Iterator for SatAssignments<'_> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Vec<bool>> {
        loop {
            if let Some(a) = self.pending.pop() {
                return Some(a);
            }
            let (b, partial) = self.stack.pop()?;
            if b.is_zero() {
                continue;
            }
            if b.is_one() {
                self.expand(&partial);
                continue;
            }
            let n = self.manager.node(b);
            let mut lo_partial = partial.clone();
            lo_partial.push((n.var, false));
            let mut hi_partial = partial;
            hi_partial.push((n.var, true));
            self.stack.push((n.hi, hi_partial));
            self.stack.push((n.lo, lo_partial));
        }
    }
}

impl SatAssignments<'_> {
    fn expand(&mut self, partial: &[(VarId, bool)]) {
        let specified: std::collections::HashMap<VarId, bool> = partial.iter().copied().collect();
        let free: Vec<VarId> = (0..self.num_vars)
            .filter(|v| !specified.contains_key(v))
            .collect();
        let combos: usize = 1usize
            .checked_shl(u32::try_from(free.len()).unwrap_or(u32::MAX))
            .expect("too many don't-care variables to expand");
        for bits in 0..combos {
            let mut a = vec![false; self.num_vars as usize];
            for (&v, value) in &specified {
                a[v as usize] = *value;
            }
            for (i, &v) in free.iter().enumerate() {
                a[v as usize] = (bits >> i) & 1 == 1;
            }
            self.pending.push(a);
        }
    }
}

const _: () = {
    // The terminal sentinel must sort above every real variable id so that
    // `top_var3` works without special-casing constants.
    assert!(TERMINAL_VAR == u32::MAX);
};
