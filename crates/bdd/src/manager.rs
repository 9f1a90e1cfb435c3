//! The BDD node store: unique table, node layout and handle types.

use std::fmt;

use crate::cache::{BddMap, ComputedTable};

/// Index of a boolean variable in the manager's (fixed) variable order.
///
/// Variables are ordered by their numeric id: smaller ids appear closer to
/// the root of every diagram.
pub type VarId = u32;

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles are canonical: two handles compare equal **iff** they denote the
/// same boolean function (within one manager). They are `Copy` and cheap to
/// pass around; all operations live on the [`Manager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// Returns `true` if this is the constant-false diagram.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this is the constant-true diagram.
    #[must_use]
    pub fn is_one(self) -> bool {
        self.0 == 1
    }

    /// Returns `true` if this is either constant.
    #[must_use]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index of the node inside its manager (useful for debugging and
    /// for external memo tables keyed by node).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "⊥"),
            1 => write!(f, "⊤"),
            i => write!(f, "bdd#{i}"),
        }
    }
}

/// Internal node: decision on `var`, with `lo` = cofactor for var=0 and
/// `hi` = cofactor for var=1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: VarId,
    pub lo: Bdd,
    pub hi: Bdd,
}

/// Sentinel variable id used for the terminal nodes (larger than any real
/// variable, so terminals sort below all decisions).
pub(crate) const TERMINAL_VAR: VarId = u32::MAX;

/// A BDD manager: owns nodes, guarantees canonicity, implements all
/// operations.
///
/// Nodes are never garbage collected; for the workloads in this workspace
/// (state graphs of interface controllers, invariant checks) peak live size
/// is small and determinism is more valuable than reclamation. The
/// operation caches are bounded instead: one lossy computed table sized
/// with the node table up to a cap (see the crate docs).
///
/// # Example
///
/// ```
/// use bdd::Manager;
/// let mut m = Manager::new();
/// let x = m.var(3);
/// let nx = m.not(x);
/// assert_eq!(m.or(x, nx), Manager::one());
/// ```
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    unique: BddMap<Node, Bdd>,
    pub(crate) computed: ComputedTable,
    /// Interned quantification variable sets, sorted: set → id, and by
    /// id (the computed table keys on the id).
    var_set_ids: BddMap<Vec<VarId>, u32>,
    pub(crate) var_sets: Vec<Vec<VarId>>,
    pub(crate) num_vars: u32,
}

impl fmt::Debug for Manager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Manager")
            .field("nodes", &self.nodes.len())
            .field("num_vars", &self.num_vars)
            .finish()
    }
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates an empty manager containing only the two terminal nodes.
    #[must_use]
    pub fn new() -> Self {
        Self::with_computed_table(ComputedTable::new(ComputedTable::MAX_LOG2))
    }

    /// A manager whose computed table never grows past `2^log2` slots.
    #[cfg(test)]
    pub(crate) fn with_cache_log2(log2: u32) -> Self {
        Self::with_computed_table(ComputedTable::new(log2))
    }

    fn with_computed_table(computed: ComputedTable) -> Self {
        let mut m = Manager {
            nodes: Vec::with_capacity(1024),
            unique: BddMap::with_capacity_and_hasher(1024, Default::default()),
            computed,
            var_set_ids: BddMap::default(),
            var_sets: Vec::new(),
            num_vars: 0,
        };
        // Index 0: constant false. Index 1: constant true.
        m.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: Bdd(0),
            hi: Bdd(0),
        });
        m.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: Bdd(1),
            hi: Bdd(1),
        });
        m
    }

    /// The constant-false diagram. Does not need a manager.
    #[must_use]
    pub const fn zero() -> Bdd {
        Bdd(0)
    }

    /// The constant-true diagram. Does not need a manager.
    #[must_use]
    pub const fn one() -> Bdd {
        Bdd(1)
    }

    /// Number of nodes currently allocated (including the two terminals).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Highest variable id ever used, plus one.
    #[must_use]
    pub fn var_count(&self) -> u32 {
        self.num_vars
    }

    /// The diagram for the single variable `v`.
    pub fn var(&mut self, v: VarId) -> Bdd {
        self.mk(v, Bdd(0), Bdd(1))
    }

    /// The diagram for the negated variable `v` (`¬v`).
    pub fn nvar(&mut self, v: VarId) -> Bdd {
        self.mk(v, Bdd(1), Bdd(0))
    }

    /// A literal: the variable `v` if `positive`, else its negation.
    pub fn literal(&mut self, v: VarId, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Constant diagram for a boolean.
    #[must_use]
    pub fn constant(value: bool) -> Bdd {
        if value {
            Self::one()
        } else {
            Self::zero()
        }
    }

    /// Find-or-create a node `(var, lo, hi)` applying the two ROBDD
    /// reduction rules (no redundant tests, no duplicate nodes).
    pub(crate) fn mk(&mut self, var: VarId, lo: Bdd, hi: Bdd) -> Bdd {
        debug_assert!(var != TERMINAL_VAR);
        if lo == hi {
            return lo;
        }
        if var >= self.num_vars {
            self.num_vars = var + 1;
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = Bdd(u32::try_from(self.nodes.len()).expect("bdd node table overflow"));
        self.nodes.push(node);
        self.unique.insert(node, id);
        self.computed.grow_for(self.nodes.len());
        id
    }

    /// The id of the variable set `vars` (any order, duplicates ignored),
    /// interning it on first use.
    pub(crate) fn intern_vars(&mut self, vars: &[VarId]) -> u32 {
        let mut vs = vars.to_vec();
        vs.sort_unstable();
        vs.dedup();
        if let Some(&id) = self.var_set_ids.get(&vs) {
            return id;
        }
        let id = u32::try_from(self.var_sets.len()).expect("variable-set table overflow");
        self.var_sets.push(vs.clone());
        self.var_set_ids.insert(vs, id);
        id
    }

    pub(crate) fn node(&self, b: Bdd) -> Node {
        self.nodes[b.0 as usize]
    }

    /// The decision variable at the root of `b`, or `None` for constants.
    #[must_use]
    pub fn root_var(&self, b: Bdd) -> Option<VarId> {
        if b.is_const() {
            None
        } else {
            Some(self.node(b).var)
        }
    }

    /// Low (`var = 0`) cofactor of the root node.
    ///
    /// # Panics
    ///
    /// Panics if `b` is a constant.
    #[must_use]
    pub fn low(&self, b: Bdd) -> Bdd {
        assert!(!b.is_const(), "constants have no cofactors");
        self.node(b).lo
    }

    /// High (`var = 1`) cofactor of the root node.
    ///
    /// # Panics
    ///
    /// Panics if `b` is a constant.
    #[must_use]
    pub fn high(&self, b: Bdd) -> Bdd {
        assert!(!b.is_const(), "constants have no cofactors");
        self.node(b).hi
    }
}
