//! The multiplicative hasher of the unique table and memo maps, and the
//! bounded, lossy computed table every memoised operation shares.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::manager::Bdd;

/// Multiplicative (Fx-style) hasher for node triples and handles — keys
/// the manager allocates itself, so no flooding resistance is needed.
#[derive(Debug, Default, Clone, Copy)]
pub struct BddHasher(u64);

impl Hasher for BddHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` hashed by [`BddHasher`], for memo tables keyed by handles.
pub type BddMap<K, V> = HashMap<K, V, BuildHasherDefault<BddHasher>>;

/// Operation tags of the computed table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Ite,
    Exists,
    Forall,
    AndExists,
}

/// One slot: `[op, a, b, c]` and the result.
type Slot = ([u32; 4], Bdd);

/// The key no operation produces (tags are small), marking empty slots.
const EMPTY: [u32; 4] = [u32::MAX; 4];

/// The direct-mapped, lossy computed table: 2^10 slots at first, doubled
/// while smaller than the node table, up to the cap (2^18 slots, 5 MiB,
/// by default). A new entry overwrites whatever held its slot; a miss
/// only costs a recomputation.
#[derive(Debug)]
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    log2: u32,
    max_log2: u32,
}

impl ComputedTable {
    /// The default cap: 2^18 slots.
    pub(crate) const MAX_LOG2: u32 = 18;

    pub(crate) fn new(max_log2: u32) -> Self {
        let log2 = max_log2.min(10);
        ComputedTable {
            slots: vec![(EMPTY, Bdd(0)); 1 << log2],
            log2,
            max_log2,
        }
    }

    fn index(&self, key: &[u32; 4]) -> usize {
        let mut h = BddHasher::default();
        key.iter().for_each(|&k| h.write_u32(k));
        // The multiply mixes into the high bits; index from there.
        (h.finish() >> (64 - self.log2)) as usize
    }

    pub(crate) fn get(&self, op: Op, a: u32, b: u32, c: u32) -> Option<Bdd> {
        let key = [op as u32, a, b, c];
        let (k, r) = self.slots[self.index(&key)];
        (k == key).then_some(r)
    }

    pub(crate) fn put(&mut self, op: Op, a: u32, b: u32, c: u32, result: Bdd) {
        let key = [op as u32, a, b, c];
        let i = self.index(&key);
        self.slots[i] = (key, result);
    }

    /// Doubles the table, keeping its entries, while it has fewer slots
    /// than there are `nodes` and is below its cap.
    pub(crate) fn grow_for(&mut self, nodes: usize) {
        if nodes <= self.slots.len() || self.log2 >= self.max_log2 {
            return;
        }
        self.log2 += 1;
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, Bdd(0)); 1 << self.log2]);
        for (key, r) in old.into_iter().filter(|&(k, _)| k != EMPTY) {
            let i = self.index(&key);
            self.slots[i] = (key, r);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.slots.fill((EMPTY, Bdd(0)));
    }
}
