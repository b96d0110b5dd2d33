//! The lossy apply cache: a fixed-size direct-mapped array in the CUDD
//! tradition, replacing the old unbounded `HashMap`.
//!
//! Each slot holds one packed `(op, a, b) → result` entry; a colliding
//! insert simply overwrites. Losing an entry is always safe — apply results
//! are recomputable — and the bounded footprint is what lets multi-million
//! node compilations run without the cache itself dominating memory. The
//! cache starts small and doubles (clearing, which is free for a lossy
//! cache) while the insert traffic keeps outrunning its capacity, up to a
//! fixed ceiling.
//!
//! Keys pack the operation tag and both 31-bit operands into one `u64`, so
//! a lookup is one multiply, one shift, and one compare. Commutative
//! operands are canonicalized by the caller (`min`/`max` order); the
//! `swapped_hits` counter records hits that only exist because of that
//! canonicalization.

/// Packs `(op, a, b)` into the cache key. Operands must fit in 31 bits —
/// arena indices do long before memory runs out.
#[inline]
pub(crate) fn pack_key(op: u8, a: u32, b: u32) -> u64 {
    // Only 2 bits of key space: a fifth op tag would silently alias an
    // existing op's entries and return wrong cached results.
    debug_assert!(op < 4);
    debug_assert!(a < (1 << 31) && b < (1 << 31));
    ((op as u64) << 62) | ((a as u64) << 31) | b as u64
}

/// No packed key is all-ones: operand 2³¹ − 1 would require an arena past
/// the 31-bit ceiling asserted in [`pack_key`].
const EMPTY_KEY: u64 = u64::MAX;

const INITIAL_BITS: u32 = 12;
const MAX_BITS: u32 = 22;

/// Direct-mapped lossy memoization table for `apply`.
#[derive(Clone, Debug)]
pub(crate) struct ApplyCache {
    keys: Vec<u64>,
    results: Vec<u32>,
    bits: u32,
    inserts: u64,
    /// Lookups served (hit or miss).
    pub lookups: u64,
    /// Lookups that found their entry.
    pub hits: u64,
    /// Hits whose operands arrived in non-canonical order — the share of
    /// the hit rate owed to commutative key canonicalization.
    pub swapped_hits: u64,
}

impl ApplyCache {
    pub fn new() -> Self {
        ApplyCache {
            keys: vec![EMPTY_KEY; 1 << INITIAL_BITS],
            results: vec![0; 1 << INITIAL_BITS],
            bits: INITIAL_BITS,
            inserts: 0,
            lookups: 0,
            hits: 0,
            swapped_hits: 0,
        }
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    #[inline]
    pub fn get(&mut self, key: u64) -> Option<u32> {
        self.lookups += 1;
        let slot = self.slot(key);
        if self.keys[slot] == key {
            self.hits += 1;
            Some(self.results[slot])
        } else {
            None
        }
    }

    #[inline]
    pub fn put(&mut self, key: u64, result: u32) {
        let slot = self.slot(key);
        self.keys[slot] = key;
        self.results[slot] = result;
        self.inserts += 1;
        // Insert traffic at twice the capacity means the working set has
        // outgrown the table; double it (dropping the contents — lossy by
        // design) until the ceiling.
        if self.bits < MAX_BITS && self.inserts >= (2u64 << self.bits) {
            self.grow();
        }
    }

    fn grow(&mut self) {
        self.bits += 1;
        self.inserts = 0;
        self.keys.clear();
        self.keys.resize(1 << self.bits, EMPTY_KEY);
        self.results.resize(1 << self.bits, 0);
    }

    /// Drops every entry (GC compaction renumbers handles, so cached
    /// results would dangle). Capacity is retained.
    pub fn clear(&mut self) {
        self.inserts = 0;
        for k in &mut self.keys {
            *k = EMPTY_KEY;
        }
    }

    pub fn bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.results.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put_miss_after_clear() {
        let mut c = ApplyCache::new();
        let key = pack_key(0, 7, 9);
        assert_eq!(c.get(key), None);
        c.put(key, 42);
        assert_eq!(c.get(key), Some(42));
        c.clear();
        assert_eq!(c.get(key), None);
        assert_eq!(c.lookups, 3);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn grows_under_sustained_insert_traffic() {
        let mut c = ApplyCache::new();
        let before = c.keys.len();
        for i in 0..(4u32 << INITIAL_BITS) {
            c.put(pack_key(1, i, i), i);
        }
        assert!(c.keys.len() > before);
    }

    #[test]
    fn distinct_ops_never_collide_in_key_space() {
        for op in 0..4u8 {
            let k = pack_key(op, (1 << 31) - 2, (1 << 31) - 2);
            assert_ne!(k, EMPTY_KEY);
            assert_eq!(k >> 62, op as u64);
        }
    }
}
