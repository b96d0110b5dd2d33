//! Packed node storage for the BDD kernel: a struct-of-arrays arena plus an
//! open-addressing unique table.
//!
//! The arena keeps the three node words (`level`, `lo`, `hi`) in parallel
//! `Vec<u32>`s so traversals touch only the columns they need (counting
//! never reads levels of terminals). Node handles are plain arena indices;
//! the two terminals occupy indices 0 and 1 with the sentinel level
//! [`TERMINAL_LEVEL`], so `level(child) > level(parent)` holds uniformly
//! without a per-manager "virtual terminal level".
//!
//! The unique table is a linear-probe open-addressing table of arena
//! indices, sized by powers of two, with a cheap multiplicative hash over
//! the three node words — replacing the SipHash `HashMap` whose per-probe
//! cost dominated `mk` in the old kernel. Entries are never deleted one by
//! one: garbage collection rebuilds the whole table over the compacted
//! arena.

/// Sentinel level of the two terminal nodes: compares greater than every
/// real level, so "the variable cannot occur below this node" checks need
/// no knowledge of the variable count.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Struct-of-arrays node storage. Index 0 is the FALSE terminal, index 1
/// the TRUE terminal; decision nodes start at index 2.
#[derive(Clone, Debug)]
pub(crate) struct NodeArena {
    pub levels: Vec<u32>,
    pub los: Vec<u32>,
    pub his: Vec<u32>,
}

impl NodeArena {
    pub fn new() -> Self {
        NodeArena {
            levels: vec![TERMINAL_LEVEL, TERMINAL_LEVEL],
            los: vec![0, 1],
            his: vec![0, 1],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    #[inline]
    pub fn push(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        let idx = self.levels.len() as u32;
        self.levels.push(level);
        self.los.push(lo);
        self.his.push(hi);
        idx
    }

    pub fn truncate(&mut self, len: usize) {
        self.levels.truncate(len);
        self.los.truncate(len);
        self.his.truncate(len);
    }

    /// Bytes held by the three columns (capacity, not length — this is the
    /// resident footprint the reports care about).
    pub fn bytes(&self) -> usize {
        (self.levels.capacity() + self.los.capacity() + self.his.capacity())
            * std::mem::size_of::<u32>()
    }
}

const EMPTY: u32 = u32::MAX;

/// Multiplicative mixing of the three node words; the high bits index the
/// power-of-two slot array.
#[inline]
fn hash_key(level: u32, lo: u32, hi: u32) -> u64 {
    let mut h = (lo as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (hi as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= (level as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^= h >> 29;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// The hash-consing table: maps `(level, lo, hi)` to the arena index of the
/// unique node with those words. Slots hold arena indices; the key words
/// live in the arena itself, so the table is a flat `Vec<u32>` with no
/// duplicated key storage.
#[derive(Clone, Debug)]
pub(crate) struct UniqueTable {
    slots: Vec<u32>,
    mask: usize,
    occupied: usize,
    /// Total probe sequences started (one per `find`).
    pub lookups: u64,
    /// Total slots inspected across all probe sequences.
    pub probes: u64,
}

impl UniqueTable {
    pub fn new() -> Self {
        UniqueTable::with_pow2(1 << 12)
    }

    fn with_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        UniqueTable {
            slots: vec![EMPTY; cap],
            mask: cap - 1,
            occupied: 0,
            lookups: 0,
            probes: 0,
        }
    }

    /// Entries; test-only — production code tracks node counts through the
    /// arena.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.occupied
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// Doubles the table if needed so one more insert keeps the load
    /// factor at or below 1/2. Call before [`UniqueTable::find`] when an
    /// insert may follow — rehashing invalidates previously returned slot
    /// indices.
    pub fn reserve(&mut self, arena: &NodeArena) {
        if (self.occupied + 1) * 2 > self.slots.len() {
            self.rehash(self.slots.len() * 2, arena);
        }
    }

    fn rehash(&mut self, cap: usize, arena: &NodeArena) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        self.mask = cap - 1;
        for idx in old {
            if idx == EMPTY {
                continue;
            }
            let i = idx as usize;
            let mut slot =
                hash_key(arena.levels[i], arena.los[i], arena.his[i]) as usize & self.mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = idx;
        }
    }

    /// Looks up `(level, lo, hi)`: `Ok(index)` of the existing node, or
    /// `Err(slot)` where it should be inserted ([`UniqueTable::reserve`]
    /// first; any intervening mutation invalidates the slot).
    #[inline]
    pub fn find(&mut self, level: u32, lo: u32, hi: u32, arena: &NodeArena) -> Result<u32, usize> {
        self.lookups += 1;
        let mut slot = hash_key(level, lo, hi) as usize & self.mask;
        loop {
            self.probes += 1;
            let entry = self.slots[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            let i = entry as usize;
            if arena.levels[i] == level && arena.los[i] == lo && arena.his[i] == hi {
                return Ok(entry);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Fills the slot returned by a failed [`UniqueTable::find`].
    #[inline]
    pub fn insert_at(&mut self, slot: usize, idx: u32) {
        self.slots[slot] = idx;
        self.occupied += 1;
    }

    /// Rebuilds the table from scratch over the (compacted) arena — every
    /// decision node is reinserted and stale handles vanish.
    pub fn rebuild(&mut self, arena: &NodeArena) {
        let need = (arena.len().max(1) * 4).next_power_of_two().max(1 << 12);
        self.slots.clear();
        self.slots.resize(need, EMPTY);
        self.mask = need - 1;
        self.occupied = arena.len() - 2;
        for i in 2..arena.len() {
            let mut slot =
                hash_key(arena.levels[i], arena.los[i], arena.his[i]) as usize & self.mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_insert_remove_roundtrip() {
        let mut arena = NodeArena::new();
        let mut table = UniqueTable::new();
        let idx = arena.push(3, 0, 1);
        let slot = table.find(3, 0, 1, &arena).unwrap_err();
        table.insert_at(slot, idx);
        assert_eq!(table.find(3, 0, 1, &arena), Ok(idx));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut arena = NodeArena::new();
        let mut table = UniqueTable::with_pow2(4);
        for level in 0..1000u32 {
            table.reserve(&arena);
            let slot = table.find(level, 0, 1, &arena).unwrap_err();
            let idx = arena.push(level, 0, 1);
            table.insert_at(slot, idx);
        }
        assert_eq!(table.len(), 1000);
        assert!(table.capacity() >= 2000);
        for level in 0..1000u32 {
            assert!(table.find(level, 0, 1, &arena).is_ok());
        }
    }
}
