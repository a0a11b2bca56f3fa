//! An open-addressed map from word address to buffered value, preserving
//! insertion order — the transaction write buffers, and the vertex sets off
//! the hot paths (2PL's held set, OCC's read set, `WriteSet`'s seen-set). A
//! table keyed by a line or a vertex id on a hot path is an
//! [`IdTable`](crate::IdTable).
//!
//! Requirements that rule out `HashMap`: clearing between transactions that
//! costs nothing, order-preserving iteration (writes are applied in program
//! order at commit), and last-writer-wins updates in place.

use crate::memory::Addr;

/// Stamp floors past this trigger the one real wipe (see [`WordMap::clear`]).
/// A table holds at most 2^31 entries, so `base + len` never overflows.
pub(crate) const WRAP_LIMIT: u32 = u32::MAX / 2;

/// Write buffer: address → value with insertion-order iteration.
#[derive(Debug)]
pub struct WordMap {
    /// Hash table of *stamped* indices into `entries`: a slot holding `s` is
    /// live iff `s > base`, and then names entry `s - base - 1`. Stamps only
    /// ever increase, so everything at or below the floor is an empty slot.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the home slot is the hash's *high* bits.
    shift: u32,
    /// Stamp floor of the current generation.
    base: u32,
    entries: Vec<(u64, u64)>,
}

impl WordMap {
    /// Create a map with room for `cap` entries before rehash.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(8) * 2).next_power_of_two();
        WordMap {
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            base: 0,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Test support: a map whose next non-empty [`clear`](Self::clear)
    /// crosses the stamp wrap-around.
    #[doc(hidden)]
    pub fn at_stamp_wrap(cap: usize) -> Self {
        WordMap {
            base: WRAP_LIMIT,
            ..Self::with_capacity(cap)
        }
    }

    /// Number of distinct addresses buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no writes are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget all writes, keeping allocations. O(1): every live stamp is at
    /// most `base + len`, so raising the floor past them empties the table
    /// without touching it — a transaction pays for what *it* touched, not
    /// for the slot array an earlier hub-sized one grew. The array is wiped
    /// for real only when the floor nears `u32::MAX`, once per 2^31 inserts.
    #[inline]
    pub fn clear(&mut self) {
        self.base += self.entries.len() as u32;
        self.entries.clear();
        if self.base > WRAP_LIMIT {
            self.slots.fill(0);
            self.base = 0;
        }
    }

    /// Fibonacci hashing: multiply by 2^64 / φ and keep the high bits. (The
    /// low bits of an odd multiple keep every trailing zero of the key, so
    /// masking them would pile stride-2^k keys onto 1/2^k of the slots.)
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Walk `key`'s probe chain: `Ok(its entry index)`, or `Err(the empty
    /// slot that ends the chain)` when the key is absent.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.home(key);
        loop {
            let stamp = self.slots[i];
            if stamp <= self.base {
                return Err(i);
            }
            let idx = (stamp - self.base - 1) as usize;
            if self.entries[idx].0 == key {
                return Ok(idx);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// The value buffered for `addr`, inserting `default` first when the
    /// address is new (the flag tells which) — find-or-insert in one probe.
    #[inline]
    pub fn entry(&mut self, addr: Addr, default: u64) -> (&mut u64, bool) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let (idx, fresh) = match self.probe(addr.0) {
            Ok(idx) => (idx, false),
            Err(slot) => {
                self.entries.push((addr.0, default));
                self.slots[slot] = self.base + self.entries.len() as u32;
                (self.entries.len() - 1, true)
            }
        };
        (&mut self.entries[idx].1, fresh)
    }

    /// Buffer `val` for `addr`; returns `true` if the address was new.
    #[inline]
    pub fn insert(&mut self, addr: Addr, val: u64) -> bool {
        let (slot, fresh) = self.entry(addr, val);
        *slot = val;
        fresh
    }

    /// Buffered value for `addr`, if any. An empty map answers without
    /// probing (the common case for read-mostly transactions).
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        self.probe(addr.0).ok().map(|idx| self.entries[idx].1)
    }

    /// Iterate buffered `(addr, value)` pairs in first-insertion order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (Addr, u64)> + Clone + '_ {
        self.entries.iter().map(|&(a, v)| (Addr(a), v))
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        assert!(new_cap <= 1 << 31, "transaction-local table overflow");
        self.slots = vec![0; new_cap];
        self.shift -= 1;
        self.base = 0;
        for idx in 0..self.entries.len() {
            // Keys are distinct: every probe ends at an empty slot.
            if let Err(slot) = self.probe(self.entries[idx].0) {
                self.slots[slot] = idx as u32 + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update() {
        let mut m = WordMap::with_capacity(4);
        assert!(m.insert(Addr(10), 1));
        assert!(m.insert(Addr(20), 2));
        assert!(!m.insert(Addr(10), 3)); // update in place
        assert_eq!(m.get(Addr(10)), Some(3));
        assert_eq!(m.get(Addr(20)), Some(2));
        assert_eq!(m.get(Addr(30)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn entry_finds_or_inserts_in_place() {
        let mut m = WordMap::with_capacity(4);
        let (v, fresh) = m.entry(Addr(7), 5);
        assert!(fresh);
        *v |= 2;
        let (v, fresh) = m.entry(Addr(7), 99);
        assert!(!fresh, "default is ignored for a present key");
        assert_eq!(*v, 7);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_preserves_first_insertion_order() {
        let mut m = WordMap::with_capacity(64);
        m.insert(Addr(5), 50);
        m.insert(Addr(1), 10);
        m.insert(Addr(9), 90);
        m.insert(Addr(5), 55); // update must not move position
        let order: Vec<(u64, u64)> = m.iter().map(|(a, v)| (a.0, v)).collect();
        assert_eq!(order, vec![(5, 55), (1, 10), (9, 90)]);
    }

    #[test]
    fn survives_growth() {
        let mut m = WordMap::with_capacity(2);
        for i in 0..500u64 {
            m.insert(Addr(i * 3), i);
        }
        for i in 0..500u64 {
            assert_eq!(m.get(Addr(i * 3)), Some(i));
        }
        let order: Vec<u64> = m.iter().map(|(a, _)| a.0).collect();
        assert_eq!(order, (0..500).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets() {
        let mut m = WordMap::with_capacity(64);
        m.insert(Addr(1), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(Addr(1)), None);
        m.insert(Addr(1), 2);
        assert_eq!(m.get(Addr(1)), Some(2));
    }

    #[test]
    fn clear_touches_no_slot_until_the_stamps_wrap() {
        let mut m = WordMap::with_capacity(8);
        for round in 0..100u64 {
            for k in 0..5 {
                m.insert(Addr(k * 8), round);
            }
            m.clear();
        }
        assert_eq!(m.base, 500, "the floor moved, the slots did not");
        assert!(m.slots.iter().any(|&s| s != 0));

        let mut m = WordMap::at_stamp_wrap(8);
        m.insert(Addr(3), 1);
        m.insert(Addr(11), 2);
        assert_eq!(m.get(Addr(11)), Some(2));
        m.clear();
        assert_eq!(m.base, 0, "crossing the limit wipes once and restarts");
        assert!(m.slots.iter().all(|&s| s == 0));
        assert_eq!(m.get(Addr(3)), None);
        assert!(m.insert(Addr(3), 4));
    }

    /// Longest probe walk over the current contents.
    fn max_probe(m: &WordMap) -> usize {
        let mask = m.slots.len() - 1;
        m.entries
            .iter()
            .enumerate()
            .map(|(idx, &(k, _))| {
                let want = m.base + idx as u32 + 1;
                let home = m.home(k);
                (0..m.slots.len())
                    .find(|d| m.slots[(home + d) & mask] == want)
                    .expect("every entry is indexed")
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn strided_keys_keep_probe_chains_short() {
        // Masking the low bits of the hash sent stride-2^k keys (padded
        // lock words are stride 8) to 1/2^k of the home slots; the high
        // bits spread any arithmetic progression evenly.
        for n in [100usize, 1000, 4000] {
            let table_size = WordMap::with_capacity(n).slots.len() as u64;
            for stride in [8, 64, table_size] {
                let mut m = WordMap::with_capacity(n);
                for i in 0..n as u64 {
                    m.insert(Addr(i * stride), i);
                }
                let worst = max_probe(&m);
                assert!(worst <= 16, "stride {stride}, {n} keys: probe {worst}");
            }
        }
    }
}
