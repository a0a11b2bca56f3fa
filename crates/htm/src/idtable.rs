//! A transaction-local map from a dense id — a cache line, a vertex — to a
//! value, preserving first-touch order: the footprint under
//! [`HtmCtx`](crate::HtmCtx) and the STM, and the router's per-attempt
//! vertex set.
//!
//! Indexed, not hashed. A line or vertex id is bounded by the memory or the
//! graph, so one `u32` stamp slot per id makes an access one indexed load
//! and a compare, with no hash and no probe loop. A word address is eight
//! times sparser and a write buffer holds few of them, so the write buffers
//! stay on [`WordMap`](crate::WordMap).

use crate::wordmap::WRAP_LIMIT;

/// Dense id → `u64` with first-touch-order iteration.
#[derive(Debug, Default)]
pub struct IdTable {
    /// One *stamped* index into `entries` per id: slot `id` holding `s` is
    /// live iff `s > base`, and then names entry `s - base - 1`. Stamps only
    /// ever increase, so everything at or below the floor is an empty slot.
    /// Sized on the cold path to the next power of two above the largest
    /// id touched, so a table that is never written allocates nothing.
    slots: Vec<u32>,
    /// Stamp floor of the current generation.
    base: u32,
    entries: Vec<(u64, u64)>,
}

impl IdTable {
    /// Create a table with room for `cap` entries; the slot array is left
    /// to the first access.
    pub fn with_capacity(cap: usize) -> Self {
        IdTable {
            entries: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Test support: a table whose next non-empty [`clear`](Self::clear)
    /// crosses the stamp wrap-around.
    #[doc(hidden)]
    pub fn at_stamp_wrap(cap: usize) -> Self {
        IdTable {
            base: WRAP_LIMIT,
            ..Self::with_capacity(cap)
        }
    }

    /// Number of distinct ids present.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no id is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget every id, keeping allocations. O(1), as
    /// [`WordMap::clear`](crate::WordMap::clear): raising the floor past
    /// every live stamp empties the table without touching it; the slot
    /// array is wiped for real once per 2^31 inserts.
    #[inline]
    pub fn clear(&mut self) {
        self.base += self.entries.len() as u32;
        self.entries.clear();
        if self.base > WRAP_LIMIT {
            self.slots.fill(0);
            self.base = 0;
        }
    }

    /// The entry index `id` names, if it is present.
    #[inline]
    fn find(&self, id: u64) -> Option<usize> {
        let stamp = *self.slots.get(id as usize)?;
        (stamp > self.base).then(|| (stamp - self.base - 1) as usize)
    }

    /// The value of `id`, inserting `default` first when the id is new (the
    /// flag tells which) — find-or-insert in one indexed load.
    #[inline]
    pub fn entry(&mut self, id: u64, default: u64) -> (&mut u64, bool) {
        if let Some(idx) = self.find(id) {
            return (&mut self.entries[idx].1, false);
        }
        if id as usize >= self.slots.len() {
            self.grow(id);
        }
        self.entries.push((id, default));
        self.slots[id as usize] = self.base + self.entries.len() as u32;
        let last = self.entries.len() - 1;
        (&mut self.entries[last].1, true)
    }

    /// Set `id` to `val`; returns `true` if the id was new.
    #[inline]
    pub fn insert(&mut self, id: u64, val: u64) -> bool {
        let (slot, fresh) = self.entry(id, val);
        *slot = val;
        fresh
    }

    /// The value of `id`, if present.
    #[inline]
    pub fn get(&self, id: u64) -> Option<u64> {
        self.find(id).map(|idx| self.entries[idx].1)
    }

    /// Iterate `(id, value)` pairs in first-touch order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + Clone + '_ {
        self.entries.iter().copied()
    }

    /// Extend the slot array to cover `id`. The new slots read 0, at or
    /// below any floor: empty.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, id: u64) {
        assert!(id < 1 << 31, "transaction-local table overflow");
        self.slots.resize((id as usize + 1).next_power_of_two(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_insert_get_in_first_touch_order() {
        let mut t = IdTable::with_capacity(4);
        assert!(t.slots.is_empty(), "nothing allocated before the first id");
        assert!(t.insert(10, 1));
        let (v, fresh) = t.entry(3, 5);
        assert!(fresh);
        *v |= 2;
        let (v, fresh) = t.entry(10, 99);
        assert!(!fresh, "default is ignored for a present id");
        assert_eq!(*v, 1);
        assert!(!t.insert(3, 8), "update in place");
        assert_eq!(
            (t.get(3), t.get(10), t.get(4), t.get(1 << 20)),
            (Some(8), Some(1), None, None)
        );
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(10, 1), (3, 8)]);
        assert_eq!(t.slots.len(), 16, "next power of two above the largest id");
    }

    #[test]
    fn clear_touches_no_slot_until_the_stamps_wrap() {
        let mut t = IdTable::with_capacity(8);
        for round in 0..100u64 {
            for id in 0..5 {
                t.insert(id * 8, round);
            }
            t.clear();
        }
        assert_eq!(t.base, 500, "the floor moved, the slots did not");
        assert!(t.slots.iter().any(|&s| s != 0));

        let mut t = IdTable::at_stamp_wrap(8);
        t.insert(3, 1);
        t.insert(11, 2);
        assert_eq!(t.get(11), Some(2));
        t.clear();
        assert_eq!(t.base, 0, "crossing the limit wipes once and restarts");
        assert!(t.slots.iter().all(|&s| s == 0));
        assert_eq!(t.get(3), None);
        assert!(t.insert(3, 4));
    }

    #[test]
    fn growth_keeps_live_entries_and_a_cleared_generation_stays_empty() {
        let mut t = IdTable::default();
        t.insert(1, 1);
        t.clear();
        t.insert(2, 2);
        t.insert(5000, 3);
        assert_eq!(t.slots.len(), 8192);
        assert_eq!((t.get(1), t.get(2), t.get(5000)), (None, Some(2), Some(3)));
    }
}
