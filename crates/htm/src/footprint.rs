//! The transaction footprint: one entry per cache line touched, carrying the
//! version observed at the first read and whether the line was read,
//! written, or both.
//!
//! One table where the TL2 bookkeeping used to keep three (read list,
//! read-line set, write-line set): an access makes a single lookup, a line
//! is due its capacity charge exactly when its entry is created, and
//! validation, extension and commit walk the dense entries. Built on
//! [`IdTable`], indexed by line number: an access is one indexed load, and
//! a reset costs O(1) whatever an earlier hub grew it to.

use crate::idtable::IdTable;

const READ: u64 = 1;
const WRITE: u64 = 2;
/// Entry layout: `observed version << FLAG_BITS | flags` (line versions
/// are 48-bit clock values).
const FLAG_BITS: u32 = 2;

/// Line → `{observed version, READ | WRITE}` for one transaction.
#[derive(Debug)]
pub struct Footprint(IdTable);

impl Footprint {
    /// Create a footprint with room for `cap` lines before it reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        Footprint(IdTable::with_capacity(cap))
    }

    /// Test support: see [`IdTable::at_stamp_wrap`].
    #[doc(hidden)]
    pub fn at_stamp_wrap(cap: usize) -> Self {
        Footprint(IdTable::at_stamp_wrap(cap))
    }

    /// Forget every line, keeping the allocation (O(1)).
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Record a read of `line` that observed `version`; only the line's
    /// first read records its version. Returns `true` when the line is new
    /// to the footprint (neither read nor written before).
    #[inline]
    pub fn note_read(&mut self, line: u64, version: u64) -> bool {
        debug_assert!(version < 1 << (64 - FLAG_BITS));
        let (entry, fresh) = self.0.entry(line, version << FLAG_BITS | READ);
        if *entry & READ == 0 {
            // Written earlier, read only now: the version bits are still 0.
            *entry |= version << FLAG_BITS | READ;
        }
        fresh
    }

    /// Record a write to `line`. Returns `true` when the line is new to the
    /// footprint.
    #[inline]
    pub fn note_write(&mut self, line: u64) -> bool {
        let (entry, fresh) = self.0.entry(line, WRITE);
        *entry |= WRITE;
        fresh
    }

    /// `(line, observed version, also written)` for every line read, in
    /// first-touch order.
    pub fn reads(&self) -> impl Iterator<Item = (u64, u64, bool)> + '_ {
        self.0
            .iter()
            .filter(|&(_, e)| e & READ != 0)
            .map(|(line, e)| (line, e >> FLAG_BITS, e & WRITE != 0))
    }

    /// Every line written, in first-touch order.
    pub fn writes(&self) -> impl Iterator<Item = u64> + '_ {
        self.0
            .iter()
            .filter(|&(_, e)| e & WRITE != 0)
            .map(|(line, _)| line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_creates_the_entry_and_flags_accumulate() {
        let mut fp = Footprint::with_capacity(4);
        assert!(fp.note_read(10, 7));
        assert!(!fp.note_read(10, 9), "second read is not a new line");
        assert!(!fp.note_write(10), "write of a read line is not a new line");
        assert!(fp.note_write(20));
        assert!(!fp.note_read(20, 5), "read of a written line is not new");
        assert!(fp.note_write(30));
        // First-read versions, first-touch order.
        let reads: Vec<_> = fp.reads().collect();
        assert_eq!(reads, vec![(10, 7, true), (20, 5, true)]);
        assert_eq!(fp.writes().collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut fp = Footprint::with_capacity(4);
        fp.note_read(1, 1);
        fp.note_write(2);
        fp.clear();
        assert_eq!(fp.reads().count() + fp.writes().count(), 0);
        assert!(fp.note_write(1), "line 1 is new again");
        assert_eq!(fp.reads().count(), 0, "and carries no stale READ flag");
    }
}
