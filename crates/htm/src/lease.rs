//! A fixed set of small ids, each held by at most one live owner.

use std::sync::atomic::{AtomicU64, Ordering};

/// The ids `0..n`, leased lowest-free-first and given back by their
/// holder, so `n` bounds the ids live at once, not the ids ever handed
/// out. One bit per id in atomic words: no lock.
///
/// HTM context ids (the line-lock owners of a [`TxMemory`](crate::TxMemory))
/// and `tufast-txn`'s worker ids are leased from one each.
pub struct IdLeases {
    /// Bit `i % 64` of word `i / 64` is set while id `i` is leased; the
    /// bits past `n` are set for good.
    words: Box<[AtomicU64]>,
}

impl IdLeases {
    /// The ids `0..n`, all free.
    pub fn new(n: usize) -> Self {
        IdLeases {
            words: (0..n.div_ceil(64))
                .map(|w| u64::MAX.checked_shl((n - w * 64) as u32))
                .map(|past_the_end| AtomicU64::new(past_the_end.unwrap_or(0)))
                .collect(),
        }
    }

    /// Lease the lowest free id, or `None` when all of them are leased.
    pub fn lease(&self) -> Option<u32> {
        for (w, word) in self.words.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != !0 {
                let bit = 1 << bits.trailing_ones();
                bits = word.fetch_or(bit, Ordering::Acquire);
                if bits & bit == 0 {
                    return Some(w as u32 * 64 + bit.trailing_zeros());
                }
            }
        }
        None
    }

    /// Give back a leased id. Release pairs with the lease's Acquire: what
    /// its holder wrote under the id comes before the next lease of it.
    pub fn release(&self, id: u32) {
        let bit = 1 << (id % 64);
        let was = self.words[id as usize / 64].fetch_and(!bit, Ordering::Release);
        debug_assert!(was & bit != 0, "id {id} was not leased");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_free_first_up_to_the_bound() {
        for n in [2, 63, 64, 65, 130] {
            let ids = IdLeases::new(n);
            let leased: Vec<u32> = (0..n).map_while(|_| ids.lease()).collect();
            assert_eq!(leased, (0..n as u32).collect::<Vec<_>>());
            assert_eq!(ids.lease(), None, "{n} ids, all leased");
            let last = n as u32 - 1;
            ids.release(last);
            ids.release(0);
            assert_eq!(ids.lease(), Some(0));
            assert_eq!(ids.lease(), Some(last));
            assert_eq!(ids.lease(), None);
        }
        let one = IdLeases::new(1);
        assert_eq!((one.lease(), one.lease()), (Some(0), None));
        assert_eq!(IdLeases::new(0).lease(), None);
    }
}
