//! Multi-line lock batches: the set of cache lines one commit holds at once.
//!
//! Every committer that publishes more than one line — an [`HtmCtx`]
//! commit, the STM, the schedulers' software commits — gathers its lines
//! into a [`LineBatch`], locks them in ascending address order, stores, and
//! releases them all at one clock value. Content and version therefore
//! become visible *together*: a reader that accepts a line version `≤ t`
//! has proof the line's content was committed at or before `t`.
//!
//! [`HtmCtx`]: crate::HtmCtx

use std::sync::atomic::Ordering;

use crate::memory::{TxMemory, DIRECT_OWNER};
use crate::meta;
use crate::witness::{self, Held, LockClass};

/// Ascending runs `seal` deals an out-of-order gather into before it gives
/// up and sorts. Commits push a few interleaved ascending sequences — an
/// H-mode footprint is `lock[c], value[c], lock[u1], value[u1], …` over
/// sorted neighbours `u`, a software commit its data lines and then its
/// lock lines — and the centre `c`, out of place among the `u`, costs the
/// third run.
const RUNS: usize = 3;

/// Gathers up to this long are sorted outright: the sort is an insertion
/// sort at these sizes, and a 2PL commit's handful of lines must not pay
/// for the deal.
const SORT_UP_TO: usize = 32;

/// The cache lines of one commit, gathered in any order and locked
/// ascending (address order keeps every multi-line locker deadlock-free),
/// each line once.
#[derive(Debug)]
pub struct LineBatch {
    /// Gathered line ids; strictly ascending once locked.
    lines: Vec<u64>,
    /// `lines` is strictly ascending as gathered: nothing to do.
    ascending: bool,
    /// Scratch of `seal`: the runs `lines` is dealt into and merged from.
    runs: Vec<u64>,
    /// How many of `lines`, from the front, are currently locked. (A locked
    /// line's metadata keeps its pre-lock version, so none is stored here.)
    locked: usize,
    /// The lock-order witness's hold of the locked lines.
    held: Held,
}

impl LineBatch {
    /// An empty batch with room for `cap` lines.
    pub fn with_capacity(cap: usize) -> Self {
        LineBatch {
            lines: Vec::with_capacity(cap),
            ascending: true,
            runs: Vec::new(),
            locked: 0,
            held: Held::default(),
        }
    }

    /// Forget the gathered lines (none may still be locked).
    #[inline]
    pub fn clear(&mut self) {
        debug_assert_eq!(self.locked, 0, "clearing a locked batch");
        self.lines.clear();
        self.ascending = true;
    }

    /// The lines currently locked, ascending, each once.
    #[inline]
    pub fn held(&self) -> &[u64] {
        &self.lines[..self.locked]
    }

    /// Add `line`. Ascending neighbours share lock and value lines, so a
    /// repeat of the previous line is dropped here and an ascending gather
    /// leaves `seal` nothing to do.
    #[inline]
    pub fn push(&mut self, line: u64) {
        match self.lines.last() {
            Some(&last) if last == line => return,
            Some(&last) if last > line => self.ascending = false,
            _ => {}
        }
        self.lines.push(line);
    }

    /// Bring the gathered ids into strictly ascending order, each once: a
    /// linear merge when they are a few interleaved ascending runs, a sort
    /// when they are few or in arbitrary order.
    fn seal(&mut self) {
        debug_assert_eq!(self.locked, 0, "re-locking a locked batch");
        if self.ascending {
            return;
        }
        self.ascending = true;
        if self.lines.len() <= SORT_UP_TO || !self.merge_runs() {
            self.lines.sort_unstable();
            self.lines.dedup();
        }
    }

    /// Deal `lines`, each to the first run it extends, and merge the runs
    /// back. `false`, with `lines` as they were, when one fits no run.
    fn merge_runs(&mut self) -> bool {
        let n = self.lines.len();
        self.runs.clear();
        self.runs.resize(RUNS * n, 0);
        // Run `r` is `runs[r * n..][..lens[r]]`, strictly ascending; `ends[r]`
        // is one past its last line, 0 while it is empty.
        let (mut lens, mut ends) = ([0; RUNS], [0; RUNS]);
        'deal: for &line in &self.lines {
            for r in 0..RUNS {
                if ends[r] <= line {
                    self.runs[r * n + lens[r]] = line;
                    lens[r] += 1;
                    ends[r] = line + 1;
                    continue 'deal;
                }
                if ends[r] == line + 1 {
                    continue 'deal;
                }
            }
            return false;
        }
        let mut heads: [&[u64]; RUNS] = std::array::from_fn(|r| &self.runs[r * n..][..lens[r]]);
        let head = |run: &[u64]| run.first().copied().unwrap_or(u64::MAX);
        self.lines.clear();
        // Runs interleave in a few long blocks (one region's lines, then the
        // next one's): copy from the run with the least head up to the least
        // head of the others.
        loop {
            let least = (0..RUNS).min_by_key(|&r| head(heads[r])).expect("RUNS > 0");
            let run = heads[least];
            if run.is_empty() {
                return true;
            }
            let others = (0..RUNS).filter(|&r| r != least);
            let limit = others.map(|r| head(heads[r])).min().unwrap_or(u64::MAX);
            let block = run.iter().take_while(|&&line| line < limit).count();
            self.lines.extend_from_slice(&run[..block]);
            // An empty block: the same id heads another run, once is enough.
            heads[least] = &run[block.max(1)..];
        }
    }
}

impl TxMemory {
    /// Write-lock every line of `batch` for `owner`, ascending. A line still
    /// held elsewhere after `spins` tries fails the acquisition: the lines
    /// locked so far are released unchanged and nothing is held.
    ///
    /// Advanced API (see [`line_state`](Self::line_state)): pair success with
    /// [`unlock_lines`](Self::unlock_lines); hold no line lock while blocking.
    /// Lockers outside an HTM context pass [`DIRECT_OWNER`].
    pub fn try_lock_lines(&self, batch: &mut LineBatch, owner: u32, spins: u32) -> bool {
        batch.seal();
        'locking: for i in 0..batch.lines.len() {
            for spin in 0..spins {
                if self.try_lock_line(batch.lines[i], owner).is_ok() {
                    batch.locked = i + 1;
                    continue 'locking;
                }
                if spin % 32 == 31 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            self.unlock_lines(batch, None);
            return false;
        }
        batch.held = witness::acquired(LockClass::HtmLineLock);
        true
    }

    /// Write-lock every line of `batch` as a direct accessor, ascending,
    /// waiting for each. Deadlock-free: every multi-line holder locks
    /// ascending, and the try-only ones give up instead of waiting.
    pub fn lock_lines(&self, batch: &mut LineBatch) {
        batch.held = witness::acquire(LockClass::HtmLineLock);
        batch.seal();
        for &line in &batch.lines {
            self.lock_line_spin(line, DIRECT_OWNER);
        }
        batch.locked = batch.lines.len();
    }

    /// Unlock the locked lines of `batch`, publishing `version` (a fresh
    /// [`clock_tick_pub`](Self::clock_tick_pub) minted while they were held)
    /// or, with `None`, each line's pre-lock version. A batch that holds
    /// nothing is left alone.
    pub fn unlock_lines(&self, batch: &mut LineBatch, version: Option<u64>) {
        batch.held = Held::default();
        for &line in &batch.lines[..batch.locked] {
            // Relaxed: nobody else writes the word of a line we hold.
            let pre_lock = || meta::version(self.line(line).load(Ordering::Relaxed));
            self.unlock_line(line, version.unwrap_or_else(pre_lock));
        }
        batch.locked = 0;
    }

    /// The pre-lock version of `line` while `owner` holds it locked.
    #[inline]
    pub fn held_version(&self, line: u64, owner: u32) -> Option<u64> {
        let m = self.line(line).load(Ordering::Acquire);
        (meta::is_locked(m) && meta::owner(m) == owner).then(|| meta::version(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Addr, LineState};

    fn batch_of(lines: &[u64]) -> LineBatch {
        let mut b = LineBatch::with_capacity(4);
        for &l in lines {
            b.push(l);
        }
        b
    }

    fn versions(mem: &TxMemory, lines: std::ops::Range<u64>) -> Vec<LineState> {
        lines.map(|l| mem.line_state(l)).collect()
    }

    #[test]
    fn push_drops_adjacent_repeats_and_tracks_order() {
        let b = batch_of(&[3, 3, 4, 4, 9]);
        assert_eq!(b.lines, [3, 4, 9]);
        assert!(b.ascending, "an ascending gather is left alone");
        let mut b = batch_of(&[7, 2, 7, 2, 2]);
        assert!(!b.ascending);
        b.seal();
        assert_eq!(b.lines, [2, 7], "sorted, non-adjacent repeats removed");
        assert!(b.ascending);
    }

    #[test]
    fn interleaved_runs_merge_and_arbitrary_order_sorts() {
        // An H-mode footprint past the small-sort size: centre 250 among
        // neighbours 10, 20, …, 490 (lock lines 1000 + v, value lines v).
        let vertices = std::iter::once(250).chain((10..500).step_by(10).filter(|&v| v != 250));
        let gather: Vec<u64> = vertices.flat_map(|v| [1000 + v, v]).collect();
        let n = gather.len();
        assert!(n > SORT_UP_TO);
        let mut want = gather.clone();
        want.sort_unstable();
        let mut b = batch_of(&gather);
        b.seal();
        assert_eq!(b.lines, want);
        assert_eq!(
            b.runs[..3],
            [1250, 1260, 1270],
            "centre's lock, locks above"
        );
        assert_eq!(
            b.runs[n..][..3],
            [250, 1010, 1020],
            "its value, locks below"
        );
        assert_eq!(b.runs[2 * n..][..3], [10, 20, 30], "the neighbours' values");

        // The same line at the end of one run and inside another.
        let mut b = batch_of(&[5, 9, 3, 5, 5, 9]);
        assert!(b.merge_runs());
        assert_eq!(b.lines, [3, 5, 9], "equal ids once");

        // A fourth descent fits no run: the lines are left for the sort.
        let descending: Vec<u64> = (0..40).rev().collect();
        let mut b = batch_of(&descending);
        assert!(!b.merge_runs());
        assert_eq!(b.lines, descending);
        b.seal();
        assert!(b.lines.iter().copied().eq(0..40));
    }

    #[test]
    fn published_batch_leaves_one_version_and_one_tick() {
        let mem = TxMemory::with_words(8 * 8);
        for l in 0..8 {
            mem.store_direct(Addr(l * 8), l); // distinct versions 1..=8
        }
        let clock = mem.clock_now();
        let mut b = batch_of(&[6, 1, 4, 1]);
        assert!(mem.try_lock_lines(&mut b, DIRECT_OWNER, 4));
        assert_eq!(b.locked, 3);
        assert_eq!(mem.held_version(4, DIRECT_OWNER), Some(5));
        assert_eq!(mem.held_version(4, 7), None, "someone else's");
        assert_eq!(mem.held_version(5, DIRECT_OWNER), None, "not locked");
        mem.store_locked(Addr(6 * 8), 66);
        mem.store_locked(Addr(8 + 1), 11);
        let ticket = mem.clock_tick_pub();
        mem.unlock_lines(&mut b, Some(ticket));

        assert_eq!(ticket, clock + 1);
        assert_eq!(mem.clock_now(), clock + 1, "one tick for the whole batch");
        for l in [1, 4, 6] {
            let want = LineState::Unlocked { version: ticket };
            assert_eq!(mem.line_state(l), want, "line {l} is at the ticket");
        }
        for l in [0, 2, 3, 5, 7] {
            let want = LineState::Unlocked { version: l + 1 };
            assert_eq!(mem.line_state(l), want, "line {l} was not in the batch");
        }
        assert_eq!(mem.load_direct(Addr(48)), 66);
        assert_eq!(mem.load_direct(Addr(9)), 11);
        assert_eq!(b.locked, 0);
    }

    #[test]
    fn abandoned_batch_leaves_versions_words_and_clock_untouched() {
        let mem = TxMemory::with_words(4 * 8);
        for l in 0..4 {
            mem.store_direct(Addr(l * 8), 100 + l);
        }
        let (clock, before) = (mem.clock_now(), versions(&mem, 0..4));
        // A commit that locks, fails its validation and lets go.
        let mut b = batch_of(&[2, 0, 3]);
        assert!(mem.try_lock_lines(&mut b, DIRECT_OWNER, 4));
        mem.unlock_lines(&mut b, None);
        assert_eq!(versions(&mem, 0..4), before);
        assert_eq!(mem.clock_now(), clock);
        // A commit that finds a line busy: the locked prefix is released.
        let mut holder = batch_of(&[2]);
        assert!(mem.try_lock_lines(&mut holder, 7, 1));
        let mut b = batch_of(&[0, 1, 2, 3]);
        assert!(!mem.try_lock_lines(&mut b, DIRECT_OWNER, 4));
        assert_eq!(b.locked, 0);
        mem.unlock_lines(&mut holder, None);
        assert_eq!(versions(&mem, 0..4), before);
        assert_eq!(mem.clock_now(), clock);
        for l in 0..4 {
            assert_eq!(mem.load_direct(Addr(l * 8)), 100 + l);
        }
        // Unlocking a batch that holds nothing is a no-op.
        mem.unlock_lines(&mut b, Some(99));
        assert_eq!(versions(&mem, 0..4), before);
    }

    #[test]
    fn blocking_batches_in_opposite_gather_order_never_deadlock() {
        let mem = TxMemory::with_words(16 * 8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mem = &mem;
                s.spawn(move || {
                    let mut b = LineBatch::with_capacity(16);
                    for _ in 0..500 {
                        b.clear();
                        for l in 0..16 {
                            b.push(if t % 2 == 0 { l } else { 15 - l });
                        }
                        mem.lock_lines(&mut b);
                        // Read-modify-write every line's first word under
                        // the locks: a lost update would show below.
                        for l in 0..16 {
                            let a = Addr(l * 8);
                            mem.store_locked(a, mem.load_direct(a) + 1);
                        }
                        let ticket = mem.clock_tick_pub();
                        mem.unlock_lines(&mut b, Some(ticket));
                    }
                });
            }
        });
        for l in 0..16 {
            assert_eq!(mem.load_direct(Addr(l * 8)), 2000);
        }
    }
}
