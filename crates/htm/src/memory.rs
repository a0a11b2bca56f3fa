//! The shared transactional heap: words, regions, line metadata, and the
//! strongly-isolated direct (non-transactional) access path.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::batch::LineBatch;
use crate::lease::IdLeases;
use crate::meta;

/// Words (8 bytes each) per modelled 64-byte cache line.
pub const WORDS_PER_LINE: usize = 8;

/// Index of a word in a [`TxMemory`].
///
/// Addresses are plain indices rather than raw pointers so the whole
/// emulation stays in safe Rust, and so experiments are deterministic: the
/// word→cache-line→cache-set mapping is a pure function of the address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line this word belongs to.
    #[inline]
    pub fn line(self) -> u64 {
        self.0 / WORDS_PER_LINE as u64
    }

    /// Offset this address by `delta` words.
    #[inline]
    pub fn offset(self, delta: u64) -> Addr {
        Addr(self.0 + delta)
    }
}

/// A named allocation inside a [`TxMemory`]: `len` one-word elements,
/// `STRIDE` words apart, from a line boundary (the value slots of a paired
/// region from one word past it).
///
/// Regions are handed out by [`MemoryLayout::alloc`] before the memory is
/// built, in the style of a static data segment: graph algorithms allocate
/// one region per vertex-value array (`rank`, `dist`, `match`, …) plus the
/// per-vertex lock-word region used by the schedulers. A region from
/// [`MemoryLayout::alloc_paired`] has stride 2: its elements interleave
/// with the vertex lock words. The stride is a type parameter, not a
/// field, so [`addr`](Self::addr) stays one multiply-add by a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRegion<const STRIDE: u64 = 1> {
    base: u64,
    len: u64,
}

impl<const STRIDE: u64> MemRegion<STRIDE> {
    /// Address of element `i`. Panics in debug builds on out-of-range.
    #[inline]
    pub fn addr(&self, i: u64) -> Addr {
        debug_assert!(i < self.len, "region index {i} out of range {}", self.len);
        Addr(self.base + i * STRIDE)
    }

    /// Number of elements in the region.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of the first element.
    #[inline]
    pub fn base(&self) -> Addr {
        Addr(self.base)
    }

    /// One past the address of the last element (the base when empty):
    /// the elements lie in `base()..end()`, with the stride's gaps.
    #[inline]
    pub fn end(&self) -> Addr {
        Addr(self.base + (self.len * STRIDE).saturating_sub(STRIDE - 1))
    }

    /// Iterate over the addresses of all elements, in order.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.len).map(|i| Addr(self.base + i * STRIDE))
    }
}

/// A bump allocator for carving a [`TxMemory`] into named [`MemRegion`]s.
///
/// Every region is aligned to a cache-line boundary so two regions never
/// share a line (cross-region false sharing would make experiments harder to
/// reason about; *intra*-region line sharing is deliberate and realistic).
///
/// Regions of at least 64 lines are also *coloured*: the k-th one starts
/// `bitrev6(k)` lines (0, 32, 16, 48, 8, …) past a multiple of 64, so word
/// `i` of any two of them (of any 64 in a row) maps to different sets of
/// the default 64-set L1 geometry. Arrays indexed by the same vertex id
/// (`value[v]`, `lock[v]`) would otherwise always share a set and a vertex
/// would cost two of its ways — what page-aligned arrays do every 4 KiB on
/// a real 64-set L1.
///
/// One region per layout may be *paired*
/// ([`alloc_paired`](Self::alloc_paired)): it holds `{lock[v], value[v]}`
/// side by side, so the vertex is one line, and it is coloured as the one
/// region it is.
#[derive(Debug, Default)]
pub struct MemoryLayout {
    cursor: u64,
    /// Coloured (large) regions allocated so far.
    coloured: u64,
    regions: Vec<(String, MemRegion)>,
    /// The lock slots of the paired region, if one was allocated.
    paired_locks: Option<MemRegion<2>>,
}

/// Sets of the default L1 geometry (32 KB / 8-way / 64-byte lines): the
/// modulus the large regions of a [`MemoryLayout`] are staggered over.
const COLOUR_SETS: u64 = 64;

/// Line offset (mod `COLOUR_SETS`) of the `k`-th coloured region: the
/// bit-reversal of `k` — distinct for any `COLOUR_SETS` consecutive regions
/// and as far apart as possible for the first few.
#[inline]
fn colour(k: u64) -> u64 {
    let bits = COLOUR_SETS.trailing_zeros();
    (k % COLOUR_SETS).reverse_bits() >> (u64::BITS - bits)
}

impl MemoryLayout {
    /// Start an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` words under `name`, returning the region handle.
    pub fn alloc(&mut self, name: &str, len: u64) -> MemRegion {
        let lpw = WORDS_PER_LINE as u64;
        if len.div_ceil(lpw) >= COLOUR_SETS {
            // Skip (at most COLOUR_SETS - 1 lines) to this region's colour.
            let line = self.cursor / lpw;
            let skip = colour(self.coloured).wrapping_sub(line) % COLOUR_SETS;
            self.cursor += skip * lpw;
            self.coloured += 1;
        }
        let region = MemRegion {
            base: self.cursor,
            len,
        };
        self.regions.push((name.to_string(), region));
        // Advance to the next line boundary.
        self.cursor = (self.cursor + len).div_ceil(lpw) * lpw;
        region
    }

    /// Allocate `len` vertex values paired with the vertex lock words:
    /// `{lock[v], value[v]}` in two adjacent words, four vertices per line.
    /// Returns the value slots; the lock slots are
    /// [`paired_locks`](Self::paired_locks), where the transactional system
    /// takes its lock words from instead of allocating a region of its own.
    ///
    /// # Panics
    /// If the layout already holds a paired region: a vertex has one lock
    /// word.
    pub fn alloc_paired(&mut self, name: &str, len: u64) -> MemRegion<2> {
        assert!(
            self.paired_locks.is_none(),
            "a layout holds at most one paired region (a vertex has one lock word)"
        );
        let base = self.alloc(name, 2 * len).base;
        self.paired_locks = Some(MemRegion { base, len });
        MemRegion {
            base: base + 1,
            len,
        }
    }

    /// The lock slots of the [paired](Self::alloc_paired) region, if any.
    pub fn paired_locks(&self) -> Option<MemRegion<2>> {
        self.paired_locks
    }

    /// Total words allocated so far (rounded up to whole lines).
    pub fn total_words(&self) -> u64 {
        self.cursor
    }

    /// The named regions allocated so far, in allocation order.
    pub fn regions(&self) -> &[(String, MemRegion)] {
        &self.regions
    }
}

/// The shared transactional heap.
///
/// Holds the data words, one metadata word (versioned lock, see
/// [`crate::meta`]) per cache line, and the global version clock. All
/// access — transactional via [`HtmCtx`](crate::HtmCtx) *and*
/// non-transactional via the `*_direct` methods here — is arbitrated through
/// the line metadata. That arbitration is what gives the emulation real
/// HTM's *strong isolation*: a direct store publishes a new line version, so
/// any in-flight transaction that read the line aborts at its next access or
/// at commit.
pub struct TxMemory {
    words: Box<[AtomicU64]>,
    line_meta: Box<[AtomicU64]>,
    clock: AtomicU64,
    /// The ids of the live HTM contexts on this memory (its line-lock
    /// owners besides [`DIRECT_OWNER`]): leased by
    /// [`HtmRuntime`](crate::HtmRuntime), given back when a context drops.
    pub(crate) ctx_ids: IdLeases,
}

/// Line-lock owner id of every locker outside an HTM context: the direct
/// (non-transactional) accessors here and the schedulers' software commit
/// batches. Distinct from every context id.
pub const DIRECT_OWNER: u32 = meta::MAX_OWNER;

/// A snapshot of one line's versioned lock (advanced API; see
/// [`TxMemory::line_state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    /// Unlocked; last published at `version`.
    Unlocked {
        /// Global-clock value at last publication.
        version: u64,
    },
    /// Write-locked by a committing transaction or direct accessor.
    Locked {
        /// The holder's context id.
        owner: u32,
    },
}

impl TxMemory {
    /// Build a zero-initialised memory covering `layout`.
    pub fn new(layout: &MemoryLayout) -> Self {
        Self::with_words(layout.total_words())
    }

    /// Build a zero-initialised memory of exactly `words` words.
    pub fn with_words(words: u64) -> Self {
        let words = words.max(1) as usize;
        let lines = words.div_ceil(WORDS_PER_LINE);
        TxMemory {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            line_meta: (0..lines)
                .map(|_| AtomicU64::new(meta::unlocked(0)))
                .collect(),
            clock: AtomicU64::new(0),
            ctx_ids: IdLeases::new(DIRECT_OWNER as usize),
        }
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory is empty (never true in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Current value of the global version clock.
    #[inline]
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Advance the global clock, returning the new (unique) timestamp.
    #[inline]
    pub(crate) fn clock_tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    #[inline]
    pub(crate) fn word(&self, addr: Addr) -> &AtomicU64 {
        &self.words[addr.0 as usize]
    }

    #[inline]
    pub(crate) fn line(&self, line: u64) -> &AtomicU64 {
        &self.line_meta[line as usize]
    }

    /// Observe a line's versioned-lock state.
    ///
    /// Advanced API for protocols layered over this memory (see
    /// `tufast-txn`'s committed reads); normal users go through
    /// [`HtmCtx`](crate::HtmCtx) or the `*_direct` methods.
    #[inline]
    pub fn line_state(&self, line: u64) -> LineState {
        let m = self.line(line).load(Ordering::Acquire);
        if meta::is_locked(m) {
            LineState::Locked {
                owner: meta::owner(m),
            }
        } else {
            LineState::Unlocked {
                version: meta::version(m),
            }
        }
    }

    /// Current global version clock (advanced API).
    #[inline]
    pub fn clock_now_pub(&self) -> u64 {
        self.clock_now()
    }

    /// Advance the global clock, returning a fresh timestamp (advanced API).
    #[inline]
    pub fn clock_tick_pub(&self) -> u64 {
        self.clock_tick()
    }

    /// Store to a word whose line the caller currently holds locked via
    /// [`try_lock_lines`](Self::try_lock_lines) or
    /// [`lock_lines`](Self::lock_lines). Storing without the lock is
    /// memory-safe but breaks the isolation protocol.
    #[inline]
    pub fn store_locked(&self, addr: Addr, val: u64) {
        debug_assert!(
            matches!(self.line_state(addr.line()), LineState::Locked { .. }),
            "store_locked without holding the line lock"
        );
        self.word(addr).store(val, Ordering::Release);
    }

    /// Try to write-lock `line` for context `owner`; returns the pre-lock
    /// version on success, `None` when the line is locked by another owner.
    #[inline]
    pub(crate) fn try_lock_line(&self, line: u64, owner: u32) -> Result<u64, u64> {
        let m = self.line(line);
        let cur = m.load(Ordering::Acquire);
        if meta::is_locked(cur) {
            return Err(cur);
        }
        let ver = meta::version(cur);
        match m.compare_exchange(
            cur,
            meta::locked(ver, owner),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(ver),
            Err(observed) => Err(observed),
        }
    }

    /// Unlock `line`, publishing `new_version`.
    #[inline]
    pub(crate) fn unlock_line(&self, line: u64, new_version: u64) {
        self.line(line)
            .store(meta::unlocked(new_version), Ordering::Release);
    }

    /// Spin until `line` is locked by `owner`. Used by the direct path,
    /// which must always succeed (it models a plain coherence-arbitrated
    /// store and can never "abort").
    #[inline]
    pub(crate) fn lock_line_spin(&self, line: u64, owner: u32) -> u64 {
        let mut spins = 0u32;
        loop {
            match self.try_lock_line(line, owner) {
                Ok(ver) => return ver,
                Err(_) => {
                    spins += 1;
                    if spins > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Non-transactional load. Single-word loads are naturally atomic.
    #[inline]
    pub fn load_direct(&self, addr: Addr) -> u64 {
        self.word(addr).load(Ordering::Acquire)
    }

    /// Non-transactional store with strong isolation: the line is briefly
    /// locked and republished at a fresh version so concurrent transactions
    /// observe the conflict, exactly as a plain store on TSX hardware would
    /// abort transactions holding the line.
    pub fn store_direct(&self, addr: Addr, val: u64) {
        let line = addr.line();
        self.lock_line_spin(line, DIRECT_OWNER);
        self.word(addr).store(val, Ordering::Release);
        self.unlock_line(line, self.clock_tick());
    }

    /// Non-transactional compare-and-swap with strong isolation. On success
    /// returns `Ok(previous)` and publishes a new line version; on failure
    /// returns `Err(observed)` and leaves the version untouched (a failed
    /// CAS performs no store).
    pub fn cas_direct(&self, addr: Addr, expected: u64, new: u64) -> Result<u64, u64> {
        let line = addr.line();
        let old_ver = self.lock_line_spin(line, DIRECT_OWNER);
        let cur = self.word(addr).load(Ordering::Acquire);
        if cur == expected {
            self.word(addr).store(new, Ordering::Release);
            self.unlock_line(line, self.clock_tick());
            Ok(cur)
        } else {
            self.unlock_line(line, old_ver);
            Err(cur)
        }
    }

    /// Non-transactional read-modify-write with strong isolation. `f`
    /// returns `Some(new)` to store or `None` to leave the word unchanged;
    /// the pre-image is returned either way.
    pub fn rmw_direct(&self, addr: Addr, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        let line = addr.line();
        let old_ver = self.lock_line_spin(line, DIRECT_OWNER);
        let cur = self.word(addr).load(Ordering::Acquire);
        match f(cur) {
            Some(new) => {
                self.word(addr).store(new, Ordering::Release);
                self.unlock_line(line, self.clock_tick());
            }
            None => self.unlock_line(line, old_ver),
        }
        cur
    }

    /// Non-transactional atomic add, returning the pre-image.
    pub fn fetch_add_direct(&self, addr: Addr, delta: u64) -> u64 {
        self.rmw_direct(addr, |v| Some(v.wrapping_add(delta)))
    }

    /// Bulk non-transactional fill of a region with `val`: one publish, as
    /// [`fill_region_with`](Self::fill_region_with).
    pub fn fill_region<const STRIDE: u64>(&self, region: &MemRegion<STRIDE>, val: u64) {
        self.fill_region_with(region, |_| val);
    }

    /// Store `word(i)` into element `i` of `region`, for every element, in
    /// one publish: lock the region's lines (ascending), store
    /// each element, mint one clock tick and unlock every line at it — the
    /// [`LineBatch`] publish of every committer. Strongly isolated like
    /// [`store_direct`](Self::store_direct), at one tick and one line CAS
    /// per line instead of a tick and a CAS per word; a reader pinned
    /// before the publish finds each line locked or stamped above its pin.
    ///
    /// `word` is called once per element, in index order, while the lines
    /// are held: it must not touch this memory. Other words of the lines
    /// (a paired region's lock words) keep their values. If `word` panics,
    /// the elements stored so far are published at a fresh tick.
    pub fn fill_region_with<const STRIDE: u64>(
        &self,
        region: &MemRegion<STRIDE>,
        mut word: impl FnMut(u64) -> u64,
    ) {
        if region.is_empty() {
            return;
        }
        // The lines from the first element's to the last's, ascending: at a
        // stride of at most a line, each holds an element.
        let lines = region.base().line()..=region.addr(region.len() - 1).line();
        let mut batch = LineBatch::with_capacity(lines.clone().count());
        for line in lines {
            batch.push(line);
        }
        self.lock_lines(&mut batch);
        let held = Publish { mem: self, batch };
        for (i, addr) in (0..).zip(region.iter()) {
            self.word(addr).store(word(i), Ordering::Release);
        }
        drop(held);
    }

    /// Snapshot a region into a `Vec` (sequential contexts only — values
    /// from concurrently-committing transactions may be torn *across* words,
    /// never within one).
    pub fn snapshot_region<const STRIDE: u64>(&self, region: &MemRegion<STRIDE>) -> Vec<u64> {
        region.iter().map(|a| self.load_direct(a)).collect()
    }
}

/// The held lines of a [`TxMemory::fill_region_with`]: dropped — after the
/// last store, or while a panic unwinds — it mints one tick and unlocks
/// every line at it.
struct Publish<'a> {
    mem: &'a TxMemory,
    batch: LineBatch,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let ticket = self.mem.clock_tick();
        self.mem.unlock_lines(&mut self.batch, Some(ticket));
    }
}

impl std::fmt::Debug for TxMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxMemory")
            .field("words", &self.words.len())
            .field("lines", &self.line_meta.len())
            .field("clock", &self.clock_now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_aligns_regions_to_lines() {
        let mut l = MemoryLayout::new();
        let a = l.alloc("a", 3);
        let b = l.alloc("b", 10);
        let c = l.alloc("c", 1);
        assert_eq!(a.base().0, 0);
        assert_eq!(b.base().0, 8); // 3 rounds up to one line
        assert_eq!(c.base().0, 24); // 10 rounds up to two lines
        assert_ne!(a.addr(2).line(), b.addr(0).line());
        assert_eq!(l.total_words(), 32);
    }

    /// Set of the default L1 geometry that word `i` of `r` maps to.
    fn set_of(r: &MemRegion, i: u64) -> u64 {
        r.addr(i).line() % COLOUR_SETS
    }

    #[test]
    fn large_regions_are_staggered_across_sets() {
        assert_eq!(
            COLOUR_SETS as usize,
            crate::HtmConfig::default().num_sets(),
            "the colouring modulus is the default geometry's set count"
        );
        let colours: Vec<u64> = (0..8).map(colour).collect();
        assert_eq!(colours, [0, 32, 16, 48, 8, 40, 24, 56]);
        let mut seen: Vec<u64> = (0..COLOUR_SETS).map(colour).collect();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..COLOUR_SETS), "a permutation");

        // 64 lines is large; one line less is not. Small regions in between
        // neither take a colour nor disturb the next large one's.
        let lpw = WORDS_PER_LINE as u64;
        let mut l = MemoryLayout::new();
        let a = l.alloc("a", 1000 * lpw);
        let flag = l.alloc("flag", 1);
        let b = l.alloc("b", COLOUR_SETS * lpw);
        let small = l.alloc("small", COLOUR_SETS * lpw - lpw);
        let c = l.alloc("c", 1000 * lpw + 3);
        assert_eq!(a.base().0, 0);
        assert_eq!(flag.base().line(), 1000, "1-line regions are packed");
        assert_eq!(small.base().line(), b.base().line() + COLOUR_SETS);
        assert_eq!(
            [set_of(&a, 0), set_of(&b, 0), set_of(&c, 0)],
            [0, 32, 16],
            "k-th large region starts bitrev(k) lines past a 64-line boundary"
        );
        for (prev_end, next) in [
            (flag.base().line() + 1, &b),
            (small.addr(0).line() + 63, &c),
        ] {
            let pad = next.base().line() - prev_end;
            assert!(pad < COLOUR_SETS, "{pad} lines of padding (4 KiB is 64)");
        }
        for i in (0..COLOUR_SETS * lpw).step_by(7) {
            assert_ne!(set_of(&a, i), set_of(&b, i));
            assert_ne!(set_of(&a, i), set_of(&c, i));
            assert_ne!(set_of(&b, i), set_of(&c, i));
        }
        assert_eq!(l.total_words(), (c.base().0 + c.len()).div_ceil(lpw) * lpw);
    }

    #[test]
    fn a_paired_region_interleaves_values_with_lock_slots() {
        let mut l = MemoryLayout::new();
        assert_eq!(l.paired_locks(), None);
        l.alloc("flag", 3);
        let values = l.alloc_paired("values", 5);
        let locks = l.paired_locks().expect("the lock slots are recorded");
        assert_eq!((values.len(), locks.len()), (5, 5));
        assert_eq!(locks.base().0, 8, "line-aligned like any region");
        for v in 0..5 {
            assert_eq!(values.addr(v).0, locks.addr(v).0 + 1);
            assert_eq!(values.addr(v).line(), locks.addr(v).line());
        }
        assert_eq!(l.total_words(), 24, "10 words round up to two lines");
        assert_eq!(l.regions()[1].1.len(), 10, "one region of both halves");
    }

    #[test]
    fn iter_and_end_walk_a_stride_two_region_at_its_stride() {
        let mut l = MemoryLayout::new();
        let values = l.alloc_paired("values", 5);
        let locks = l.paired_locks().unwrap();
        let words = |r: &MemRegion<2>| r.iter().map(|a| a.0).collect::<Vec<_>>();
        assert_eq!(words(&values), [1, 3, 5, 7, 9]);
        assert_eq!(words(&locks), [0, 2, 4, 6, 8]);
        assert_eq!((values.end(), locks.end()), (Addr(10), Addr(9)));
        for r in [values, locks] {
            assert!(r.iter().all(|a| (r.base()..r.end()).contains(&a)));
        }
        let empty = MemoryLayout::new().alloc_paired("none", 0);
        assert_eq!((empty.iter().count(), empty.end()), (0, empty.base()));
        // Stride 1 is what it always was.
        let flat = l.alloc("flat", 3);
        assert!(flat.iter().eq((flat.base().0..flat.end().0).map(Addr)));
        assert_eq!(flat.end().0, flat.base().0 + 3);
    }

    #[test]
    fn fill_region_with_publishes_a_paired_region_at_one_tick() {
        let mut l = MemoryLayout::new();
        let before = l.alloc("before", 8);
        let values = l.alloc_paired("values", 20);
        let locks = l.paired_locks().unwrap();
        let after = l.alloc("after", 8);
        let mem = TxMemory::new(&l);
        for (i, addr) in (0..).zip(locks.iter()) {
            mem.store_direct(addr, 1000 + i);
        }
        mem.store_direct(before.addr(7), 5);
        mem.store_direct(after.addr(0), 6);
        let outside = [before.addr(0).line(), after.addr(0).line()];
        let untouched = outside.map(|line| mem.line_state(line));
        let pin = mem.clock_now();

        let mut called = Vec::new();
        mem.fill_region_with(&values, |i| {
            called.push(i);
            7 * i
        });

        let ticket = pin + 1;
        assert_eq!(mem.clock_now(), ticket, "one tick for the whole region");
        assert_eq!(called, (0..20).collect::<Vec<_>>(), "once each, in order");
        let lines = locks.base().line()..=values.addr(19).line();
        assert_eq!(lines.clone().count(), 5, "40 words, five lines");
        for line in lines {
            assert_eq!(
                mem.line_state(line),
                LineState::Unlocked { version: ticket },
                "line {line}: stamped at the ticket, above a pin taken before"
            );
        }
        for i in 0..20 {
            assert_eq!(mem.load_direct(values.addr(i)), 7 * i);
            assert_eq!(mem.load_direct(locks.addr(i)), 1000 + i, "lock word {i}");
        }
        assert_eq!(outside.map(|line| mem.line_state(line)), untouched);
        assert_eq!(
            (
                mem.load_direct(before.addr(7)),
                mem.load_direct(after.addr(0))
            ),
            (5, 6)
        );

        // A fill is the same publish; an empty region publishes nothing.
        mem.fill_region(&values, 3);
        assert_eq!(mem.clock_now(), ticket + 1);
        assert!(values.iter().all(|a| mem.load_direct(a) == 3));
        let empty = MemoryLayout::new().alloc_paired("none", 0);
        mem.fill_region_with(&empty, |_| unreachable!("no element"));
        assert_eq!(mem.clock_now(), ticket + 1);
    }

    #[test]
    fn a_panicking_fill_publishes_what_it_stored_and_holds_no_line() {
        let mut l = MemoryLayout::new();
        let values = l.alloc("values", 24);
        let mem = TxMemory::new(&l);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mem.fill_region_with(&values, |i| if i < 10 { i + 1 } else { panic!("at {i}") });
        }));
        assert!(caught.is_err());
        assert_eq!(mem.clock_now(), 1);
        for line in 0..3 {
            assert_eq!(mem.line_state(line), LineState::Unlocked { version: 1 });
        }
        let stored: Vec<u64> = values.iter().map(|a| mem.load_direct(a)).collect();
        assert_eq!(stored[..10], (1..=10).collect::<Vec<_>>()[..]);
        assert!(stored[10..].iter().all(|&w| w == 0));
        mem.store_direct(values.addr(20), 9); // would spin on a held line
    }

    #[test]
    fn direct_store_bumps_line_version() {
        let mem = TxMemory::with_words(64);
        let before = mem.clock_now();
        mem.store_direct(Addr(0), 7);
        assert_eq!(mem.load_direct(Addr(0)), 7);
        assert!(mem.clock_now() > before);
    }

    #[test]
    fn cas_direct_success_and_failure() {
        let mem = TxMemory::with_words(8);
        assert_eq!(mem.cas_direct(Addr(3), 0, 5), Ok(0));
        assert_eq!(mem.cas_direct(Addr(3), 0, 9), Err(5));
        assert_eq!(mem.load_direct(Addr(3)), 5);
    }

    #[test]
    fn failed_cas_does_not_bump_version() {
        let mem = TxMemory::with_words(8);
        mem.store_direct(Addr(0), 1);
        let clock = mem.clock_now();
        let _ = mem.cas_direct(Addr(0), 42, 43);
        assert_eq!(mem.clock_now(), clock);
    }

    #[test]
    fn rmw_none_leaves_word_and_version() {
        let mem = TxMemory::with_words(8);
        mem.store_direct(Addr(1), 10);
        let clock = mem.clock_now();
        let pre = mem.rmw_direct(Addr(1), |_| None);
        assert_eq!(pre, 10);
        assert_eq!(mem.load_direct(Addr(1)), 10);
        assert_eq!(mem.clock_now(), clock);
    }

    #[test]
    fn fetch_add_accumulates() {
        let mem = TxMemory::with_words(8);
        assert_eq!(mem.fetch_add_direct(Addr(2), 5), 0);
        assert_eq!(mem.fetch_add_direct(Addr(2), 7), 5);
        assert_eq!(mem.load_direct(Addr(2)), 12);
    }

    #[test]
    fn concurrent_direct_increments_do_not_lose_updates() {
        let mem = std::sync::Arc::new(TxMemory::with_words(8));
        let threads = 8;
        let per = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let mem = std::sync::Arc::clone(&mem);
                s.spawn(move || {
                    for _ in 0..per {
                        mem.fetch_add_direct(Addr(0), 1);
                    }
                });
            }
        });
        assert_eq!(mem.load_direct(Addr(0)), threads * per);
    }
}
