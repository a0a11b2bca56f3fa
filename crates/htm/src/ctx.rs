//! The per-thread emulated-HTM transaction context.
//!
//! Protocol (TL2 with TinySTM-style snapshot extension):
//!
//! * `begin` records the global clock as the snapshot timestamp.
//! * `read` validates the line's versioned lock around the data load
//!   (`read_line`: around the loads of several words of one line); a
//!   newer version triggers a snapshot *extension* (revalidate the whole
//!   read set against the current clock) and only aborts if the read set was
//!   genuinely invalidated — matching real HTM, which aborts only when the
//!   transaction's own footprint is hit.
//! * `write` buffers into a write set (lazy versioning, like RTM's L1
//!   write-back buffering).
//! * `commit` locks the write lines in address order, revalidates the read
//!   set, publishes the buffered stores, and releases the lines at a fresh
//!   clock value — the transaction's atomic commit point (`XEND`).
//!
//! Capacity is charged per distinct line through [`L1Model`]; environmental
//! aborts come only from a configured [`AbortSource`], sampled per operation.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::abort::{AbortCode, HtmStateError};
use crate::batch::LineBatch;
use crate::config::{AbortSource, HtmConfig};
use crate::footprint::Footprint;
use crate::l1::L1Model;
use crate::memory::{Addr, TxMemory};
use crate::meta;
use crate::stats::HtmStats;
use crate::wordmap::WordMap;

/// Bounded spins when a commit finds a write line momentarily locked by
/// another committer before declaring a conflict.
const COMMIT_LOCK_SPINS: u32 = 64;
/// Bounded retries of the read snapshot loop before declaring a conflict.
const READ_RACE_RETRIES: u32 = 1024;

/// A per-thread emulated hardware-transaction context.
///
/// Mirrors the RTM programming model: [`begin`](Self::begin) ↔ `XBEGIN`,
/// [`commit`](Self::commit) ↔ `XEND`, [`abort_explicit`](Self::abort_explicit)
/// ↔ `XABORT imm8`. Any `Err(AbortCode)` from `read`/`write`/`commit` means
/// the transaction has already been rolled back (buffered writes discarded,
/// no locks held) — the caller decides whether to retry, exactly like an RTM
/// fallback handler.
///
/// Not `Sync`: one context per thread, handed out by
/// [`HtmRuntime::ctx`](crate::HtmRuntime::ctx).
pub struct HtmCtx {
    mem: Arc<TxMemory>,
    id: u32,
    source: Option<AbortSource>,
    /// Shared runtime switch: when false, `begin` refuses to start a
    /// transaction (models TSX being fused off / disabled by microcode).
    available: Arc<AtomicBool>,
    /// Monotone count of transactional reads+writes on this context,
    /// fed to the abort source (never reset, so injection points are a
    /// pure function of the context's lifetime op stream).
    op_seq: u64,
    max_nesting: u32,

    depth: u32,
    start_ts: u64,
    /// Clock value at which the last successful commit published (the
    /// commit's serialization ticket); see [`last_commit_ts`](Self::last_commit_ts).
    last_commit_ts: u64,
    footprint: Footprint,
    write_buf: WordMap,
    /// Commit scratch: the write lines, locked in address order.
    batch: LineBatch,
    l1: L1Model,
    stats: HtmStats,
}

impl HtmCtx {
    pub(crate) fn new(
        mem: Arc<TxMemory>,
        config: &HtmConfig,
        source: Option<AbortSource>,
        id: u32,
        available: Arc<AtomicBool>,
    ) -> Self {
        HtmCtx {
            l1: L1Model::new(config),
            mem,
            id,
            source,
            available,
            op_seq: 0,
            max_nesting: config.max_nesting,
            depth: 0,
            start_ts: 0,
            last_commit_ts: 0,
            footprint: Footprint::with_capacity(64),
            write_buf: WordMap::with_capacity(64),
            batch: LineBatch::with_capacity(64),
            stats: HtmStats::default(),
        }
    }

    /// This context's id, unique among the live contexts on its memory
    /// (also its line-lock owner id).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shared memory this context operates on.
    #[inline]
    pub fn memory(&self) -> &Arc<TxMemory> {
        &self.mem
    }

    /// Whether a transaction is active (`XTEST`).
    #[inline]
    pub fn in_tx(&self) -> bool {
        self.depth > 0
    }

    /// Distinct cache lines touched by the active transaction so far.
    #[inline]
    pub fn footprint_lines(&self) -> u32 {
        self.l1.lines()
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Take and reset the statistics.
    pub fn take_stats(&mut self) -> HtmStats {
        std::mem::take(&mut self.stats)
    }

    /// Start a transaction (`XBEGIN`). Nested begins are flattened into the
    /// outermost transaction, as on Intel hardware, up to the configured
    /// depth.
    pub fn begin(&mut self) -> Result<(), HtmStateError> {
        if self.depth > 0 {
            if self.depth >= self.max_nesting {
                return Err(HtmStateError::NestingOverflow);
            }
            self.depth += 1;
            return Ok(());
        }
        // Acquire pairs with the Release store in `set_htm_available`:
        // a begin that sees HTM enabled also sees the enabling thread's
        // prior writes.
        if !self.available.load(std::sync::atomic::Ordering::Acquire) {
            return Err(HtmStateError::Unavailable);
        }
        self.depth = 1;
        self.start_ts = self.mem.clock_now();
        self.stats.begins += 1;
        Ok(())
    }

    /// Transactionally read the word at `addr`.
    ///
    /// On `Err`, the transaction has been aborted and rolled back.
    ///
    /// # Panics
    /// If no transaction is active.
    pub fn read(&mut self, addr: Addr) -> Result<u64, AbortCode> {
        self.read_line([addr]).map(|[v]| v)
    }

    /// Transactionally read `N` words of one cache line under one bracket:
    /// one line-state load, the `N` word loads, one line-state reload, one
    /// footprint note and one capacity charge — what RTM pays for a line
    /// whose later words are L1 hits.
    ///
    /// Counted and sampled as `N` consecutive [`read`](Self::read)s: each
    /// word adds one to `stats.reads` and takes one roll of the abort
    /// source, the first before the bracket and the rest after it, where
    /// the separate reads would take theirs. When the write buffer holds
    /// any of the words, it is `N` separate reads.
    ///
    /// On `Err`, the transaction has been aborted and rolled back.
    ///
    /// # Panics
    /// If no transaction is active, or (debug builds) if the words do not
    /// share one line.
    pub fn read_line<const N: usize>(&mut self, addrs: [Addr; N]) -> Result<[u64; N], AbortCode> {
        const { assert!(N > 0, "read_line reads at least one word") };
        self.require_tx();
        let line = addrs[0].line();
        debug_assert!(
            addrs.iter().all(|a| a.line() == line),
            "read_line words span lines: {addrs:?}"
        );
        if !self.write_buf.is_empty() {
            let buffered = addrs.map(|a| self.write_buf.get(a));
            if buffered.iter().any(Option::is_some) {
                let mut vals = [0; N];
                for ((val, addr), hit) in vals.iter_mut().zip(addrs).zip(buffered) {
                    *val = match hit {
                        Some(v) => {
                            self.stats.reads += 1;
                            v
                        }
                        None => self.read(addr)?,
                    };
                }
                return Ok(vals);
            }
        }
        self.count_read()?;
        let vals = self.bracket(line, addrs)?;
        for _ in 1..N {
            self.count_read()?;
        }
        Ok(vals)
    }

    /// Count one transactional read and roll the abort source for it.
    #[inline]
    fn count_read(&mut self) -> Result<(), AbortCode> {
        self.stats.reads += 1;
        match self.roll_injected() {
            Some(code) => Err(self.abort_with(code)),
            None => Ok(()),
        }
    }

    /// Load `addrs` (all on `line`) between two loads of the line's state
    /// until both see it unlocked and equal at a version inside the
    /// snapshot, then note the line in the footprint.
    #[inline]
    fn bracket<const N: usize>(
        &mut self,
        line: u64,
        addrs: [Addr; N],
    ) -> Result<[u64; N], AbortCode> {
        let mut races = 0;
        loop {
            let m1 = self
                .mem
                .line(line)
                .load(std::sync::atomic::Ordering::Acquire);
            if meta::is_locked(m1) {
                // A committer or direct accessor holds the line: on hardware
                // this is a coherence conflict. (We never hold line locks
                // while executing, so the owner cannot be us.)
                races += 1;
                if races > READ_RACE_RETRIES {
                    return Err(self.abort_with(AbortCode::Conflict));
                }
                if races % 32 == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            let mem = &self.mem;
            let vals = addrs.map(|a| mem.word(a).load(std::sync::atomic::Ordering::Acquire));
            let m2 = self
                .mem
                .line(line)
                .load(std::sync::atomic::Ordering::Acquire);
            if m1 != m2 {
                races += 1;
                if races > READ_RACE_RETRIES {
                    return Err(self.abort_with(AbortCode::Conflict));
                }
                continue;
            }
            let ver = meta::version(m1);
            if ver > self.start_ts {
                // The line was published after our snapshot. Try to slide
                // the snapshot forward; abort only if our own read set was
                // invalidated (≙ real HTM's footprint-hit abort).
                if !self.extend_snapshot() {
                    return Err(self.abort_with(AbortCode::Conflict));
                }
                continue;
            }
            // Charge the capacity model once per distinct line (a line
            // already written is already resident).
            if self.footprint.note_read(line, ver) && !self.l1.touch_new_line(line) {
                return Err(self.abort_with(AbortCode::Capacity));
            }
            return Ok(vals);
        }
    }

    /// Transactionally write `val` to `addr` (buffered until commit).
    ///
    /// On `Err`, the transaction has been aborted and rolled back.
    ///
    /// # Panics
    /// If no transaction is active.
    pub fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCode> {
        self.require_tx();
        self.stats.writes += 1;
        if let Some(code) = self.roll_injected() {
            return Err(self.abort_with(code));
        }
        let line = addr.line();
        let m = self
            .mem
            .line(line)
            .load(std::sync::atomic::Ordering::Acquire);
        if meta::is_locked(m) {
            // Eager write-write conflict: another transaction is committing
            // this line right now.
            return Err(self.abort_with(AbortCode::Conflict));
        }
        self.write_buf.insert(addr, val);
        if self.footprint.note_write(line) && !self.l1.touch_new_line(line) {
            return Err(self.abort_with(AbortCode::Capacity));
        }
        Ok(())
    }

    /// Commit the transaction (`XEND`).
    ///
    /// On `Ok`, all buffered writes are atomically visible. On `Err`, the
    /// transaction aborted and nothing is visible.
    ///
    /// # Panics
    /// If no transaction is active.
    pub fn commit(&mut self) -> Result<(), AbortCode> {
        self.require_tx();
        if self.depth > 1 {
            // Inner commit of a flattened nest: nothing happens yet.
            self.depth -= 1;
            return Ok(());
        }
        if self.write_buf.is_empty() {
            // Read-only: per-read validation + extension already guarantee
            // the read set is a consistent snapshot at `start_ts`. The
            // current clock bounds every source writer's ticket from above
            // (each observed value was published at or before this point).
            self.last_commit_ts = self.mem.clock_now();
            self.stats.commits += 1;
            self.reset();
            return Ok(());
        }

        // Lock write lines in address order (no deadlock among committers).
        self.batch.clear();
        for line in self.footprint.writes() {
            self.batch.push(line);
        }
        if !self
            .mem
            .try_lock_lines(&mut self.batch, self.id, COMMIT_LOCK_SPINS)
        {
            return Err(self.abort_with(AbortCode::Conflict));
        }

        let commit_ts = self.mem.clock_tick();

        // Validate the read set: every line we read must still carry the
        // version we observed, and may be locked only by us.
        let (mem, id) = (&self.mem, self.id);
        let valid = self.footprint.reads().all(|(line, ver, _)| {
            let m = mem.line(line).load(std::sync::atomic::Ordering::Acquire);
            meta::version(m) == ver && (!meta::is_locked(m) || meta::owner(m) == id)
        });
        if !valid {
            self.mem.unlock_lines(&mut self.batch, None);
            return Err(self.abort_with(AbortCode::Conflict));
        }

        // Publish, then release at the commit timestamp.
        for (addr, val) in self.write_buf.iter() {
            self.mem
                .word(addr)
                .store(val, std::sync::atomic::Ordering::Release);
        }
        self.mem.unlock_lines(&mut self.batch, Some(commit_ts));
        self.last_commit_ts = commit_ts;
        self.stats.commits += 1;
        self.reset();
        Ok(())
    }

    /// Serialization ticket of the most recent successful [`commit`](Self::commit).
    ///
    /// For a writing transaction this is the unique clock value minted
    /// *while the write lines were locked* — conflicting commits hold
    /// disjoint critical sections, so tickets order conflicting writers
    /// correctly. For a read-only transaction it is the clock observed at
    /// the commit point, an upper bound usable with `<=` ordering against
    /// writer tickets. The history recorder in `tufast-check` uses these
    /// tickets to seed the direct-serialization-graph checker.
    #[inline]
    pub fn last_commit_ts(&self) -> u64 {
        self.last_commit_ts
    }

    /// Abort the transaction with an 8-bit user code (`XABORT imm8`).
    /// Returns the [`AbortCode::Explicit`] that a fallback handler would see.
    ///
    /// # Panics
    /// If no transaction is active.
    pub fn abort_explicit(&mut self, code: u8) -> AbortCode {
        self.require_tx();
        self.abort_with(AbortCode::Explicit(code))
    }

    /// Count the operation and sample the [`AbortSource`], if any.
    #[inline]
    fn roll_injected(&mut self) -> Option<AbortCode> {
        self.op_seq += 1;
        self.source.as_ref()?.sample(self.id, self.op_seq)
    }

    #[inline]
    fn require_tx(&self) {
        assert!(self.depth > 0, "{}", HtmStateError::NotInTransaction);
    }

    /// Record the abort, roll everything back, and hand the code back.
    fn abort_with(&mut self, code: AbortCode) -> AbortCode {
        self.stats.record_abort(code);
        self.reset();
        code
    }

    /// End the transaction. Every commit and abort comes here, and the
    /// line count only grows within a transaction, so this is where its
    /// peak is taken.
    fn reset(&mut self) {
        self.depth = 0;
        self.stats.max_lines = self.stats.max_lines.max(self.l1.lines());
        self.footprint.clear();
        self.write_buf.clear();
        self.l1.reset();
    }

    /// Revalidate the read set against the current clock; on success the
    /// snapshot moves forward and execution continues.
    fn extend_snapshot(&mut self) -> bool {
        let new_ts = self.mem.clock_now();
        let mem = &self.mem;
        let intact = self.footprint.reads().all(|(line, ver, _)| {
            let m = mem.line(line).load(std::sync::atomic::Ordering::Acquire);
            !meta::is_locked(m) && meta::version(m) == ver
        });
        if !intact {
            return false;
        }
        self.start_ts = new_ts;
        self.stats.extensions += 1;
        true
    }
}

impl std::fmt::Debug for HtmCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmCtx")
            .field("id", &self.id)
            .field("depth", &self.depth)
            .field("writes", &self.write_buf.len())
            .field("lines", &self.l1.lines())
            .finish()
    }
}

impl Drop for HtmCtx {
    /// Gives the context id back. A context holds no line lock between
    /// its calls, so no line still names it as owner.
    fn drop(&mut self) {
        self.mem.ctx_ids.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryLayout;
    use crate::runtime::HtmRuntime;

    fn runtime(words: u64) -> HtmRuntime {
        let mut layout = MemoryLayout::new();
        layout.alloc("test", words);
        HtmRuntime::new(layout, HtmConfig::default())
    }

    /// Run `body` in a retry loop until it commits.
    fn run_tx(ctx: &mut HtmCtx, mut body: impl FnMut(&mut HtmCtx) -> Result<(), AbortCode>) {
        loop {
            ctx.begin().unwrap();
            if body(ctx).is_ok() && ctx.commit().is_ok() {
                return;
            }
            debug_assert!(!ctx.in_tx());
        }
    }

    #[test]
    fn read_your_own_write() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        assert_eq!(ctx.read(Addr(0)).unwrap(), 0);
        ctx.write(Addr(0), 41).unwrap();
        assert_eq!(ctx.read(Addr(0)).unwrap(), 41);
        ctx.write(Addr(0), 42).unwrap();
        assert_eq!(ctx.read(Addr(0)).unwrap(), 42);
        ctx.commit().unwrap();
        assert_eq!(rt.memory().load_direct(Addr(0)), 42);
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        ctx.write(Addr(5), 99).unwrap();
        let code = ctx.abort_explicit(7);
        assert_eq!(code, AbortCode::Explicit(7));
        assert!(!ctx.in_tx());
        assert_eq!(rt.memory().load_direct(Addr(5)), 0);
        assert_eq!(ctx.stats().aborts_explicit, 1);
    }

    #[test]
    fn commit_is_atomic_with_respect_to_direct_reads() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        ctx.write(Addr(0), 1).unwrap();
        ctx.write(Addr(8), 1).unwrap(); // different line
                                        // Nothing visible before commit.
        assert_eq!(rt.memory().load_direct(Addr(0)), 0);
        assert_eq!(rt.memory().load_direct(Addr(8)), 0);
        ctx.commit().unwrap();
        assert_eq!(rt.memory().load_direct(Addr(0)), 1);
        assert_eq!(rt.memory().load_direct(Addr(8)), 1);
    }

    #[test]
    fn direct_store_aborts_reader_transaction() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        let _ = ctx.read(Addr(0)).unwrap();
        // Strong isolation: a plain store from "another core" invalidates us.
        rt.memory().store_direct(Addr(0), 123);
        // Either a later read of the same line notices...
        let r = ctx.read(Addr(0));
        if let Ok(v) = r {
            // ...or the commit validation must (value could not be stale).
            assert_eq!(v, 123, "read must never return a stale value silently");
            assert!(ctx.commit().is_err());
        } else {
            assert!(!ctx.in_tx());
        }
    }

    #[test]
    fn unrelated_commit_does_not_abort_via_extension() {
        let rt = runtime(128);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        let _ = ctx.read(Addr(0)).unwrap();
        // Another thread commits to a *different* line after our begin.
        rt.memory().store_direct(Addr(64), 5);
        // Reading the freshly-written line forces a snapshot extension, which
        // must succeed because our read set (line 0) is untouched.
        assert_eq!(ctx.read(Addr(64)).unwrap(), 5);
        assert!(ctx.commit().is_ok());
        assert_eq!(ctx.stats().extensions, 1);
    }

    #[test]
    fn capacity_abort_on_oversized_footprint() {
        let mut layout = MemoryLayout::new();
        layout.alloc("big", 64 * 1024);
        let rt = HtmRuntime::new(layout, HtmConfig::tiny_for_tests()); // 16 lines max
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        let mut aborted = None;
        for i in 0..32 {
            // One word per line: line i.
            match ctx.read(Addr(i * 8)) {
                Ok(_) => {}
                Err(code) => {
                    aborted = Some(code);
                    break;
                }
            }
        }
        assert_eq!(aborted, Some(AbortCode::Capacity));
        assert!(!AbortCode::Capacity.may_retry());
        assert_eq!(ctx.stats().aborts_capacity, 1);
    }

    #[test]
    fn capacity_counts_distinct_lines_once() {
        let mut layout = MemoryLayout::new();
        layout.alloc("big", 4096);
        let rt = HtmRuntime::new(layout, HtmConfig::tiny_for_tests());
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        // 100 accesses within a single line: no capacity pressure.
        for i in 0..100 {
            ctx.read(Addr(i % 8)).unwrap();
            ctx.write(Addr(i % 8), i).unwrap();
        }
        assert_eq!(ctx.footprint_lines(), 1);
        ctx.commit().unwrap();
    }

    #[test]
    fn flat_nesting_commits_once_at_outer_level() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        ctx.begin().unwrap(); // nested
        ctx.write(Addr(0), 7).unwrap();
        ctx.commit().unwrap(); // inner: publishes nothing
        assert!(ctx.in_tx());
        assert_eq!(rt.memory().load_direct(Addr(0)), 0);
        ctx.commit().unwrap(); // outer: publishes
        assert!(!ctx.in_tx());
        assert_eq!(rt.memory().load_direct(Addr(0)), 7);
    }

    #[test]
    fn nesting_overflow_is_reported() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        for _ in 0..7 {
            ctx.begin().unwrap();
        }
        assert_eq!(ctx.begin(), Err(HtmStateError::NestingOverflow));
    }

    #[test]
    #[should_panic(expected = "no active HTM transaction")]
    fn read_outside_transaction_panics() {
        let rt = runtime(64);
        let mut ctx = rt.ctx();
        let _ = ctx.read(Addr(0));
    }

    #[test]
    fn spurious_aborts_are_injected_at_configured_rate() {
        let mut layout = MemoryLayout::new();
        layout.alloc("w", 64);
        let config = HtmConfig {
            // A seeded hash of (context, op) aborts about half the ops.
            abort_source: Some(AbortSource::new(|id, seq| {
                let h =
                    ((u64::from(id) << 32) ^ seq ^ 0x7A5F_2019).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 63 == 1).then_some(AbortCode::Spurious)
            })),
            ..HtmConfig::default()
        };
        let rt = HtmRuntime::new(layout, config);
        let mut ctx = rt.ctx();
        let mut spurious = 0;
        for _ in 0..200 {
            ctx.begin().unwrap();
            match ctx.read(Addr(0)) {
                Ok(_) => {
                    let _ = ctx.commit();
                }
                Err(AbortCode::Spurious) => spurious += 1,
                Err(other) => panic!("unexpected abort {other}"),
            }
        }
        assert!(
            (50..150).contains(&spurious),
            "rate 0.5 gave {spurious}/200"
        );
    }

    #[test]
    fn abort_source_delivers_arbitrary_codes() {
        let mut layout = MemoryLayout::new();
        layout.alloc("w", 64);
        let config = HtmConfig {
            // Capacity abort on every context's 2nd transactional op.
            abort_source: Some(AbortSource::new(|_, seq| {
                (seq == 2).then_some(AbortCode::Capacity)
            })),
            ..HtmConfig::default()
        };
        let rt = HtmRuntime::new(layout, config);
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        ctx.read(Addr(0)).unwrap(); // op 1
        assert_eq!(ctx.read(Addr(8)), Err(AbortCode::Capacity)); // op 2
        assert!(!ctx.in_tx());
        assert_eq!(ctx.stats().aborts_capacity, 1);
        // Later ops are untouched: the transaction retries and commits.
        ctx.begin().unwrap();
        ctx.write(Addr(0), 5).unwrap();
        ctx.commit().unwrap();
        assert_eq!(rt.memory().load_direct(Addr(0)), 5);
    }

    #[test]
    fn a_line_read_samples_the_abort_source_like_separate_reads() {
        // Spurious aborts at ops 2, 5, 8, …: on the second word of the
        // first transaction, then on first words.
        let run = |fused: bool| {
            let mut layout = MemoryLayout::new();
            layout.alloc("w", 64);
            let config = HtmConfig {
                abort_source: Some(AbortSource::new(|_, seq| {
                    (seq % 3 == 2).then_some(AbortCode::Spurious)
                })),
                ..HtmConfig::default()
            };
            let rt = HtmRuntime::new(layout, config);
            rt.memory().store_direct(Addr(9), 5);
            let mut ctx = rt.ctx();
            let outcomes: Vec<_> = (0..12)
                .map(|_| {
                    ctx.begin().unwrap();
                    let got = if fused {
                        ctx.read_line([Addr(8), Addr(9)])
                    } else {
                        ctx.read(Addr(8)).and_then(|x| Ok([x, ctx.read(Addr(9))?]))
                    };
                    if got.is_ok() {
                        ctx.commit().unwrap();
                    }
                    got
                })
                .collect();
            (outcomes, ctx.take_stats())
        };
        let (outcomes, stats) = run(true);
        assert_eq!(outcomes[0], Err(AbortCode::Spurious));
        assert_eq!(outcomes[1], Ok([0, 5]));
        assert_eq!((stats.aborts_spurious, stats.max_lines), (6, 1));
        assert_eq!((outcomes, stats), run(false));
    }

    #[test]
    fn concurrent_counter_increments_are_serializable() {
        let rt = std::sync::Arc::new(runtime(64));
        let threads = 8;
        let per = 500;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let rt = std::sync::Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.ctx();
                    for _ in 0..per {
                        run_tx(&mut ctx, |c| {
                            let v = c.read(Addr(0))?;
                            c.write(Addr(0), v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(rt.memory().load_direct(Addr(0)), threads * per);
    }

    #[test]
    fn concurrent_multi_word_invariant_holds() {
        // Two words on different lines must always sum to zero: every
        // transaction adds +d to one and -d to the other.
        let rt = std::sync::Arc::new(runtime(128));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rt = std::sync::Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.ctx();
                    for i in 0..400 {
                        let d = (t * 31 + i) % 17 + 1;
                        run_tx(&mut ctx, |c| {
                            let a = c.read(Addr(0))?;
                            let b = c.read(Addr(64))?;
                            c.write(Addr(0), a.wrapping_add(d))?;
                            c.write(Addr(64), b.wrapping_sub(d))
                        });
                    }
                });
            }
            // A racing observer: any transactional snapshot must satisfy
            // the invariant.
            let rt2 = std::sync::Arc::clone(&rt);
            let stop = &stop;
            s.spawn(move || {
                let mut ctx = rt2.ctx();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    ctx.begin().unwrap();
                    let a = match ctx.read(Addr(0)) {
                        Ok(v) => v,
                        Err(_) => continue,
                    };
                    let b = match ctx.read(Addr(64)) {
                        Ok(v) => v,
                        Err(_) => continue,
                    };
                    if ctx.commit().is_ok() {
                        assert_eq!(a.wrapping_add(b), 0, "torn snapshot observed");
                    }
                }
            });
            // Let the writers finish, then stop the observer. The scope
            // joins writer threads automatically once `stop` flips.
            for _ in 0..4 {
                // writers joined by scope; nothing to do here
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let a = rt.memory().load_direct(Addr(0));
        let b = rt.memory().load_direct(Addr(64));
        assert_eq!(a.wrapping_add(b), 0);
    }
}
