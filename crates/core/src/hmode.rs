//! H mode: the whole transaction inside one hardware transaction, with
//! per-vertex lock subscription (paper Algorithm 1).
//!
//! On the first touch of a vertex the lock word is read *transactionally*
//! (subscription): if the vertex is write-locked — or locked at all, for a
//! write — the transaction aborts explicitly (an L/O-mode transaction owns
//! it). Because the lock word is in the HTM read set, any later lock
//! acquisition invalidates this transaction at commit, exactly like the
//! cache-line invalidation real TSX relies on for lock elision.
//!
//! For every vertex it writes, H mode also *bumps the vertex's commit
//! version transactionally*, so optimistic validators (O mode, OCC) observe
//! H-mode commits without H ever taking a lock.
//!
//! A vertex's lock word is read once per attempt, and with its value in
//! one bracket when paired: where the lock word shares the value's cache
//! line ([`MemoryLayout::alloc_paired`](tufast_htm::MemoryLayout::alloc_paired)),
//! the vertex's first read is one [`HtmCtx::read_line`] of both words, as
//! RTM's second load of a line is an L1 hit. Writing a vertex the attempt
//! already read tests and bumps the word `subscribe_read` kept, as RTM
//! would reload a read-set line from L1. If another thread changed
//! the word meanwhile the attempt is already doomed: its line stays in the
//! footprint at the version first read, so the next snapshot extension or
//! the commit validation aborts it.

use tufast_htm::{AbortCode, Addr, HtmCtx, IdTable};
use tufast_txn::{
    hardware_attempt, HtmBodyOps, Lifecycle, LockWord, ObsHandle, TxInterrupt, TxnOps, TxnSystem,
    Verdict,
};

use crate::VertexId;

/// `XABORT` code raised when a subscribed vertex lock is busy.
pub(crate) const ABORT_LOCK_BUSY: u8 = 0xB0;

/// Vertex-table value of a vertex whose commit version this attempt has
/// bumped; any other value is the lock word its first read loaded. A
/// word H mode subscribed never has a writer, and this one's writer field
/// is all ones, so the two never collide.
const BUMPED: u64 = u64::MAX;

/// Result of one H-mode attempt.
pub(crate) struct HAttempt {
    /// How the attempt ended; `Err` is an HTM abort (subscription failures
    /// arrive as `Explicit(ABORT_LOCK_BUSY)`). Nothing speculative survives
    /// any ending but `Committed`.
    pub(crate) end: Result<Verdict, AbortCode>,
    /// Operations the body performed.
    pub(crate) ops: u64,
}

/// Transactional ops for one H-mode attempt.
pub(crate) struct HModeOps<'a> {
    ctx: &'a mut HtmCtx,
    sys: &'a TxnSystem,
    sched: &'a mut tufast_txn::SchedStats,
    /// The vertices whose lock word this attempt subscribed (it is in the
    /// HTM read set), each with the word loaded or [`BUMPED`].
    seen: &'a mut IdTable,
    last_abort: Option<AbortCode>,
    ops: u64,
}

// tufast-lint: htm-scope
impl<'a> HModeOps<'a> {
    fn new(
        ctx: &'a mut HtmCtx,
        sys: &'a TxnSystem,
        sched: &'a mut tufast_txn::SchedStats,
        seen: &'a mut IdTable,
    ) -> Self {
        seen.clear();
        HModeOps {
            ctx,
            sys,
            sched,
            seen,
            last_abort: None,
            ops: 0,
        }
    }

    #[inline]
    fn fail(&mut self, code: AbortCode) -> TxInterrupt {
        self.last_abort = Some(code);
        TxInterrupt::Restart
    }

    /// Subscribe vertex `key` for reading on the lock word `lw` its first
    /// read loaded: abort if write-locked, else keep the word. Every
    /// failure in either subscription ends the attempt, and the next one
    /// starts from a cleared table.
    fn subscribe_read(&mut self, key: u64, lw: LockWord) -> Result<(), TxInterrupt> {
        if lw.writer().is_some() {
            let code = self.ctx.abort_explicit(ABORT_LOCK_BUSY);
            return Err(self.fail(code));
        }
        // tufast-lint: allow(htm-hazard) -- the vertex table reallocates only past its high-water mark; on real RTM that would merely abort this attempt, which the H retry ladder absorbs
        self.seen.insert(key, lw.0);
        Ok(())
    }

    /// Prepare `v` for writing: abort unless completely unlocked, then bump
    /// its commit version inside the transaction. A vertex already read is
    /// tested on the word its subscription loaded.
    fn subscribe_write(&mut self, v: VertexId) -> Result<(), TxInterrupt> {
        // tufast-lint: allow(htm-hazard) -- see subscribe_read: growth past the high-water mark aborts the attempt, it cannot corrupt it
        let (word, fresh) = self.seen.entry(u64::from(v), BUMPED);
        let loaded = std::mem::replace(word, BUMPED);
        if !fresh && loaded == BUMPED {
            return Ok(());
        }
        let addr = self.sys.locks().addr(v);
        let lw = if fresh {
            LockWord(self.ctx.read(addr).map_err(|c| self.fail(c))?)
        } else {
            LockWord(loaded)
        };
        if !lw.is_free() {
            let code = self.ctx.abort_explicit(ABORT_LOCK_BUSY);
            return Err(self.fail(code));
        }
        self.ctx
            .write(addr, lw.bumped().0)
            .map_err(|c| self.fail(c))
    }
}

// tufast-lint: htm-scope
impl TxnOps for HModeOps<'_> {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.ops += 1;
        self.sched.reads += 1;
        if !self.ctx.in_tx() {
            return Err(TxInterrupt::Restart);
        }
        let key = u64::from(v);
        if self.seen.get(key).is_none() {
            let lock = self.sys.locks().addr(v);
            if lock.line() == addr.line() {
                // Paired: the lock word and the value in one bracket.
                let [lw, val] = self.ctx.read_line([lock, addr]).map_err(|c| self.fail(c))?;
                self.subscribe_read(key, LockWord(lw))?;
                return Ok(val);
            }
            let lw = self.ctx.read(lock).map_err(|c| self.fail(c))?;
            self.subscribe_read(key, LockWord(lw))?;
        }
        self.ctx.read(addr).map_err(|c| self.fail(c))
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.ops += 1;
        self.sched.writes += 1;
        if !self.ctx.in_tx() {
            return Err(TxInterrupt::Restart);
        }
        self.subscribe_write(v)?;
        self.ctx.write(addr, val).map_err(|c| self.fail(c))
    }
}

impl HtmBodyOps for HModeOps<'_> {
    fn ctx(&mut self) -> &mut HtmCtx {
        self.ctx
    }

    fn last_abort(&self) -> Option<AbortCode> {
        self.last_abort
    }
}

/// Run one H-mode attempt of `body`; `vertices` is the worker's vertex
/// table, cleared here.
pub(crate) fn attempt(
    ctx: &mut HtmCtx,
    lc: &mut Lifecycle,
    vertices: &mut IdTable,
    body: &mut tufast_txn::TxnBody<'_>,
    obs: &ObsHandle,
) -> HAttempt {
    if ctx.begin().is_err() {
        return HAttempt {
            end: Err(AbortCode::Conflict),
            ops: 0,
        };
    }
    let mut ops = HModeOps::new(ctx, &lc.sys, &mut lc.stats, vertices);
    let end = hardware_attempt(&mut ops, lc.id, 0xB0, body, obs);
    HAttempt { end, ops: ops.ops }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast_htm::{HtmStats, MemoryLayout};

    fn setup(n_vertices: usize, words: u64) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", words);
        let sys = TxnSystem::with_defaults(n_vertices, layout);
        (sys, data)
    }

    /// A system of `n` vertices with one value each, in a region paired
    /// with the lock words or in one of its own, and the value's address.
    pub(crate) fn values(n: u32, paired: bool) -> (Arc<TxnSystem>, impl Fn(VertexId) -> Addr) {
        let mut layout = MemoryLayout::new();
        let value: Box<dyn Fn(VertexId) -> Addr> = if paired {
            let r = layout.alloc_paired("values", u64::from(n));
            Box::new(move |v| r.addr(u64::from(v)))
        } else {
            let r = layout.alloc("values", u64::from(n));
            Box::new(move |v| r.addr(u64::from(v)))
        };
        let sys = TxnSystem::with_defaults(n as usize, layout);
        assert_eq!(sys.locks().addr(0).line() == value(0).line(), paired);
        (sys, value)
    }

    /// Give vertices 0, 8, 16 and 24 (a line each, either way) the value
    /// `100 + v` and commit version 1.
    pub(crate) fn seed_values(sys: &TxnSystem, value: &impl Fn(VertexId) -> Addr) {
        for v in (0..32).step_by(8) {
            sys.locks().try_exclusive(sys.mem(), v, 9).unwrap();
            sys.mem().store_direct(value(v), 100 + u64::from(v));
            sys.locks().unlock_exclusive(sys.mem(), v, 9, true);
        }
    }

    /// The HTM counters of a run, less the line peak (a layout property).
    pub(crate) fn but_lines(stats: &HtmStats) -> HtmStats {
        HtmStats {
            max_lines: 0,
            ..stats.clone()
        }
    }

    /// Reads of three vertices, one of them twice, a write to one it read
    /// and one to a vertex it did not: what it read, the lock words after
    /// and the HTM counters, on either layout.
    fn paired_or_not(paired: bool) -> (Vec<u64>, Vec<LockWord>, HtmStats) {
        let (sys, value) = values(32, paired);
        seed_values(&sys, &value);
        let mut ctx = sys.htm_ctx();
        let mut seen = Vec::new();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            seen.clear();
            for v in [0, 8, 0, 16] {
                seen.push(ops.read(v, value(v))?);
            }
            ops.write(8, value(8), seen[0] + seen[1])?;
            ops.write(24, value(24), seen[3])
        });
        assert_eq!(out.end, Ok(Verdict::Committed));
        seen.push(sys.mem().load_direct(value(8)));
        let words = (0..32).step_by(8).map(|v| sys.locks().peek(sys.mem(), v));
        (seen, words.collect(), ctx.take_stats())
    }

    #[test]
    fn a_paired_vertex_read_counts_as_an_unpaired_one() {
        let (paired, unpaired) = (paired_or_not(true), paired_or_not(false));
        assert_eq!(paired.0, vec![100, 108, 100, 116, 208]);
        assert_eq!(
            paired.1,
            [1, 2, 1, 2].map(|version| LockWord(version << 32))
        );
        // Lock word and value of each first read (two reads counted per
        // bracket), the value of the second, the lock word of the vertex
        // first touched by a write; a lock word and a value per write.
        assert_eq!((paired.2.reads, paired.2.writes), (8, 4));
        assert_eq!(
            (&paired.0, &paired.1, but_lines(&paired.2)),
            (&unpaired.0, &unpaired.1, but_lines(&unpaired.2))
        );
        assert_eq!((paired.2.max_lines, unpaired.2.max_lines), (4, 8));
    }

    #[test]
    fn a_paired_write_locked_vertex_aborts_with_lock_busy() {
        let (sys, value) = values(4, true);
        sys.locks().try_exclusive(sys.mem(), 0, 77).unwrap();
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            ops.read(0, value(0))?;
            Ok(())
        });
        assert_eq!(out.end, Err(AbortCode::Explicit(ABORT_LOCK_BUSY)));
        assert_eq!((ctx.stats().aborts_explicit, ctx.stats().commits), (1, 0));
        // The lock word is subscribed with the value: the holder's release
        // lets the next attempt through.
        sys.locks().unlock_exclusive(sys.mem(), 0, 77, false);
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            ops.read(0, value(0))?;
            Ok(())
        });
        assert_eq!(out.end, Ok(Verdict::Committed));
    }

    /// Test shim: run an attempt with a throwaway lifecycle.
    fn attempt(
        ctx: &mut tufast_htm::HtmCtx,
        sys: &Arc<TxnSystem>,
        body: &mut tufast_txn::TxnBody<'_>,
    ) -> HAttempt {
        let mut lc = Lifecycle::new(sys);
        super::attempt(
            ctx,
            &mut lc,
            &mut IdTable::default(),
            body,
            &ObsHandle::none(),
        )
    }

    #[test]
    fn commit_bumps_written_vertex_versions_only() {
        let (sys, data) = setup(4, 32);
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            let x = ops.read(0, data.addr(0))?; // read vertex 0
            ops.write(1, data.addr(1), x + 7) // write vertex 1
        });
        assert_eq!((out.end, out.ops), (Ok(Verdict::Committed), 2));
        assert_eq!(sys.mem().load_direct(data.addr(1)), 7);
        assert_eq!(
            sys.locks().peek(sys.mem(), 0).version(),
            0,
            "read-only vertex unbumped"
        );
        assert_eq!(
            sys.locks().peek(sys.mem(), 1).version(),
            1,
            "written vertex bumped"
        );
    }

    #[test]
    fn write_locked_vertex_aborts_with_lock_busy() {
        let (sys, data) = setup(2, 16);
        sys.locks().try_exclusive(sys.mem(), 0, 77).unwrap();
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            ops.read(0, data.addr(0))?;
            Ok(())
        });
        assert_eq!(out.end, Err(AbortCode::Explicit(ABORT_LOCK_BUSY)));
    }

    #[test]
    fn read_locked_vertex_is_fine_for_reads_fatal_for_writes() {
        let (sys, data) = setup(2, 16);
        sys.locks().try_shared(sys.mem(), 0).unwrap();
        let mut ctx = sys.htm_ctx();
        // Reading a share-locked vertex is compatible.
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            ops.read(0, data.addr(0))?;
            Ok(())
        });
        assert_eq!(out.end, Ok(Verdict::Committed));
        // Writing it is not, read first or not: the write tests the word
        // the read loaded.
        let out = attempt(&mut ctx, &sys, &mut |ops| ops.write(0, data.addr(0), 1));
        assert_eq!(out.end, Err(AbortCode::Explicit(ABORT_LOCK_BUSY)));
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert_eq!(out.end, Err(AbortCode::Explicit(ABORT_LOCK_BUSY)));
    }

    #[test]
    fn a_vertex_read_then_written_loads_its_lock_word_once() {
        let k = 5u32;
        let (sys, data) = setup(k as usize, 64);
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            let mut xs = [0; 5];
            for v in 0..k {
                xs[v as usize] = ops.read(v, data.addr(u64::from(v) * 8))?;
            }
            for v in 0..k {
                ops.write(v, data.addr(u64::from(v) * 8), xs[v as usize] + 1)?;
            }
            Ok(())
        });
        assert_eq!(out.end, Ok(Verdict::Committed));
        // Lock word and value once each, read and written.
        let stats = ctx.stats();
        assert_eq!(
            (stats.reads, stats.writes),
            (2 * u64::from(k), 2 * u64::from(k))
        );
        for v in 0..k {
            assert_eq!(sys.mem().load_direct(data.addr(u64::from(v) * 8)), 1);
            assert_eq!(sys.locks().peek(sys.mem(), v), LockWord(1 << 32));
        }
    }

    #[test]
    fn a_write_on_a_word_loaded_before_a_foreign_commit_never_commits() {
        let (sys, data) = setup(2, 16);
        let mut ctx = sys.htm_ctx();
        let mut lc = Lifecycle::new(&sys);
        // One table across both attempts: the retry must not reuse the
        // stale word the first one loaded.
        let mut vertices = IdTable::default();
        let mut interfered = false;
        let body: &mut tufast_txn::TxnBody<'_> = &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            if !interfered {
                interfered = true;
                // An L-mode writer commits vertex 0 between the read and
                // the write.
                sys.locks().try_exclusive(sys.mem(), 0, 88).unwrap();
                sys.mem().store_direct(data.addr(0), 999);
                sys.locks().unlock_exclusive(sys.mem(), 0, 88, true);
            }
            ops.write(0, data.addr(0), x + 1)
        };
        let mut run = |body: &mut tufast_txn::TxnBody<'_>| {
            super::attempt(&mut ctx, &mut lc, &mut vertices, body, &ObsHandle::none()).end
        };
        assert!(run(body).is_err(), "the stale word must doom the attempt");
        assert_eq!(sys.mem().load_direct(data.addr(0)), 999);
        assert_eq!(sys.locks().peek(sys.mem(), 0), LockWord(1 << 32));
        assert_eq!(run(body), Ok(Verdict::Committed));
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1000);
        assert_eq!(sys.locks().peek(sys.mem(), 0), LockWord(2 << 32));
    }

    #[test]
    fn lock_acquired_after_subscription_dooms_commit() {
        let (sys, data) = setup(2, 16);
        let mut ctx = sys.htm_ctx();
        let mut poisoned = false;
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            ops.read(0, data.addr(0))?;
            if !poisoned {
                poisoned = true;
                // An L-mode transaction grabs the lock mid-flight.
                sys.locks().try_exclusive(sys.mem(), 0, 88).unwrap();
                sys.mem().store_direct(data.addr(0), 999);
                sys.locks().unlock_exclusive(sys.mem(), 0, 88, true);
            }
            // Touch something else so the attempt keeps going.
            ops.read(1, data.addr(8))?;
            Ok(())
        });
        assert!(out.end.is_err(), "stale subscription must doom the commit");
    }

    #[test]
    fn user_abort_discards_everything() {
        let (sys, data) = setup(1, 8);
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            ops.write(0, data.addr(0), 42)?;
            Err(ops.user_abort())
        });
        assert_eq!(out.end, Ok(Verdict::UserAbort));
        assert_eq!(sys.mem().load_direct(data.addr(0)), 0);
        assert_eq!(sys.locks().peek(sys.mem(), 0).version(), 0);
    }

    #[test]
    fn capacity_abort_reported_for_oversized_body() {
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 8 * 1024);
        let sys = TxnSystem::with_defaults(1, layout);
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, &mut |ops| {
            for i in 0..1024u64 {
                ops.read(0, big.addr(i * 8))?; // one word per line
            }
            Ok(())
        });
        assert_eq!(out.end, Err(AbortCode::Capacity));
    }

    #[test]
    fn concurrent_h_mode_counter_is_exact() {
        let (sys, data) = setup(1, 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sys = Arc::clone(&sys);
                s.spawn(move || {
                    let mut ctx = sys.htm_ctx();
                    let mut committed = 0;
                    while committed < 500 {
                        let out = attempt(&mut ctx, &sys, &mut |ops| {
                            let x = ops.read(0, data.addr(0))?;
                            ops.write(0, data.addr(0), x + 1)
                        });
                        if out.end == Ok(Verdict::Committed) {
                            committed += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(sys.mem().load_direct(data.addr(0)), 2000);
        assert_eq!(sys.locks().peek(sys.mem(), 0).version(), 2000);
    }
}
