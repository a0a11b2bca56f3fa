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
//! A vertex's lock word is read once per attempt. Writing a vertex the
//! attempt already read tests and bumps the word `subscribe_read` loaded,
//! as RTM would reload a read-set line from L1. If another thread changed
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
/// bumped; any other value is the lock word `subscribe_read` loaded. A
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

    /// Subscribe `v` for reading: abort if write-locked, else keep the
    /// word. Every failure in either subscription ends the attempt, and the
    /// next one starts from a cleared table.
    fn subscribe_read(&mut self, v: VertexId) -> Result<(), TxInterrupt> {
        let key = u64::from(v);
        if self.seen.get(key).is_some() {
            return Ok(());
        }
        let lw = LockWord(
            self.ctx
                .read(self.sys.locks().addr(v))
                .map_err(|c| self.fail(c))?,
        );
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
        self.subscribe_read(v)?;
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
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast_htm::MemoryLayout;

    fn setup(n_vertices: usize, words: u64) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", words);
        let sys = TxnSystem::with_defaults(n_vertices, layout);
        (sys, data)
    }

    /// Test shim: run an attempt with a throwaway lifecycle.
    fn attempt(
        ctx: &mut tufast_htm::HtmCtx,
        sys: &Arc<TxnSystem>,
        body: &mut tufast_txn::TxnBody<'_>,
    ) -> HAttempt {
        let mut lc = Lifecycle::new(sys, 0);
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
        let mut lc = Lifecycle::new(&sys, 0);
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
