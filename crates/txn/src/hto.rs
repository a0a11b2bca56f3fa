//! HTM-accelerated timestamp ordering (H-TO) — the paper's baseline from
//! its reference [10] (Leis et al., "Exploiting hardware transactional
//! memory in main-memory databases").
//!
//! Protocol: plain timestamp ordering, but the multi-word metadata
//! manoeuvres — `wts` check + `rts` claim + value read, and the commit's
//! check-publish-stamp sequence — run inside small hardware transactions,
//! making them atomic without latching. On HTM aborts (including capacity
//! overflow of large commits) the worker falls back to the lock-based TO
//! paths shared with [`TimestampOrdering`](crate::TimestampOrdering).
//!
//! The HTM commit also bumps each written vertex's lock-word version
//! *inside* the transaction, so the lock-free fallback readers (which
//! bracket their value load with the lock word's line version) and
//! optimistic validators observe HTM commits.

use std::sync::Arc;

use tufast_htm::{Addr, HtmCtx};

use crate::commit::WriteSet;
use crate::health::HealthHandle;
use crate::lifecycle::{execute_buffered, Buffered, Lifecycle};
use crate::locks::LockWord;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::to::{pack, to_commit_locked, to_read_fallback, unpack};
use crate::traits::{
    GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome, TxnWorker,
};
use crate::VertexId;

/// HTM attempts per accelerated operation before falling back.
const HTM_OP_RETRIES: u32 = 2;

/// The H-TO scheduler.
pub struct HTimestampOrdering {
    sys: Arc<TxnSystem>,
}

impl HTimestampOrdering {
    /// Create the scheduler over a shared system.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        HTimestampOrdering { sys }
    }
}

impl GraphScheduler for HTimestampOrdering {
    type Worker = HtoWorker;

    fn worker(&self) -> HtoWorker {
        let lc = Lifecycle::new(&self.sys);
        HtoWorker {
            ts: 0,
            ctx: self.sys.htm_ctx(),
            writes: WriteSet::new(lc.id),
            lc,
        }
    }

    fn name(&self) -> &'static str {
        "H-TO"
    }
}

/// Per-thread H-TO state.
pub struct HtoWorker {
    lc: Lifecycle,
    ctx: HtmCtx,
    ts: u32,
    writes: WriteSet,
}

/// Outcome of one HTM-accelerated attempt.
enum HtmTry<T> {
    Done(T),
    /// Timestamp rule violated — a genuine TO restart, not an HTM problem.
    TsViolation,
    /// HTM aborted or a lock was busy: use the fallback path.
    Fallback,
}

impl HtoWorker {
    /// `wts` check + `rts` claim + value read, atomically in one HTM txn.
    // tufast-lint: htm-scope
    fn htm_read(&mut self, v: VertexId, addr: Addr) -> HtmTry<u64> {
        let lock_addr = self.lc.sys.locks().addr(v);
        let ts_addr = self.lc.sys.to_ts_addr(v);
        if self.ctx.begin().is_err() {
            return HtmTry::Fallback;
        }
        // Subscribe the vertex lock; a held write lock means a lock-based
        // committer is mid-flight.
        let lw = match self.ctx.read(lock_addr) {
            Ok(w) => LockWord(w),
            Err(_) => return HtmTry::Fallback,
        };
        if lw.writer().is_some() {
            self.ctx.abort_explicit(0xA0);
            return HtmTry::Fallback;
        }
        let tsw = match self.ctx.read(ts_addr) {
            Ok(w) => w,
            Err(_) => return HtmTry::Fallback,
        };
        let (wts, rts) = unpack(tsw);
        if wts > self.ts {
            self.ctx.abort_explicit(0xA1);
            return HtmTry::TsViolation;
        }
        if rts < self.ts && self.ctx.write(ts_addr, pack(wts, self.ts)).is_err() {
            return HtmTry::Fallback;
        }
        let val = match self.ctx.read(addr) {
            Ok(v) => v,
            Err(_) => return HtmTry::Fallback,
        };
        match self.ctx.commit() {
            Ok(()) => HtmTry::Done(val),
            Err(_) => HtmTry::Fallback,
        }
    }

    /// Validate + publish + stamp, atomically in one HTM txn.
    // tufast-lint: htm-scope
    fn htm_commit(&mut self) -> HtmTry<()> {
        if self.ctx.begin().is_err() {
            return HtmTry::Fallback;
        }
        for &v in self.writes.vertices() {
            let lock_addr = self.lc.sys.locks().addr(v);
            let lw = match self.ctx.read(lock_addr) {
                Ok(w) => LockWord(w),
                Err(_) => return HtmTry::Fallback,
            };
            if !lw.is_free() {
                self.ctx.abort_explicit(0xA2);
                return HtmTry::Fallback;
            }
            let ts_addr = self.lc.sys.to_ts_addr(v);
            let tsw = match self.ctx.read(ts_addr) {
                Ok(w) => w,
                Err(_) => return HtmTry::Fallback,
            };
            let (wts, rts) = unpack(tsw);
            if wts > self.ts || rts > self.ts {
                self.ctx.abort_explicit(0xA3);
                return HtmTry::TsViolation;
            }
            // Stamp wts and bump the vertex version so lock-free readers
            // and validators see this commit.
            if self.ctx.write(ts_addr, pack(self.ts, rts)).is_err()
                || self.ctx.write(lock_addr, lw.bumped().0).is_err()
            {
                return HtmTry::Fallback;
            }
        }
        // Split borrows instead of collecting the write set into a Vec:
        // the allocation would abort a real HTM transaction mid-commit.
        let ctx = &mut self.ctx;
        for (addr, val) in self.writes.words().iter() {
            if ctx.write(addr, val).is_err() {
                return HtmTry::Fallback;
            }
        }
        match self.ctx.commit() {
            Ok(()) => HtmTry::Done(()),
            Err(_) => HtmTry::Fallback,
        }
    }
}

impl AsMut<Lifecycle> for HtoWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

impl Buffered for HtoWorker {
    fn begin_attempt(&mut self) {
        self.writes.clear();
        let ts = self.lc.sys.next_ts();
        assert!(ts < u64::from(u32::MAX), "H-TO timestamp space exhausted");
        self.ts = ts as u32;
    }

    fn try_commit(&mut self, obs: &ObsHandle) -> Result<(), TxInterrupt> {
        if self.writes.words().is_empty() {
            // Read-only: the current clock is an upper bound on every
            // writer this transaction observed.
            obs.commit_ticketed(self.lc.id, || self.lc.sys.mem().clock_now_pub());
            return Ok(());
        }
        for _ in 0..HTM_OP_RETRIES {
            match self.htm_commit() {
                HtmTry::Done(()) => {
                    // HTM-path ticket: the commit timestamp minted while the
                    // written lines were still locked inside the HTM commit.
                    obs.commit_ticketed(self.lc.id, || self.ctx.last_commit_ts());
                    return Ok(());
                }
                HtmTry::TsViolation => return Err(TxInterrupt::Restart),
                HtmTry::Fallback => {}
            }
        }
        to_commit_locked(&self.lc.sys, self.lc.id, self.ts, &mut self.writes, obs)
    }
}

impl TxnOps for HtoWorker {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.lc.stats.reads += 1;
        if let Some(val) = self.writes.words().get(addr) {
            return Ok(val);
        }
        for _ in 0..HTM_OP_RETRIES {
            match self.htm_read(v, addr) {
                HtmTry::Done(val) => return Ok(val),
                HtmTry::TsViolation => return Err(TxInterrupt::Restart),
                HtmTry::Fallback => {}
            }
        }
        to_read_fallback(&self.lc.sys, self.ts, v, addr)
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.lc.stats.writes += 1;
        let (wts, rts) = unpack(self.lc.sys.mem().load_direct(self.lc.sys.to_ts_addr(v)));
        if wts > self.ts || rts > self.ts {
            return Err(TxInterrupt::Restart);
        }
        self.writes.insert(v, addr, val);
        Ok(())
    }
}

impl TxnWorker for HtoWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        execute_buffered(self, hint, body)
    }

    fn stats(&self) -> &SchedStats {
        &self.lc.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.lc.stats)
    }

    fn htm_ops(&self) -> u64 {
        let h = self.ctx.stats();
        h.reads + h.writes
    }

    fn health(&self) -> Option<&HealthHandle> {
        Some(&self.lc.health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_htm::MemoryLayout;

    fn bank(n: usize) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let acc = layout.alloc("acc", n as u64);
        let sys = TxnSystem::with_defaults(n, layout);
        for i in 0..n as u64 {
            sys.mem().store_direct(acc.addr(i), 100);
        }
        (sys, acc)
    }

    #[test]
    fn simple_read_write_commits() {
        let (sys, acc) = bank(1);
        let sched = HTimestampOrdering::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            let x = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), x + 5)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 105);
        let (wts, rts) = unpack(sys.mem().load_direct(sys.to_ts_addr(0)));
        assert!(wts > 0 && rts > 0);
    }

    #[test]
    fn wall_clock_deadline_ends_a_blocked_transaction() {
        use crate::health::JobDeadline;
        use std::time::{Duration, Instant};
        // H-TO never parks on the wait table — its lock waits are bounded
        // spins that restart the attempt — so a blocked vertex turns into
        // an unbounded retry storm. The job-level wall-clock deadline is
        // what must end it, through the attempt-boundary health probe.
        let (sys, acc) = bank(1);
        let sched = HTimestampOrdering::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let blocker = sys.new_worker_id();
        sys.locks().try_exclusive(sys.mem(), 0, blocker).unwrap();
        let t0 = Instant::now();
        sys.begin_job(Some(JobDeadline(Duration::from_millis(20))));
        let out = w.execute(2, &mut |ops| {
            let v = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), v + 1)
        });
        assert!(!out.committed);
        assert!(w.stats().health_stops >= 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "gave up before the job deadline"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "deadline never fired"
        );
        // Release the lock and re-arm the job: the same worker commits.
        sys.locks().unlock_exclusive(sys.mem(), 0, blocker, false);
        sys.begin_job(None);
        let out = w.execute(2, &mut |ops| {
            let v = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), v + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 101);
    }

    #[test]
    fn huge_commit_falls_back_to_locks() {
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 20_000);
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = HTimestampOrdering::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(20_000, &mut |ops| {
            for i in 0..20_000u64 {
                ops.write(0, big.addr(i), i + 1)?;
            }
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(big.addr(19_999)), 20_000);
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let (sys, acc) = bank(1);
        let sched = Arc::new(HTimestampOrdering::new(Arc::clone(&sys)));
        let threads = 6;
        let per = 200;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for _ in 0..per {
                        w.execute(2, &mut |ops| {
                            let x = ops.read(0, acc.addr(0))?;
                            ops.write(0, acc.addr(0), x + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 100 + threads * per);
    }

    #[test]
    fn transfers_preserve_total() {
        let n = 4usize;
        let (sys, acc) = bank(n);
        let sched = Arc::new(HTimestampOrdering::new(Arc::clone(&sys)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for i in 0..200u64 {
                        let from = ((t + i * 3) % n as u64) as VertexId;
                        let to = ((t * 5 + i + 1) % n as u64) as VertexId;
                        if from == to {
                            continue;
                        }
                        w.execute(4, &mut |ops| {
                            let a = ops.read(from, acc.addr(u64::from(from)))?;
                            let b = ops.read(to, acc.addr(u64::from(to)))?;
                            ops.write(from, acc.addr(u64::from(from)), a.wrapping_sub(1))?;
                            ops.write(to, acc.addr(u64::from(to)), b.wrapping_add(1))?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: u64 = (0..n as u64)
            .map(|i| sys.mem().load_direct(acc.addr(i)))
            .sum();
        assert_eq!(total, 100 * n as u64);
    }
}
