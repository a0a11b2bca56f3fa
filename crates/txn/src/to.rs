//! Basic timestamp ordering (TO) — the third classical scheduler of the
//! paper's Figure 7.
//!
//! Every transaction draws a timestamp at begin. A read of vertex `v` is
//! legal only if no later-stamped writer already committed (`wts(v) ≤ ts`),
//! and it raises `rts(v)`; both live in one packed word so the check and
//! the claim are a single atomic read-modify-write. Writes are buffered and
//! applied at commit under the line locks of the write set (data, lock words
//! and timestamp words — see [`crate::commit`]) after rechecking
//! `rts(v) ≤ ts ∧ wts(v) ≤ ts`. Conservative (no Thomas write rule): any
//! violation restarts the transaction with a fresh timestamp.

use std::sync::Arc;

use tufast_htm::Addr;

use crate::commit::{read_stable, WriteSet};
use crate::health::HealthHandle;
use crate::lifecycle::{execute_buffered, Buffered, Lifecycle};
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome, TxnWorker,
};
use crate::VertexId;

#[inline]
pub(crate) fn pack(wts: u32, rts: u32) -> u64 {
    (u64::from(wts) << 32) | u64::from(rts)
}

#[inline]
pub(crate) fn unpack(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

/// Lock-free timestamp-ordered read: check `wts ≤ ts`, claim `rts`, and
/// sample the value with the vertex quiescent around both. Shared by
/// [`TimestampOrdering`] and the H-TO fallback path.
pub(crate) fn to_read_fallback(
    sys: &TxnSystem,
    ts: u32,
    v: VertexId,
    addr: Addr,
) -> Result<u64, TxInterrupt> {
    let mem = sys.mem();
    let (_, val) = read_stable(sys, v, || {
        let pre = mem.rmw_direct(sys.to_ts_addr(v), |w| {
            let (wts, rts) = unpack(w);
            (wts <= ts).then(|| pack(wts, rts.max(ts)))
        });
        let (pre_wts, _) = unpack(pre);
        if pre_wts > ts {
            return Err(TxInterrupt::Restart);
        }
        Ok(mem.load_direct(addr))
    })?;
    Ok(val)
}

/// Timestamp-ordered commit: lock the write set's lines (the timestamp
/// words among them, so no reader can claim `rts` meanwhile), recheck
/// `rts ≤ ts ∧ wts ≤ ts`, advance `wts`, publish. Shared by
/// [`TimestampOrdering`] and the H-TO fallback path.
pub(crate) fn to_commit_locked(
    sys: &TxnSystem,
    me: u32,
    ts: u32,
    writes: &mut WriteSet,
    obs: &ObsHandle,
) -> Result<(), TxInterrupt> {
    let mem = sys.mem();
    if writes.words().is_empty() {
        // Read-only: every source writer published (and was ticketed)
        // before our consistent reads sampled its values.
        obs.commit_ticketed(me, || mem.clock_now_pub());
        return Ok(());
    }
    let held = writes
        .try_lock(sys, |v| Some(sys.to_ts_addr(v)))
        .ok_or(TxInterrupt::Restart)?;
    let stamps = || held.vertices().iter().map(|&v| sys.to_ts_addr(v));
    let legal = stamps().all(|a| {
        let (wts, rts) = unpack(mem.load_direct(a));
        wts <= ts && rts <= ts
    });
    if !legal {
        return Err(TxInterrupt::Restart);
    }
    for a in stamps() {
        let (wts, rts) = unpack(mem.load_direct(a));
        held.store(a, pack(wts.max(ts), rts));
    }
    held.commit(obs);
    Ok(())
}

/// The timestamp-ordering scheduler.
pub struct TimestampOrdering {
    sys: Arc<TxnSystem>,
}

impl TimestampOrdering {
    /// Create the scheduler over a shared system.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        TimestampOrdering { sys }
    }
}

impl GraphScheduler for TimestampOrdering {
    type Worker = ToWorker;

    fn worker(&self) -> ToWorker {
        let lc = Lifecycle::new(&self.sys);
        ToWorker {
            ts: 0,
            writes: WriteSet::new(lc.id),
            lc,
        }
    }

    fn name(&self) -> &'static str {
        "TO"
    }
}

/// Per-thread TO state.
pub struct ToWorker {
    lc: Lifecycle,
    /// This attempt's timestamp.
    ts: u32,
    writes: WriteSet,
}

impl AsMut<Lifecycle> for ToWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

impl Buffered for ToWorker {
    fn begin_attempt(&mut self) {
        self.writes.clear();
        let ts = self.lc.sys.next_ts();
        assert!(ts < u64::from(u32::MAX), "TO timestamp space exhausted");
        self.ts = ts as u32;
    }

    fn try_commit(&mut self, obs: &ObsHandle) -> Result<(), TxInterrupt> {
        to_commit_locked(&self.lc.sys, self.lc.id, self.ts, &mut self.writes, obs)
    }
}

impl TxnOps for ToWorker {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.lc.stats.reads += 1;
        if let Some(val) = self.writes.words().get(addr) {
            return Ok(val);
        }
        to_read_fallback(&self.lc.sys, self.ts, v, addr)
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.lc.stats.writes += 1;
        // Early sanity check (non-binding; the commit recheck is the
        // authoritative one): restart immediately if already illegal.
        let (wts, rts) = unpack(self.lc.sys.mem().load_direct(self.lc.sys.to_ts_addr(v)));
        if wts > self.ts || rts > self.ts {
            return Err(TxInterrupt::Restart);
        }
        self.writes.insert(v, addr, val);
        Ok(())
    }
}

impl TxnWorker for ToWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        execute_buffered(self, hint, body)
    }

    fn stats(&self) -> &SchedStats {
        &self.lc.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.lc.stats)
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
    fn pack_roundtrip() {
        let (w, r) = unpack(pack(7, 9));
        assert_eq!((w, r), (7, 9));
    }

    #[test]
    fn simple_commit_updates_wts() {
        let (sys, acc) = bank(1);
        let sched = TimestampOrdering::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            let x = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 101);
        let (wts, rts) = unpack(sys.mem().load_direct(sys.to_ts_addr(0)));
        assert!(wts > 0);
        assert!(rts > 0);
    }

    #[test]
    fn older_writer_after_younger_reader_restarts() {
        let (sys, acc) = bank(1);
        let sched = TimestampOrdering::new(Arc::clone(&sys));
        let mut w = sched.worker();
        // Simulate a younger reader having stamped rts a few ticks ahead.
        sys.mem().store_direct(sys.to_ts_addr(0), pack(0, 5));
        let out = w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 1)?;
            Ok(())
        });
        // It must restart until its (fresh-per-attempt) timestamp passes
        // the blocking rts, then commit.
        assert!(out.committed);
        assert!(
            out.attempts >= 2,
            "first attempt (ts ≤ 5) must have restarted"
        );
        // Commits once its timestamp reaches the blocking rts (ts == rts is
        // legal: real timestamp spaces never collide across transactions).
        let (wts, _) = unpack(sys.mem().load_direct(sys.to_ts_addr(0)));
        assert!(wts >= 5, "wts = {wts}");
    }

    #[test]
    fn read_of_future_write_restarts_until_timestamp_catches_up() {
        let (sys, acc) = bank(1);
        sys.mem().store_direct(sys.to_ts_addr(0), pack(500, 0));
        let sched = TimestampOrdering::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(out.committed);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let (sys, acc) = bank(1);
        let sched = Arc::new(TimestampOrdering::new(Arc::clone(&sys)));
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
        let sched = Arc::new(TimestampOrdering::new(Arc::clone(&sys)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for i in 0..200u64 {
                        let from = ((t + i * 5) % n as u64) as VertexId;
                        let to = ((t * 3 + i + 1) % n as u64) as VertexId;
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
