//! Optimistic concurrency control, Silo-style — the paper's optimistic
//! baseline (its "OCC" in Figures 7, 13, 14 is "an optimistic transaction
//! scheduler Silo optimized for main-memory database").
//!
//! Reads record the vertex's commit version; writes are buffered. Commit
//! locks the write set's lines (try-with-bounded-spin), validates that
//! every read version is unchanged and unowned, and publishes data and
//! version bumps together at its ticket (see [`crate::commit`]).

use std::sync::Arc;

use tufast_htm::{Addr, WordMap};

use crate::commit::{read_stable, WriteSet};
use crate::health::HealthHandle;
use crate::lifecycle::{execute_buffered, Buffered, Lifecycle};
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome, TxnWorker,
};
use crate::VertexId;

/// The Silo-like OCC scheduler.
pub struct Occ {
    sys: Arc<TxnSystem>,
}

impl Occ {
    /// Create the scheduler over a shared system.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        Occ { sys }
    }
}

impl GraphScheduler for Occ {
    type Worker = OccWorker;

    fn worker(&self) -> OccWorker {
        let lc = Lifecycle::new(&self.sys);
        OccWorker {
            reads: Vec::with_capacity(32),
            read_seen: WordMap::with_capacity(32),
            writes: WriteSet::new(lc.id),
            lc,
        }
    }

    fn name(&self) -> &'static str {
        "OCC"
    }
}

/// Per-thread OCC state.
pub struct OccWorker {
    lc: Lifecycle,
    /// `(vertex, version at first read)`.
    reads: Vec<(VertexId, u32)>,
    read_seen: WordMap,
    writes: WriteSet,
}

impl AsMut<Lifecycle> for OccWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

impl Buffered for OccWorker {
    fn begin_attempt(&mut self) {
        self.reads.clear();
        self.read_seen.clear();
        self.writes.clear();
    }

    fn try_commit(&mut self, obs: &ObsHandle) -> Result<(), TxInterrupt> {
        let held = self
            .writes
            .try_lock(&self.lc.sys, |_| None)
            .ok_or(TxInterrupt::Restart)?;
        // Read-only transactions validate too, so they serialize at their
        // commit point (Silo's read validation).
        if !held.reads_current(&self.reads) {
            return Err(TxInterrupt::Restart);
        }
        held.commit(obs);
        Ok(())
    }
}

impl TxnOps for OccWorker {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.lc.stats.reads += 1;
        if let Some(val) = self.writes.words().get(addr) {
            return Ok(val);
        }
        let mem = self.lc.sys.mem();
        let (word, val) = read_stable(&self.lc.sys, v, || Ok(mem.load_direct(addr)))?;
        if self.read_seen.insert(Addr(u64::from(v)), 1) {
            self.reads.push((v, word.version()));
        }
        Ok(val)
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.lc.stats.writes += 1;
        self.writes.insert(v, addr, val);
        Ok(())
    }
}

impl TxnWorker for OccWorker {
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
    fn write_buffering_and_read_own_write() {
        let (sys, acc) = bank(1);
        let sched = Occ::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 55)?;
            assert_eq!(ops.read(0, acc.addr(0))?, 55);
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 55);
        assert_eq!(sys.locks().peek(sys.mem(), 0).version(), 1);
    }

    #[test]
    fn nothing_published_before_commit() {
        let (sys, acc) = bank(1);
        let sched = Occ::new(Arc::clone(&sys));
        let mut w = sched.worker();
        w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 1)?;
            // Mid-transaction, shared memory still has the old value.
            assert_eq!(sys.mem().load_direct(acc.addr(0)), 100);
            Ok(())
        });
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 1);
    }

    #[test]
    fn stale_read_forces_restart() {
        let (sys, acc) = bank(1);
        let sched = Occ::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let mut first = true;
        let out = w.execute(2, &mut |ops| {
            let x = ops.read(0, acc.addr(0))?;
            if first {
                first = false;
                // Another "thread" commits between our read and commit.
                sys.locks().try_exclusive(sys.mem(), 0, 99).unwrap();
                sys.mem().store_direct(acc.addr(0), 500);
                sys.locks().unlock_exclusive(sys.mem(), 0, 99, true);
            }
            ops.write(0, acc.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 2, "first attempt must have failed validation");
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 501);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let (sys, acc) = bank(1);
        let sched = Arc::new(Occ::new(Arc::clone(&sys)));
        let threads = 8;
        let per = 300;
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
    fn transfers_preserve_total_under_contention() {
        let n = 4usize;
        let (sys, acc) = bank(n);
        let sched = Arc::new(Occ::new(Arc::clone(&sys)));
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for i in 0..300u64 {
                        let from = ((t * 13 + i) % n as u64) as VertexId;
                        let to = ((t * 7 + i * 3 + 1) % n as u64) as VertexId;
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

    #[test]
    fn user_abort_discards_buffered_writes() {
        let (sys, acc) = bank(1);
        let sched = Occ::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 0)?;
            Err(ops.user_abort())
        });
        assert!(!out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 100);
    }
}
