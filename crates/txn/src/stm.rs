//! A TinySTM-like word-based software transactional memory — the paper's
//! "STM" baseline (it integrates TinySTM 1.0.5 by "replacing all hardware
//! instructions by software counterparts").
//!
//! Same lazy-versioning protocol family as the emulated HTM (TL2 with
//! time-base extension), but:
//!
//! * no capacity limit — an STM transaction can be arbitrarily large;
//! * per-access *software instrumentation cost*. In the real systems this
//!   is the 2–4× per-access overhead of STM barrier code versus raw loads;
//!   because our HTM is itself emulated in software, that gap would vanish,
//!   so it is modelled explicitly as a configurable spin per transactional
//!   access ([`SoftwareTm::with_penalty`]), calibrated in `tufast-bench`
//!   and documented in EXPERIMENTS.md.

use std::sync::Arc;

use tufast_htm::{Addr, Footprint, LineBatch, LineState, WordMap};

use crate::health::HealthHandle;
use crate::lifecycle::{execute_buffered, Buffered, Lifecycle};
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome, TxnWorker,
};
use crate::VertexId;

const COMMIT_LOCK_SPINS: u32 = 128;
const READ_RACE_RETRIES: u32 = 4096;

/// Default modelled instrumentation cost (spin iterations per access).
pub const DEFAULT_PENALTY_SPINS: u32 = 25;

/// The TinySTM-like scheduler.
pub struct SoftwareTm {
    sys: Arc<TxnSystem>,
    penalty_spins: u32,
}

impl SoftwareTm {
    /// Create with the default modelled instrumentation cost.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        SoftwareTm {
            sys,
            penalty_spins: DEFAULT_PENALTY_SPINS,
        }
    }

    /// Override the modelled per-access instrumentation cost (0 disables —
    /// useful for correctness tests and the calibration bench).
    pub fn with_penalty(sys: Arc<TxnSystem>, penalty_spins: u32) -> Self {
        SoftwareTm { sys, penalty_spins }
    }
}

impl GraphScheduler for SoftwareTm {
    type Worker = StmWorker;

    fn worker(&self) -> StmWorker {
        // Draw an HTM context purely to obtain a line-lock owner id from
        // the same id space as every other line locker.
        let owner = self.sys.htm_ctx().id();
        StmWorker {
            lc: Lifecycle::new(&self.sys, owner),
            penalty_spins: self.penalty_spins,
            start_ts: 0,
            footprint: Footprint::with_capacity(64),
            write_buf: WordMap::with_capacity(64),
            batch: LineBatch::with_capacity(64),
        }
    }

    fn name(&self) -> &'static str {
        "STM"
    }
}

/// Per-thread STM state.
pub struct StmWorker {
    /// `lc.id` is also the line-lock owner id.
    lc: Lifecycle,
    penalty_spins: u32,
    start_ts: u64,
    footprint: Footprint,
    write_buf: WordMap,
    /// Commit scratch: the write lines, locked in address order.
    batch: LineBatch,
}

impl StmWorker {
    #[inline]
    fn instrument(&self) {
        for _ in 0..self.penalty_spins {
            std::hint::spin_loop();
        }
    }

    /// Full read-set revalidation (TinySTM's time-base extension).
    fn validate(&self) -> bool {
        let mem = self.lc.sys.mem();
        self.footprint.reads().all(|(line, ver, _)| {
            matches!(mem.line_state(line), LineState::Unlocked { version } if version == ver)
        })
    }
}

impl AsMut<Lifecycle> for StmWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

impl Buffered for StmWorker {
    fn begin_attempt(&mut self) {
        self.start_ts = self.lc.sys.mem().clock_now_pub();
        self.footprint.clear();
        self.write_buf.clear();
    }

    fn try_commit(&mut self, obs: &ObsHandle) -> Result<(), TxInterrupt> {
        let mem = self.lc.sys.mem();
        if self.write_buf.is_empty() {
            // Read-only: per-read validation/extension already proved the
            // snapshot; the current clock bounds source tickets from above.
            obs.commit_ticketed(self.lc.id, || mem.clock_now_pub());
            return Ok(());
        }
        self.batch.clear();
        for line in self.footprint.writes() {
            self.batch.push(line);
        }
        if !mem.try_lock_lines(&mut self.batch, self.lc.id, COMMIT_LOCK_SPINS) {
            return Err(TxInterrupt::Restart);
        }
        let commit_ts = mem.clock_tick_pub();
        let ok = self.footprint.reads().all(|(line, ver, written)| {
            if written {
                // We hold the line: compare against its pre-lock version —
                // another transaction may have committed it between our
                // read and our lock acquisition.
                mem.held_version(line, self.lc.id) == Some(ver)
            } else {
                matches!(mem.line_state(line), LineState::Unlocked { version } if version == ver)
            }
        });
        if !ok {
            mem.unlock_lines(&mut self.batch, None);
            return Err(TxInterrupt::Restart);
        }
        for (addr, val) in self.write_buf.iter() {
            mem.store_locked(addr, val);
        }
        // The write-path ticket is the TL2 commit timestamp itself, minted
        // above while the write lines were already locked.
        obs.commit_ticketed(self.lc.id, || commit_ts);
        mem.unlock_lines(&mut self.batch, Some(commit_ts));
        Ok(())
    }
}

impl TxnOps for StmWorker {
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.lc.stats.reads += 1;
        self.instrument();
        if let Some(val) = self.write_buf.get(addr) {
            return Ok(val);
        }
        let mem = self.lc.sys.mem();
        let line = addr.line();
        let mut races = 0;
        loop {
            let s1 = mem.line_state(line);
            let version = match s1 {
                LineState::Locked { .. } => {
                    races += 1;
                    if races > READ_RACE_RETRIES {
                        return Err(TxInterrupt::Restart);
                    }
                    if races % 32 == 0 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                    continue;
                }
                LineState::Unlocked { version } => version,
            };
            let val = mem.load_direct(addr);
            if mem.line_state(line) != s1 {
                races += 1;
                if races > READ_RACE_RETRIES {
                    return Err(TxInterrupt::Restart);
                }
                continue;
            }
            if version > self.start_ts {
                // Extension: revalidate everything (the O(R)-per-event cost
                // real TinySTM pays for opacity).
                let new_ts = mem.clock_now_pub();
                if !self.validate() {
                    return Err(TxInterrupt::Restart);
                }
                self.start_ts = new_ts;
                continue;
            }
            self.footprint.note_read(line, version);
            return Ok(val);
        }
    }

    fn write(&mut self, _v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.lc.stats.writes += 1;
        self.instrument();
        let line = addr.line();
        if matches!(self.lc.sys.mem().line_state(line), LineState::Locked { owner } if owner != self.lc.id)
        {
            return Err(TxInterrupt::Restart);
        }
        self.write_buf.insert(addr, val);
        self.footprint.note_write(line);
        Ok(())
    }
}

impl TxnWorker for StmWorker {
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
    fn read_own_write_and_publish_at_commit() {
        let (sys, acc) = bank(1);
        let sched = SoftwareTm::with_penalty(Arc::clone(&sys), 0);
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 7)?;
            assert_eq!(ops.read(0, acc.addr(0))?, 7);
            assert_eq!(sys.mem().load_direct(acc.addr(0)), 100, "lazy versioning");
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 7);
    }

    #[test]
    fn no_capacity_limit_unlike_htm() {
        // A transaction far beyond the 32 KB HTM capacity must commit.
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 100_000);
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = SoftwareTm::with_penalty(Arc::clone(&sys), 0);
        let mut w = sched.worker();
        let out = w.execute(100_000, &mut |ops| {
            for i in 0..100_000u64 {
                ops.write(0, big.addr(i), i)?;
            }
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(sys.mem().load_direct(big.addr(99_999)), 99_999);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let (sys, acc) = bank(1);
        let sched = Arc::new(SoftwareTm::with_penalty(Arc::clone(&sys), 0));
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
    fn multi_line_invariant_under_contention() {
        let mut layout = MemoryLayout::new();
        let a = layout.alloc("a", 1);
        let b = layout.alloc("b", 1); // separate cache line
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = Arc::new(SoftwareTm::with_penalty(Arc::clone(&sys), 0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for i in 0..300u64 {
                        let d = (t + i) % 9 + 1;
                        w.execute(4, &mut |ops| {
                            let x = ops.read(0, a.addr(0))?;
                            let y = ops.read(0, b.addr(0))?;
                            ops.write(0, a.addr(0), x.wrapping_add(d))?;
                            ops.write(0, b.addr(0), y.wrapping_sub(d))?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let x = sys.mem().load_direct(a.addr(0));
        let y = sys.mem().load_direct(b.addr(0));
        assert_eq!(x.wrapping_add(y), 0);
    }

    #[test]
    fn penalty_spins_make_it_slower() {
        let (sys, acc) = bank(1);
        let fast = SoftwareTm::with_penalty(Arc::clone(&sys), 0);
        let slow = SoftwareTm::with_penalty(Arc::clone(&sys), 5000);
        let time = |sched: &SoftwareTm| {
            let mut w = sched.worker();
            let t0 = std::time::Instant::now();
            for _ in 0..2000 {
                w.execute(2, &mut |ops| {
                    let x = ops.read(0, acc.addr(0))?;
                    ops.write(0, acc.addr(0), x + 1)
                });
            }
            t0.elapsed()
        };
        let t_fast = time(&fast);
        let t_slow = time(&slow);
        assert!(
            t_slow > t_fast,
            "penalty had no effect: {t_fast:?} vs {t_slow:?}"
        );
    }
}
