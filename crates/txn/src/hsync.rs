//! An HSync-like two-mode hybrid: HTM fast path with a global-lock fallback
//! (classical lock elision) — the paper's "HSync" baseline (its ref [56]).
//!
//! Every transaction first runs entirely inside one hardware transaction
//! that *subscribes* the global fallback word; after a bounded number of
//! retryable aborts — or immediately on a capacity abort — it acquires the
//! global fallback lock and runs non-speculatively. Subscription makes the
//! two paths mutually safe: fallback acquisition invalidates the word every
//! speculative transaction has in its read set. The fallback buffers its
//! writes, as 2PL does, and publishes them in the batch that releases the
//! word, so nothing uncommitted of either path is ever in memory. It reads
//! through the line seqlock, waiting on a locked line: a speculative
//! commit that validated before the fallback took the word may still be
//! publishing.
//!
//! Being two-mode, HSync has no middle gear for the moderate-size
//! transactions TuFast handles in O mode: anything past HTM capacity
//! serialises globally. That cliff is exactly what the paper's Figures 13
//! and 14 show TuFast avoiding.

use std::sync::Arc;

use tufast_htm::witness::{self, LockClass};
use tufast_htm::{AbortCode, Addr, HtmCtx, LineBatch, WordMap};

use crate::commit::{relax, release_at_ticket};
use crate::health::HealthHandle;
use crate::lifecycle::{hardware_attempt, HtmOps, Lifecycle, Verdict};
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome, TxnWorker,
};
use crate::VertexId;

/// Default HTM retries before falling back.
const DEFAULT_HTM_RETRIES: u32 = 5;

/// The HSync-like scheduler.
pub struct HSyncLike {
    sys: Arc<TxnSystem>,
    retries: u32,
}

impl HSyncLike {
    /// Create with five HTM retries before the fallback.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        HSyncLike {
            sys,
            retries: DEFAULT_HTM_RETRIES,
        }
    }
}

impl GraphScheduler for HSyncLike {
    type Worker = HSyncWorker;

    fn worker(&self) -> HSyncWorker {
        HSyncWorker {
            lc: Lifecycle::new(&self.sys),
            ctx: self.sys.htm_ctx(),
            retries: self.retries,
            buffered: WordMap::with_capacity(32),
            batch: LineBatch::with_capacity(32),
        }
    }

    fn name(&self) -> &'static str {
        "HSync"
    }
}

/// Per-thread HSync state.
pub struct HSyncWorker {
    lc: Lifecycle,
    ctx: HtmCtx,
    retries: u32,
    /// The fallback path's buffered writes.
    buffered: WordMap,
    /// Fallback-commit scratch: the buffered words' lines and the fallback
    /// word's.
    batch: LineBatch,
}

impl AsMut<Lifecycle> for HSyncWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

/// Fallback ops under the global lock: read = own buffered write, else a
/// committed value through the line seqlock; write = buffered until the
/// commit batch.
struct FallbackOps<'a> {
    sys: &'a TxnSystem,
    buffered: &'a mut WordMap,
    stats: &'a mut SchedStats,
}

impl TxnOps for FallbackOps<'_> {
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.stats.reads += 1;
        if let Some(own) = self.buffered.get(addr) {
            return Ok(own);
        }
        // A hardware commit that validated before this hold's CAS may
        // still be publishing, which is ticketed before the hold: wait it
        // out, or the body reads a part of it. Every line lock is a
        // commit's publish step or a direct store, so the wait is short.
        let mut turn = 0u32;
        loop {
            if let Some((val, _)) = self.sys.peek_committed(addr) {
                return Ok(val);
            }
            relax(turn);
            turn = turn.wrapping_add(1);
        }
    }

    fn write(&mut self, _v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.stats.writes += 1;
        self.buffered.insert(addr, val);
        Ok(())
    }
}

impl HSyncWorker {
    /// One speculative attempt. A capacity abort is deterministic, and so is
    /// a hardware path switched off at runtime: both leave the rung for the
    /// global fallback instead of using up the remaining retries.
    // tufast-lint: htm-scope
    fn htm_attempt(&mut self, body: &mut TxnBody<'_>, obs: &ObsHandle) -> Verdict {
        if self.ctx.begin().is_err() {
            return Verdict::Leave;
        }
        // Subscribe the fallback lock; busy means a fallback transaction is
        // running — abort and let the caller wait it out.
        let subscribed = match self.ctx.read(self.lc.sys.fallback_word()) {
            Ok(free) if free & 1 == 0 => Ok(()),
            Ok(_) => Err(self.ctx.abort_explicit(0xF0)),
            Err(code) => Err(code),
        };
        let mut ops = HtmOps {
            ctx: &mut self.ctx,
            stats: &mut self.lc.stats,
            penalty_spins: 0,
            last_abort: None,
        };
        match subscribed.and_then(|()| hardware_attempt(&mut ops, self.lc.id, 0xF0, body, obs)) {
            Ok(verdict) => verdict,
            Err(AbortCode::Capacity) => Verdict::Leave,
            Err(_) => Verdict::Restart,
        }
    }

    /// Serialise under the global fallback lock, which admits no conflicts:
    /// the attempt restarts only if the body itself asks to.
    fn fallback_attempt(&mut self, body: &mut TxnBody<'_>, obs: &ObsHandle) -> Verdict {
        let mem = self.lc.sys.mem();
        let fallback = self.lc.sys.fallback_word();
        let id = self.lc.id;
        let mut spins = 0u32;
        // Odd while held; every hold leaves the word two higher. The
        // witness holds it to the end of the attempt.
        let _fallback = witness::acquire(LockClass::HsyncFallback);
        let held = loop {
            let free = mem.load_direct(fallback) & !1;
            if mem.cas_direct(fallback, free, free + 1).is_ok() {
                break free + 1;
            }
            spins += 1;
            if spins.is_multiple_of(256) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        self.buffered.clear();
        let mut ops = FallbackOps {
            sys: &self.lc.sys,
            buffered: &mut self.buffered,
            stats: &mut self.lc.stats,
        };
        let result = obs.run_body(&mut ops, id, body);
        if result.is_ok() {
            obs.pre_commit(id);
            // One batch stores the buffered words and releases the word,
            // all at the ticket.
            self.batch.clear();
            for (addr, _) in self.buffered.iter() {
                self.batch.push(addr.line());
            }
            self.batch.push(fallback.line());
            let ticket = release_at_ticket(mem, &mut self.batch, || {
                for (addr, val) in self.buffered.iter() {
                    mem.store_locked(addr, val);
                }
                mem.store_locked(fallback, held + 1);
            });
            obs.commit_ticketed(id, || ticket);
        } else {
            // Nothing reached memory: releasing the word is the rollback,
            // so a panic can propagate without blocking peers.
            mem.store_direct(fallback, held + 1);
        }
        result.into()
    }
}

impl TxnWorker for HSyncWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        let mut attempts = match crate::rmode::read_only_prologue(&mut self.lc, hint, body) {
            Ok(out) => return out,
            Err(prior) => prior,
        };
        // At every attempt boundary of both rungs neither the fallback lock
        // nor a hardware transaction is held.
        let retries = self.retries;
        let end = Lifecycle::rung(self, retries, &mut attempts, |w, obs| {
            w.htm_attempt(body, obs)
        });
        if let Some(out) = end.settled(attempts) {
            return out;
        }
        Lifecycle::rung(self, u32::MAX, &mut attempts, |w, obs| {
            w.fallback_attempt(body, obs)
        })
        .outcome(attempts)
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
    fn small_transaction_commits_via_htm() {
        let (sys, acc) = bank(1);
        let sched = HSyncLike::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            let x = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 101);
        // The fallback lock was never taken.
        assert_eq!(sys.mem().load_direct(sys.fallback_word()), 0);
    }

    #[test]
    fn oversized_transaction_falls_back_and_commits() {
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 10_000);
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = HSyncLike::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(10_000, &mut |ops| {
            // Touch > 448 distinct lines: guaranteed capacity abort.
            for i in 0..10_000u64 {
                ops.write(0, big.addr(i), i)?;
            }
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(big.addr(9_999)), 9_999);
        assert_eq!(
            sys.mem().load_direct(sys.fallback_word()),
            2,
            "fallback lock released, one hold later"
        );
        assert!(w.stats().restarts >= 1, "capacity abort should be recorded");
    }

    #[test]
    fn user_abort_in_fallback_rolls_back() {
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 8000);
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = HSyncLike::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(8000, &mut |ops| {
            for i in 0..8000u64 {
                ops.write(0, big.addr(i), 1)?;
            }
            assert_eq!(ops.read(0, big.addr(0))?, 1, "reads its own write");
            assert_eq!(
                sys.mem().load_direct(big.addr(0)),
                0,
                "the store is not in memory"
            );
            Err(ops.user_abort())
        });
        assert!(!out.committed);
        for i in (0..8000).step_by(997) {
            assert_eq!(
                sys.mem().load_direct(big.addr(i)),
                0,
                "write {i} not rolled back"
            );
        }
        assert_eq!(sys.mem().load_direct(sys.fallback_word()), 2);
    }

    #[test]
    fn a_fallback_read_waits_out_a_publishing_commit() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (sys, acc) = bank(1);
        let (mem, addr) = (sys.mem(), acc.addr(0));
        // Locked as a committer's publish step holds it, the new value
        // already stored.
        let mut batch = LineBatch::with_capacity(1);
        batch.push(addr.line());
        mem.lock_lines(&mut batch);
        mem.store_locked(addr, 7);
        let (started_tx, started_rx) = channel();
        let (read_tx, read_rx) = channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut buffered, mut stats) = (WordMap::with_capacity(1), SchedStats::default());
                let mut ops = FallbackOps {
                    sys: &sys,
                    buffered: &mut buffered,
                    stats: &mut stats,
                };
                started_tx.send(()).unwrap();
                read_tx.send(ops.read(0, addr)).unwrap();
            });
            started_rx.recv().unwrap();
            assert!(
                read_rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "the read returned while the line was locked"
            );
            let ticket = mem.clock_tick_pub();
            mem.unlock_lines(&mut batch, Some(ticket));
            assert_eq!(read_rx.recv().unwrap(), Ok(7));
        });
    }

    #[test]
    fn mixed_htm_and_fallback_preserve_invariants() {
        // Small increments race with huge fallback transactions touching the
        // same counter; the total must be exact.
        let mut layout = MemoryLayout::new();
        let counter = layout.alloc("counter", 1);
        let filler = layout.alloc("filler", 8000);
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = Arc::new(HSyncLike::new(Arc::clone(&sys)));
        let small_threads = 4u64;
        let big_threads = 2u64;
        let per = 200u64;
        std::thread::scope(|s| {
            for _ in 0..small_threads {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for _ in 0..per {
                        w.execute(2, &mut |ops| {
                            let x = ops.read(0, counter.addr(0))?;
                            ops.write(0, counter.addr(0), x + 1)
                        });
                    }
                });
            }
            for _ in 0..big_threads {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for _ in 0..20 {
                        w.execute(8000, &mut |ops| {
                            let x = ops.read(0, counter.addr(0))?;
                            for i in 0..8000u64 {
                                ops.write(0, filler.addr(i), x + i)?;
                            }
                            ops.write(0, counter.addr(0), x + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(
            sys.mem().load_direct(counter.addr(0)),
            small_threads * per + big_threads * 20
        );
    }
}
