//! An HSync-like two-mode hybrid: HTM fast path with a global-lock fallback
//! (classical lock elision) — the paper's "HSync" baseline (its ref [56]).
//!
//! Every transaction first runs entirely inside one hardware transaction
//! that *subscribes* the global fallback word; after a bounded number of
//! retryable aborts — or immediately on a capacity abort — it acquires the
//! global fallback lock and runs non-speculatively. Subscription makes the
//! two paths mutually safe: fallback acquisition invalidates the word every
//! speculative transaction has in its read set.
//!
//! Being two-mode, HSync has no middle gear for the moderate-size
//! transactions TuFast handles in O mode: anything past HTM capacity
//! serialises globally. That cliff is exactly what the paper's Figures 13
//! and 14 show TuFast avoiding.

use std::sync::Arc;

use tufast_htm::{AbortCode, Addr, HtmCtx, LineBatch};

use crate::commit::release_at_ticket;
use crate::faults::FaultHandle;
use crate::health::HealthHandle;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    backoff, GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome,
    TxnWorker,
};
use crate::VertexId;

/// Default HTM retries before falling back.
pub const DEFAULT_HTM_RETRIES: u32 = 5;

/// The HSync-like scheduler.
pub struct HSyncLike {
    sys: Arc<TxnSystem>,
    retries: u32,
}

impl HSyncLike {
    /// Create with [`DEFAULT_HTM_RETRIES`].
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        HSyncLike {
            sys,
            retries: DEFAULT_HTM_RETRIES,
        }
    }

    /// Create with an explicit HTM retry budget.
    pub fn with_retries(sys: Arc<TxnSystem>, retries: u32) -> Self {
        HSyncLike {
            sys,
            retries: retries.max(1),
        }
    }
}

impl GraphScheduler for HSyncLike {
    type Worker = HSyncWorker;

    fn worker(&self) -> HSyncWorker {
        let ctx = self.sys.htm_ctx();
        let faults = self.sys.fault_handle(ctx.id());
        let health = self.sys.health_handle(ctx.id());
        HSyncWorker {
            ctx,
            faults,
            health,
            sys: Arc::clone(&self.sys),
            retries: self.retries,
            undo: Vec::with_capacity(32),
            batch: LineBatch::with_capacity(32),
            stats: SchedStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        "HSync"
    }
}

/// Per-thread HSync state.
pub struct HSyncWorker {
    sys: Arc<TxnSystem>,
    ctx: HtmCtx,
    faults: FaultHandle,
    health: HealthHandle,
    retries: u32,
    undo: Vec<(Addr, u64)>,
    /// Fallback-commit scratch: the undo log's lines and the fallback word's.
    batch: LineBatch,
    stats: SchedStats,
}

/// Speculative ops: everything inside one HTM transaction.
struct HtmOps<'a> {
    ctx: &'a mut HtmCtx,
    stats: &'a mut SchedStats,
    last_abort: Option<AbortCode>,
}

// tufast-lint: htm-scope
impl TxnOps for HtmOps<'_> {
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.stats.reads += 1;
        if !self.ctx.in_tx() {
            // The body kept calling ops after an abort it failed to
            // propagate; keep signalling restart.
            return Err(TxInterrupt::Restart);
        }
        self.ctx.read(addr).map_err(|code| {
            self.last_abort = Some(code);
            TxInterrupt::Restart
        })
    }

    fn write(&mut self, _v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.stats.writes += 1;
        if !self.ctx.in_tx() {
            return Err(TxInterrupt::Restart);
        }
        self.ctx.write(addr, val).map_err(|code| {
            self.last_abort = Some(code);
            TxInterrupt::Restart
        })
    }
}

/// Fallback ops: in-place under the global lock, with an undo log so a
/// user abort can roll back.
struct FallbackOps<'a> {
    sys: &'a TxnSystem,
    undo: &'a mut Vec<(Addr, u64)>,
    stats: &'a mut SchedStats,
}

impl TxnOps for FallbackOps<'_> {
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.stats.reads += 1;
        Ok(self.sys.mem().load_direct(addr))
    }

    fn write(&mut self, _v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.stats.writes += 1;
        let mem = self.sys.mem();
        self.undo.push((addr, mem.load_direct(addr)));
        mem.store_direct(addr, val);
        Ok(())
    }
}

impl HSyncWorker {
    /// One speculative attempt. `Ok(true)` = committed, `Ok(false)` = user
    /// abort, `Err(code)` = HTM abort.
    // tufast-lint: htm-scope
    fn htm_attempt(&mut self, body: &mut TxnBody<'_>, obs: &ObsHandle) -> Result<bool, AbortCode> {
        let fallback = self.sys.fallback_word();
        let id = self.ctx.id();
        if self.ctx.begin().is_err() {
            // HTM switched off at runtime: report a capacity abort so the
            // caller skips the remaining speculative retries and goes
            // straight to the global fallback.
            return Err(AbortCode::Capacity);
        }
        // Subscribe the fallback lock; busy means a fallback transaction is
        // running — abort and let the caller wait it out.
        match self.ctx.read(fallback) {
            Ok(free) if free & 1 == 0 => {}
            Ok(_) => {
                let code = self.ctx.abort_explicit(0xF0);
                return Err(code);
            }
            Err(code) => return Err(code),
        }
        let mut ops = HtmOps {
            ctx: &mut self.ctx,
            stats: &mut self.stats,
            last_abort: None,
        };
        match obs.run_body(&mut ops, id, body) {
            Ok(()) => {
                let ops_abort = ops.last_abort;
                if !self.ctx.in_tx() {
                    // Aborted mid-body but the body returned Ok anyway.
                    return Err(ops_abort.unwrap_or(AbortCode::Conflict));
                }
                obs.pre_commit(id);
                match self.ctx.commit() {
                    Ok(()) => {
                        // HTM-path ticket: the commit timestamp the context
                        // minted while its write lines were locked.
                        obs.commit_ticketed(id, || self.ctx.last_commit_ts());
                        Ok(true)
                    }
                    Err(code) => Err(ops_abort.unwrap_or(code)),
                }
            }
            Err(TxInterrupt::Restart) => {
                let code = ops.last_abort.unwrap_or(AbortCode::Conflict);
                if self.ctx.in_tx() {
                    self.ctx.abort_explicit(0xF1);
                }
                Err(code)
            }
            Err(TxInterrupt::UserAbort) => {
                if self.ctx.in_tx() {
                    self.ctx.abort_explicit(0xFF);
                }
                Ok(false)
            }
            Err(TxInterrupt::Panicked) => {
                // Speculative writes vanish with the abort; nothing to undo.
                if self.ctx.in_tx() {
                    self.ctx.abort_explicit(0xFE);
                }
                self.stats.panics += 1;
                obs.abort(id, false);
                crate::obs::resume_body_panic();
            }
        }
    }

    /// Serialise under the global fallback lock.
    fn fallback_attempt(&mut self, body: &mut TxnBody<'_>, obs: &ObsHandle) -> bool {
        let mem = self.sys.mem();
        let fallback = self.sys.fallback_word();
        let id = self.ctx.id();
        let mut spins = 0u32;
        // The word is a sequence lock: odd while held, and every hold
        // leaves it two higher, so a reader that saw the same even value
        // on both sides of a load knows no fallback transaction ran in
        // between (`TxnSystem::peek_committed`).
        // tufast-lint: lock-acquire(hsync_fallback)
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
        self.undo.clear();
        let mut ops = FallbackOps {
            sys: &self.sys,
            undo: &mut self.undo,
            stats: &mut self.stats,
        };
        let result = obs.run_body(&mut ops, id, body);
        match result {
            Ok(()) => {
                obs.pre_commit(id);
                // One batch stamps the in-place written lines with the
                // ticket and clears the fallback word at it: no other writer
                // can publish in between, and a snapshot reader pinned
                // mid-commit cannot accept the pre-ticket stores.
                let ticket = release_at_ticket(
                    mem,
                    &mut self.batch,
                    self.undo.iter().map(|&(addr, _)| addr),
                    std::iter::once(fallback),
                    |_| held + 1,
                );
                obs.commit_ticketed(id, || ticket);
                true
            }
            Err(interrupt) => {
                // Roll back in-place writes, newest first, then release.
                for &(addr, old) in self.undo.iter().rev() {
                    mem.store_direct(addr, old);
                }
                mem.store_direct(fallback, held + 1);
                if matches!(interrupt, TxInterrupt::Panicked) {
                    // The global lock is released and memory restored; the
                    // panic can now propagate without blocking peers.
                    self.stats.panics += 1;
                    obs.abort(id, false);
                    crate::obs::resume_body_panic();
                }
                false
            }
        }
    }
}

impl TxnWorker for HSyncWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        let mut attempts = match crate::rmode::read_only_prologue(
            &self.sys,
            self.ctx.id(),
            &mut self.stats,
            &self.health,
            hint,
            body,
        ) {
            Ok(out) => return out,
            Err(prior) => prior,
        };
        let obs = self.sys.observer_handle();
        let id = self.ctx.id();
        let mut htm_tries = 0u32;
        loop {
            // Attempt boundary: neither the fallback lock nor an HTM
            // transaction is held here — the clean stop point.
            if self.health.checkpoint().is_some() {
                self.stats.health_stops += 1;
                return TxnOutcome {
                    committed: false,
                    attempts,
                };
            }
            attempts += 1;
            self.faults.preempt();
            self.faults.stall_point();
            if htm_tries < self.retries {
                htm_tries += 1;
                obs.attempt_begin(id);
                match self.htm_attempt(body, &obs) {
                    Ok(true) => {
                        self.stats.commits += 1;
                        self.health.note_commit();
                        return TxnOutcome {
                            committed: true,
                            attempts,
                        };
                    }
                    Ok(false) => {
                        self.stats.user_aborts += 1;
                        obs.abort(id, true);
                        return TxnOutcome {
                            committed: false,
                            attempts,
                        };
                    }
                    Err(code) => {
                        self.stats.restarts += 1;
                        self.health.note_restart();
                        obs.abort(id, false);
                        if code == AbortCode::Capacity {
                            // Deterministic: skip the remaining retries.
                            htm_tries = self.retries;
                        }
                        backoff(htm_tries, self.ctx.id());
                    }
                }
            } else {
                // Fallback path. A `false` here is a user abort (the global
                // lock admits no conflicts).
                obs.attempt_begin(id);
                let committed = self.fallback_attempt(body, &obs);
                if committed {
                    self.stats.commits += 1;
                    self.health.note_commit();
                } else {
                    self.stats.user_aborts += 1;
                    obs.abort(id, true);
                }
                return TxnOutcome {
                    committed,
                    attempts,
                };
            }
        }
    }

    fn stats(&self) -> &SchedStats {
        &self.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.stats)
    }

    fn htm_ops(&self) -> u64 {
        let h = self.ctx.stats();
        h.reads + h.writes
    }

    fn health(&self) -> Option<&HealthHandle> {
        Some(&self.health)
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
