//! Strict two-phase locking — the paper's pessimistic baseline and the
//! protocol of TuFast's L mode (Algorithm 3).
//!
//! Reads take shared vertex locks, writes take exclusive ones (in-place,
//! with an undo log); all locks are released at commit (strictness) — the
//! written vertices' in one line-lock batch that also stamps the written
//! lines with the commit ticket (see [`crate::commit`]). A
//! blocked worker registers a wait-for edge; cycles — or bounded-wait
//! timeouts on anonymous reader-held locks — make the requester the victim:
//! it rolls back, releases everything, and restarts.
//!
//! With [`ordered`](TwoPhaseLocking::new_ordered), deadlock *prevention*
//! replaces detection (paper §IV-E): the caller promises that bodies
//! acquire vertices in ascending id order (natural for "iterate my
//! neighbours" transactions over sorted adjacency), so no cycle can form
//! and the wait-for bookkeeping is skipped.

use std::sync::Arc;
use std::time::Instant;

use tufast_htm::{Addr, LineBatch, WordMap};

use crate::commit::release_at_ticket;
use crate::deadlock::WaitOutcome;
use crate::faults::FaultHandle;
use crate::health::HealthHandle;
use crate::locks::LockWord;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    backoff, GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome,
    TxnWorker,
};
use crate::VertexId;

/// Lock modes recorded in the worker's held-lock table. `HELD_NONE` marks
/// a vertex whose acquisition failed (the attempt is about to roll back).
const HELD_NONE: u64 = 0;
const HELD_SHARED: u64 = 1;
const HELD_WROTE: u64 = 2;

/// The 2PL scheduler.
pub struct TwoPhaseLocking {
    sys: Arc<TxnSystem>,
    ordered: bool,
}

impl TwoPhaseLocking {
    /// 2PL with deadlock detection.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        TwoPhaseLocking {
            sys,
            ordered: false,
        }
    }

    /// 2PL with ordered-acquisition deadlock *prevention*. Correct only for
    /// bodies that touch vertices in ascending id order.
    pub fn new_ordered(sys: Arc<TxnSystem>) -> Self {
        TwoPhaseLocking { sys, ordered: true }
    }
}

impl GraphScheduler for TwoPhaseLocking {
    type Worker = TplWorker;

    fn worker(&self) -> TplWorker {
        let id = self.sys.new_worker_id();
        TplWorker {
            id,
            faults: self.sys.fault_handle(id),
            health: self.sys.health_handle(id),
            sys: Arc::clone(&self.sys),
            ordered: self.ordered,
            held: WordMap::with_capacity(32),
            wrote: Vec::with_capacity(16),
            undo: Vec::with_capacity(32),
            batch: LineBatch::with_capacity(32),
            stats: SchedStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        if self.ordered {
            "2PL-ordered"
        } else {
            "2PL"
        }
    }
}

/// Per-thread 2PL execution state.
pub struct TplWorker {
    id: u32,
    sys: Arc<TxnSystem>,
    ordered: bool,
    faults: FaultHandle,
    health: HealthHandle,
    /// vertex id → HELD_* mode, in acquisition order.
    held: WordMap,
    /// The vertices held in `HELD_WROTE` mode.
    wrote: Vec<VertexId>,
    undo: Vec<(Addr, u64)>,
    /// Commit scratch: the undo log's lines and the written lock words'.
    batch: LineBatch,
    stats: SchedStats,
}

/// The lock-acquisition half of a [`TplWorker`], split off so a `held`
/// entry can stay borrowed across the acquisition it records.
struct Acquire<'a> {
    id: u32,
    sys: &'a TxnSystem,
    ordered: bool,
    faults: &'a mut FaultHandle,
    stats: &'a mut SchedStats,
}

impl TplWorker {
    #[inline]
    fn split(&mut self) -> (&mut WordMap, Acquire<'_>) {
        let acquire = Acquire {
            id: self.id,
            sys: &self.sys,
            ordered: self.ordered,
            faults: &mut self.faults,
            stats: &mut self.stats,
        };
        (&mut self.held, acquire)
    }
}

impl Acquire<'_> {
    /// Blocking acquisition of `v` (shared or exclusive) with deadlock
    /// handling.
    fn acquire(&mut self, v: VertexId, exclusive: bool) -> Result<(), TxInterrupt> {
        if self.faults.lock_acquisition_fails() {
            // Injected acquisition failure: indistinguishable from a
            // bounded-wait victimization.
            self.stats.injected_faults += 1;
            return Err(TxInterrupt::Restart);
        }
        let mem = self.sys.mem();
        let locks = self.sys.locks();
        let waits = self.sys.wait_table();
        let mut anon_attempt = 0u32;
        // The instant the wait started — sampled only when the configured
        // budget has a wall-clock deadline.
        let started = waits.config().deadline.map(|_| Instant::now());
        // The bounded-wait retry below makes this a *blocking*
        // acquisition as far as lock ordering is concerned.
        // tufast-lint: lock-acquire(vertex_lock)
        loop {
            let tried = if exclusive {
                locks.try_exclusive(mem, v, self.id)
            } else {
                locks.try_shared(mem, v)
            };
            let Err(pre) = tried else { return Ok(()) };
            // A shared acquisition fails only on a writer; an exclusive one
            // also on readers, who are anonymous: bounded wait either way.
            debug_assert!(exclusive || pre.writer().is_some(), "lock word {v} corrupt");
            if let Some(holder) = pre.writer() {
                debug_assert_ne!(holder, self.id, "re-acquisition of held vertex {v}");
                if !self.ordered && waits.register_and_check(self.id, holder) {
                    self.stats.deadlock_victims += 1;
                    return Err(TxInterrupt::Restart);
                }
            }
            let outcome = waits.bounded_anonymous_wait(self.id, anon_attempt, started);
            if !self.ordered {
                waits.clear(self.id);
            }
            if outcome == WaitOutcome::Victim {
                self.stats.anon_wait_victims += 1;
                return Err(TxInterrupt::Restart);
            }
            anon_attempt += 1;
        }
    }
}

impl TplWorker {
    /// Undo in-place writes (reverse order) and release all locks. The
    /// versions of written vertices still bump: the data changed twice, and
    /// optimistic readers may have seen the intermediate values.
    fn rollback(&mut self) {
        let mem = self.sys.mem();
        for &(addr, old) in self.undo.iter().rev() {
            mem.store_direct(addr, old);
        }
        self.undo.clear();
        self.release(true);
    }

    /// Strict 2PL commit: the writes are already in place. The written
    /// vertices' locks are released — and the written lines stamped — in
    /// one batch at the ticket, while every other touched lock is still
    /// held; then the shared holds go.
    fn commit(&mut self, obs: &ObsHandle) {
        let (mem, locks, id) = (self.sys.mem(), self.sys.locks(), self.id);
        if self.wrote.is_empty() {
            // Nothing to publish: the ticket is a tick of its own.
            obs.commit_ticketed(id, || mem.clock_tick_pub());
        } else {
            let ticket = release_at_ticket(
                mem,
                &mut self.batch,
                self.undo.iter().map(|&(addr, _)| addr),
                self.wrote.iter().map(|&v| locks.addr(v)),
                |w| {
                    debug_assert_eq!(LockWord(w).writer(), Some(id), "released by non-owner");
                    LockWord(w).released(true).0
                },
            );
            obs.commit_ticketed(id, || ticket);
        }
        self.undo.clear();
        self.release(false);
    }

    /// Release the holds, newest first, one `rmw_direct` each: the shared
    /// ones, and with `written_too` (no commit batch released them) the
    /// written ones.
    fn release(&mut self, written_too: bool) {
        let mem = self.sys.mem();
        let locks = self.sys.locks();
        for (v, mode) in self.held.iter().rev() {
            let v = v.0 as VertexId;
            match mode {
                HELD_SHARED => locks.unlock_shared(mem, v),
                HELD_WROTE if written_too => locks.unlock_exclusive(mem, v, self.id, true),
                _ => {}
            }
        }
        self.held.clear();
        self.wrote.clear();
    }
}

impl TxnOps for TplWorker {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.stats.reads += 1;
        let (held, mut acquire) = self.split();
        let (mode, _) = held.entry(Addr(u64::from(v)), HELD_NONE);
        if *mode == HELD_NONE {
            acquire.acquire(v, false)?;
            *mode = HELD_SHARED;
        }
        Ok(self.sys.mem().load_direct(addr))
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.stats.writes += 1;
        let (held, mut acquire) = self.split();
        let (mode, _) = held.entry(Addr(u64::from(v)), HELD_NONE);
        let first_write = *mode != HELD_WROTE;
        match *mode {
            HELD_WROTE => {}
            HELD_SHARED => {
                // Upgrade; failure risks the classic upgrade deadlock, so
                // the requester immediately becomes the victim.
                if !acquire
                    .sys
                    .locks()
                    .try_upgrade(acquire.sys.mem(), v, acquire.id)
                {
                    acquire.stats.deadlock_victims += 1;
                    return Err(TxInterrupt::Restart);
                }
            }
            _ => acquire.acquire(v, true)?,
        }
        *mode = HELD_WROTE;
        if first_write {
            self.wrote.push(v);
        }
        let mem = self.sys.mem();
        self.undo.push((addr, mem.load_direct(addr)));
        mem.store_direct(addr, val);
        Ok(())
    }
}

impl TplWorker {
    /// Exempt (or re-subject) this worker from fault injection. The
    /// TuFast serial-fallback path exempts its stop-the-world commit so
    /// the liveness backstop cannot itself be sabotaged.
    pub fn set_fault_exempt(&mut self, exempt: bool) {
        self.faults.set_exempt(exempt);
    }

    /// [`execute`](TxnWorker::execute) with an attempt budget: gives up
    /// (returning `committed: false` with everything rolled back and all
    /// locks released) after `max_attempts` failed attempts instead of
    /// retrying forever. The TuFast router uses this to bound its L-mode
    /// phase before escalating to the global serial-fallback token.
    pub fn execute_bounded(&mut self, max_attempts: u32, body: &mut TxnBody<'_>) -> TxnOutcome {
        let obs = self.sys.observer_handle();
        let id = self.id;
        let mut attempts = 0u32;
        loop {
            // Attempt boundary: the previous attempt rolled back and
            // released every lock, so a stopped job unwinds cleanly here.
            if self.health.checkpoint().is_some() {
                self.stats.health_stops += 1;
                return TxnOutcome {
                    committed: false,
                    attempts,
                };
            }
            attempts += 1;
            obs.attempt_begin(id);
            match obs.run_body(self, id, body) {
                Ok(()) => {
                    obs.pre_commit(id);
                    self.commit(&obs);
                    self.stats.commits += 1;
                    self.health.note_commit();
                    self.sys.wait_table().record_commit(id);
                    return TxnOutcome {
                        committed: true,
                        attempts,
                    };
                }
                Err(TxInterrupt::Restart) => {
                    self.rollback();
                    self.stats.restarts += 1;
                    self.health.note_restart();
                    obs.abort(id, false);
                    if attempts >= max_attempts {
                        return TxnOutcome {
                            committed: false,
                            attempts,
                        };
                    }
                    backoff(attempts, self.id);
                }
                Err(TxInterrupt::UserAbort) => {
                    self.rollback();
                    self.stats.user_aborts += 1;
                    obs.abort(id, true);
                    return TxnOutcome {
                        committed: false,
                        attempts,
                    };
                }
                Err(TxInterrupt::Panicked) => {
                    // The body panicked mid-transaction: undo its in-place
                    // writes and release every lock, then let the panic
                    // continue on this thread. Peers are unaffected.
                    self.rollback();
                    self.stats.panics += 1;
                    obs.abort(id, false);
                    crate::obs::resume_body_panic();
                }
            }
        }
    }
}

impl TxnWorker for TplWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        let prior = match crate::rmode::read_only_prologue(
            &self.sys,
            self.id,
            &mut self.stats,
            &self.health,
            hint,
            body,
        ) {
            Ok(out) => return out,
            Err(prior) => prior,
        };
        let out = self.execute_bounded(u32::MAX, body);
        TxnOutcome {
            committed: out.committed,
            attempts: out.attempts + prior,
        }
    }

    fn stats(&self) -> &SchedStats {
        &self.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.stats)
    }

    fn health(&self) -> Option<&HealthHandle> {
        Some(&self.health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_htm::MemoryLayout;

    fn bank(n_accounts: usize) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let accounts = layout.alloc("accounts", n_accounts as u64);
        let sys = TxnSystem::with_defaults(n_accounts, layout);
        for i in 0..n_accounts as u64 {
            sys.mem().store_direct(accounts.addr(i), 100);
        }
        (sys, accounts)
    }

    #[test]
    fn single_threaded_transfer() {
        let (sys, acc) = bank(2);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(4, &mut |ops| {
            let a = ops.read(0, acc.addr(0))?;
            let b = ops.read(1, acc.addr(1))?;
            ops.write(0, acc.addr(0), a - 30)?;
            ops.write(1, acc.addr(1), b + 30)?;
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 70);
        assert_eq!(sys.mem().load_direct(acc.addr(1)), 130);
        // All locks released.
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
        assert!(sys.locks().peek(sys.mem(), 1).is_free());
    }

    #[test]
    fn user_abort_rolls_back_in_place_writes() {
        let (sys, acc) = bank(1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 0)?;
            Err(ops.user_abort())
        });
        assert!(!out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 100);
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
        assert_eq!(w.stats().user_aborts, 1);
    }

    #[test]
    fn conflicting_transfers_preserve_total() {
        let n = 8;
        let (sys, acc) = bank(n);
        let sched = Arc::new(TwoPhaseLocking::new(Arc::clone(&sys)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for i in 0..300u64 {
                        let from = ((t + i) % n as u64) as VertexId;
                        let to = ((t + i * 7 + 1) % n as u64) as VertexId;
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
        for v in 0..n as u32 {
            assert!(sys.locks().peek(sys.mem(), v).is_free(), "lock {v} leaked");
        }
    }

    #[test]
    fn deadlock_prone_pattern_terminates() {
        // Two accounts, workers transferring in opposite orders — the
        // classic deadlock. Detection/victimisation must keep progress.
        let (sys, acc) = bank(2);
        let sched = Arc::new(TwoPhaseLocking::new(Arc::clone(&sys)));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    let (x, y) = if t % 2 == 0 { (0u32, 1u32) } else { (1, 0) };
                    for _ in 0..200 {
                        let out = w.execute(4, &mut |ops| {
                            let a = ops.read(x, acc.addr(u64::from(x)))?;
                            ops.write(x, acc.addr(u64::from(x)), a.wrapping_add(1))?;
                            let b = ops.read(y, acc.addr(u64::from(y)))?;
                            ops.write(y, acc.addr(u64::from(y)), b.wrapping_sub(1))?;
                            Ok(())
                        });
                        assert!(out.committed);
                    }
                });
            }
        });
        let a = sys.mem().load_direct(acc.addr(0));
        let b = sys.mem().load_direct(acc.addr(1));
        assert_eq!(a.wrapping_add(b), 200);
    }

    #[test]
    fn repeated_reads_take_one_lock() {
        let (sys, acc) = bank(1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        w.execute(2, &mut |ops| {
            for _ in 0..10 {
                ops.read(0, acc.addr(0))?;
            }
            Ok(())
        });
        assert_eq!(w.stats().reads, 10);
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
    }

    #[test]
    fn read_then_write_upgrades() {
        let (sys, acc) = bank(1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            let v = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), v + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 101);
        assert_eq!(sys.locks().peek(sys.mem(), 0).version(), 1);
    }

    #[test]
    fn panicking_body_releases_locks_and_reraises() {
        let (sys, acc) = bank(2);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.execute(4, &mut |ops| {
                ops.write(0, acc.addr(0), 1)?;
                panic!("body bug");
            })
        }));
        assert!(caught.is_err(), "the panic must still surface");
        assert_eq!(w.stats().panics, 1);
        // The in-place write was undone and every lock released.
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 100);
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
        // The worker remains usable afterwards.
        let out = w.execute(2, &mut |ops| {
            let v = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), v + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 101);
    }

    #[test]
    fn bounded_execution_gives_up_cleanly() {
        let (sys, acc) = bank(1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        // Another worker holds vertex 0 exclusively for the whole test.
        let blocker = sys.new_worker_id();
        sys.locks().try_exclusive(sys.mem(), 0, blocker).unwrap();
        let out = w.execute_bounded(2, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(!out.committed);
        assert_eq!(out.attempts, 2);
        assert!(w.stats().anon_wait_victims >= 2);
        // Once the blocker releases, the same worker commits normally.
        sys.locks().unlock_exclusive(sys.mem(), 0, blocker, false);
        let out = w.execute(2, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(out.committed);
    }

    #[test]
    fn wall_clock_deadline_victimises_through_the_scheduler() {
        use crate::deadlock::WaitConfig;
        use crate::system::SystemConfig;
        use std::time::{Duration, Instant};
        // An effectively unbounded spin budget: only the wall-clock
        // deadline can end the wait, so this proves the scheduler threads
        // the start instant through to the wait table.
        let mut layout = MemoryLayout::new();
        let acc = layout.alloc("accounts", 1);
        let sys = TxnSystem::build(
            1,
            layout,
            SystemConfig {
                wait: WaitConfig {
                    spins: u32::MAX,
                    deadline: Some(Duration::from_millis(5)),
                },
                ..SystemConfig::default()
            },
        );
        sys.mem().store_direct(acc.addr(0), 100);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let blocker = sys.new_worker_id();
        sys.locks().try_exclusive(sys.mem(), 0, blocker).unwrap();
        let t0 = Instant::now();
        let out = w.execute_bounded(1, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(!out.committed);
        assert_eq!(w.stats().anon_wait_victims, 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(5),
            "gave up before the deadline"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "deadline never fired"
        );
        // Once the blocker releases, the same worker commits normally.
        sys.locks().unlock_exclusive(sys.mem(), 0, blocker, false);
        let out = w.execute(1, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(out.committed);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn injected_lock_failures_respect_budget_and_exemption() {
        use crate::faults::{FaultPlan, FaultSpec};
        let (sys, acc) = bank(1);
        sys.set_fault_plan(Some(FaultPlan::new(FaultSpec {
            lock_fail_permille: 1000,
            ..FaultSpec::default()
        })));
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = w.execute_bounded(3, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(!out.committed, "100% lock-fail injection must starve 2PL");
        assert_eq!(w.stats().injected_faults, 3);
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
        // Exemption (the serial-token path) bypasses the plan entirely.
        w.set_fault_exempt(true);
        let out = w.execute(2, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(out.committed);
    }

    #[test]
    fn ordered_mode_commits_under_contention() {
        let (sys, acc) = bank(4);
        let sched = Arc::new(TwoPhaseLocking::new_ordered(Arc::clone(&sys)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for _ in 0..200 {
                        // Ascending-order access, as the mode requires.
                        w.execute(8, &mut |ops| {
                            for v in 0..4u32 {
                                let x = ops.read(v, acc.addr(u64::from(v)))?;
                                ops.write(v, acc.addr(u64::from(v)), x + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        for v in 0..4u64 {
            assert_eq!(sys.mem().load_direct(acc.addr(v)), 100 + 800);
        }
    }
}
