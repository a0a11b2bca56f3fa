//! Strict two-phase locking — the paper's pessimistic baseline and the
//! protocol of TuFast's L mode (Algorithm 3).
//!
//! Reads take shared vertex locks, writes exclusive ones, and every lock is
//! held to the end (strictness). The body never stores in place: a read
//! is its own buffered write, else a plain load under the held lock, and a
//! write is buffered. One [`TplAttempt`] runs both lock orders:
//!
//! * **Discovered** (TuFast's L and serial rungs, and 2PL's
//!   [`execute`](TxnWorker::execute)): a vertex is locked on its first
//!   access, one direct read-modify-write (one clock tick) each. A blocked
//!   worker registers a wait-for edge; a cycle — or a bounded-wait timeout
//!   on anonymous reader-held locks — makes the requester the victim, and
//!   it releases everything and restarts.
//! * **Declared** ([`execute_declared`](TxnWorker::execute_declared)): the
//!   paper's other form of L mode, deadlock *prevention* by ordered
//!   acquisition (§IV-E). The declared lock-word lines are locked
//!   ascending and every word is tested: a busy one lets the lines go
//!   unchanged and waits holding nothing; else every word is taken at one
//!   tick. No cycle can form, so there is no wait-for edge and no victim.
//!   A body that strays from its footprint releases everything and reruns
//!   discovered.
//!
//! Commit and rollback end in one release batch (see [`crate::commit`]):
//!
//! ```text
//! release  lock the buffered words' lines (commit only) + every held
//!          lock word's line → store the buffered words (commit only)
//!          → mint one tick → release every hold (a commit version bumps
//!          only for a published write) → unlock everything at the tick
//! ```
//!
//! So a transaction ticks the clock once per acquisition plus once — two
//! on the declared path, whatever the footprint — and nothing it wrote is
//! in memory before its ticket.

use std::sync::Arc;

use tufast_htm::witness::{self, LockClass};
use tufast_htm::{Addr, LineBatch, TxMemory, WordMap};

use crate::commit::{relax, release_at_ticket};
use crate::deadlock::WaitOutcome;
use crate::faults::FaultHandle;
use crate::health::{HealthHandle, Rung};
use crate::lifecycle::{Lifecycle, Verdict};
use crate::locks::LockWord;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{
    Declared, GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome,
    TxnWorker,
};
use crate::VertexId;

/// Turns a declared acquisition waits on a busy vertex before it probes the
/// job's health and tries again: a job that is cancelled while a peer sits
/// on a vertex unwinds from the wait, where nothing is held.
const WAIT_PROBE_TURNS: u32 = 1024;

/// The 2PL scheduler.
pub struct TwoPhaseLocking {
    sys: Arc<TxnSystem>,
}

impl TwoPhaseLocking {
    /// 2PL with deadlock detection (and deadlock prevention for declared
    /// footprints).
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        TwoPhaseLocking { sys }
    }
}

impl GraphScheduler for TwoPhaseLocking {
    type Worker = TplWorker;

    fn worker(&self) -> TplWorker {
        TplWorker {
            lc: Lifecycle::new(&self.sys),
            locking: TplAttempt::default(),
        }
    }

    fn name(&self) -> &'static str {
        "2PL"
    }
}

/// Per-thread 2PL execution state.
pub struct TplWorker {
    lc: Lifecycle,
    locking: TplAttempt,
}

impl AsMut<Lifecycle> for TplWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

/// The state of a 2PL attempt — the holds, the buffered writes and the
/// batch scratch — reused from attempt to attempt. [`TplWorker`] runs both
/// its lock orders on one, and TuFast's router its L and serial rungs on
/// another: both through [`TplAttempt::attempt`], each on its own
/// [`Lifecycle`].
pub struct TplAttempt {
    /// Every hold, in acquisition order: ascending for a declared
    /// footprint, a vertex once.
    held: Vec<Slot>,
    /// Discovered: vertex id → its index in `held`.
    index: WordMap,
    /// The writes, unpublished until the release.
    buffered: WordMap,
    /// Batch scratch: the lines of a declared acquisition or of a release.
    batch: LineBatch,
}

impl Default for TplAttempt {
    fn default() -> Self {
        TplAttempt {
            held: Vec::with_capacity(32),
            index: WordMap::with_capacity(32),
            buffered: WordMap::with_capacity(16),
            batch: LineBatch::with_capacity(32),
        }
    }
}

/// A lock order as a type, for [`Locking`]: `true` is declared.
struct Order<const DECLARED: bool>;

/// One held vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    v: VertexId,
    /// Held exclusively (else shared).
    write: bool,
    /// The body wrote a word of `v`: a commit bumps its version.
    wrote: bool,
}

impl Slot {
    /// Whether a vertex whose lock word reads `word` can be taken in this
    /// slot's mode.
    #[inline]
    fn grantable(self, word: LockWord) -> bool {
        if self.write {
            word.is_free()
        } else {
            word.shared_compatible()
        }
    }
}

impl TplAttempt {
    /// One discovered attempt of `body` as the worker `lc`. It commits if
    /// the body finishes; whatever ends it, the release leaves nothing held
    /// — also when the body panicked, which the rung then re-raises.
    pub fn attempt(
        &mut self,
        lc: &mut Lifecycle,
        body: &mut TxnBody<'_>,
        obs: &ObsHandle,
    ) -> Verdict {
        self.held.clear();
        self.index.clear();
        self.run_on_holds(lc, body, obs, Order::<false>)
    }

    /// Run `body` on the holds (`DECLARED`: the footprint, all held
    /// already) and end in [`release_holds`](Self::release_holds),
    /// publishing iff the body finished.
    fn run_on_holds<const DECLARED: bool>(
        &mut self,
        lc: &mut Lifecycle,
        body: &mut TxnBody<'_>,
        obs: &ObsHandle,
        _: Order<DECLARED>,
    ) -> Verdict {
        let id = lc.id;
        self.buffered.clear();
        let mut ops = Locking::<DECLARED> {
            id,
            sys: &lc.sys,
            mem: lc.sys.mem(),
            stats: &mut lc.stats,
            health: &lc.health,
            faults: &mut lc.faults,
            held: &mut self.held,
            index: &mut self.index,
            buffered: &mut self.buffered,
        };
        let result = obs.run_body(&mut ops, id, body);
        if result.is_ok() {
            obs.pre_commit(id);
        }
        let ticket = self.release_holds(lc, result.is_ok());
        if result.is_ok() {
            obs.commit_ticketed(id, || ticket);
        }
        result.into()
    }

    /// The one release, of a commit or a rollback: lock the lines of the
    /// buffered words (`commit` only) and of every held lock word, store
    /// the words (`commit` only), mint the ticket, release every hold —
    /// a written vertex's version bumps on a commit — and unlock at the
    /// ticket, which is returned. A commit resets the worker's victim
    /// count.
    fn release_holds(&mut self, lc: &Lifecycle, commit: bool) -> u64 {
        let (mem, locks) = (lc.sys.mem(), lc.sys.locks());
        self.batch.clear();
        if commit {
            for (addr, _) in self.buffered.iter() {
                self.batch.push(addr.line());
            }
        }
        for slot in &self.held {
            self.batch.push(locks.addr(slot.v).line());
        }
        let ticket = release_at_ticket(mem, &mut self.batch, || {
            if commit {
                for (addr, val) in self.buffered.iter() {
                    mem.store_locked(addr, val);
                }
            }
            for slot in &self.held {
                let word = locks.peek(mem, slot.v);
                let released = if slot.write {
                    debug_assert_eq!(word.writer(), Some(lc.id), "released by non-owner");
                    word.released(commit && slot.wrote)
                } else {
                    debug_assert!(word.readers() > 0, "no shared hold on {}", slot.v);
                    word.with_readers(word.readers().saturating_sub(1))
                };
                mem.store_locked(locks.addr(slot.v), released.0);
            }
        });
        for _ in &self.held {
            witness::release(LockClass::VertexLock);
        }
        if commit {
            lc.sys.wait_table().record_commit(lc.id);
        }
        ticket
    }
}

/// A 2PL attempt in flight: the parts of the worker's lifecycle and of
/// the attempt's state that the body reads and writes through, each
/// borrowed on its own so an access reaches it directly.
///
/// `DECLARED`: the holds are a declared footprint, and an access outside
/// it, or a write to a vertex it holds shared, is a stray. A const, so the
/// declared instance carries none of the discovered order's acquisition
/// code: with a runtime flag the declared path read `mut-volatile` about
/// 10 % slower (one thread, 2-vCPU host).
struct Locking<'a, const DECLARED: bool> {
    id: u32,
    sys: &'a TxnSystem,
    mem: &'a TxMemory,
    stats: &'a mut SchedStats,
    health: &'a HealthHandle,
    faults: &'a mut FaultHandle,
    held: &'a mut Vec<Slot>,
    index: &'a mut WordMap,
    buffered: &'a mut WordMap,
}

impl<const DECLARED: bool> Locking<'_, DECLARED> {
    /// Blocking acquisition of `v` (shared or exclusive) with deadlock
    /// handling.
    fn acquire(&mut self, v: VertexId, exclusive: bool) -> Result<(), TxInterrupt> {
        if self.faults.lock_acquisition_fails() {
            // Injected acquisition failure: indistinguishable from a
            // bounded-wait victimization.
            return Err(TxInterrupt::Restart);
        }
        let (mem, id) = (self.mem, self.id);
        let locks = self.sys.locks();
        let waits = self.sys.wait_table();
        let mut anon_attempt = 0u32;
        // The bounded-wait retry below makes this a *blocking*
        // acquisition as far as lock ordering is concerned.
        let wait = witness::acquire(LockClass::VertexLock);
        loop {
            let tried = if exclusive {
                locks.try_exclusive(mem, v, id)
            } else {
                locks.try_shared(mem, v)
            };
            let Err(pre) = tried else {
                // Held until the release batch.
                wait.keep();
                return Ok(());
            };
            // A shared acquisition fails only on a writer; an exclusive one
            // also on readers, who are anonymous: bounded wait either way.
            debug_assert!(exclusive || pre.writer().is_some(), "lock word {v} corrupt");
            if let Some(holder) = pre.writer() {
                debug_assert_ne!(holder, id, "re-acquisition of held vertex {v}");
                if waits.register_and_check(id, holder) {
                    self.stats.deadlock_victims += 1;
                    return Err(TxInterrupt::Restart);
                }
            }
            let escalated = self.health.escalated(Rung::Victims);
            let outcome = waits.bounded_anonymous_wait(id, anon_attempt, escalated);
            waits.clear(id);
            if outcome == WaitOutcome::Victim {
                self.stats.anon_wait_victims += 1;
                return Err(TxInterrupt::Restart);
            }
            anon_attempt += 1;
        }
    }

    /// The index in `held` of `v`'s hold, at least exclusive if `write`:
    /// looked up in a declared footprint (a miss is a stray), else
    /// acquired or upgraded now.
    fn hold(&mut self, v: VertexId, write: bool) -> Result<usize, TxInterrupt> {
        let found = if DECLARED {
            let at = self.held.binary_search_by_key(&v, |slot| slot.v);
            at.map_err(|_| TxInterrupt::Restart)?
        } else if let Some(at) = self.index.get(Addr(u64::from(v))) {
            at as usize
        } else {
            self.acquire(v, write)?;
            self.index
                .insert(Addr(u64::from(v)), self.held.len() as u64);
            self.held.push(Slot {
                v,
                write,
                wrote: false,
            });
            return Ok(self.held.len() - 1);
        };
        let slot = &mut self.held[found];
        if write && !slot.write {
            if DECLARED {
                return Err(TxInterrupt::Restart);
            }
            // An upgrade. Failure risks the classic upgrade deadlock, so
            // the requester becomes the victim at once.
            if !self.sys.locks().try_upgrade(self.mem, v, self.id) {
                self.stats.deadlock_victims += 1;
                return Err(TxInterrupt::Restart);
            }
            slot.write = true;
        }
        Ok(found)
    }
}

impl<const DECLARED: bool> TxnOps for Locking<'_, DECLARED> {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.stats.reads += 1;
        self.hold(v, false)?;
        Ok(match self.buffered.get(addr) {
            Some(own) => own,
            None => self.mem.load_direct(addr),
        })
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.stats.writes += 1;
        let at = self.hold(v, true)?;
        self.held[at].wrote = true;
        self.buffered.insert(addr, val);
        Ok(())
    }
}

impl TplWorker {
    /// The discovered rung: unbounded attempts, after `attempts` earlier
    /// body executions of the same transaction.
    fn discovered(&mut self, mut attempts: u32, body: &mut TxnBody<'_>) -> TxnOutcome {
        Lifecycle::rung(self, u32::MAX, &mut attempts, |w, obs| {
            w.locking.attempt(&mut w.lc, body, obs)
        })
        .outcome(attempts)
    }

    /// Normalise `footprint` into the holds: ascending, a vertex once,
    /// exclusive if any of its entries says so. `false` when it names a
    /// vertex that has no lock word.
    fn declare(&mut self, footprint: &[Declared]) -> bool {
        let held = &mut self.locking.held;
        held.clear();
        held.extend(footprint.iter().map(|d| Slot {
            v: d.v,
            write: d.write,
            wrote: false,
        }));
        held.sort_unstable_by_key(|slot| slot.v);
        held.dedup_by(|later, first| {
            let same = later.v == first.v;
            first.write |= same && later.write;
            same
        });
        let covered = self.lc.sys.locks().len();
        held.last().is_none_or(|slot| u64::from(slot.v) < covered)
    }

    /// One all-or-nothing try at the declared vertices, under their
    /// lock-word lines: a busy one is returned with nothing changed (the
    /// lines go back at their old versions, tickless); else every word is
    /// held and the lines are republished at one tick, which aborts the
    /// hardware transactions subscribed to them as an acquisition must.
    fn try_acquire(&mut self) -> Result<(), Slot> {
        let (mem, locks) = (self.lc.sys.mem(), self.lc.sys.locks());
        let st = &mut self.locking;
        st.batch.clear();
        for slot in &st.held {
            st.batch.push(locks.addr(slot.v).line());
        }
        mem.lock_lines(&mut st.batch);
        let busy = st.held.iter().find(|s| !s.grantable(locks.peek(mem, s.v)));
        if let Some(&busy) = busy {
            mem.unlock_lines(&mut st.batch, None);
            return Err(busy);
        }
        for slot in &st.held {
            let word = locks.peek(mem, slot.v);
            let held = if slot.write {
                word.with_writer(Some(self.lc.id))
            } else {
                word.with_readers(word.readers() + 1)
            };
            mem.store_locked(locks.addr(slot.v), held.0);
            // Held until the release batch.
            witness::acquired(LockClass::VertexLock).keep();
        }
        let tick = mem.clock_tick_pub();
        mem.unlock_lines(&mut st.batch, Some(tick));
        Ok(())
    }

    /// Wait a bounded while, holding nothing, for `busy` to look grantable
    /// (`None`: an injected failure, gone after a turn). Whoever holds it
    /// can always finish — no waiter here holds anything it could need — so
    /// the wait registers no wait-for edge and picks no victim.
    fn await_grantable(&self, busy: Option<Slot>) {
        let (mem, locks) = (self.lc.sys.mem(), self.lc.sys.locks());
        let _wait = witness::acquire(LockClass::VertexLock);
        for turn in 0..WAIT_PROBE_TURNS {
            relax(turn);
            if busy.is_none_or(|slot| slot.grantable(locks.peek(mem, slot.v))) {
                return;
            }
        }
    }

    /// Acquire every declared vertex or, when the job stops first, none.
    fn acquire_declared(&mut self) -> bool {
        loop {
            let busy = if self.lc.faults.lock_acquisition_fails() {
                None
            } else {
                match self.try_acquire() {
                    Ok(()) => return true,
                    Err(busy) => Some(busy),
                }
            };
            self.await_grantable(busy);
            // Nothing is held between tries: a stopped job unwinds here.
            if self.lc.stop_requested() {
                return false;
            }
        }
    }
}

impl TxnWorker for TplWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        match crate::rmode::read_only_prologue(&mut self.lc, hint, body) {
            Ok(out) => out,
            Err(prior) => self.discovered(prior, body),
        }
    }

    fn execute_declared(&mut self, footprint: &[Declared], body: &mut TxnBody<'_>) -> TxnOutcome {
        let mut attempts = 0;
        if self.declare(footprint) {
            // A rung of one: acquire, run the body on the holds, release.
            let end = Lifecycle::rung(self, 1, &mut attempts, |w, obs| {
                if !w.acquire_declared() {
                    return Verdict::Stopped;
                }
                w.locking.run_on_holds(&mut w.lc, body, obs, Order::<true>)
            });
            if let Some(out) = end.settled(attempts) {
                return out;
            }
            // The body strayed from its footprint; nothing it did was
            // published. Run it again the discovered way.
        }
        self.discovered(attempts, body)
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
    fn user_abort_publishes_no_buffered_write() {
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
        // The buffered write was never published and every lock released.
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

    /// A rung of at most `budget` discovered attempts on `w`, as TuFast's
    /// L rung runs them.
    fn bounded(w: &mut TplWorker, budget: u32, body: &mut TxnBody<'_>) -> TxnOutcome {
        let mut attempts = 0;
        Lifecycle::rung(w, budget, &mut attempts, |w, obs| {
            w.locking.attempt(&mut w.lc, body, obs)
        })
        .outcome(attempts)
    }

    #[test]
    fn bounded_execution_gives_up_cleanly() {
        let (sys, acc) = bank(1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        // Another worker holds vertex 0 exclusively for the whole test.
        let blocker = sys.new_worker_id();
        sys.locks().try_exclusive(sys.mem(), 0, blocker).unwrap();
        let out = bounded(&mut w, 2, &mut |ops| {
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
    fn injected_lock_failures_respect_budget_and_exemption() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};
        let (sys, acc) = bank(1);
        let plan = FaultPlan::new(FaultSpec {
            lock_fail_permille: 1000,
            ..FaultSpec::default()
        });
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let out = bounded(&mut w, 3, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(!out.committed, "100% lock-fail injection must starve 2PL");
        assert_eq!(plan.injected(FaultKind::LockFail), 3);
        assert!(sys.locks().peek(sys.mem(), 0).is_free());
        // Exemption (the serial rung's) bypasses the plan entirely.
        w.lc.faults.set_exempt(true);
        let out = w.execute(2, &mut |ops| {
            ops.read(0, acc.addr(0))?;
            Ok(())
        });
        assert!(out.committed);
    }

    /// `w`'s declared footprint as normalised: `(vertex, exclusive)`.
    fn normalised(w: &mut TplWorker, footprint: &[Declared]) -> Vec<(VertexId, bool)> {
        assert!(w.declare(footprint));
        w.locking.held.iter().map(|s| (s.v, s.write)).collect()
    }

    fn all_free(sys: &TxnSystem, n: u32) -> bool {
        (0..n).all(|v| sys.locks().peek(sys.mem(), v).is_free())
    }

    #[test]
    fn footprints_normalise_to_one_ascending_slot_a_vertex_strongest_mode() {
        let (sys, _) = bank(8);
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let (r, x) = (Declared::read, Declared::write);
        assert_eq!(
            normalised(&mut w, &[r(5), x(2), r(7), x(5), r(2)]),
            [(2, true), (5, true), (7, false)]
        );
        // The mutation footprints whose vertices coincide.
        assert_eq!(normalised(&mut w, &[r(0), x(0), x(0)]), [(0, true)]);
        assert_eq!(
            normalised(&mut w, &[r(0), x(3), x(0)]),
            [(0, true), (3, true)]
        );
        assert_eq!(
            normalised(&mut w, &[r(0), x(0), x(6)]),
            [(0, true), (6, true)]
        );
        assert_eq!(normalised(&mut w, &[]), []);
        // A vertex without a lock word is no footprint at all.
        assert!(!w.declare(&[r(0), x(8)]));
        assert!(!w.declare(&[x(u32::MAX)]));
    }

    #[test]
    fn declared_transfer_holds_its_vertices_and_publishes_at_two_ticks() {
        let (sys, acc) = bank(4);
        let (mem, locks) = (sys.mem(), sys.locks());
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let id = w.lc.id;
        let clock = mem.clock_now_pub();
        let footprint = [Declared::write(2), Declared::read(3), Declared::write(0)];
        let out = w.execute_declared(&footprint, &mut |ops| {
            // All three are held before the first access, in their modes.
            assert_eq!(locks.peek(mem, 0).writer(), Some(id));
            assert_eq!(locks.peek(mem, 2).writer(), Some(id));
            assert_eq!(locks.peek(mem, 3).readers(), 1);
            assert!(locks.peek(mem, 1).is_free(), "undeclared neighbour");
            let (a, b) = (ops.read(0, acc.addr(0))?, ops.read(2, acc.addr(2))?);
            ops.read(3, acc.addr(3))?;
            ops.write(0, acc.addr(0), a - 30)?;
            assert_eq!(ops.read(0, acc.addr(0))?, 70, "own write");
            assert_eq!(mem.load_direct(acc.addr(0)), 100, "still buffered");
            ops.write(2, acc.addr(2), b + 30)
        });
        assert_eq!((out.committed, out.attempts), (true, 1));
        assert_eq!(mem.clock_now_pub(), clock + 2, "acquire + release");
        assert_eq!(mem.load_direct(acc.addr(0)), 70);
        assert_eq!(mem.load_direct(acc.addr(2)), 130);
        assert!(all_free(&sys, 4));
        let versions: Vec<u32> = (0..4).map(|v| locks.peek(mem, v).version()).collect();
        assert_eq!(versions, [1, 0, 1, 0], "written vertices bump once");
        let stats = w.stats();
        assert_eq!((stats.commits, stats.reads, stats.writes), (1, 4, 2));
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn stray_accesses_fall_back_commit_once_and_leak_nothing() {
        // An undeclared read, and a write to a read-declared vertex.
        type Body<'a> =
            &'a dyn Fn(&mut dyn TxnOps, &tufast_htm::MemRegion) -> Result<(), TxInterrupt>;
        let undeclared_read: Body<'_> = &|ops, acc| {
            let x = ops.read(0, acc.addr(0))?;
            let y = ops.read(3, acc.addr(3))?;
            ops.write(0, acc.addr(0), x + y)
        };
        let under_declared_write: Body<'_> = &|ops, acc| {
            let x = ops.read(0, acc.addr(0))?;
            ops.write(0, acc.addr(0), x + 100)?;
            ops.write(1, acc.addr(1), x)
        };
        for body in [undeclared_read, under_declared_write] {
            let (sys, acc) = bank(4);
            let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
            let mut runs = 0;
            let footprint = [Declared::write(0), Declared::read(1)];
            let out = w.execute_declared(&footprint, &mut |ops| {
                runs += 1;
                body(ops, &acc)
            });
            assert_eq!((out.committed, out.attempts, runs), (true, 2, 2));
            let got = [0, 1].map(|i| sys.mem().load_direct(acc.addr(i)));
            assert_eq!(got, [200, 100], "applied exactly once");
            assert_eq!((w.stats().commits, w.stats().restarts), (1, 1));
            assert!(all_free(&sys, 4));
        }
    }

    #[test]
    fn declared_user_abort_and_panic_publish_nothing_and_free_every_lock() {
        let (sys, acc) = bank(2);
        let mem = sys.mem();
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let footprint = [Declared::write(0), Declared::read(1)];
        let line = acc.addr(0).line();
        let stamped = mem.line_state(line);

        let out = w.execute_declared(&footprint, &mut |ops| {
            ops.write(0, acc.addr(0), 1)?;
            Err(ops.user_abort())
        });
        assert_eq!((out.committed, out.attempts), (false, 1));
        assert_eq!(w.stats().user_aborts, 1);

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.execute_declared(&footprint, &mut |ops| {
                ops.write(0, acc.addr(0), 2)?;
                panic!("body bug");
            })
        }));
        assert!(caught.is_err(), "the panic must still surface");
        assert_eq!(w.stats().panics, 1);

        assert_eq!(mem.load_direct(acc.addr(0)), 100);
        assert_eq!(mem.line_state(line), stamped, "the data line never moved");
        assert!(all_free(&sys, 2));
        assert_eq!(sys.locks().peek(mem, 0).version(), 0, "nothing was written");
        // The worker remains usable, declared or not.
        let out = w.execute_declared(&footprint, &mut |ops| ops.write(0, acc.addr(0), 7));
        assert!(out.committed);
        assert_eq!(mem.load_direct(acc.addr(0)), 7);
    }

    #[test]
    fn declared_acquisition_waits_holding_nothing_until_the_holder_lets_go() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (sys, acc) = bank(3);
        let (mem, locks) = (sys.mem(), sys.locks());
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        // A reader on 2 blocks only the exclusive request for it.
        locks.try_shared(mem, 2).unwrap();
        let released = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let footprint = [Declared::write(0), Declared::write(2)];
                let out = w.execute_declared(&footprint, &mut |ops| {
                    assert!(released.load(Ordering::Acquire), "ran under the reader");
                    ops.write(0, acc.addr(0), 1)?;
                    ops.write(2, acc.addr(2), 1)
                });
                assert!(out.committed);
            });
            // While it waits it holds neither vertex: 0 stays grantable.
            for _ in 0..200 {
                locks.try_exclusive(mem, 0, 99).expect("waiter holds 0");
                locks.unlock_exclusive(mem, 0, 99, false);
                std::thread::yield_now();
            }
            released.store(true, Ordering::Release);
            locks.unlock_shared(mem, 2);
        });
        assert_eq!(mem.load_direct(acc.addr(2)), 1);
        assert!(all_free(&sys, 3));
        assert_eq!(w.stats().deadlock_victims + w.stats().anon_wait_victims, 0);
    }

    #[test]
    fn opposite_textual_orders_never_deadlock() {
        // {a, b} against {b, a}: the classic cycle, impossible here by
        // construction — so no victim is ever chosen.
        let (sys, acc) = bank(2);
        let sched = Arc::new(TwoPhaseLocking::new(Arc::clone(&sys)));
        let victims = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (sched, victims) = (Arc::clone(&sched), &victims);
                s.spawn(move || {
                    let mut w = sched.worker();
                    let (x, y) = if t % 2 == 0 { (0u32, 1u32) } else { (1, 0) };
                    let footprint = [Declared::write(x), Declared::write(y)];
                    for _ in 0..300 {
                        let out = w.execute_declared(&footprint, &mut |ops| {
                            let a = ops.read(x, acc.addr(u64::from(x)))?;
                            ops.write(x, acc.addr(u64::from(x)), a.wrapping_add(1))?;
                            let b = ops.read(y, acc.addr(u64::from(y)))?;
                            ops.write(y, acc.addr(u64::from(y)), b.wrapping_sub(1))
                        });
                        assert_eq!((out.committed, out.attempts), (true, 1));
                    }
                    let stats = w.take_stats();
                    let n = stats.deadlock_victims + stats.anon_wait_victims + stats.restarts;
                    victims.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        let (a, b) = (
            sys.mem().load_direct(acc.addr(0)),
            sys.mem().load_direct(acc.addr(1)),
        );
        assert_eq!(a.wrapping_add(b), 200);
        assert_eq!(victims.into_inner(), 0);
        assert!(all_free(&sys, 2));
    }

    #[test]
    fn declared_and_incremental_transfers_share_the_lock_words() {
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
                        let body = &mut |ops: &mut dyn TxnOps| {
                            let a = ops.read(from, acc.addr(u64::from(from)))?;
                            let b = ops.read(to, acc.addr(u64::from(to)))?;
                            ops.write(from, acc.addr(u64::from(from)), a.wrapping_sub(1))?;
                            ops.write(to, acc.addr(u64::from(to)), b.wrapping_add(1))
                        };
                        let out = if t % 2 == 0 {
                            w.execute_declared(&[Declared::write(from), Declared::write(to)], body)
                        } else {
                            w.execute(4, body)
                        };
                        assert!(out.committed);
                    }
                });
            }
        });
        let total: u64 = (0..n as u64)
            .map(|i| sys.mem().load_direct(acc.addr(i)))
            .sum();
        assert_eq!(total, 100 * n as u64);
        assert!(all_free(&sys, n as u32));
    }

    #[test]
    fn a_stopped_job_unwinds_from_the_declared_wait() {
        let (sys, acc) = bank(1);
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let id = w.lc.id;
        // Nobody will ever release vertex 0; the cancel is the only way out.
        sys.locks().try_exclusive(sys.mem(), 0, 99).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let out = w.execute_declared(&[Declared::read(0)], &mut |ops| {
                    ops.read(0, acc.addr(0)).map(drop)
                });
                assert_eq!((out.committed, out.attempts), (false, 0));
            });
            // Past its entry checkpoint (one beat), it can only be waiting.
            while sys.health().view(id).beat == 0 {
                std::thread::yield_now();
            }
            sys.cancel_token().cancel();
        });
        assert_eq!(w.stats().health_stops, 1);
        let word = sys.locks().peek(sys.mem(), 0);
        assert_eq!((word.writer(), word.readers()), (Some(99), 0), "untouched");
    }

    #[test]
    fn incremental_attempts_probe_the_preempt_site() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};
        let (sys, acc) = bank(1);
        let plan = FaultPlan::new(FaultSpec {
            seed: 7,
            preempt_permille: 1000,
            preempt_spins: 1,
            ..FaultSpec::default()
        });
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        for _ in 0..10 {
            let out = w.execute(2, &mut |ops| {
                let a = ops.read(0, acc.addr(0))?;
                ops.write(0, acc.addr(0), a + 1)
            });
            assert!(out.committed);
        }
        assert!(plan.injected(FaultKind::Preempt) >= 10, "one an attempt");
    }

    #[test]
    fn a_declared_commit_resets_the_victim_count() {
        let (sys, acc) = bank(1);
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let (id, waits) = (w.lc.id, sys.wait_table());
        let wait = waits.bounded_anonymous_wait(id, u32::MAX, true);
        assert_eq!((wait, waits.victim_count(id)), (WaitOutcome::Victim, 1));
        let out = w.execute_declared(&[Declared::write(0)], &mut |ops| {
            ops.write(0, acc.addr(0), 1)
        });
        assert!(out.committed);
        assert_eq!(waits.victim_count(id), 0);
    }

    #[test]
    fn injected_lock_failures_read_as_busy_on_the_declared_path() {
        use crate::faults::{FaultKind, FaultPlan, FaultSpec};
        let (sys, acc) = bank(2);
        let plan = FaultPlan::new(FaultSpec {
            seed: 7,
            lock_fail_permille: 700,
            lock_stall_permille: 300,
            lock_stall_spins: 16,
            ..FaultSpec::default()
        });
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let footprint = [Declared::write(0), Declared::write(1)];
        for _ in 0..50 {
            let out = w.execute_declared(&footprint, &mut |ops| {
                let a = ops.read(0, acc.addr(0))?;
                ops.write(0, acc.addr(0), a + 1)?;
                ops.write(1, acc.addr(1), a + 1)
            });
            assert_eq!(
                (out.committed, out.attempts),
                (true, 1),
                "busy, not a restart"
            );
        }
        assert!(plan.injected(FaultKind::LockFail) > 50, "the plan fired");
        assert_eq!(w.stats().restarts, 0);
        assert_eq!(sys.mem().load_direct(acc.addr(1)), 150);
        assert!(all_free(&sys, 2));
    }
}
