//! The one attempt lifecycle: every scheduler, and every rung of TuFast's
//! H→O→L ladder, runs its attempts through [`Lifecycle::rung`].
//!
//! The schedulers differ in how an attempt reads, writes, commits and rolls
//! back. They do not differ in what brackets an attempt — stop at a health
//! checkpoint, probe the attempt-boundary fault sites, count the attempt,
//! tell the observer — or in what follows its verdict: commits, restarts,
//! user aborts, panics and health stops are counted, reported and backed
//! off from (or re-raised) here and nowhere else.

use std::sync::Arc;

use tufast_htm::{AbortCode, Addr, HtmCtx};

use crate::commit::relax;
use crate::faults::FaultHandle;
use crate::health::HealthHandle;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{backoff, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome};
use crate::VertexId;

/// How one attempt ended, as the attempt's own closure reports it: by then
/// it has rolled its protocol back (or published at its ticket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Published, and the commit ticket reported to the observer.
    Committed,
    /// Rolled back; run the body again if the rung's budget allows.
    Restart,
    /// Rolled back, and another attempt on this rung cannot do better (a
    /// capacity abort, a period below the floor, a write under a read-only
    /// declaration): count the restart and leave the rung.
    Leave,
    /// The body called [`TxnOps::user_abort`]; rolled back, not retried.
    UserAbort,
    /// The body panicked; rolled back. The skeleton re-raises the payload.
    Panicked,
    /// The job stopped while the attempt waited — holding nothing, the body
    /// not yet run — and the wait counted the stop through
    /// [`Lifecycle::stop_requested`].
    Stopped,
}

impl From<TxInterrupt> for Verdict {
    #[inline]
    fn from(interrupt: TxInterrupt) -> Verdict {
        match interrupt {
            TxInterrupt::Restart => Verdict::Restart,
            TxInterrupt::UserAbort => Verdict::UserAbort,
            TxInterrupt::Panicked => Verdict::Panicked,
        }
    }
}

impl From<Result<(), TxInterrupt>> for Verdict {
    #[inline]
    fn from(result: Result<(), TxInterrupt>) -> Verdict {
        result.map_or_else(Verdict::from, |()| Verdict::Committed)
    }
}

/// How a rung of attempts ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RungEnd {
    /// An attempt committed.
    Committed,
    /// An attempt user-aborted.
    UserAborted,
    /// The job's cancel token latched at an attempt boundary.
    Stopped,
    /// The budget ran out, or an attempt left the rung: nothing is held,
    /// nothing is published, and the caller moves to its next rung.
    Exhausted,
}

impl RungEnd {
    /// The transaction's outcome after its last rung.
    #[inline]
    pub fn outcome(self, attempts: u32) -> TxnOutcome {
        TxnOutcome {
            committed: self == RungEnd::Committed,
            attempts,
        }
    }

    /// The transaction's outcome if this rung settled it; `None` sends the
    /// caller to its next rung.
    #[inline]
    pub fn settled(self, attempts: u32) -> Option<TxnOutcome> {
        (self != RungEnd::Exhausted).then(|| self.outcome(attempts))
    }
}

/// A worker's lifecycle state: who it is, and everything an attempt
/// boundary touches. Every scheduler worker owns one and lends it to
/// [`Lifecycle::rung`] through `AsMut`.
pub struct Lifecycle {
    /// The worker id (lock owner, wait-table slot and heartbeat slot),
    /// leased from the system for the worker's life.
    pub id: u32,
    /// The shared system.
    pub sys: Arc<TxnSystem>,
    /// The worker's counters. `commits`, `restarts`, `user_aborts`,
    /// `panics` and `health_stops` move in this module only.
    pub stats: SchedStats,
    /// The worker's health probe.
    pub health: HealthHandle,
    /// The worker's fault-injection probe.
    pub faults: FaultHandle,
    /// The worker's observer, as installed when the worker was created.
    pub obs: ObsHandle,
    /// Gives `id` back; the last field, so `health` has parked the slot.
    _lease: IdLease,
}

/// A leased worker id ([`TxnSystem::new_worker_id`]), given back on drop.
struct IdLease(Arc<TxnSystem>, u32);

impl Drop for IdLease {
    fn drop(&mut self) {
        self.0.release_worker_id(self.1);
    }
}

impl AsMut<Lifecycle> for Lifecycle {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        self
    }
}

impl Lifecycle {
    /// The lifecycle of a new worker on `sys`, under the lowest free
    /// worker id; dropping it gives the id back. It takes the system's
    /// fault plan and observer as they are installed now: a hook
    /// installed later reaches only workers created later.
    pub fn new(sys: &Arc<TxnSystem>) -> Lifecycle {
        let id = sys.new_worker_id();
        Lifecycle {
            id,
            sys: Arc::clone(sys),
            stats: SchedStats::default(),
            health: sys.health_handle(id),
            faults: sys.fault_handle(id),
            obs: ObsHandle::attached(sys.observer()),
            _lease: IdLease(Arc::clone(sys), id),
        }
    }

    /// Probe the job's health at a point where nothing is held; a stop is
    /// counted here, and the caller unwinds.
    #[inline]
    pub fn stop_requested(&mut self) -> bool {
        let stop = self.health.checkpoint().is_some();
        if stop {
            self.stats.health_stops += 1;
        }
        stop
    }

    /// The serial gate at a transaction's entry: wait, holding nothing,
    /// while the global serial token is [held](TxnSystem::hold_serial), so
    /// the system drains towards its one serial writer. `false` when the
    /// job stopped meanwhile (counted here): the holder may itself be
    /// stopped, and a stopped job must not wait out the drain.
    #[inline]
    pub fn serial_gate(&mut self) -> bool {
        let token = self.sys.serial_token();
        let mut turn = 0u32;
        while self.sys.mem().load_direct(token) != 0 {
            if turn % 256 == 255 && self.stop_requested() {
                return false;
            }
            relax(turn);
            turn = turn.wrapping_add(1);
        }
        true
    }

    /// Run one rung of at most `budget` attempts for the worker `w`.
    ///
    /// Each attempt: health checkpoint → count it (in `attempts`, which
    /// runs across a transaction's rungs) → `preempt` / `stall_point` →
    /// `attempt_begin` → `run_once`, which runs the body through
    /// [`ObsHandle::run_body`], commits or rolls its own protocol back, and
    /// says how it went. Everything a [`Verdict`] implies for the counters,
    /// the health board, the observer, the backoff and a parked panic
    /// happens here; `run_once` holds nothing when it returns.
    ///
    /// Always inlined: a rung is its caller's retry loop, and the router's
    /// H rung measurably suffers (`txn-rw`, `pagerank`) when the compiler
    /// outlines it.
    #[inline(always)]
    pub fn rung<W: AsMut<Lifecycle>>(
        w: &mut W,
        budget: u32,
        attempts: &mut u32,
        mut run_once: impl FnMut(&mut W, &ObsHandle) -> Verdict,
    ) -> RungEnd {
        let obs = w.as_mut().obs.clone();
        let mut tries = 0u32;
        while tries < budget {
            let lc = w.as_mut();
            if lc.stop_requested() {
                return RungEnd::Stopped;
            }
            tries += 1;
            *attempts += 1;
            lc.faults.preempt();
            lc.faults.stall_point();
            let id = lc.id;
            obs.attempt_begin(id);
            let verdict = run_once(w, &obs);
            let lc = w.as_mut();
            match verdict {
                Verdict::Committed => {
                    lc.stats.commits += 1;
                    lc.health.note_commit();
                    return RungEnd::Committed;
                }
                Verdict::Restart | Verdict::Leave => {
                    lc.stats.restarts += 1;
                    lc.health.note_restart();
                    obs.abort(id, false);
                    if verdict == Verdict::Leave {
                        break;
                    }
                    if tries < budget {
                        backoff(tries, id);
                    }
                }
                Verdict::UserAbort => {
                    lc.stats.user_aborts += 1;
                    obs.abort(id, true);
                    return RungEnd::UserAborted;
                }
                Verdict::Panicked => {
                    lc.stats.panics += 1;
                    obs.abort(id, false);
                    crate::obs::resume_body_panic();
                }
                Verdict::Stopped => {
                    // The body never ran: not an execution to report.
                    *attempts -= 1;
                    obs.abort(id, false);
                    return RungEnd::Stopped;
                }
            }
        }
        RungEnd::Exhausted
    }
}

/// What a buffered-write scheduler (OCC, TO, H-TO) supplies to
/// [`execute_buffered`]: its reads and writes, and these two steps.
pub(crate) trait Buffered: TxnOps + AsMut<Lifecycle> {
    /// Drop the previous attempt's buffers and start a fresh attempt.
    fn begin_attempt(&mut self);
    /// The protocol's commit; `Err` restarts the transaction.
    fn try_commit(&mut self, obs: &ObsHandle) -> Result<(), TxInterrupt>;
}

/// Run `body` to an outcome on a buffered-write scheduler: the R-mode
/// prologue for declared-pure bodies, then one unbounded rung. Writes are
/// buffered and nothing is held between attempts, so dropping the buffers
/// (`begin_attempt`) is the whole rollback — also for a panicking body.
pub(crate) fn execute_buffered<W: Buffered>(
    w: &mut W,
    hint: TxnHint,
    body: &mut TxnBody<'_>,
) -> TxnOutcome {
    let mut attempts = match crate::rmode::read_only_prologue(w.as_mut(), hint, body) {
        Ok(out) => return out,
        Err(prior) => prior,
    };
    Lifecycle::rung(w, u32::MAX, &mut attempts, |w, obs| {
        w.begin_attempt();
        let id = w.as_mut().id;
        obs.run_body(w, id, body)
            .and_then(|()| {
                obs.pre_commit(id);
                if w.as_mut().faults.commit_fails() {
                    return Err(TxInterrupt::Restart);
                }
                w.try_commit(obs)
            })
            .into()
    })
    .outcome(attempts)
}

/// The operations of an attempt that runs the whole body inside one
/// hardware transaction (TuFast's H mode, HSync's fast path, STM).
pub trait HtmBodyOps: TxnOps {
    /// The hardware context the attempt runs in.
    fn ctx(&mut self) -> &mut HtmCtx;
    /// The abort code of the operation that failed, if one did.
    fn last_abort(&self) -> Option<AbortCode>;
}

/// Body ops that run everything inside one transaction of `ctx`: HSync's
/// speculative path and STM, which models its per-access instrumentation
/// cost as `penalty_spins` spins before each access (HSync passes 0).
pub(crate) struct HtmOps<'a> {
    pub(crate) ctx: &'a mut HtmCtx,
    pub(crate) stats: &'a mut SchedStats,
    pub(crate) penalty_spins: u32,
    pub(crate) last_abort: Option<AbortCode>,
}

impl HtmOps<'_> {
    /// Spin the penalty, then run `op` in the open transaction. A body
    /// that keeps calling ops after an abort it failed to propagate keeps
    /// being told to restart.
    #[inline]
    fn access<T>(
        &mut self,
        op: impl FnOnce(&mut HtmCtx) -> Result<T, AbortCode>,
    ) -> Result<T, TxInterrupt> {
        for _ in 0..self.penalty_spins {
            std::hint::spin_loop();
        }
        if !self.ctx.in_tx() {
            return Err(TxInterrupt::Restart);
        }
        op(self.ctx).map_err(|code| {
            self.last_abort = Some(code);
            TxInterrupt::Restart
        })
    }
}

// tufast-lint: htm-scope
impl TxnOps for HtmOps<'_> {
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.stats.reads += 1;
        self.access(|ctx| ctx.read(addr))
    }

    fn write(&mut self, _v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.stats.writes += 1;
        self.access(|ctx| ctx.write(addr, val))
    }
}

impl HtmBodyOps for HtmOps<'_> {
    fn ctx(&mut self) -> &mut HtmCtx {
        self.ctx
    }

    fn last_abort(&self) -> Option<AbortCode> {
        self.last_abort
    }
}

/// Run `body` against `ops`, whose hardware transaction is already open,
/// and close it: commit (reporting the HTM's commit timestamp as the
/// ticket) or abort explicitly (`xabort | 0x1` on a restart, `| 0xF` on a
/// user abort, `| 0xE` on a panic). `Err(code)` is a hardware abort —
/// nothing speculative survives any non-committed ending.
// tufast-lint: htm-scope
#[inline]
pub fn hardware_attempt<O: HtmBodyOps>(
    ops: &mut O,
    id: u32,
    xabort: u8,
    body: &mut TxnBody<'_>,
    obs: &ObsHandle,
) -> Result<Verdict, AbortCode> {
    let result = obs.run_body(ops, id, body);
    let last = ops.last_abort();
    let ctx = ops.ctx();
    match result {
        Ok(()) => {
            if !ctx.in_tx() {
                // Aborted mid-body, but the body returned `Ok` anyway.
                return Err(last.unwrap_or(AbortCode::Conflict));
            }
            obs.pre_commit(id);
            ctx.commit()?;
            // The ticket: the commit timestamp the context minted while
            // its written lines were locked.
            obs.commit_ticketed(id, || ctx.last_commit_ts());
            Ok(Verdict::Committed)
        }
        Err(interrupt) => {
            if ctx.in_tx() {
                ctx.abort_explicit(match interrupt {
                    TxInterrupt::Restart => xabort | 0x1,
                    TxInterrupt::UserAbort => xabort | 0xF,
                    TxInterrupt::Panicked => xabort | 0xE,
                });
            }
            match interrupt {
                TxInterrupt::Restart => Err(last.unwrap_or(AbortCode::Conflict)),
                ended => Ok(ended.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultSpec};
    use crate::obs::TxnObserver;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU32, Ordering};
    use tufast_htm::MemoryLayout;

    fn lifecycle() -> Lifecycle {
        Lifecycle::new(&TxnSystem::with_defaults(1, MemoryLayout::new()))
    }

    /// Run one rung whose attempts end as `script` says, in order.
    fn scripted(lc: &mut Lifecycle, budget: u32, script: &[Verdict]) -> (RungEnd, u32, usize) {
        let (mut attempts, mut calls) = (0, 0);
        let end = Lifecycle::rung(lc, budget, &mut attempts, |_, _| {
            calls += 1;
            script[calls - 1]
        });
        (end, attempts, calls)
    }

    #[test]
    fn every_verdict_moves_exactly_its_own_counters_once() {
        let one = |f: fn(&mut SchedStats)| {
            let mut s = SchedStats::default();
            f(&mut s);
            s
        };
        let table = [
            (
                Verdict::Committed,
                RungEnd::Committed,
                1,
                one(|s| s.commits = 1),
            ),
            (
                Verdict::Restart,
                RungEnd::Exhausted,
                1,
                one(|s| s.restarts = 1),
            ),
            (
                Verdict::Leave,
                RungEnd::Exhausted,
                1,
                one(|s| s.restarts = 1),
            ),
            (
                Verdict::UserAbort,
                RungEnd::UserAborted,
                1,
                one(|s| s.user_aborts = 1),
            ),
            // The wait that found the job stopped counted it; the skeleton
            // only takes the attempt back.
            (Verdict::Stopped, RungEnd::Stopped, 0, SchedStats::default()),
        ];
        for (verdict, end, attempts, stats) in table {
            let mut lc = lifecycle();
            assert_eq!(
                scripted(&mut lc, 1, &[verdict]),
                (end, attempts, 1),
                "{verdict:?}"
            );
            assert_eq!(lc.stats, stats, "{verdict:?}");
            let beat = lc.sys.health().view(lc.id);
            assert_eq!(
                (beat.commits, beat.restarts),
                (stats.commits, stats.restarts),
                "{verdict:?} on the health board"
            );
        }
    }

    #[test]
    fn a_dropped_worker_gives_its_id_back_to_a_fresh_slot() {
        let sys = TxnSystem::with_defaults(1, MemoryLayout::new());
        let (_a, mut b) = (Lifecycle::new(&sys), Lifecycle::new(&sys));
        assert!(!b.stop_requested());
        drop(b);
        assert!(sys.health().view(1).idle, "a dropped worker is quiet");
        let c = Lifecycle::new(&sys);
        let slot = sys.health().view(1);
        assert_eq!((c.id, slot.beat, slot.idle), (1, 0, false));
    }

    #[test]
    fn a_latched_token_stops_before_the_attempt_runs() {
        let mut lc = lifecycle();
        lc.sys.cancel_token().cancel();
        assert_eq!(scripted(&mut lc, 3, &[]), (RungEnd::Stopped, 0, 0));
        let stopped = SchedStats {
            health_stops: 1,
            ..SchedStats::default()
        };
        assert_eq!(lc.stats, stopped);
    }

    #[test]
    fn a_budget_of_restarts_ends_exhausted_with_nothing_counted_twice() {
        let mut lc = lifecycle();
        let k = 4;
        assert_eq!(
            scripted(&mut lc, k, &[Verdict::Restart; 4]),
            (RungEnd::Exhausted, k, k as usize)
        );
        let restarted = SchedStats {
            restarts: u64::from(k),
            ..SchedStats::default()
        };
        assert_eq!(lc.stats, restarted);
        // The next rung of the same transaction keeps counting its attempts.
        let mut attempts = k;
        let end = Lifecycle::rung(&mut lc, 1, &mut attempts, |_, _| Verdict::Committed);
        assert_eq!((end, attempts), (RungEnd::Committed, k + 1));
        assert_eq!(end.settled(attempts), Some(end.outcome(attempts)));
        assert_eq!(RungEnd::Exhausted.settled(attempts), None);
    }

    #[test]
    fn leave_counts_the_restart_and_leaves_the_rung() {
        let mut lc = lifecycle();
        let script = [Verdict::Restart, Verdict::Leave, Verdict::Committed];
        assert_eq!(scripted(&mut lc, 8, &script), (RungEnd::Exhausted, 2, 2));
        assert_eq!((lc.stats.restarts, lc.stats.commits), (2, 0));
    }

    struct NoOps;

    impl TxnOps for NoOps {
        fn read(&mut self, _v: u32, _addr: Addr) -> Result<u64, TxInterrupt> {
            Ok(0)
        }

        fn write(&mut self, _v: u32, _addr: Addr, _val: u64) -> Result<(), TxInterrupt> {
            Ok(())
        }
    }

    /// Counts the observer events the lifecycle tests look at.
    #[derive(Default)]
    struct Events {
        begins: AtomicU32,
        aborts: AtomicU32,
    }

    impl TxnObserver for Events {
        fn attempt_begin(&self, _worker: u32) {
            self.begins.fetch_add(1, Ordering::Relaxed);
        }

        fn abort(&self, _worker: u32, user: bool) {
            assert!(!user);
            self.aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_panicked_verdict_counts_reports_and_reraises_the_payload() {
        let sys = TxnSystem::with_defaults(1, MemoryLayout::new());
        let events = Arc::new(Events::default());
        sys.set_observer(Some(events.clone()));
        let mut lc = Lifecycle::new(&sys);
        let mut attempts = 0;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Lifecycle::rung(&mut lc, 8, &mut attempts, |lc, obs| {
                obs.run_body(&mut NoOps, lc.id, &mut |_| panic!("boom"))
                    .into()
            })
        }))
        .expect_err("the body's panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(attempts, 1);
        let panicked = SchedStats {
            panics: 1,
            ..SchedStats::default()
        };
        assert_eq!(lc.stats, panicked);
        assert_eq!(events.aborts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hooks_reach_only_workers_created_after_they_are_installed() {
        let sys = TxnSystem::with_defaults(1, MemoryLayout::new());
        let mut before = Lifecycle::new(&sys);
        let events = Arc::new(Events::default());
        let plan = FaultPlan::new(FaultSpec {
            preempt_permille: 1000,
            preempt_spins: 1,
            ..FaultSpec::default()
        });
        sys.set_observer(Some(events.clone()));
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        let mut after = Lifecycle::new(&sys);

        assert_eq!(
            scripted(&mut before, 1, &[Verdict::Committed]).0,
            RungEnd::Committed
        );
        assert_eq!(events.begins.load(Ordering::Relaxed), 0);
        assert_eq!(plan.total_injected(), 0);

        assert_eq!(
            scripted(&mut after, 1, &[Verdict::Committed]).0,
            RungEnd::Committed
        );
        assert_eq!(events.begins.load(Ordering::Relaxed), 1);
        assert_eq!(plan.injected(FaultKind::Preempt), 1);
    }
}
