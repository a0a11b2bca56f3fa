//! The attempt loop of the buffered-write schedulers (OCC, TO, H-TO, STM):
//! they differ in how they read and how they commit, not in how a
//! transaction is retried, stopped, fault-injected or unwound.

use crate::faults::FaultHandle;
use crate::health::HealthHandle;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::{backoff, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome};

/// A worker's lifecycle state, borrowed apart from its transaction buffers.
pub(crate) struct Lifecycle<'a> {
    pub id: u32,
    pub sys: &'a TxnSystem,
    pub stats: &'a mut SchedStats,
    pub health: &'a HealthHandle,
    pub faults: &'a mut FaultHandle,
}

/// What a buffered-write scheduler's worker supplies to [`execute`].
pub(crate) trait Buffered: TxnOps + Sized {
    fn lifecycle(&mut self) -> Lifecycle<'_>;
    /// Drop the previous attempt's buffers and start a fresh attempt.
    fn begin_attempt(&mut self);
    /// The protocol's commit; `Err` restarts the transaction.
    fn try_commit(&mut self, obs: &ObsHandle) -> Result<(), TxInterrupt>;
}

/// Run `body` to an outcome: the R-mode prologue for declared-pure bodies,
/// then attempts until one commits, user-aborts or the job is stopped.
/// Writes are buffered and nothing is held between attempts, so dropping
/// the buffers is the whole rollback — also for a panicking body.
pub(crate) fn execute<W: Buffered>(w: &mut W, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
    let lc = w.lifecycle();
    let id = lc.id;
    let obs = lc.sys.observer_handle();
    let prologue = crate::rmode::read_only_prologue(lc.sys, id, lc.stats, lc.health, hint, body);
    let mut attempts = match prologue {
        Ok(out) => return out,
        Err(prior) => prior,
    };
    loop {
        let lc = w.lifecycle();
        // Attempt boundary: the clean place to stop a cancelled or
        // past-deadline job.
        if lc.health.checkpoint().is_some() {
            lc.stats.health_stops += 1;
            return TxnOutcome {
                committed: false,
                attempts,
            };
        }
        attempts += 1;
        lc.faults.preempt();
        lc.faults.stall_point();
        w.begin_attempt();
        obs.attempt_begin(id);
        let result = obs.run_body(w, id, body).and_then(|()| {
            obs.pre_commit(id);
            let lc = w.lifecycle();
            if lc.faults.validation_fails()
                || lc.faults.lock_acquisition_fails()
                || lc.faults.livelock_restart()
            {
                lc.stats.injected_faults += 1;
                return Err(TxInterrupt::Restart);
            }
            w.try_commit(&obs)
        });
        let lc = w.lifecycle();
        match result {
            Ok(()) => {
                lc.stats.commits += 1;
                lc.health.note_commit();
                return TxnOutcome {
                    committed: true,
                    attempts,
                };
            }
            Err(TxInterrupt::Restart) => {
                lc.stats.restarts += 1;
                lc.health.note_restart();
                obs.abort(id, false);
                backoff(attempts, id);
            }
            Err(TxInterrupt::UserAbort) => {
                lc.stats.user_aborts += 1;
                obs.abort(id, true);
                return TxnOutcome {
                    committed: false,
                    attempts,
                };
            }
            Err(TxInterrupt::Panicked) => {
                lc.stats.panics += 1;
                obs.abort(id, false);
                crate::obs::resume_body_panic();
            }
        }
    }
}
