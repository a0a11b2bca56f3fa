//! Runtime health policy: the worker-heartbeat watchdog and admission
//! control (DESIGN.md §12).
//!
//! The substrate — [`CancelToken`], [`HealthBoard`], the per-worker
//! heartbeat slots every scheduler beats at attempt boundaries — lives in
//! `tufast_txn::health`, below the schedulers. This module is the policy
//! layer above them:
//!
//! * [`Watchdog`] — a scan thread over the board that tells *parked-idle*
//!   from *stalled* (beat flat on a non-idle slot) and *livelocked*
//!   (commits flat while restarts climb), and walks a four-rung escalation
//!   ladder: boost backoff → force deadlock victims → force the serial
//!   fallback → cancel the job.
//! * [`AdmissionGate`] — a semaphore-style intake gate in front of the
//!   drivers with a concurrency budget and a queue deadline; over-budget
//!   jobs are shed, either rejected with a typed
//!   [`JobAborted`](tufast_txn::JobAborted) or redirected to a
//!   single-threaded serial run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tufast_txn::{AbortReason, HealthBoard, HeartbeatView, JobAborted, TxnSystem};

/// Watchdog tuning knobs.
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Time between board scans.
    pub interval: Duration,
    /// Consecutive unhealthy scans before the next escalation rung is
    /// taken. The ladder therefore reaches the final cancel after
    /// `4 * grace_scans` unhealthy scans.
    pub grace_scans: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // Graph-analytics transactions finish in micro- to
            // milliseconds; ~10ms scans notice a wedged job fast while the
            // scan thread stays invisible in profiles.
            interval: Duration::from_millis(10),
            grace_scans: 3,
        }
    }
}

impl WatchdogConfig {
    /// Panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.interval > Duration::ZERO, "interval must be nonzero");
        assert!(self.grace_scans > 0, "grace_scans must be nonzero");
    }
}

/// What the watchdog saw and did, returned by [`Watchdog::stop`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Board scans performed.
    pub scans: u64,
    /// Scans that found a stalled worker (beat flat, not idle).
    pub stall_scans: u64,
    /// Scans that found the job livelocked (commits flat, restarts
    /// climbing).
    pub livelock_scans: u64,
    /// Escalation rungs taken (0–4).
    pub rungs_taken: u32,
    /// Whether the ladder reached its top and cancelled the job.
    pub cancelled: bool,
}

/// The escalation ladder, in the order the watchdog climbs it. Rung 0 is
/// "healthy"; each later rung includes all earlier ones.
const RUNG_BOOST: u32 = 1;
const RUNG_VICTIMS: u32 = 2;
const RUNG_SERIAL: u32 = 3;
const RUNG_CANCEL: u32 = 4;

/// A running heartbeat watchdog; see the module docs for the detection
/// rules and the ladder.
///
/// Spawn it around a job (a drain call), then [`stop`](Watchdog::stop) it
/// after the workers join. Detection state is per-watchdog, so one job's
/// escalations never leak into the next (the board's escalation *flags*
/// are additionally cleared by `TxnSystem::begin_job`).
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<WatchdogReport>,
}

impl Watchdog {
    /// Start scanning `sys`'s health board.
    pub fn spawn(sys: Arc<TxnSystem>, config: WatchdogConfig) -> Self {
        config.validate();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || run_watchdog(&sys, &config, &stop2));
        Watchdog { stop, thread }
    }

    /// Stop the scan thread and collect its report.
    pub fn stop(self) -> WatchdogReport {
        self.stop.store(true, Ordering::Release);
        // The scan thread never blocks unboundedly (it sleeps in
        // `interval` steps), so this join is prompt; a panic in the scan
        // loop would be a bug worth surfacing loudly.
        self.thread.join().expect("watchdog thread panicked")
    }
}

fn run_watchdog(sys: &TxnSystem, config: &WatchdogConfig, stop: &AtomicBool) -> WatchdogReport {
    let board = Arc::clone(sys.health());
    let mut report = WatchdogReport::default();
    let mut prev: Vec<HeartbeatView> = snapshot(&board);
    let mut strikes = 0u32;
    let mut rung = 0u32;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(config.interval);
        let now = snapshot(&board);
        report.scans += 1;
        let verdict = judge(&prev, &now);
        prev = now;
        if verdict.stalled {
            report.stall_scans += 1;
        }
        if verdict.livelocked {
            report.livelock_scans += 1;
        }
        // The ladder only matters while the job can still run; after a
        // stop is latched (by us, a deadline, or the caller) the workers
        // are already unwinding.
        if board.token().is_stopped() {
            strikes = 0;
            continue;
        }
        if !(verdict.stalled || verdict.livelocked) {
            strikes = 0;
            continue;
        }
        strikes += 1;
        if strikes < config.grace_scans || rung >= RUNG_CANCEL {
            continue;
        }
        strikes = 0;
        rung += 1;
        report.rungs_taken = rung;
        board.note_escalation();
        match rung {
            RUNG_BOOST => {
                // Rung 1: damp the retry storm — every health checkpoint
                // now serves extra backoff, so conflicting attempts spread
                // out in time without any worker parking.
                board.set_backoff_boost(2);
            }
            RUNG_VICTIMS => {
                // Rung 2: break wait cycles — every bounded lock wait
                // victimizes immediately instead of spinning out its
                // budget. The flag lives on the wait-for table, which is
                // what the 2PL waiters consult.
                sys.wait_table().set_force_victims(true);
            }
            RUNG_SERIAL => {
                // Rung 3: collapse to a single writer — TuFast routes new
                // transactions straight to the global serial-fallback
                // token, the rung that cannot livelock.
                board.set_force_serial(true);
            }
            RUNG_CANCEL => {
                // Rung 4: give up on the job; workers unwind cleanly at
                // their next checkpoint and the driver reports a typed
                // abort.
                board.token().cancel();
                report.cancelled = true;
            }
            _ => unreachable!("rung bounded by RUNG_CANCEL above"),
        }
    }
    report
}

fn snapshot(board: &HealthBoard) -> Vec<HeartbeatView> {
    (0..board.capacity() as u32)
        .map(|w| board.view(w))
        .collect()
}

struct Verdict {
    stalled: bool,
    livelocked: bool,
}

/// Compare two consecutive board snapshots.
///
/// * **Stalled**: some worker that has beaten at least once is not flagged
///   idle, yet its beat did not advance over the scan interval — it is
///   wedged inside an attempt or a lock wait. (Fresh slots with `beat == 0`
///   belong to workers that never started; they are not stalls.)
/// * **Livelocked**: the job as a whole committed nothing over the
///   interval while restarts climbed — everyone is busy aborting everyone
///   else.
fn judge(prev: &[HeartbeatView], now: &[HeartbeatView]) -> Verdict {
    let mut stalled = false;
    let (mut commits_prev, mut restarts_prev) = (0u64, 0u64);
    let (mut commits_now, mut restarts_now) = (0u64, 0u64);
    for (p, n) in prev.iter().zip(now) {
        if !n.idle && n.beat > 0 && n.beat == p.beat {
            stalled = true;
        }
        commits_prev += p.commits;
        restarts_prev += p.restarts;
        commits_now += n.commits;
        restarts_now += n.restarts;
    }
    Verdict {
        stalled,
        livelocked: commits_now == commits_prev && restarts_now > restarts_prev,
    }
}

/// What to do with a job that cannot be admitted within its queue
/// deadline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject it with a typed [`JobAborted`] (`reason == Shed`).
    #[default]
    Reject,
    /// Admit it outside the parallel budget, telling the caller to run it
    /// on the single-threaded serial path (bounded resource use instead of
    /// a hard error).
    SerialFallback,
}

/// Admission-control knobs.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Concurrent jobs admitted to the parallel path.
    pub max_concurrent: usize,
    /// How long an over-budget job may wait in the intake queue before it
    /// is shed. `None` waits indefinitely (no shedding).
    pub queue_deadline: Option<Duration>,
    /// What shedding does.
    pub policy: ShedPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: 4,
            queue_deadline: Some(Duration::from_millis(100)),
            policy: ShedPolicy::Reject,
        }
    }
}

impl AdmissionConfig {
    /// Panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.max_concurrent > 0, "max_concurrent must be nonzero");
    }
}

/// Semaphore-style intake gate in front of the drivers.
///
/// Callers [`admit`](AdmissionGate::admit) before starting a job and hold
/// the returned [`AdmitPermit`] for its duration; dropping the permit
/// releases the slot. Shed outcomes are counted on the shared
/// [`HealthBoard`] so they surface in `TuFastStats` and the bench JSON.
pub struct AdmissionGate {
    config: AdmissionConfig,
    board: Arc<HealthBoard>,
    running: AtomicUsize,
}

impl AdmissionGate {
    /// A gate over `board` (usually `Arc::clone(sys.health())`).
    pub fn new(config: AdmissionConfig, board: Arc<HealthBoard>) -> Self {
        config.validate();
        AdmissionGate {
            config,
            board,
            running: AtomicUsize::new(0),
        }
    }

    /// Jobs currently admitted to the parallel path.
    pub fn running(&self) -> usize {
        self.running.load(Ordering::Acquire)
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    fn try_acquire(&self) -> bool {
        let mut cur = self.running.load(Ordering::Acquire);
        while cur < self.config.max_concurrent {
            match self.running.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Admit one job, waiting up to the queue deadline for a slot.
    ///
    /// Over budget past the deadline, the job is *shed*: with
    /// [`ShedPolicy::Reject`] this returns the typed error; with
    /// [`ShedPolicy::SerialFallback`] it returns a permit whose
    /// [`serial`](AdmitPermit::serial) flag tells the caller to run
    /// single-threaded (outside the parallel budget).
    pub fn admit(&self) -> Result<AdmitPermit<'_>, JobAborted> {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            if self.try_acquire() {
                return Ok(AdmitPermit {
                    gate: self,
                    counted: true,
                    serial: false,
                });
            }
            if let Some(deadline) = self.config.queue_deadline {
                if start.elapsed() >= deadline {
                    self.board.note_job_outcome(AbortReason::Shed);
                    return match self.config.policy {
                        ShedPolicy::Reject => Err(JobAborted {
                            reason: AbortReason::Shed,
                            items_done: 0,
                        }),
                        ShedPolicy::SerialFallback => Ok(AdmitPermit {
                            gate: self,
                            counted: false,
                            serial: true,
                        }),
                    };
                }
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(16) {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl std::fmt::Debug for AdmissionGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGate")
            .field("config", &self.config)
            .field("running", &self.running())
            .finish()
    }
}

/// Proof of admission; releases the gate slot on drop.
#[derive(Debug)]
pub struct AdmitPermit<'a> {
    gate: &'a AdmissionGate,
    /// Whether this permit holds one of the budgeted slots (serial-shed
    /// permits run outside the budget).
    counted: bool,
    serial: bool,
}

impl AdmitPermit<'_> {
    /// `true` when the job was shed to the single-threaded serial path and
    /// the caller should run with one worker.
    pub fn serial(&self) -> bool {
        self.serial
    }
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.gate.running.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_htm::MemoryLayout;
    use tufast_txn::JobDeadline;

    fn tiny_system(workers: usize) -> Arc<TxnSystem> {
        let mut layout = MemoryLayout::new();
        layout.alloc("data", 8);
        TxnSystem::build(
            4,
            layout,
            tufast_txn::SystemConfig {
                max_workers: workers,
                ..Default::default()
            },
        )
    }

    #[test]
    fn quiet_board_never_escalates() {
        let sys = tiny_system(2);
        let dog = Watchdog::spawn(
            Arc::clone(&sys),
            WatchdogConfig {
                interval: Duration::from_millis(1),
                grace_scans: 1,
            },
        );
        std::thread::sleep(Duration::from_millis(20));
        let report = dog.stop();
        assert!(report.scans > 0);
        assert_eq!(report.rungs_taken, 0);
        assert!(!report.cancelled);
        assert!(!sys.cancel_token().is_stopped());
        assert_eq!(sys.health().counters().watchdog_escalations, 0);
    }

    #[test]
    fn stalled_worker_climbs_the_full_ladder() {
        let sys = tiny_system(2);
        // One beat, then silence, never flagged idle: a wedged worker.
        let h = sys.health_handle(0);
        assert_eq!(h.checkpoint(), None);
        let dog = Watchdog::spawn(
            Arc::clone(&sys),
            WatchdogConfig {
                interval: Duration::from_millis(1),
                grace_scans: 1,
            },
        );
        let start = Instant::now();
        while !sys.cancel_token().is_stopped() && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = dog.stop();
        assert!(report.cancelled, "ladder must reach the cancel rung");
        assert_eq!(report.rungs_taken, 4);
        assert!(report.stall_scans >= 4);
        let board = sys.health();
        assert!(board.backoff_boost() > 0);
        assert!(sys.wait_table().force_victims());
        assert!(board.force_serial());
        assert_eq!(sys.cancel_token().reason(), Some(AbortReason::Cancelled));
        assert_eq!(board.counters().watchdog_escalations, 4);
        // The next job starts clean (flags cleared, counters kept).
        sys.begin_job(None);
        assert!(!board.force_serial());
        assert!(!sys.wait_table().force_victims());
        assert!(!sys.cancel_token().is_stopped());
        assert_eq!(board.counters().watchdog_escalations, 4);
    }

    #[test]
    fn livelock_detected_while_beats_climb() {
        let sys = tiny_system(1);
        let h = sys.health_handle(0);
        let dog = Watchdog::spawn(
            Arc::clone(&sys),
            WatchdogConfig {
                interval: Duration::from_millis(1),
                grace_scans: 1,
            },
        );
        // Busy restarting, never committing: beats climb (so the stall
        // detector alone would stay quiet) and the livelock detector must
        // fire.
        let start = Instant::now();
        while !sys.cancel_token().is_stopped() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "watchdog never cancelled a livelocked job"
            );
            h.note_restart();
            let _ = h.checkpoint();
        }
        let report = dog.stop();
        assert!(report.livelock_scans >= 1, "livelock detector never fired");
        assert!(report.cancelled);
    }

    #[test]
    fn committing_job_is_left_alone() {
        let sys = tiny_system(1);
        let h = sys.health_handle(0);
        let dog = Watchdog::spawn(
            Arc::clone(&sys),
            WatchdogConfig {
                interval: Duration::from_millis(2),
                grace_scans: 3,
            },
        );
        // Restarts climb but so do commits: contended-yet-progressing.
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            h.note_restart();
            h.note_commit();
            let _ = h.checkpoint();
        }
        // The job is over: flag the worker idle, exactly as the drain
        // loops do on exit, so the now-flat beat is not read as a stall.
        h.set_idle(true);
        let report = dog.stop();
        assert!(
            !report.cancelled,
            "a progressing job must never be cancelled (report: {report:?})"
        );
        assert!(!sys.cancel_token().is_stopped());
    }

    #[test]
    fn gate_admits_to_budget_and_releases_on_drop() {
        let sys = tiny_system(1);
        let gate = AdmissionGate::new(
            AdmissionConfig {
                max_concurrent: 2,
                queue_deadline: Some(Duration::ZERO),
                policy: ShedPolicy::Reject,
            },
            Arc::clone(sys.health()),
        );
        let a = gate.admit().expect("slot 1");
        let b = gate.admit().expect("slot 2");
        assert_eq!(gate.running(), 2);
        assert!(!a.serial() && !b.serial());
        let err = gate.admit().expect_err("over budget");
        assert_eq!(err.reason, AbortReason::Shed);
        assert_eq!(err.items_done, 0);
        drop(a);
        assert_eq!(gate.running(), 1);
        let c = gate.admit().expect("slot freed by drop");
        drop((b, c));
        assert_eq!(gate.running(), 0);
        assert_eq!(sys.health().counters().jobs_shed, 1);
    }

    #[test]
    fn serial_fallback_policy_sheds_to_one_thread() {
        let sys = tiny_system(1);
        let gate = AdmissionGate::new(
            AdmissionConfig {
                max_concurrent: 1,
                queue_deadline: Some(Duration::ZERO),
                policy: ShedPolicy::SerialFallback,
            },
            Arc::clone(sys.health()),
        );
        let a = gate.admit().expect("budgeted slot");
        let b = gate.admit().expect("serial fallback never errors");
        assert!(!a.serial());
        assert!(b.serial(), "over-budget permit must route serial");
        // The serial permit is outside the budget: releasing it does not
        // free the budgeted slot.
        assert_eq!(gate.running(), 1);
        drop(b);
        assert_eq!(gate.running(), 1);
        drop(a);
        assert_eq!(gate.running(), 0);
        assert_eq!(sys.health().counters().jobs_shed, 1);
    }

    #[test]
    fn queued_job_admits_when_a_slot_frees_in_time() {
        let sys = tiny_system(1);
        let gate = AdmissionGate::new(
            AdmissionConfig {
                max_concurrent: 1,
                queue_deadline: Some(Duration::from_secs(10)),
                policy: ShedPolicy::Reject,
            },
            Arc::clone(sys.health()),
        );
        let a = gate.admit().expect("first");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.admit());
            std::thread::sleep(Duration::from_millis(5));
            drop(a);
            let b = waiter
                .join()
                .expect("no panic")
                .expect("queued job must admit once the slot frees");
            assert!(!b.serial());
        });
        assert_eq!(sys.health().counters().jobs_shed, 0);
    }

    #[test]
    fn taking_worker_stats_leaves_job_outcomes_on_the_board() {
        use crate::TuFast;
        use tufast_txn::{GraphScheduler, HealthCounters};

        let sys = tiny_system(4);
        let gate = AdmissionGate::new(
            AdmissionConfig {
                max_concurrent: 1,
                queue_deadline: Some(Duration::ZERO),
                policy: ShedPolicy::Reject,
            },
            Arc::clone(sys.health()),
        );
        let _running = gate.admit().expect("budgeted slot");
        assert!(gate.admit().is_err(), "over budget must shed");
        sys.health().note_escalation();
        let outcomes = sys.health().counters();
        assert_eq!(
            outcomes,
            HealthCounters {
                watchdog_escalations: 1,
                jobs_shed: 1,
                ..Default::default()
            }
        );
        let tufast = TuFast::new(Arc::clone(&sys));
        let (mut a, mut b) = (tufast.worker(), tufast.worker());
        let _ = a.take_tufast_stats();
        let _ = b.take_tufast_stats();
        assert_eq!(sys.health().counters(), outcomes);
    }

    #[test]
    fn system_deadline_latches_through_the_board() {
        // End-to-end substrate check from the policy crate: a zero
        // deadline armed via begin_job stops workers at their next
        // checkpoint.
        let sys = tiny_system(1);
        sys.begin_job(Some(JobDeadline(Duration::ZERO)));
        let h = sys.health_handle(0);
        assert_eq!(h.poll(), Some(AbortReason::Deadline));
        assert!(sys.cancel_token().is_stopped());
    }
}
