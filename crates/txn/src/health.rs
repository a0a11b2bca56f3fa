//! Runtime health primitives: job deadlines, cooperative cancellation and
//! per-worker heartbeats.
//!
//! This is the substrate layer: a [`CancelToken`] every scheduler probes at
//! attempt boundaries, a [`HealthBoard`] of per-worker heartbeat slots, and
//! the [`HealthHandle`] workers carry. The policy layer — the watchdog that
//! scans the board and the admission gate in front of the drivers — lives
//! in the `tufast` crate (`tufast::health`), because escalation targets
//! (the serial-fallback token, the drain pools) are wired up there.
//!
//! Design rule: probes must be near-free on the hot path. A worker's
//! [`HealthHandle::checkpoint`] is one relaxed heartbeat increment plus one
//! relaxed load of the job's cancel word; the wall clock is sampled only
//! every [`DEADLINE_PROBE_PERIOD`] checkpoints, and a past deadline
//! *latches* into the cancel word, so every later probe is again a single
//! load.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tufast_htm::AtomicCounters;

/// Heartbeat checkpoints between wall-clock deadline samples.
///
/// `Instant::now` is far more expensive than a relaxed atomic load; probing
/// it on every attempt would tax uncontended transactions. 32 keeps the
/// deadline resolution well under a millisecond for any realistic
/// transaction while making the common probe branch-predictable.
pub const DEADLINE_PROBE_PERIOD: u32 = 32;

/// Why the health subsystem stopped a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// [`CancelToken::cancel`] was called — by the user, or by the
    /// watchdog at the top of its escalation ladder.
    Cancelled,
    /// The job ran past its [`JobDeadline`].
    Deadline,
    /// Admission control refused the job or timed it out of the intake
    /// queue.
    Shed,
}

impl AbortReason {
    /// Stable lowercase label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::Cancelled => "cancelled",
            AbortReason::Deadline => "deadline",
            AbortReason::Shed => "shed",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed error a driver returns when the health subsystem stops a job
/// before it runs to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobAborted {
    /// What stopped the job.
    pub reason: AbortReason,
    /// Pool items fully processed before the stop — the partial-progress
    /// figure (for checkpointed drivers, the final snapshot covers exactly
    /// this much work).
    pub items_done: u64,
}

impl std::fmt::Display for JobAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job aborted ({}) after {} items",
            self.reason, self.items_done
        )
    }
}

impl std::error::Error for JobAborted {}

/// Wall-clock budget for one job, measured from the moment the deadline is
/// armed (system build or [`HealthBoard::begin_job`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobDeadline(pub Duration);

/// Health knobs carried in [`SystemConfig`](crate::SystemConfig).
#[derive(Clone, Debug, Default)]
pub struct HealthConfig {
    /// Arm this wall-clock budget when the system is built. Re-armable per
    /// job via [`HealthBoard::begin_job`].
    pub deadline: Option<JobDeadline>,
}

// Cancel-word states. LIVE must be zero so a freshly-zeroed word means
// "running"; the nonzero states are latched once and map 1:1 onto
// `AbortReason`.
const STATE_LIVE: u8 = 0;
const STATE_CANCELLED: u8 = 1;
const STATE_DEADLINE: u8 = 2;
const STATE_SHED: u8 = 3;

/// Sentinel in the deadline word: no deadline armed.
const DEADLINE_NONE: u64 = u64::MAX;

fn state_to_reason(state: u8) -> Option<AbortReason> {
    match state {
        STATE_CANCELLED => Some(AbortReason::Cancelled),
        STATE_DEADLINE => Some(AbortReason::Deadline),
        STATE_SHED => Some(AbortReason::Shed),
        _ => None,
    }
}

struct TokenInner {
    /// `STATE_*` — zero while the job may run, latched nonzero to stop it.
    state: AtomicU8,
    /// Epoch the deadline offset is measured from (token creation).
    base: Instant,
    /// Nanoseconds after `base` at which the job times out, or
    /// [`DEADLINE_NONE`].
    deadline_ns: AtomicU64,
}

/// Shared stop-flag for one job: cloned into every worker, the watchdog,
/// and the caller that may want to cancel.
///
/// Cancellation is *cooperative*: setting the token does not interrupt
/// anything by itself; workers notice it at their next attempt/dequeue
/// boundary — points where no locks are held and no hardware transaction
/// is open — and unwind cleanly.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("reason", &self.reason())
            .finish()
    }
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(STATE_LIVE),
                base: Instant::now(),
                deadline_ns: AtomicU64::new(DEADLINE_NONE),
            }),
        }
    }

    /// Stop the job with [`AbortReason::Cancelled`].
    pub fn cancel(&self) {
        self.stop(AbortReason::Cancelled);
    }

    /// Stop the job with an explicit reason. The first reason to land
    /// wins; later calls are no-ops, so the reason a worker observes is
    /// stable.
    pub fn stop(&self, reason: AbortReason) {
        let code = match reason {
            AbortReason::Cancelled => STATE_CANCELLED,
            AbortReason::Deadline => STATE_DEADLINE,
            AbortReason::Shed => STATE_SHED,
        };
        let _ = self.inner.state.compare_exchange(
            STATE_LIVE,
            code,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Arm (or move) the wall-clock deadline, measured from now.
    pub fn arm_deadline(&self, deadline: JobDeadline) {
        let now_ns = self.inner.base.elapsed().as_nanos() as u64;
        let at = now_ns.saturating_add(deadline.0.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.inner.deadline_ns.store(at, Ordering::Release);
    }

    /// Remove any armed deadline (an already-latched timeout stays
    /// latched).
    pub fn clear_deadline(&self) {
        self.inner
            .deadline_ns
            .store(DEADLINE_NONE, Ordering::Release);
    }

    /// Re-arm the token for a fresh job: clear the latched state and
    /// install `deadline` (or none).
    pub fn reset(&self, deadline: Option<JobDeadline>) {
        self.inner.state.store(STATE_LIVE, Ordering::Release);
        match deadline {
            Some(d) => self.arm_deadline(d),
            None => self.clear_deadline(),
        }
    }

    /// The latched stop reason, if any. One relaxed load — this is the
    /// hot-path probe.
    #[inline]
    pub fn reason(&self) -> Option<AbortReason> {
        state_to_reason(self.inner.state.load(Ordering::Relaxed))
    }

    /// Whether the job must stop (fast path; does not sample the clock).
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.reason().is_some()
    }

    /// Full probe: check the latched state *and* the wall clock, latching
    /// [`AbortReason::Deadline`] if the budget ran out.
    pub fn poll(&self) -> Option<AbortReason> {
        if let Some(reason) = self.reason() {
            return Some(reason);
        }
        let at = self.inner.deadline_ns.load(Ordering::Acquire);
        if at != DEADLINE_NONE && self.inner.base.elapsed().as_nanos() as u64 >= at {
            self.stop(AbortReason::Deadline);
            return self.reason();
        }
        None
    }

    /// Wall-clock budget left before the armed deadline (`None` when no
    /// deadline is armed). The admission gate uses this to bound its queue
    /// wait.
    pub fn remaining(&self) -> Option<Duration> {
        let at = self.inner.deadline_ns.load(Ordering::Acquire);
        if at == DEADLINE_NONE {
            return None;
        }
        let now_ns = self.inner.base.elapsed().as_nanos() as u64;
        Some(Duration::from_nanos(at.saturating_sub(now_ns)))
    }
}

/// Local 128-byte-aligned wrapper so each worker's heartbeat slot owns its
/// cache line (the `tufast` crate has `CachePadded`, but this crate sits
/// below it in the dependency order).
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

/// One worker's heartbeat slot. Owner-written (relaxed), watchdog-read.
#[derive(Default)]
struct HeartSlot {
    /// Monotone liveness counter, bumped at every attempt/dequeue
    /// boundary. Flat across scans on a non-idle worker ⇒ stalled.
    beat: AtomicU64,
    /// Commits by this worker. Flat while `restarts` climbs ⇒ livelocked.
    commits: AtomicU64,
    /// Attempt restarts by this worker.
    restarts: AtomicU64,
    /// Set while the worker is parked/spinning on an empty pool, so the
    /// watchdog can tell parked-idle from stalled.
    idle: AtomicBool,
}

/// Watchdog-readable view of one heartbeat slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeartbeatView {
    /// Liveness counter.
    pub beat: u64,
    /// Commit counter.
    pub commits: u64,
    /// Restart counter.
    pub restarts: u64,
    /// Parked-idle flag.
    pub idle: bool,
}

tufast_htm::counters! {
    /// Cumulative job outcomes of one system. They live only on its
    /// [`HealthBoard`]; readers call [`HealthBoard::counters`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HealthCounters {
        /// Watchdog escalation-ladder steps taken.
        pub watchdog_escalations: u64,
        /// Jobs stopped by explicit cancellation (user or watchdog).
        pub jobs_cancelled: u64,
        /// Jobs refused or timed out by admission control.
        pub jobs_shed: u64,
        /// Jobs stopped by a wall-clock deadline.
        pub deadline_aborts: u64,
    }
}

/// Per-system health state: one heartbeat slot per worker id, the current
/// job's [`CancelToken`], the watchdog's escalation flags, and the
/// cumulative outcome counters.
pub struct HealthBoard {
    slots: Box<[Padded<HeartSlot>]>,
    token: CancelToken,
    /// Watchdog escalation level 1: extra backoff applied inside every
    /// health checkpoint (0 = none; each step roughly doubles the spin).
    boost: AtomicU32,
    /// Watchdog escalation level 3: route TuFast transactions straight to
    /// the global serial-fallback token. (Level 2 lives on the wait-for
    /// table, which is what the lock waiters consult.)
    force_serial: AtomicBool,
    outcomes: AtomicCounters<{ HealthCounters::N }>,
}

impl HealthBoard {
    /// A board with `workers` heartbeat slots and a fresh live token.
    pub fn new(workers: usize) -> Self {
        HealthBoard {
            slots: (0..workers.max(1)).map(|_| Padded::default()).collect(),
            token: CancelToken::new(),
            boost: AtomicU32::new(0),
            force_serial: AtomicBool::new(false),
            outcomes: AtomicCounters::new(),
        }
    }

    #[inline]
    fn slot(&self, worker: u32) -> &HeartSlot {
        // Worker ids are bounded by `SystemConfig::max_workers` (enforced
        // in `new_worker_id`), which sizes this board; the modulo is a
        // belt-and-braces guard, not an expected path.
        &self.slots[worker as usize % self.slots.len()].0
    }

    /// The current job's cancel token.
    #[inline]
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Number of heartbeat slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Re-arm the board for a fresh job: reset the token with `deadline`
    /// and drop any escalation state left by the previous job's watchdog.
    /// Cumulative counters are preserved.
    pub fn begin_job(&self, deadline: Option<JobDeadline>) {
        self.token.reset(deadline);
        self.boost.store(0, Ordering::Release);
        self.force_serial.store(false, Ordering::Release);
    }

    /// Bump `worker`'s liveness counter (owner-only). Single-writer, so a
    /// load+store pair replaces the locked RMW — this runs at every txn
    /// attempt boundary, where a `fetch_add` is measurable.
    #[inline]
    pub fn beat(&self, worker: u32) {
        let beat = &self.slot(worker).beat;
        beat.store(
            beat.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }

    /// Record a commit on `worker`'s slot (owner-only, single-writer).
    #[inline]
    pub fn note_commit(&self, worker: u32) {
        let commits = &self.slot(worker).commits;
        commits.store(
            commits.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }

    /// Record an attempt restart on `worker`'s slot (owner-only,
    /// single-writer).
    #[inline]
    pub fn note_restart(&self, worker: u32) {
        let restarts = &self.slot(worker).restarts;
        restarts.store(
            restarts.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }

    /// Flag `worker` as parked/spinning on an empty pool (or back at
    /// work), so the watchdog does not read an idle worker as stalled.
    #[inline]
    pub fn set_idle(&self, worker: u32, idle: bool) {
        self.slot(worker).idle.store(idle, Ordering::Relaxed);
    }

    /// Snapshot `worker`'s heartbeat slot.
    pub fn view(&self, worker: u32) -> HeartbeatView {
        let s = self.slot(worker);
        HeartbeatView {
            beat: s.beat.load(Ordering::Relaxed),
            commits: s.commits.load(Ordering::Relaxed),
            restarts: s.restarts.load(Ordering::Relaxed),
            idle: s.idle.load(Ordering::Relaxed),
        }
    }

    /// Current backoff-boost level (escalation 1).
    #[inline]
    pub fn backoff_boost(&self) -> u32 {
        self.boost.load(Ordering::Relaxed)
    }

    /// Set the backoff-boost level.
    pub fn set_backoff_boost(&self, level: u32) {
        self.boost.store(level, Ordering::Release);
    }

    /// Whether TuFast should route transactions straight to the serial
    /// fallback (escalation 3).
    #[inline]
    pub fn force_serial(&self) -> bool {
        self.force_serial.load(Ordering::Relaxed)
    }

    /// Set the force-serial flag.
    pub fn set_force_serial(&self, on: bool) {
        self.force_serial.store(on, Ordering::Release);
    }

    /// Count one watchdog escalation-ladder step.
    pub fn note_escalation(&self) {
        let one = HealthCounters {
            watchdog_escalations: 1,
            ..Default::default()
        };
        self.outcomes.add(one.values());
    }

    /// Count one job outcome under `reason`.
    pub fn note_job_outcome(&self, reason: AbortReason) {
        let mut one = HealthCounters::default();
        *match reason {
            AbortReason::Cancelled => &mut one.jobs_cancelled,
            AbortReason::Shed => &mut one.jobs_shed,
            AbortReason::Deadline => &mut one.deadline_aborts,
        } = 1;
        self.outcomes.add(one.values());
    }

    /// The cumulative outcome counters (never reset: every reader sees
    /// every outcome since the board was built).
    pub fn counters(&self) -> HealthCounters {
        HealthCounters::from_values(self.outcomes.load())
    }
}

impl std::fmt::Debug for HealthBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthBoard")
            .field("workers", &self.slots.len())
            .field("token", &self.token)
            .field("counters", &self.counters())
            .finish()
    }
}

/// Per-worker health probe, snapshotted from the system at worker creation
/// (like `FaultHandle`). Carried by every scheduler worker and probed at
/// attempt boundaries.
pub struct HealthHandle {
    board: Arc<HealthBoard>,
    worker: u32,
    /// Checkpoints since the last wall-clock deadline sample (owner-only;
    /// `Cell` because probe sites only hold `&self`).
    probes: Cell<u32>,
}

impl HealthHandle {
    /// A handle writing into `worker`'s slot on `board`.
    pub fn attached(board: Arc<HealthBoard>, worker: u32) -> Self {
        HealthHandle {
            board,
            worker,
            probes: Cell::new(0),
        }
    }

    /// The worker id this handle beats for.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// The shared board.
    pub fn board(&self) -> &Arc<HealthBoard> {
        &self.board
    }

    /// The attempt-boundary probe: bump the heartbeat, serve any
    /// watchdog-requested extra backoff, and report whether the job must
    /// stop. Callers see `Some(reason)` at a point where no locks are held
    /// and no hardware transaction is open, and unwind from there.
    #[inline]
    pub fn checkpoint(&self) -> Option<AbortReason> {
        self.board.beat(self.worker);
        let boost = self.board.backoff_boost();
        if boost > 0 {
            // Escalation 1: slow the retry storm down without parking —
            // roughly doubling per level, capped so level overflow cannot
            // freeze a worker.
            for _ in 0..(64u32 << boost.min(6)) {
                std::hint::spin_loop();
            }
        }
        let probes = self.probes.get().wrapping_add(1);
        self.probes.set(probes);
        if probes.is_multiple_of(DEADLINE_PROBE_PERIOD) {
            self.board.token().poll()
        } else {
            self.board.token().reason()
        }
    }

    /// Fast stop check without a heartbeat bump (pool drain loops call
    /// this between items).
    #[inline]
    pub fn stopped(&self) -> bool {
        self.board.token().is_stopped()
    }

    /// Force a full probe including the wall clock.
    pub fn poll(&self) -> Option<AbortReason> {
        self.board.token().poll()
    }

    /// Record a commit on this worker's slot.
    #[inline]
    pub fn note_commit(&self) {
        self.board.note_commit(self.worker);
    }

    /// Record a restart on this worker's slot.
    #[inline]
    pub fn note_restart(&self) {
        self.board.note_restart(self.worker);
    }

    /// Flag this worker parked-idle (or back at work).
    #[inline]
    pub fn set_idle(&self, idle: bool) {
        self.board.set_idle(self.worker, idle);
    }
}

impl std::fmt::Debug for HealthHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthHandle")
            .field("worker", &self.worker)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_stop_reason_wins() {
        let t = CancelToken::new();
        assert_eq!(t.reason(), None);
        t.stop(AbortReason::Shed);
        t.cancel();
        assert_eq!(t.reason(), Some(AbortReason::Shed));
        assert!(t.is_stopped());
    }

    #[test]
    fn deadline_latches_via_poll() {
        let t = CancelToken::new();
        t.arm_deadline(JobDeadline(Duration::from_millis(0)));
        // The zero budget is already exhausted; poll must latch it.
        assert_eq!(t.poll(), Some(AbortReason::Deadline));
        // Latched: visible to the fast path without another clock sample.
        assert_eq!(t.reason(), Some(AbortReason::Deadline));
    }

    #[test]
    fn unexpired_deadline_does_not_stop() {
        let t = CancelToken::new();
        t.arm_deadline(JobDeadline(Duration::from_secs(3600)));
        assert_eq!(t.poll(), None);
        let left = t.remaining().expect("deadline armed");
        assert!(left > Duration::from_secs(3000));
    }

    #[test]
    fn reset_rearms_for_a_new_job() {
        let t = CancelToken::new();
        t.cancel();
        assert!(t.is_stopped());
        t.reset(None);
        assert!(!t.is_stopped());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn board_views_track_owner_writes() {
        let b = HealthBoard::new(4);
        b.beat(2);
        b.beat(2);
        b.note_commit(2);
        b.note_restart(2);
        b.set_idle(2, true);
        let v = b.view(2);
        assert_eq!(
            v,
            HeartbeatView {
                beat: 2,
                commits: 1,
                restarts: 1,
                idle: true
            }
        );
        assert_eq!(b.view(0), HeartbeatView::default());
    }

    #[test]
    fn begin_job_clears_escalation_but_keeps_counters() {
        let b = HealthBoard::new(2);
        b.set_backoff_boost(3);
        b.set_force_serial(true);
        b.note_escalation();
        b.note_job_outcome(AbortReason::Cancelled);
        b.token().cancel();
        b.begin_job(None);
        assert_eq!(b.backoff_boost(), 0);
        assert!(!b.force_serial());
        assert!(!b.token().is_stopped());
        let c = b.counters();
        assert_eq!(c.watchdog_escalations, 1);
        assert_eq!(c.jobs_cancelled, 1);
    }

    #[test]
    fn outcomes_count_by_reason_and_merge_is_additive() {
        let b = HealthBoard::new(1);
        b.note_escalation();
        for (reason, n) in [
            (AbortReason::Cancelled, 2),
            (AbortReason::Shed, 3),
            (AbortReason::Deadline, 4),
        ] {
            for _ in 0..n {
                b.note_job_outcome(reason);
            }
        }
        let a = b.counters();
        assert_eq!(
            a,
            HealthCounters {
                watchdog_escalations: 1,
                jobs_cancelled: 2,
                jobs_shed: 3,
                deadline_aborts: 4,
            }
        );
        assert_eq!(b.counters(), a, "reading leaves the board as it was");
        let mut m = a;
        m.merge(&HealthCounters::from_values(a.values().map(|v| v * 100)));
        assert_eq!(
            m,
            HealthCounters {
                watchdog_escalations: 101,
                jobs_cancelled: 202,
                jobs_shed: 303,
                deadline_aborts: 404,
            }
        );
        assert_eq!(
            HealthCounters::NAMES,
            [
                "watchdog_escalations",
                "jobs_cancelled",
                "jobs_shed",
                "deadline_aborts"
            ]
        );
        assert_eq!(a.values(), [1, 2, 3, 4]);
    }

    #[test]
    fn handle_checkpoint_sees_cancel_and_beats() {
        let board = Arc::new(HealthBoard::new(2));
        let h = HealthHandle::attached(Arc::clone(&board), 1);
        assert_eq!(h.checkpoint(), None);
        board.token().cancel();
        assert_eq!(h.checkpoint(), Some(AbortReason::Cancelled));
        assert!(h.stopped());
        assert_eq!(board.view(1).beat, 2);
    }

    #[test]
    fn handle_checkpoint_latches_deadline_within_probe_period() {
        let board = Arc::new(HealthBoard::new(1));
        board
            .token()
            .arm_deadline(JobDeadline(Duration::from_millis(0)));
        let h = HealthHandle::attached(Arc::clone(&board), 0);
        let mut stopped = None;
        for _ in 0..=DEADLINE_PROBE_PERIOD {
            stopped = h.checkpoint();
            if stopped.is_some() {
                break;
            }
        }
        assert_eq!(stopped, Some(AbortReason::Deadline));
    }
}
