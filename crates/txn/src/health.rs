//! Runtime health: job deadlines, cooperative cancellation, per-worker
//! heartbeats and the watchdog that reads them (DESIGN.md §12).
//!
//! A system's [`HealthBoard`] is the one place a job's health lives: one
//! heartbeat slot per worker thread, the armed deadline, the cumulative
//! outcome counters and the *job-state word*. That word packs the stop
//! reason (live, cancelled, deadline; the first stop wins) with the
//! watchdog's escalation [`Rung`] (monotone within a job); zero means live
//! and healthy, and [`HealthBoard::begin_job`] stores zero. The stop that
//! latches a reason also counts the job's outcome, so every stopped job is
//! counted once, whichever driver ran it. Each reader compares the word
//! against the rung it cares about: [`HealthHandle::checkpoint`] backs off
//! from [`Rung::Boost`], 2PL's bounded anonymous lock wait victimises from
//! [`Rung::Victims`], and the TuFast router goes serial from
//! [`Rung::Serial`].
//!
//! [`Watchdog`] is a scan thread over the board that tells *parked-idle*
//! from *stalled* (beat flat on a non-idle slot) and *livelocked* (commits
//! flat while restarts climb), and climbs the ladder one rung per
//! `grace_scans` unhealthy scans up to cancelling the job.
//!
//! Design rule: probes must be near-free on the hot path. A worker's
//! checkpoint is one relaxed heartbeat increment plus one relaxed load of
//! the job-state word; the wall clock is sampled only every
//! [`DEADLINE_PROBE_PERIOD`] checkpoints, and a past deadline latches into
//! the word, so every later probe is again a single load.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tufast_htm::AtomicCounters;

use crate::pad::CachePadded;
use crate::system::TxnSystem;

/// Heartbeat checkpoints between wall-clock deadline samples.
///
/// `Instant::now` is far more expensive than a relaxed atomic load; probing
/// it on every attempt would tax uncontended transactions. 32 keeps the
/// deadline resolution well under a millisecond for any realistic
/// transaction while making the common probe branch-predictable.
pub const DEADLINE_PROBE_PERIOD: u32 = 32;

/// Extra spins a checkpoint serves once the ladder reaches [`Rung::Boost`].
const BOOST_SPINS: u32 = 256;

/// Why the health subsystem stopped a job. The discriminant is the stop
/// reason's code in the job-state word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// [`HealthBoard::cancel`] was called — by the user, or by the
    /// watchdog at the top of its escalation ladder.
    Cancelled = 1,
    /// The job ran past its [`JobDeadline`].
    Deadline = 2,
}

impl AbortReason {
    /// Stable lowercase label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::Cancelled => "cancelled",
            AbortReason::Deadline => "deadline",
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

/// Wall-clock budget for one job, measured from the
/// [`HealthBoard::begin_job`] that arms it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobDeadline(pub Duration);

/// The watchdog's escalation ladder, in the order it is climbed. Each rung
/// includes every rung below it, and within a job the rung never moves
/// down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// No escalation.
    Healthy,
    /// Every health checkpoint serves extra backoff, so conflicting
    /// attempts spread out in time without any worker parking.
    Boost,
    /// Every bounded lock wait victimises at once, breaking waits the
    /// cycle detector cannot see (anonymous reader-held locks).
    Victims,
    /// TuFast routes new transactions to the global serial fallback, the
    /// one rung that cannot livelock.
    Serial,
    /// The job is cancelled; workers unwind at their next checkpoint.
    Cancel,
}

const LADDER: [Rung; 5] = [
    Rung::Healthy,
    Rung::Boost,
    Rung::Victims,
    Rung::Serial,
    Rung::Cancel,
];

// The job-state word: the stop reason's code in the low two bits (zero
// while live; 3 is never stored), the rung above them.
const REASON_BITS: u32 = 0b11;
const RUNG_SHIFT: u32 = 2;

#[inline]
fn reason_of(word: u32) -> Option<AbortReason> {
    match word & REASON_BITS {
        0 => None,
        1 => Some(AbortReason::Cancelled),
        2 => Some(AbortReason::Deadline),
        _ => None,
    }
}

#[inline]
fn at_least(word: u32, rung: Rung) -> bool {
    word >> RUNG_SHIFT >= rung as u32
}

/// Extra spins a checkpoint serves under the job-state word `word`.
#[inline]
fn backoff_spins(word: u32) -> u32 {
    if at_least(word, Rung::Boost) {
        BOOST_SPINS
    } else {
        0
    }
}

/// Sentinel in the deadline word: no deadline armed.
const DEADLINE_NONE: u64 = u64::MAX;

/// One worker thread's heartbeat slot. Owner-written (relaxed),
/// watchdog-read.
#[derive(Default)]
struct HeartSlot {
    /// Monotone liveness counter, bumped at every attempt/dequeue
    /// boundary. Flat across scans on a non-idle worker ⇒ stalled.
    beat: AtomicU64,
    /// Commits by this worker. Flat while `restarts` climbs ⇒ livelocked.
    commits: AtomicU64,
    /// Attempt restarts by this worker.
    restarts: AtomicU64,
    /// Set while the worker is parked on an empty pool, or for good once
    /// its handle is dropped, so the watchdog can tell quiet from stalled.
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
        /// Jobs stopped by a wall-clock deadline.
        pub deadline_aborts: u64,
    }
}

/// Per-system health state: one heartbeat slot per worker id, the current
/// job's state word and deadline, and the cumulative outcome counters.
pub struct HealthBoard {
    slots: Box<[CachePadded<HeartSlot>]>,
    /// The job-state word (see the module docs).
    state: AtomicU32,
    /// Epoch the deadline offset is measured from (board creation).
    base: Instant,
    /// Nanoseconds after `base` at which the job times out, or
    /// [`DEADLINE_NONE`].
    deadline_ns: AtomicU64,
    outcomes: AtomicCounters<{ HealthCounters::N }>,
}

/// A handle that stops a system's job from any thread: the board itself,
/// shared. Clone [`TxnSystem::cancel_token`] into the canceller.
pub type CancelToken = Arc<HealthBoard>;

impl HealthBoard {
    /// A board with `workers` heartbeat slots, live and healthy, with no
    /// deadline armed.
    pub fn new(workers: usize) -> Self {
        HealthBoard {
            slots: (0..workers.max(1))
                .map(|_| CachePadded::default())
                .collect(),
            state: AtomicU32::new(0),
            base: Instant::now(),
            deadline_ns: AtomicU64::new(DEADLINE_NONE),
            outcomes: AtomicCounters::new(),
        }
    }

    /// `worker`'s slot. Live worker ids are bounded by
    /// `SystemConfig::max_workers` (enforced in `new_worker_id`), which
    /// sizes this board: an id past it is a bug, not a slot to share.
    #[inline]
    fn slot(&self, worker: u32) -> &HeartSlot {
        &self.slots[worker as usize]
    }

    /// Number of heartbeat slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Re-arm the board for a fresh job: the job-state word back to zero
    /// (live, healthy) and `deadline` armed from now (or none). Cumulative
    /// counters are kept.
    pub fn begin_job(&self, deadline: Option<JobDeadline>) {
        // Deadline first: a probe in between must not latch the previous
        // job's expired deadline into the fresh word.
        let at = deadline.map_or(DEADLINE_NONE, |d| {
            let budget = d.0.as_nanos().min(u128::from(u64::MAX)) as u64;
            self.now_ns().saturating_add(budget)
        });
        self.deadline_ns.store(at, Ordering::Release);
        self.state.store(0, Ordering::Release);
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The latched stop reason, if any. One relaxed load.
    #[inline]
    pub fn reason(&self) -> Option<AbortReason> {
        reason_of(self.state.load(Ordering::Relaxed))
    }

    /// Whether the job must stop (does not sample the clock).
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.reason().is_some()
    }

    /// The job's escalation rung.
    pub fn rung(&self) -> Rung {
        LADDER[(self.state.load(Ordering::Relaxed) >> RUNG_SHIFT) as usize]
    }

    /// Stop the job with `reason`. The first reason to land wins and is
    /// counted as the job's outcome; later calls are no-ops, so the reason
    /// a worker observes is stable and a job is counted once.
    pub fn stop(&self, reason: AbortReason) {
        let latched = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
                (word & REASON_BITS == 0).then_some(word | reason as u32)
            });
        if latched.is_ok() {
            let mut one = HealthCounters::default();
            *match reason {
                AbortReason::Cancelled => &mut one.jobs_cancelled,
                AbortReason::Deadline => &mut one.deadline_aborts,
            } = 1;
            self.outcomes.add(one.values());
        }
    }

    /// Stop the job with [`AbortReason::Cancelled`].
    pub fn cancel(&self) {
        self.stop(AbortReason::Cancelled);
    }

    /// Climb to `rung`; a rung at or below the current one is a no-op.
    /// The watchdog's step; at [`Rung::Cancel`] it also cancels the job.
    pub fn escalate(&self, rung: Rung) {
        let _ = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
                (!at_least(word, rung))
                    .then_some((word & REASON_BITS) | ((rung as u32) << RUNG_SHIFT))
            });
    }

    /// Full probe: the latched reason *and* the wall clock, latching
    /// [`AbortReason::Deadline`] if the budget ran out.
    pub fn poll(&self) -> Option<AbortReason> {
        if let Some(reason) = self.reason() {
            return Some(reason);
        }
        let at = self.deadline_ns.load(Ordering::Acquire);
        if at != DEADLINE_NONE && self.now_ns() >= at {
            self.stop(AbortReason::Deadline);
            return self.reason();
        }
        None
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

    /// Flag `worker` as parked on an empty pool (or back at work), so the
    /// watchdog does not read an idle worker as stalled.
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

    /// Count one watchdog escalation-ladder step.
    pub fn note_escalation(&self) {
        let one = HealthCounters {
            watchdog_escalations: 1,
            ..Default::default()
        };
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
            .field("reason", &self.reason())
            .field("rung", &self.rung())
            .field("counters", &self.counters())
            .finish()
    }
}

/// Per-worker health probe, snapshotted from the system at worker creation
/// (like `FaultHandle`). Carried by every scheduler worker and probed at
/// attempt boundaries. Dropping it marks its slot idle for good: a worker
/// that is gone is quiet, not stalled.
pub struct HealthHandle {
    board: Arc<HealthBoard>,
    worker: u32,
    /// Checkpoints since the last wall-clock deadline sample (owner-only;
    /// `Cell` because probe sites only hold `&self`).
    probes: Cell<u32>,
}

impl HealthHandle {
    /// A handle writing into `worker`'s slot on `board`, which reads as
    /// fresh (never beaten, not idle) also after an earlier worker's use.
    pub fn attached(board: Arc<HealthBoard>, worker: u32) -> Self {
        // Checked here, so the drop's slot access cannot panic.
        assert!((worker as usize) < board.capacity(), "no slot {worker}");
        let slot = board.slot(worker);
        slot.beat.store(0, Ordering::Relaxed);
        slot.idle.store(false, Ordering::Relaxed);
        HealthHandle {
            board,
            worker,
            probes: Cell::new(0),
        }
    }

    /// The attempt-boundary probe: bump the heartbeat, serve the backoff
    /// of [`Rung::Boost`], and report whether the job must stop. Callers
    /// see `Some(reason)` at a point where no locks are held and no
    /// hardware transaction is open, and unwind from there.
    #[inline]
    pub fn checkpoint(&self) -> Option<AbortReason> {
        self.board.beat(self.worker);
        let word = self.board.state.load(Ordering::Relaxed);
        for _ in 0..backoff_spins(word) {
            std::hint::spin_loop();
        }
        let probes = self.probes.get().wrapping_add(1);
        self.probes.set(probes);
        if probes.is_multiple_of(DEADLINE_PROBE_PERIOD) {
            self.board.poll()
        } else {
            reason_of(word)
        }
    }

    /// Whether the job's ladder stands at `rung` or above.
    #[inline]
    pub fn escalated(&self, rung: Rung) -> bool {
        at_least(self.board.state.load(Ordering::Relaxed), rung)
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

impl Drop for HealthHandle {
    fn drop(&mut self) {
        self.set_idle(true);
    }
}

impl std::fmt::Debug for HealthHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthHandle")
            .field("worker", &self.worker)
            .finish()
    }
}

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

/// A running heartbeat watchdog; see the module docs for the detection
/// rules and the ladder.
///
/// Spawn it around a job (a drain call), then [`stop`](Watchdog::stop) it
/// after the workers join. The rung it climbs is the board's, so the next
/// `begin_job` starts the next job back on [`Rung::Healthy`].
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<WatchdogReport>,
}

impl Watchdog {
    /// Start scanning `sys`'s health board.
    pub fn spawn(sys: Arc<TxnSystem>, config: WatchdogConfig) -> Self {
        config.validate();
        let board = Arc::clone(sys.health());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || watch(&board, &config, &stop2));
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

fn watch(board: &HealthBoard, config: &WatchdogConfig, stop: &AtomicBool) -> WatchdogReport {
    let mut report = WatchdogReport::default();
    let mut prev = snapshot(board);
    let mut strikes = 0u32;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(config.interval);
        let now = snapshot(board);
        report.scans += 1;
        let verdict = judge(&prev, &now);
        prev = now;
        report.stall_scans += u64::from(verdict.stalled);
        report.livelock_scans += u64::from(verdict.livelocked);
        // The ladder only matters while the job can still run; after a
        // stop is latched (by us, a deadline, or the caller) the workers
        // are already unwinding.
        if board.is_stopped() || !(verdict.stalled || verdict.livelocked) {
            strikes = 0;
            continue;
        }
        strikes += 1;
        let Some(&next) = LADDER.get(board.rung() as usize + 1) else {
            continue;
        };
        if strikes < config.grace_scans {
            continue;
        }
        strikes = 0;
        board.escalate(next);
        board.note_escalation();
        report.rungs_taken += 1;
        if next == Rung::Cancel {
            board.cancel();
            report.cancelled = true;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{WaitForTable, WaitOutcome};
    use crate::system::SystemConfig;
    use crate::tpl::TwoPhaseLocking;
    use crate::traits::{GraphScheduler, TxnWorker};
    use tufast_htm::MemoryLayout;

    fn tiny_system(workers: usize) -> Arc<TxnSystem> {
        let mut layout = MemoryLayout::new();
        layout.alloc("data", 8);
        TxnSystem::build(
            4,
            layout,
            SystemConfig {
                max_workers: workers,
                ..Default::default()
            },
        )
    }

    #[test]
    fn first_stop_reason_wins() {
        let b = HealthBoard::new(1);
        assert_eq!(b.reason(), None);
        b.stop(AbortReason::Deadline);
        b.cancel();
        assert_eq!(b.reason(), Some(AbortReason::Deadline));
        assert!(b.is_stopped());
    }

    #[test]
    fn a_job_stopped_from_many_threads_at_once_is_counted_once() {
        let b = HealthBoard::new(2);
        for round in 1..=50u64 {
            b.begin_job(Some(JobDeadline(Duration::ZERO)));
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    b.cancel();
                });
                start.wait();
                let _ = b.poll();
            });
            let c = b.counters();
            assert_eq!(c.jobs_cancelled + c.deadline_aborts, round);
        }
    }

    #[test]
    fn deadline_latches_via_poll() {
        let b = HealthBoard::new(1);
        b.begin_job(Some(JobDeadline(Duration::ZERO)));
        // The zero budget is already exhausted; poll must latch it.
        assert_eq!(b.poll(), Some(AbortReason::Deadline));
        // Latched: visible to the fast path without another clock sample.
        assert_eq!(b.reason(), Some(AbortReason::Deadline));
    }

    #[test]
    fn unexpired_deadline_does_not_stop() {
        let b = HealthBoard::new(1);
        b.begin_job(Some(JobDeadline(Duration::from_secs(3600))));
        assert_eq!(b.poll(), None);
        assert!(!b.is_stopped());
    }

    #[test]
    fn reset_rearms_for_a_new_job() {
        let b = HealthBoard::new(1);
        b.begin_job(Some(JobDeadline(Duration::ZERO)));
        b.cancel();
        assert!(b.is_stopped());
        b.begin_job(None);
        assert!(!b.is_stopped());
        assert_eq!(b.poll(), None, "the old deadline is disarmed");
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
    fn each_rung_is_seen_by_its_reader_and_never_moves_down() {
        let b = Arc::new(HealthBoard::new(2));
        let h = HealthHandle::attached(Arc::clone(&b), 0);
        let waits = WaitForTable::new(2);
        // What each reader does at each rung: the checkpoint's extra spins,
        // whether a bounded wait victimises at its first turn, and whether
        // the router goes serial.
        let readers = |b: &HealthBoard| {
            let word = b.state.load(Ordering::Relaxed);
            let wait = waits.bounded_anonymous_wait(0, 0, h.escalated(Rung::Victims));
            (backoff_spins(word), wait, h.escalated(Rung::Serial))
        };
        use WaitOutcome::{Retry, Victim};
        assert_eq!(readers(&b), (0, Retry, false));
        for (rung, seen) in [
            (Rung::Boost, (BOOST_SPINS, Retry, false)),
            (Rung::Victims, (BOOST_SPINS, Victim, false)),
            (Rung::Serial, (BOOST_SPINS, Victim, true)),
        ] {
            b.escalate(rung);
            assert_eq!(b.rung(), rung);
            assert_eq!(readers(&b), seen, "{rung:?}");
            assert_eq!(h.checkpoint(), None, "{rung:?} does not stop the job");
        }
        // Never down within a job, and a stop keeps the rung (and the
        // rung the first stop reason).
        b.escalate(Rung::Boost);
        assert_eq!(b.rung(), Rung::Serial);
        b.stop(AbortReason::Deadline);
        b.escalate(Rung::Cancel);
        b.cancel();
        assert_eq!(
            (b.rung(), b.reason()),
            (Rung::Cancel, Some(AbortReason::Deadline))
        );
        assert_eq!(h.checkpoint(), Some(AbortReason::Deadline));
    }

    #[test]
    fn begin_job_clears_escalation_but_keeps_counters() {
        let b = HealthBoard::new(2);
        b.escalate(Rung::Cancel);
        b.cancel();
        b.note_escalation();
        b.begin_job(None);
        assert_eq!(b.state.load(Ordering::Relaxed), 0, "live and healthy");
        assert_eq!((b.rung(), b.reason()), (Rung::Healthy, None));
        let c = b.counters();
        assert_eq!((c.watchdog_escalations, c.jobs_cancelled), (1, 1));
    }

    #[test]
    fn outcomes_count_by_reason_and_merge_is_additive() {
        let b = HealthBoard::new(1);
        b.note_escalation();
        for (reason, n) in [(AbortReason::Cancelled, 2), (AbortReason::Deadline, 4)] {
            for _ in 0..n {
                b.begin_job(None);
                b.stop(reason);
                // A later stop of the same job counts nothing.
                b.cancel();
            }
        }
        let a = b.counters();
        assert_eq!(
            a,
            HealthCounters {
                watchdog_escalations: 1,
                jobs_cancelled: 2,
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
                deadline_aborts: 404,
            }
        );
        assert_eq!(
            HealthCounters::NAMES,
            ["watchdog_escalations", "jobs_cancelled", "deadline_aborts"]
        );
        assert_eq!(a.values(), [1, 2, 4]);
    }

    #[test]
    fn handle_checkpoint_sees_cancel_and_beats() {
        let board = Arc::new(HealthBoard::new(2));
        let h = HealthHandle::attached(Arc::clone(&board), 1);
        assert_eq!(h.checkpoint(), None);
        board.cancel();
        assert_eq!(h.checkpoint(), Some(AbortReason::Cancelled));
        assert_eq!(board.view(1).beat, 2);
        assert!(!board.view(1).idle);
        drop(h);
        assert!(board.view(1).idle, "a dropped handle's slot is idle");
    }

    #[test]
    fn handle_checkpoint_latches_deadline_within_probe_period() {
        let board = Arc::new(HealthBoard::new(1));
        board.begin_job(Some(JobDeadline(Duration::ZERO)));
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

    #[test]
    fn system_deadline_latches_through_the_board() {
        // A zero deadline armed via begin_job stops workers at their next
        // full probe.
        let sys = tiny_system(1);
        sys.begin_job(Some(JobDeadline(Duration::ZERO)));
        assert_eq!(sys.health().poll(), Some(AbortReason::Deadline));
        assert!(sys.cancel_token().is_stopped());
    }

    fn watch_fast(sys: &Arc<TxnSystem>, interval_ms: u64, grace_scans: u32) -> Watchdog {
        Watchdog::spawn(
            Arc::clone(sys),
            WatchdogConfig {
                interval: Duration::from_millis(interval_ms),
                grace_scans,
            },
        )
    }

    #[test]
    fn quiet_board_never_escalates() {
        let sys = tiny_system(2);
        let dog = watch_fast(&sys, 1, 1);
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
        let dog = watch_fast(&sys, 1, 1);
        let start = Instant::now();
        while !sys.cancel_token().is_stopped() && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = dog.stop();
        assert!(report.cancelled, "ladder must reach the cancel rung");
        assert_eq!(report.rungs_taken, 4);
        assert!(report.stall_scans >= 4);
        let board = sys.health();
        assert_eq!(board.rung(), Rung::Cancel);
        assert_eq!(sys.cancel_token().reason(), Some(AbortReason::Cancelled));
        assert_eq!(board.counters().watchdog_escalations, 4);
        // The next job starts clean (word zeroed, counters kept).
        sys.begin_job(None);
        assert_eq!(board.rung(), Rung::Healthy);
        assert!(!sys.cancel_token().is_stopped());
        assert_eq!(board.counters().watchdog_escalations, 4);
    }

    #[test]
    fn livelock_detected_while_beats_climb() {
        let sys = tiny_system(1);
        let h = sys.health_handle(0);
        let dog = watch_fast(&sys, 1, 1);
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
        let dog = watch_fast(&sys, 2, 3);
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
    fn no_false_stall_from_a_dropped_worker() {
        // One worker runs a transaction and is dropped; its peer keeps
        // committing. The dropped worker's slot is flat for good — it must
        // read as idle, not as a stall that cancels the live job.
        let mut layout = MemoryLayout::new();
        let cell = layout.alloc("cell", 1);
        let sys = TxnSystem::build(1, layout, SystemConfig::default());
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let bump = &mut |ops: &mut dyn crate::TxnOps| {
            let x = ops.read(0, cell.addr(0))?;
            ops.write(0, cell.addr(0), x + 1)
        };
        let (mut gone, mut live) = (sched.worker(), sched.worker());
        assert!(gone.execute(2, bump).committed);
        drop(gone);
        let dog = watch_fast(&sys, 2, 3);
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(150) {
            assert!(live.execute(2, bump).committed, "the live job was stopped");
        }
        let report = dog.stop();
        assert!(!report.cancelled, "{report:?}");
        assert!(!sys.cancel_token().is_stopped());
    }
}
