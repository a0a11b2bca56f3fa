//! Deterministic schedule exploration.
//!
//! The explorer runs a small, deliberately conflicting workload under any
//! of the workspace's schedulers while a *step gate* serializes the worker
//! threads at their transactional operations (the `before_op` /
//! `pre_commit` observer hooks). Which thread proceeds at each step is a
//! pure function of the [`Schedule`]:
//!
//! - [`Schedule::RoundRobin`] — strict turn-taking, one operation each;
//! - [`Schedule::Seeded`] — the next thread is drawn from a seeded
//!   xorshift generator, so any seed replays its interleaving;
//! - [`Schedule::AbortEveryNth`] — round-robin stepping plus a
//!   deterministic [`AbortSource`] that spuriously aborts every `n`-th
//!   HTM operation of every context, exercising the abort/retry paths at
//!   every possible point;
//! - [`Schedule::Free`] — no gating, plain concurrency (stress mode).
//!
//! A thread that holds the turn but is blocked elsewhere (an L-mode lock
//! wait, say) would stall the gate forever; waiters therefore steal the
//! turn after a short timeout, trading a bounded amount of determinism
//! for guaranteed liveness.
//!
//! Every run records a [`History`](crate::history::History) through a
//! [`Recorder`](crate::history::Recorder) and feeds it to the
//! [`dsg`](crate::dsg) checker; the workload writes globally unique
//! values so read attribution is exact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::ThreadId;
use std::time::Duration;

use tufast::{TuFast, TuFastConfig};
use tufast_htm::witness::{LockClass, Mutex};
use tufast_htm::{AbortCode, AbortSource, Addr, HtmConfig, MemRegion, MemoryLayout};
use tufast_txn::{GraphScheduler, SystemConfig, TxnObserver, TxnSystem, TxnWorker, VertexId};

use crate::dsg::{check, CheckReport};
use crate::history::Recorder;

/// How long a gated thread waits for its turn before stealing it (keeps
/// the gate live when the turn-holder is blocked on a scheduler lock).
/// Short on purpose: on a loaded single-core machine the turn-holder is
/// frequently descheduled mid-spin, and every such event costs every
/// waiter one full timeout.
const TURN_STEAL_TIMEOUT: Duration = Duration::from_micros(200);

/// An interleaving policy for one explored run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// No gating: threads run freely (stress mode).
    Free,
    /// Strict turn-taking, one transactional operation per turn.
    RoundRobin,
    /// Seeded-random turn selection; the same seed replays the same
    /// interleaving.
    Seeded(u64),
    /// Round-robin stepping plus a deterministic spurious abort on every
    /// `n`-th HTM operation of every context.
    AbortEveryNth(u64),
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Free => write!(f, "free"),
            Schedule::RoundRobin => write!(f, "round-robin"),
            Schedule::Seeded(s) => write!(f, "seeded({s})"),
            Schedule::AbortEveryNth(n) => write!(f, "abort-every-{n}"),
        }
    }
}

/// The small conflicting workload every run executes.
///
/// Thread `t`'s `k`-th transaction reads then overwrites
/// `cells_per_txn` consecutive cells starting at `(t + k) % cells`, so
/// neighbouring threads always contend. Every write installs a globally
/// unique nonzero value, making the checker's read attribution exact.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Worker threads.
    pub threads: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Shared data cells (also the vertex count).
    pub cells: u64,
    /// Cells touched (read + written) per transaction.
    pub cells_per_txn: usize,
    /// Size hint passed to `execute` (routes TuFast: keep it small for H
    /// mode, raise it above the HTM capacity in words to force O mode).
    pub hint: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            threads: 3,
            txns_per_thread: 4,
            cells: 4,
            cells_per_txn: 2,
            hint: 8,
        }
    }
}

/// The checker verdict for one (scheduler, schedule) run.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Scheduler name (`GraphScheduler::name`).
    pub scheduler: String,
    /// The schedule that was explored.
    pub schedule: Schedule,
    /// The DSG checker's report over the recorded history.
    pub report: CheckReport,
}

impl ExploreOutcome {
    /// Panic with scheduler/schedule context unless the report is clean.
    pub fn assert_ok(&self) {
        if !self.report.ok() {
            eprintln!(
                "[tufast-check] {} under {} failed:",
                self.scheduler, self.schedule
            );
            self.report.assert_ok();
        }
    }
}

// ---------------------------------------------------------------------
// Step gate
// ---------------------------------------------------------------------

enum Policy {
    RoundRobin,
    Seeded(u64),
}

struct GateState {
    slots: HashMap<ThreadId, usize>,
    active: Vec<bool>,
    registered: usize,
    turn: usize,
    policy: Policy,
}

impl GateState {
    fn advance(&mut self) {
        let n = self.active.len();
        if !self.active.iter().any(|&a| a) {
            return;
        }
        match &mut self.policy {
            Policy::RoundRobin => {
                for step in 1..=n {
                    let cand = (self.turn + step) % n;
                    if self.active[cand] {
                        self.turn = cand;
                        return;
                    }
                }
            }
            Policy::Seeded(state) => {
                // xorshift64*: deterministic per seed.
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let draw = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize;
                for step in 0..n {
                    let cand = (draw + step) % n;
                    if self.active[cand] {
                        self.turn = cand;
                        return;
                    }
                }
            }
        }
    }
}

/// Serializes registered threads at their observer gate points.
struct StepGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl StepGate {
    fn new(threads: usize, policy: Policy) -> Self {
        StepGate {
            state: Mutex::new(
                LockClass::ExploreState,
                GateState {
                    slots: HashMap::new(),
                    active: vec![true; threads],
                    registered: 0,
                    turn: 0,
                    policy,
                },
            ),
            cv: Condvar::new(),
        }
    }

    /// Called by each workload thread before its first transaction.
    fn register(&self, slot: usize) {
        let mut st = self.state.lock().unwrap();
        st.slots.insert(std::thread::current().id(), slot);
        st.registered += 1;
        self.cv.notify_all();
    }

    /// Called by each workload thread after its last transaction.
    fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        if let Some(&slot) = st.slots.get(&std::thread::current().id()) {
            st.active[slot] = false;
            if st.turn == slot {
                st.advance();
            }
        }
        self.cv.notify_all();
    }

    /// Gate point: block until this thread's turn, then hand the turn on.
    fn step(&self) {
        let mut st = self.state.lock().unwrap();
        let Some(&slot) = st.slots.get(&std::thread::current().id()) else {
            return;
        };
        // Hold every thread at its first operation until the whole cohort
        // has registered — otherwise early threads race ahead ungated.
        while st.registered < st.active.len() {
            let (next, timeout) = st.wait_timeout(&self.cv, 10 * TURN_STEAL_TIMEOUT).unwrap();
            st = next;
            if timeout.timed_out() {
                break; // a spawn failed?  proceed rather than hang
            }
        }
        loop {
            if st.turn == slot {
                st.advance();
                self.cv.notify_all();
                return;
            }
            let (next, timeout) = st.wait_timeout(&self.cv, TURN_STEAL_TIMEOUT).unwrap();
            st = next;
            if timeout.timed_out() && st.turn != slot {
                // The turn-holder is off blocked somewhere (e.g. an L-mode
                // lock queue). Steal the turn to keep the run live.
                st.turn = slot;
            }
        }
    }
}

/// Observer composing the history [`Recorder`] with an optional gate.
struct ExploreObserver {
    rec: Recorder,
    gate: Option<Arc<StepGate>>,
}

impl TxnObserver for ExploreObserver {
    fn attempt_begin(&self, worker: u32) {
        self.rec.attempt_begin(worker);
    }

    fn before_op(&self, _worker: u32) {
        if let Some(g) = &self.gate {
            g.step();
        }
    }

    fn op_read(&self, worker: u32, v: VertexId, addr: Addr, val: u64) {
        self.rec.op_read(worker, v, addr, val);
    }

    fn op_write(&self, worker: u32, v: VertexId, addr: Addr, val: u64) {
        self.rec.op_write(worker, v, addr, val);
    }

    fn pre_commit(&self, _worker: u32) {
        if let Some(g) = &self.gate {
            g.step();
        }
    }

    fn commit(&self, worker: u32, ticket: u64) {
        self.rec.commit(worker, ticket);
    }

    fn abort(&self, worker: u32, user: bool) {
        self.rec.abort(worker, user);
    }
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

/// Which scheduler to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The TuFast three-mode router.
    TuFast,
    /// Strict two-phase locking.
    TwoPhaseLocking,
    /// Silo-style OCC.
    Occ,
    /// Timestamp ordering.
    TimestampOrdering,
    /// TinySTM-like software TM.
    SoftwareTm,
    /// HTM with global-lock fallback.
    HSync,
    /// HTM-accelerated timestamp ordering.
    HTimestampOrdering,
}

impl SchedulerKind {
    /// All seven schedulers.
    pub fn all() -> [SchedulerKind; 7] {
        [
            SchedulerKind::TuFast,
            SchedulerKind::TwoPhaseLocking,
            SchedulerKind::Occ,
            SchedulerKind::TimestampOrdering,
            SchedulerKind::SoftwareTm,
            SchedulerKind::HSync,
            SchedulerKind::HTimestampOrdering,
        ]
    }
}

/// Drives workloads through schedulers under controlled schedules and
/// checks every resulting history.
#[derive(Clone, Copy, Debug, Default)]
pub struct Explorer {
    /// The workload each run executes.
    pub spec: WorkloadSpec,
}

impl Explorer {
    /// An explorer over `spec`.
    pub fn new(spec: WorkloadSpec) -> Self {
        Explorer { spec }
    }

    /// Build a fresh system (one per run: histories must not mix).
    fn build_sys(&self, schedule: &Schedule) -> (Arc<TxnSystem>, MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("cells", self.spec.cells);
        let htm = HtmConfig {
            abort_source: match *schedule {
                // Sequence numbers start at 1, so `n = 0` never fires.
                Schedule::AbortEveryNth(n) => Some(AbortSource::new(move |_, seq| {
                    seq.is_multiple_of(n).then_some(AbortCode::Spurious)
                })),
                _ => None,
            },
            ..HtmConfig::default()
        };
        let sys = TxnSystem::build(
            self.spec.cells as usize,
            layout,
            SystemConfig {
                htm,
                ..SystemConfig::default()
            },
        );
        (sys, data)
    }

    fn gate_for(&self, schedule: &Schedule) -> Option<Arc<StepGate>> {
        let policy = match schedule {
            Schedule::Free => return None,
            Schedule::RoundRobin | Schedule::AbortEveryNth(_) => Policy::RoundRobin,
            Schedule::Seeded(seed) => Policy::Seeded(seed | 1),
        };
        Some(Arc::new(StepGate::new(self.spec.threads, policy)))
    }

    /// Run one (scheduler, schedule) pair and check the history.
    pub fn run(&self, kind: SchedulerKind, schedule: Schedule) -> ExploreOutcome {
        let (sys, data) = self.build_sys(&schedule);
        with_scheduler!(kind, &sys, |sched| self
            .drive(&sys, &sched, &data, schedule))
    }

    /// Run TuFast with an explicit configuration under `schedule`.
    pub fn run_tufast_config(&self, config: TuFastConfig, schedule: Schedule) -> ExploreOutcome {
        let (sys, data) = self.build_sys(&schedule);
        let sched = TuFast::with_config(Arc::clone(&sys), config);
        self.drive(&sys, &sched, &data, schedule)
    }

    /// Run the default TuFast under `schedule` with the fault plan `faults`
    /// installed — e.g. the
    /// [`skip_o_validation`](tufast_txn::FaultSpec::skip_o_validation) bug
    /// seed, with `spec.hint` raised to force O mode.
    pub fn run_tufast_faulty(
        &self,
        faults: tufast_txn::FaultSpec,
        schedule: Schedule,
    ) -> ExploreOutcome {
        let (sys, data) = self.build_sys(&schedule);
        sys.set_fault_plan(Some(tufast_txn::FaultPlan::new(faults)));
        self.drive(&sys, &TuFast::new(Arc::clone(&sys)), &data, schedule)
    }

    /// Run every scheduler under every schedule; returns one outcome per
    /// pair, in order.
    pub fn run_matrix(&self, schedules: &[Schedule]) -> Vec<ExploreOutcome> {
        let mut out = Vec::with_capacity(schedules.len() * 7);
        for &schedule in schedules {
            for kind in SchedulerKind::all() {
                out.push(self.run(kind, schedule));
            }
        }
        out
    }

    fn drive<S>(
        &self,
        sys: &Arc<TxnSystem>,
        sched: &S,
        data: &MemRegion,
        schedule: Schedule,
    ) -> ExploreOutcome
    where
        S: GraphScheduler,
        S::Worker: Send,
    {
        let gate = self.gate_for(&schedule);
        let observer = Arc::new(ExploreObserver {
            rec: Recorder::new(),
            gate: gate.clone(),
        });
        sys.set_observer(Some(Arc::clone(&observer) as Arc<dyn TxnObserver>));

        let spec = self.spec;
        let stamp = AtomicU64::new(1);
        // Workers are created on this thread, in slot order, so worker ids
        // are deterministic across runs.
        let workers: Vec<S::Worker> = (0..spec.threads).map(|_| sched.worker()).collect();
        std::thread::scope(|s| {
            for (ti, mut w) in workers.into_iter().enumerate() {
                let gate = gate.clone();
                let stamp = &stamp;
                s.spawn(move || {
                    if let Some(g) = &gate {
                        g.register(ti);
                    }
                    for k in 0..spec.txns_per_thread {
                        w.execute(spec.hint, &mut |ops| {
                            for j in 0..spec.cells_per_txn {
                                let c = ((ti + k + j) % spec.cells as usize) as u64;
                                ops.read(c as VertexId, data.addr(c))?;
                                // Globally unique nonzero value: exact
                                // read attribution for the checker.
                                let val =
                                    (stamp.fetch_add(1, Ordering::Relaxed) << 8) | (ti as u64 + 1);
                                ops.write(c as VertexId, data.addr(c), val)?;
                            }
                            Ok(())
                        });
                    }
                    if let Some(g) = &gate {
                        g.finish();
                    }
                });
            }
        });

        sys.set_observer(None);
        let history = observer.rec.take_history();
        ExploreOutcome {
            scheduler: sched.name().to_string(),
            schedule,
            report: check(&history),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explorer runs saturate the machine with gated worker threads;
    /// running several concurrently (the harness default) just multiplies
    /// turn-steal timeouts. Serialize them.
    static SEQ: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn seq() -> std::sync::MutexGuard<'static, ()> {
        SEQ.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn round_robin_tufast_is_serializable() {
        let _g = seq();
        let out = Explorer::default().run(SchedulerKind::TuFast, Schedule::RoundRobin);
        out.assert_ok();
        assert!(
            out.report.committed >= 12,
            "3 threads x 4 txns must all commit"
        );
    }

    #[test]
    fn seeded_schedules_cover_all_schedulers() {
        let _g = seq();
        let ex = Explorer::default();
        for kind in SchedulerKind::all() {
            for seed in 0..3 {
                ex.run(kind, Schedule::Seeded(seed)).assert_ok();
            }
        }
    }

    #[test]
    fn abort_injection_keeps_histories_serializable() {
        let _g = seq();
        let ex = Explorer::default();
        for kind in SchedulerKind::all() {
            ex.run(kind, Schedule::AbortEveryNth(3)).assert_ok();
        }
    }

    #[test]
    fn skipping_o_validation_is_caught() {
        let _g = seq();
        // Force O mode (hint above the HTM capacity) and disable its
        // commit validation: the explorer must surface a DSG cycle.
        let spec = WorkloadSpec {
            hint: 8192,
            ..WorkloadSpec::default()
        };
        let bug = tufast_txn::FaultSpec {
            skip_o_validation: true,
            ..tufast_txn::FaultSpec::default()
        };
        let ex = Explorer::new(spec);
        let mut caught = false;
        for seed in 0..32 {
            let out = ex.run_tufast_faulty(bug.clone(), Schedule::Seeded(seed));
            if !out.report.ok() {
                caught = true;
                break;
            }
        }
        assert!(
            caught,
            "unvalidated O-mode commits must produce a detectable cycle"
        );
    }
}
