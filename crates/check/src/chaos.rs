//! Seeded chaos runs: every scheduler, under every fault plan, must
//! terminate with every transaction committed and a serializable history.
//!
//! Unlike the [`explore`](crate::explore) step gate, chaos runs use free
//! concurrency — the adversary here is the deterministic fault-injection
//! layer ([`tufast_txn::faults`]), not the interleaving. Each
//! [`ChaosPlan`] fixes a [`FaultSpec`] seed, so a failing run replays.
//!
//! What a run asserts:
//!
//! 1. **Termination** — the workload returns at all (the liveness ladder
//!    H→O→L→serial-token guarantees forward progress under any plan);
//! 2. **Completion** — every transaction committed (the workload never
//!    user-aborts);
//! 3. **Serializability** — the recorded history passes the
//!    [`dsg`](crate::dsg) checker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast_htm::{MemRegion, MemoryLayout};
use tufast_txn::{
    FaultPlan, FaultSpec, GraphScheduler, SystemConfig, TxnObserver, TxnSystem, TxnWorker, VertexId,
};

use crate::dsg::{check, CheckReport};
use crate::explore::{SchedulerKind, WorkloadSpec};
use crate::history::Recorder;

/// One named fault configuration for a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Stable name (used in reports and assertions).
    pub name: &'static str,
    /// The seeded fault rates.
    pub spec: FaultSpec,
    /// Whether the emulated HTM is available during the run (`false`
    /// exercises the runtime "HTM unavailable" degradation path).
    pub htm_available: bool,
}

impl ChaosPlan {
    /// The standard chaos matrix: storms on each fault site plus a mixed
    /// plan and an HTM-unavailable plan. Rates for faults that *fail*
    /// operations outright stay below 1000‰ so unbounded-retry baselines
    /// keep a success path; the spurious-abort storm runs at 100% because
    /// every scheduler has a non-HTM route to progress.
    pub fn standard() -> Vec<ChaosPlan> {
        vec![
            ChaosPlan {
                name: "spurious-storm",
                spec: FaultSpec {
                    seed: 0xC4A0_5001,
                    spurious_abort_permille: 1000,
                    ..FaultSpec::default()
                },
                htm_available: true,
            },
            ChaosPlan {
                name: "capacity-chaos",
                spec: FaultSpec {
                    seed: 0xC4A0_5002,
                    capacity_abort_permille: 600,
                    ..FaultSpec::default()
                },
                htm_available: true,
            },
            ChaosPlan {
                name: "lock-chaos",
                spec: FaultSpec {
                    seed: 0xC4A0_5003,
                    lock_fail_permille: 400,
                    lock_stall_permille: 300,
                    lock_stall_spins: 64,
                    ..FaultSpec::default()
                },
                htm_available: true,
            },
            ChaosPlan {
                name: "validation-chaos",
                spec: FaultSpec {
                    seed: 0xC4A0_5004,
                    validation_fail_permille: 600,
                    ..FaultSpec::default()
                },
                htm_available: true,
            },
            ChaosPlan {
                name: "htm-off",
                spec: FaultSpec {
                    seed: 0xC4A0_5005,
                    ..FaultSpec::default()
                },
                htm_available: false,
            },
            ChaosPlan {
                name: "mixed-chaos",
                spec: FaultSpec {
                    seed: 0xC4A0_5006,
                    spurious_abort_permille: 300,
                    capacity_abort_permille: 100,
                    lock_fail_permille: 200,
                    lock_stall_permille: 200,
                    lock_stall_spins: 32,
                    validation_fail_permille: 300,
                    preempt_permille: 200,
                    preempt_spins: 128,
                    ..FaultSpec::default()
                },
                htm_available: true,
            },
        ]
    }
}

/// The verdict of one (scheduler, plan) chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Scheduler name (`GraphScheduler::name`).
    pub scheduler: String,
    /// The fault plan's name.
    pub plan: &'static str,
    /// Transactions the workload expected to commit.
    pub expected: usize,
    /// Faults actually injected during the run, all kinds.
    pub injected: u64,
    /// The DSG checker's report over the recorded history.
    pub report: CheckReport,
}

impl ChaosOutcome {
    /// Panic unless the run committed everything with a clean history.
    pub fn assert_survived(&self) {
        assert_eq!(
            self.report.committed, self.expected,
            "[tufast-chaos] {} under {}: {} of {} transactions committed",
            self.scheduler, self.plan, self.report.committed, self.expected,
        );
        if !self.report.ok() {
            eprintln!(
                "[tufast-chaos] {} under {} is not serializable:",
                self.scheduler, self.plan
            );
            self.report.assert_ok();
        }
    }
}

/// Drives the conflicting [`WorkloadSpec`] workload through schedulers
/// under seeded fault plans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosRunner {
    /// The workload each run executes.
    pub spec: WorkloadSpec,
}

impl ChaosRunner {
    /// A runner over `spec`.
    pub fn new(spec: WorkloadSpec) -> Self {
        ChaosRunner { spec }
    }

    /// Fresh system with `plan` installed: every HTM context and worker
    /// created afterwards consults it.
    fn build_sys(&self, plan: &Arc<FaultPlan>, htm_available: bool) -> (Arc<TxnSystem>, MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("cells", self.spec.cells);
        let sys = TxnSystem::build(self.spec.cells as usize, layout, SystemConfig::default());
        sys.set_fault_plan(Some(Arc::clone(plan)));
        sys.htm().set_htm_available(htm_available);
        (sys, data)
    }

    /// Run one (scheduler, plan) pair and check the outcome.
    pub fn run(&self, kind: SchedulerKind, plan: &ChaosPlan) -> ChaosOutcome {
        let fault_plan = FaultPlan::new(plan.spec.clone());
        let (sys, data) = self.build_sys(&fault_plan, plan.htm_available);
        let outcome = with_scheduler!(kind, &sys, |sched| self.drive(&sys, &sched, &data, plan));
        ChaosOutcome {
            injected: fault_plan.total_injected(),
            ..outcome
        }
    }

    /// Run every scheduler under every plan; returns one outcome per pair.
    pub fn run_matrix(&self, plans: &[ChaosPlan]) -> Vec<ChaosOutcome> {
        let mut out = Vec::with_capacity(plans.len() * SchedulerKind::all().len());
        for plan in plans {
            for kind in SchedulerKind::all() {
                out.push(self.run(kind, plan));
            }
        }
        out
    }

    fn drive<S>(
        &self,
        sys: &Arc<TxnSystem>,
        sched: &S,
        data: &MemRegion,
        plan: &ChaosPlan,
    ) -> ChaosOutcome
    where
        S: GraphScheduler,
        S::Worker: Send,
    {
        let observer = Arc::new(Recorder::new());
        sys.set_observer(Some(Arc::clone(&observer) as Arc<dyn TxnObserver>));

        let spec = self.spec;
        let stamp = AtomicU64::new(1);
        let workers: Vec<S::Worker> = (0..spec.threads).map(|_| sched.worker()).collect();
        std::thread::scope(|s| {
            for (ti, mut w) in workers.into_iter().enumerate() {
                let stamp = &stamp;
                s.spawn(move || {
                    for k in 0..spec.txns_per_thread {
                        w.execute(spec.hint, &mut |ops| {
                            for j in 0..spec.cells_per_txn {
                                let c = ((ti + k + j) % spec.cells as usize) as u64;
                                ops.read(c as VertexId, data.addr(c))?;
                                let val =
                                    (stamp.fetch_add(1, Ordering::Relaxed) << 8) | (ti as u64 + 1);
                                ops.write(c as VertexId, data.addr(c), val)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });

        sys.set_observer(None);
        let history = observer.take_history();
        ChaosOutcome {
            scheduler: sched.name().to_string(),
            plan: plan.name,
            expected: spec.threads * spec.txns_per_thread,
            injected: 0, // filled by `run` from the plan's counters
            report: check(&history),
        }
    }
}

/// Run a two-thread panic probe under `kind`: one thread's transaction
/// body panics deterministically while a peer keeps committing. Asserts
/// the panic propagates to (only) its own thread, the peer finishes all
/// its transactions, no locks leak, and the survivors' history is
/// serializable.
pub fn panic_probe(kind: SchedulerKind) {
    let cells = 2u64;
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("cells", cells);
    let sys = TxnSystem::build(cells as usize, layout, SystemConfig::default());
    let observer = Arc::new(Recorder::new());
    sys.set_observer(Some(Arc::clone(&observer) as Arc<dyn TxnObserver>));

    let peer_txns = 30u64;
    with_scheduler!(kind, &sys, |sched| drive_panic_probe(
        &sched, &data, peer_txns
    ));

    sys.set_observer(None);
    // The panicking transaction's write must have been rolled back: the
    // counter holds exactly the committed increments.
    let total = sys.mem().load_direct(data.addr(0));
    assert_eq!(
        total,
        peer_txns + PANIC_THREAD_TXNS - 1,
        "panicked txn leaked state under {kind:?}"
    );
    for v in 0..cells as u32 {
        assert!(
            sys.locks().peek(sys.mem(), v).is_free(),
            "{kind:?} leaked lock {v} across a body panic"
        );
    }
    let report = check(&observer.take_history());
    assert!(
        report.ok(),
        "{kind:?} history not serializable around a body panic: {report:?}"
    );
}

/// Transactions the panicking thread runs (one of which panics).
const PANIC_THREAD_TXNS: u64 = 20;

fn drive_panic_probe<S>(sched: &S, data: &MemRegion, peer_txns: u64)
where
    S: GraphScheduler,
    S::Worker: Send,
{
    std::thread::scope(|s| {
        // Thread 0: one of its transactions panics mid-body, after a write.
        let mut w0 = sched.worker();
        s.spawn(move || {
            for k in 0..PANIC_THREAD_TXNS {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    w0.execute(2, &mut |ops| {
                        let x = ops.read(0, data.addr(0))?;
                        ops.write(0, data.addr(0), x + 1)?;
                        if k == PANIC_THREAD_TXNS / 2 {
                            panic!("chaos probe: deliberate body panic");
                        }
                        Ok(())
                    });
                }));
                assert_eq!(
                    result.is_err(),
                    k == PANIC_THREAD_TXNS / 2,
                    "panic must surface exactly at the poisoned transaction"
                );
            }
        });
        // Thread 1: plain increments throughout — must never get stuck.
        let mut w1 = sched.worker();
        s.spawn(move || {
            for _ in 0..peer_txns {
                let out = w1.execute(2, &mut |ops| {
                    let x = ops.read(0, data.addr(0))?;
                    ops.write(0, data.addr(0), x + 1)
                });
                assert!(out.committed);
            }
        });
    });
}
