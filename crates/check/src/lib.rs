//! Conflict-serializability oracle and deterministic schedule explorer
//! for the TuFast hybrid transactional memory.
//!
//! Two layers (see DESIGN.md, "Correctness tooling"):
//!
//! 1. [`history`] + [`dsg`]: a [`Recorder`](history::Recorder) observes
//!    every scheduler through `tufast-txn`'s observer hooks,
//!    logging each attempt's reads, writes, and commit ticket into a
//!    [`History`](history::History); the checker rebuilds the direct
//!    serialization graph (WR / WW / RW edges) and reports cycles with a
//!    minimal witness, plus dedicated lost-update, dirty/aborted-read,
//!    and non-repeatable-read detectors.
//! 2. [`explore`]: a controlled stepper that serializes worker threads
//!    at their transactional operations (round-robin, seeded-random, and
//!    adversarial abort-injection schedules), runs small conflicting
//!    workloads under every scheduler, and feeds each resulting history
//!    to the checker.
//! 3. [`chaos`]: seeded fault-plan
//!    runs — abort storms, lock chaos, forced validation failures,
//!    HTM-unavailable — asserting every scheduler terminates with all
//!    transactions committed and a serializable history, plus a
//!    panicking-body probe for clean panic containment.
//! 4. [`recovery`]: the crash-recovery matrix — seeded
//!    whole-run crashes against the checkpointed algorithm drivers,
//!    asserting crash → recover → finish is bitwise identical to an
//!    uninterrupted run, and that corrupt/torn snapshot generations fall
//!    back cleanly.
//! 5. [`durability`]: the durable-mutation matrix —
//!    seeded WAL crash points (torn append, lost fsync + power cut,
//!    crash between commit record and apply, crash during checkpoint log
//!    truncation) against `DurableGraph`, asserting recovery yields
//!    precisely the committed-prefix graph, bitwise against an
//!    independent model and behaviourally through BFS/WCC re-runs.
//! 6. [`readers`]: the R-mode reader matrix —
//!    declared-pure snapshot readers racing pair-invariant writers under
//!    every scheduler (including seeded fault chaos and a writer crashing
//!    mid-pair), asserting zero fractured reads, a serializable history,
//!    and that quiesced pure reads take no locks and issue no hardware
//!    transactions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Evaluate `$body` with `$sched` bound to `$kind`'s scheduler over `$sys`
/// (an `&Arc<TxnSystem>`). The schedulers share no object-safe trait —
/// `GraphScheduler::Worker` is an associated type — so every matrix
/// dispatches by expansion.
macro_rules! with_scheduler {
    ($kind:expr, $sys:expr, |$sched:ident| $body:expr) => {{
        use std::sync::Arc;
        use $crate::explore::SchedulerKind as Kind;
        match $kind {
            Kind::TuFast => {
                let $sched = tufast::TuFast::new(Arc::clone($sys));
                $body
            }
            Kind::TwoPhaseLocking => {
                let $sched = tufast_txn::TwoPhaseLocking::new(Arc::clone($sys));
                $body
            }
            Kind::Occ => {
                let $sched = tufast_txn::Occ::new(Arc::clone($sys));
                $body
            }
            Kind::TimestampOrdering => {
                let $sched = tufast_txn::TimestampOrdering::new(Arc::clone($sys));
                $body
            }
            Kind::SoftwareTm => {
                let $sched = tufast_txn::SoftwareTm::new(Arc::clone($sys));
                $body
            }
            Kind::HSync => {
                let $sched = tufast_txn::HSyncLike::new(Arc::clone($sys));
                $body
            }
            Kind::HTimestampOrdering => {
                let $sched = tufast_txn::HTimestampOrdering::new(Arc::clone($sys));
                $body
            }
        }
    }};
}

pub mod chaos;
pub mod dsg;
pub mod durability;
pub mod explore;
pub mod history;
pub mod readers;
pub mod recovery;

pub use chaos::{panic_probe, ChaosOutcome, ChaosPlan, ChaosRunner};
pub use dsg::{check, Anomaly, CheckReport, DepEdge, EdgeKind};
pub use durability::{
    model_graph, run_cell, scripted_mutations, DurabilityCell, DurabilityOutcome,
};
pub use explore::{ExploreOutcome, Explorer, Schedule, SchedulerKind, WorkloadSpec};
pub use history::{History, Recorder, TxnKind, TxnRecord};
pub use readers::{
    fallback_load_probe, fallback_peek_probe, load_probe, paired_peek_probe, peek_probe,
    quiesced_read_probe, ReadersOutcome, ReadersPlan, ReadersRunner, ReadersSpec,
};
pub use recovery::{crash_and_recover, RecoveryAlgo, RecoveryOutcome};
