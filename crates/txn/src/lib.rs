//! # tufast-txn — concurrency substrate and baseline transaction schedulers
//!
//! Everything TuFast's three modes *share* (paper §IV-A: "by sharing same
//! locks and metadata, they are integrated as one HyTM") lives here, plus
//! the baseline schedulers the paper evaluates against (Figures 7, 13, 14):
//!
//! * [`TxnSystem`] — the shared heap: transactional memory, per-vertex
//!   versioned reader–writer lock words (*inside* the transactional memory,
//!   so HTM transactions can subscribe to them), the emulated-HTM runtime,
//!   timestamp-ordering metadata, and the deadlock table.
//! * [`VertexLocks`] — try/blocking shared & exclusive vertex locks with a
//!   32-bit commit version per vertex, encoded in one word.
//! * [`commit`] — the one software commit protocol: a sorted line-lock
//!   batch that publishes data, version bumps and lock releases together at
//!   the commit's serialization ticket.
//! * [`deadlock`] — a wait-for table with cycle detection for writer-writer
//!   waits and a bounded-wait fallback for reader-held locks.
//! * [`pad`] — `CachePadded`, a cache-line pair per hot shared atomic.
//! * [`health`] — runtime health: one board per system with a heartbeat
//!   slot per worker thread and one job-state word (stop reason and
//!   escalation rung), the watchdog that climbs the rungs, and job
//!   deadlines.
//! * Scheduler traits ([`GraphScheduler`], [`TxnWorker`], [`TxnOps`]) —
//!   every scheduler (including TuFast itself, in the `tufast` crate) runs
//!   the *same* transaction bodies, so throughput comparisons are
//!   apples-to-apples.
//! * [`Lifecycle`] — the one attempt lifecycle: every scheduler (and every
//!   rung of TuFast's H→O→L ladder) runs its attempts through
//!   [`Lifecycle::rung`], the only place that counts commits, restarts,
//!   user aborts, panics and health stops.
//! * [`rmode`] — the R-mode snapshot-read fast path: declared-pure bodies
//!   ([`TxnHint::read_only`]) read a pinned epoch of the version clock with
//!   no locks, no read-set logging and no hardware transaction. It is a
//!   prologue of every read/write scheduler ([`read_only_prologue`]), not
//!   a scheduler of its own.
//! * Baselines: [`TwoPhaseLocking`], [`Occ`] (Silo-like),
//!   [`TimestampOrdering`], [`SoftwareTm`] (TinySTM-like: the emulated
//!   HTM on a software context), [`HSyncLike`] (HTM + global-fallback
//!   hybrid), and [`HTimestampOrdering`] (HTM-accelerated TO).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commit;
pub mod deadlock;
pub mod faults;
pub mod health;
mod hsync;
mod hto;
mod lifecycle;
mod locks;
pub mod obs;
mod occ;
pub mod pad;
pub mod rmode;
mod stm;
mod system;
mod to;
mod tpl;
mod traits;

pub use faults::{
    is_injected_crash, raise_injected_crash, FaultHandle, FaultKind, FaultPlan, FaultSpec,
    InjectedCrash, CRASH_ANY_WORKER,
};
pub use health::{
    AbortReason, CancelToken, HealthBoard, HealthCounters, HealthHandle, HeartbeatView, JobAborted,
    JobDeadline, Rung, Watchdog, WatchdogConfig, WatchdogReport,
};
pub use hsync::HSyncLike;
pub use hto::HTimestampOrdering;
pub use lifecycle::{hardware_attempt, HtmBodyOps, Lifecycle, RungEnd, Verdict};
pub use locks::{LockWord, VertexLocks};
pub use obs::{ObsHandle, TxnObserver};
pub use occ::Occ;
pub use rmode::{read_only_prologue, R_DEMOTE_ATTEMPTS};
pub use stm::SoftwareTm;
pub use system::{SerialHold, SystemConfig, TxnSystem};
pub use to::TimestampOrdering;
pub use tpl::{TplAttempt, TwoPhaseLocking};
pub use traits::{
    backoff, Declared, GraphScheduler, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps,
    TxnOutcome, TxnWorker,
};

/// Vertex identifier, re-exported for convenience (same as `tufast-graph`).
pub type VertexId = u32;
