//! # TuFast — a lightweight parallelization library for graph analytics
//!
//! Reproduction of *"TuFast: A Lightweight Parallelization Library for
//! Graph Analytics"* (Shang, Yu, Zhang — ICDE 2019): a hybrid transactional
//! memory that lets graph algorithms be written as straightforward
//! sequential code wrapped in transactions, then parallelised safely across
//! cores with strict serializability.
//!
//! ## The three-mode HyTM
//!
//! Large graphs have power-law degree distributions, so per-vertex
//! transactions range from a handful of words (leaf vertices) to millions
//! (hubs). No single concurrency-control scheme handles that range well
//! (paper Figure 7), so TuFast routes every transaction, by its size hint
//! and observed behaviour, through three sub-schedulers sharing one lock
//! table (paper Figure 10):
//!
//! * **H mode** — the whole transaction inside one hardware transaction,
//!   with per-vertex lock *subscription* (Algorithm 1). Retried on conflict
//!   aborts; a capacity abort skips straight to O mode (it would repeat).
//! * **O mode** — optimistic execution chopped into `period`-sized HTM
//!   pieces for free early conflict detection, then a validated commit
//!   under the write locks (Algorithm 2, Figure 9). On abort the `period`
//!   halves; below its floor the transaction proceeds to L mode.
//! * **L mode** — strict two-phase locking with deadlock handling
//!   (Algorithm 3), for the huge hub transactions.
//!
//! The initial `period` adapts online: TuFast tracks the per-operation HTM
//! abort probability `p` and maximises the expected committed work
//! `(1-p)^P · P`, giving `P* = -1/ln(1-p) ≈ 1/p` (paper §IV-D).
//!
//! ## Example — the paper's Figure 1 (greedy maximal matching)
//!
//! ```
//! use std::sync::Arc;
//! use tufast::{TuFast, par::parallel_for};
//! use tufast_htm::MemoryLayout;
//! use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker, TxnOps};
//!
//! const NONE: u64 = u64::MAX;
//! // A 4-cycle: 0-1-2-3-0.
//! let neighbors: Vec<Vec<u32>> = vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]];
//! let mut layout = MemoryLayout::new();
//! let matched = layout.alloc("match", 4);
//! let sys = TxnSystem::with_defaults(4, layout);
//! sys.mem().fill_region(&matched, NONE);
//!
//! let tufast = TuFast::new(Arc::clone(&sys));
//! parallel_for(&tufast, 2, 4, |worker, v| {
//!     let degree = neighbors[v as usize].len();
//!     worker.execute(2 * (degree + 1), &mut |ops| {
//!         if ops.read(v, matched.addr(v.into()))? == NONE {
//!             for &u in &neighbors[v as usize] {
//!                 if ops.read(u, matched.addr(u.into()))? == NONE {
//!                     ops.write(v, matched.addr(v.into()), u.into())?;
//!                     ops.write(u, matched.addr(u.into()), v.into())?;
//!                     break;
//!                 }
//!             }
//!         }
//!         Ok(())
//!     });
//! });
//!
//! // Every matched pair is mutual.
//! for v in 0..4u64 {
//!     let m = sys.mem().load_direct(matched.addr(v));
//!     if m != NONE {
//!         assert_eq!(sys.mem().load_direct(matched.addr(m)), v);
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bucket;
mod config;
pub mod epoch;
mod hmode;
mod monitor;
mod omode;
pub mod par;
mod stats;
pub mod steal;
mod worker;

pub use bucket::BucketPool;
pub use config::TuFastConfig;
pub use epoch::{parallel_drain_epochs, COORDINATOR_CLAIM};
pub use monitor::{expected_committed_work, ContentionMonitor};
pub use par::{fold_sched_counters, take_sched_counters, PoolCounters};
pub use stats::{ModeBreakdown, ModeClass, TuFastStats};
pub use steal::{StealDeque, StealPool};
pub use tufast_txn::pad::{self, CachePadded};
pub use worker::{TuFast, TuFastWorker};

// The user-facing transaction vocabulary (paper Table I) and the runtime
// health layer (DESIGN.md §12) re-exported so a single `use tufast::...`
// suffices for application code.
pub use tufast_txn::{
    AbortReason, CancelToken, GraphScheduler, HealthCounters, JobAborted, JobDeadline, TxInterrupt,
    TxnOps, TxnOutcome, TxnSystem, TxnWorker, Watchdog, WatchdogConfig, WatchdogReport,
};

/// Vertex identifier (shared with `tufast-graph` / `tufast-txn`).
pub type VertexId = u32;
