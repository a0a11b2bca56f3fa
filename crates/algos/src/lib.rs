//! # tufast-algos — graph analytics on the TuFast transactional API
//!
//! Every algorithm the paper evaluates (Figures 11 and 12), implemented the
//! way the paper advocates: as near-verbatim translations of the sequential
//! pseudo-code into `BEGIN … READ/WRITE … COMMIT` transactions, parallelised
//! by the scheduler. Each module ships:
//!
//! * a **sequential reference** (`sequential*`) used for correctness
//!   cross-checks, and
//! * a **transactional implementation** (`parallel*`) generic over any
//!   [`GraphScheduler`](tufast_txn::GraphScheduler) — TuFast or any of the
//!   baseline schedulers run the *same* transaction bodies.
//!
//! | Module | Algorithm | Paper usage |
//! |--------|-----------|-------------|
//! | [`pagerank`] | asynchronous in-place PageRank | Fig. 11/12, Fig. 17 |
//! | [`bfs`] | breadth-first search (hop distances) | Fig. 11/12 |
//! | [`wcc`] | weakly connected components (min-label propagation) | Fig. 11/12 |
//! | [`triangle`] | triangle counting | Fig. 11/12 |
//! | [`sssp`] | Bellman-Ford (FIFO) / SPFA (priority) — the paper's Fig. 3 | Fig. 11/12 |
//! | [`mis`] | greedy maximal independent set | Fig. 11/12 |
//! | [`matching`] | greedy maximal matching — the paper's Fig. 1 | §II example |
//! | [`coloring`] | greedy vertex coloring | extension |
//!
//! BFS, WCC and SSSP are one queue loop over a monotone-min value array and
//! share one driver and one work-item body (the private `monotone` module).
//! That body opens a transaction only for an item that may write: a stale
//! item, or one whose neighbours committed loads show settled, ends without
//! one. Each has `parallel` (default pool) and `parallel_on`,
//! which drains the [`WorkPool`](tufast::par::WorkPool) the caller built —
//! the scheduling queue is the only difference between Bellman-Ford and
//! SPFA (paper Figure 3).
//!
//! [`checkpoint`] adds epoch-based checkpointing and crash recovery: given
//! a [`Ckpt`](checkpoint::Ckpt), `parallel_on` snapshots `(values,
//! frontier)` into a rotating store at epoch barriers and can resume a
//! crashed run mid-algorithm, bitwise-identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod checkpoint;
pub mod coloring;
mod common;
pub mod matching;
pub mod mis;
mod monotone;
pub mod pagerank;
pub mod sssp;
pub mod triangle;
pub mod wcc;

pub use common::{setup, AlgoSystem};
