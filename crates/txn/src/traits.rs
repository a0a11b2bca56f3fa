//! The scheduler-agnostic transaction interface.
//!
//! Transaction bodies are written once against [`TxnOps`] (the paper's
//! Table I: `READ(v, addr)` / `WRITE(v, addr, val)` inside a
//! `BEGIN(size)`…`COMMIT` bracket) and executed by any [`GraphScheduler`].
//! The benchmark harness runs the *same closures* through 2PL, OCC, TO,
//! STM, HSync, H-TO and TuFast, which is what makes the paper's Figure 7 /
//! 13 / 14 comparisons meaningful.

use tufast_htm::Addr;

use crate::VertexId;

/// Control-flow signal raised by transactional operations.
///
/// Bodies simply propagate it with `?`; the scheduler catches it and
/// decides what to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxInterrupt {
    /// The attempt cannot commit (conflict, abort, deadlock victim…).
    /// The scheduler rolls back and re-runs the body.
    Restart,
    /// The body itself called [`TxnOps::user_abort`] — roll back and do
    /// *not* retry (the paper's `ABORT()`).
    UserAbort,
    /// The body panicked. Produced only by the panic-containment layer in
    /// [`ObsHandle::run_body`](crate::obs::ObsHandle::run_body), never by
    /// bodies themselves: the scheduler rolls back (releasing every lock
    /// and HTM resource) and the attempt skeleton
    /// ([`Lifecycle::rung`](crate::Lifecycle::rung)) records the panic and
    /// re-raises the original payload, so peers keep committing while the
    /// panic still surfaces on the calling thread.
    Panicked,
}

/// Transactional read/write operations, implemented per scheduler.
///
/// `v` names the vertex whose lock protects the access (the paper
/// associates every address with a vertex); `addr` is the shared word.
pub trait TxnOps {
    /// Transactionally read `addr` (protected by vertex `v`).
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt>;
    /// Transactionally write `val` to `addr` (protected by vertex `v`).
    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt>;
    /// Abandon the transaction without retry; the body must return the
    /// produced interrupt immediately.
    fn user_abort(&mut self) -> TxInterrupt {
        TxInterrupt::UserAbort
    }
}

/// A transaction body: runs against any scheduler's [`TxnOps`]. Bodies may
/// be re-executed many times and must therefore be deterministic functions
/// of what they `read` (plus captured immutable state such as adjacency).
pub type TxnBody<'a> = dyn FnMut(&mut dyn TxnOps) -> Result<(), TxInterrupt> + 'a;

/// The `BEGIN` hint: the paper's optional `SIZE` argument plus a declared
/// purity bit.
///
/// `size` is the expected number of shared words touched (≈ 2·(degree+1)
/// for neighbourhood transactions); non-binding, and ignored by every
/// scheduler except TuFast's router. `read_only` declares the body *pure*:
/// it performs no [`TxnOps::write`]. Declared-pure bodies are dispatched to
/// the R-mode snapshot-read fast path ([`crate::rmode`]) — no locks, no
/// read-set logging, no hardware transaction. The declaration is checked:
/// a body that writes anyway is demoted to the scheduler's ordinary path
/// (and flagged statically by `tufast-lint`'s `read-purity` rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnHint {
    /// Expected number of shared words touched.
    pub size: usize,
    /// The body is declared pure (reads only).
    pub read_only: bool,
}

impl TxnHint {
    /// An ordinary (read/write) transaction hint.
    #[inline]
    pub fn sized(size: usize) -> TxnHint {
        TxnHint {
            size,
            read_only: false,
        }
    }

    /// A declared-pure transaction hint: the body only reads.
    #[inline]
    pub fn read_only(size: usize) -> TxnHint {
        TxnHint {
            size,
            read_only: true,
        }
    }
}

/// One vertex of a declared footprint: a transaction that knows, before
/// `BEGIN`, every vertex it will touch says so through
/// [`TxnWorker::execute_declared`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Declared {
    /// The vertex.
    pub v: VertexId,
    /// Whether the body may [`write`](TxnOps::write) words of `v` (it may
    /// always read them).
    pub write: bool,
}

impl Declared {
    /// `v`, read only.
    #[inline]
    pub fn read(v: VertexId) -> Declared {
        Declared { v, write: false }
    }

    /// `v`, read and written.
    #[inline]
    pub fn write(v: VertexId) -> Declared {
        Declared { v, write: true }
    }
}

/// What happened to one logical transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Whether the transaction committed (false only after `user_abort`).
    pub committed: bool,
    /// Number of body executions (1 = first attempt succeeded).
    pub attempts: u32,
}

tufast_htm::counters! {
    /// Cross-scheduler statistics, owned per worker and merged by the harness.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct SchedStats {
        /// Committed transactions.
        pub commits: u64,
        /// Transactions abandoned by `user_abort`.
        pub user_aborts: u64,
        /// Body re-executions (attempts beyond the first).
        pub restarts: u64,
        /// Transactional reads (committed and wasted).
        pub reads: u64,
        /// Transactional writes (committed and wasted).
        pub writes: u64,
        /// Times this worker was chosen as a wait-for-cycle deadlock victim.
        pub deadlock_victims: u64,
        /// Times this worker self-aborted out of a bounded anonymous
        /// (reader-held) lock wait — counted separately from cycle victims.
        pub anon_wait_victims: u64,
        /// Transaction bodies that panicked on this worker (each rolled back
        /// cleanly before the panic was re-raised).
        pub panics: u64,
        /// Transactions abandoned at an attempt boundary because the job's
        /// [`CancelToken`](crate::health::CancelToken) was stopped (cancel
        /// or deadline). Each is a clean rollback: no locks held, no
        /// hardware transaction open.
        pub health_stops: u64,
        /// Declared-pure transactions committed on the R-mode snapshot-read
        /// fast path (no locks, no read-set logging, no hardware transaction).
        /// A subset of `commits`.
        pub r_commits: u64,
        /// R-mode snapshot-validation retries: attempts that re-pinned their
        /// snapshot because a read raced a concurrent writer (line published
        /// past the pinned clock, writer mid-commit, or snapshot too old).
        /// A subset of `restarts`.
        pub r_retries: u64,
    }
}

impl SchedStats {
    /// Committed transactions per attempt — 1.0 means no wasted work.
    pub fn efficiency(&self) -> f64 {
        let attempts = self.commits + self.user_aborts + self.restarts;
        if attempts == 0 {
            1.0
        } else {
            self.commits as f64 / attempts as f64
        }
    }
}

/// A transaction scheduler over a shared [`TxnSystem`](crate::TxnSystem).
pub trait GraphScheduler: Sync {
    /// The per-thread execution handle.
    type Worker: TxnWorker + Send;

    /// Create a worker. Each thread gets exactly one.
    fn worker(&self) -> Self::Worker;

    /// Short name for benchmark tables ("2PL", "OCC", "TuFast", …).
    fn name(&self) -> &'static str;
}

/// Per-thread transaction execution.
pub trait TxnWorker {
    /// Run `body` as one transaction until it commits or user-aborts,
    /// with a full [`TxnHint`].
    ///
    /// Every scheduler honours `hint.read_only` by first attempting the
    /// body on the R-mode snapshot-read fast path; `hint.size` is
    /// non-binding and ignored by schedulers other than TuFast.
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome;

    /// Run `body` as one transaction until it commits or user-aborts.
    ///
    /// `size_hint` is the paper's optional `BEGIN(SIZE)` argument — the
    /// expected number of shared words touched (≈ 2·(degree+1) for
    /// neighbourhood transactions). Non-binding; schedulers other than
    /// TuFast ignore it. Equivalent to
    /// [`execute_hinted`](Self::execute_hinted) with
    /// [`TxnHint::sized`].
    fn execute(&mut self, size_hint: usize, body: &mut TxnBody<'_>) -> TxnOutcome {
        self.execute_hinted(TxnHint::sized(size_hint), body)
    }

    /// Run `body` as one transaction whose vertices are all known up
    /// front: `footprint` names every vertex the body may touch, in any
    /// order, repeats allowed (the strongest mode of a vertex counts).
    ///
    /// The footprint is a promise a scheduler may exploit, never one it
    /// relies on: a body that strays from it still runs as a serializable
    /// transaction. This default ignores it and forwards to
    /// [`execute`](Self::execute) with two words a vertex as the size
    /// hint; 2PL takes every declared vertex lock in one sorted batch
    /// instead of discovering them one access at a time.
    fn execute_declared(&mut self, footprint: &[Declared], body: &mut TxnBody<'_>) -> TxnOutcome {
        self.execute(2 * footprint.len(), body)
    }

    /// Statistics accumulated so far.
    fn stats(&self) -> &SchedStats;

    /// Take and reset the statistics.
    fn take_stats(&mut self) -> SchedStats;

    /// Emulated-hardware-transaction operations performed so far (reads +
    /// writes executed inside `XBEGIN`/`XEND`). On real TSX these cost a
    /// cache hit; under emulation they pay software bookkeeping — the
    /// benchmark harness uses this count to report hardware-calibrated
    /// throughput next to raw wall time (EXPERIMENTS.md). Zero for
    /// schedulers that never issue hardware transactions.
    fn htm_ops(&self) -> u64 {
        0
    }

    /// The worker's health probe, when it carries one. Drain loops use it
    /// to beat heartbeats at dequeue boundaries and to stop pulling work
    /// once the job's cancel token latches. The default (`None`) keeps
    /// lightweight test doubles compiling; every real scheduler worker
    /// overrides this.
    fn health(&self) -> Option<&crate::health::HealthHandle> {
        None
    }
}

/// Exponential backoff with deterministic per-worker jitter, shared by all
/// optimistic schedulers' retry loops (TuFast's router uses it too).
#[inline]
pub fn backoff(attempt: u32, salt: u32) {
    if attempt == 0 {
        return;
    }
    let exp = attempt.min(10);
    let spins = (1u32 << exp) + (salt.wrapping_mul(2654435761) >> 27);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempt > 6 {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_counts_wasted_attempts() {
        let s = SchedStats {
            commits: 3,
            restarts: 1,
            ..Default::default()
        };
        assert!((s.efficiency() - 0.75).abs() < 1e-12);
        assert_eq!(SchedStats::default().efficiency(), 1.0);
    }

    #[test]
    fn merge_is_additive() {
        let a = SchedStats {
            commits: 1,
            user_aborts: 2,
            restarts: 3,
            reads: 4,
            writes: 5,
            deadlock_victims: 6,
            anon_wait_victims: 7,
            panics: 8,
            health_stops: 9,
            r_commits: 10,
            r_retries: 11,
        };
        let mut m = a.clone();
        m.merge(&SchedStats::from_values(a.values().map(|v| v * 100)));
        assert_eq!(
            m,
            SchedStats {
                commits: 101,
                user_aborts: 202,
                restarts: 303,
                reads: 404,
                writes: 505,
                deadlock_victims: 606,
                anon_wait_victims: 707,
                panics: 808,
                health_stops: 909,
                r_commits: 1010,
                r_retries: 1111,
            }
        );
        assert_eq!(
            SchedStats::NAMES,
            [
                "commits",
                "user_aborts",
                "restarts",
                "reads",
                "writes",
                "deadlock_victims",
                "anon_wait_victims",
                "panics",
                "health_stops",
                "r_commits",
                "r_retries",
            ]
        );
        assert_eq!(a.values(), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn backoff_terminates_even_for_huge_attempts() {
        backoff(0, 0);
        backoff(50, 12345);
    }
}
