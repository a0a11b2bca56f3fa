//! Scheduler observability hooks.
//!
//! Every scheduler notifies a process-wide-free, per-[`TxnSystem`](crate::TxnSystem)
//! [`TxnObserver`] of its transactional lifecycle: attempt starts, each
//! read/write with the value seen/installed, the commit with a
//! *serialization ticket*, and aborts. `tufast-check` builds its history
//! recorder and deterministic schedule explorer on these hooks.
//!
//! The observer is installed on the system
//! ([`TxnSystem::set_observer`](crate::TxnSystem::set_observer)) and
//! reaches every worker created afterwards: each worker takes its
//! [`ObsHandle`] when it is created, so an attempt never looks the
//! observer up. Detached, a hook is one inline `is_some` test and its
//! attached body is cold and out of line.
//!
//! ## Serialization tickets
//!
//! Every committing code path in this workspace holds all of its written
//! cache lines locked (the HTM/STM commit, or a [`crate::commit`] batch)
//! while it mints its ticket from the HTM clock, and unlocks those lines
//! *at* the ticket. Conflicting writers hold overlapping line sets, so
//! their critical sections are disjoint and ticket order equals
//! publication order per address — which is what lets the checker derive
//! WW edges from tickets alone. Read-only transactions report the clock
//! value observed at their commit point instead; it upper-bounds their
//! source writers' tickets.
//!
//! Because line versions *are* tickets, a second invariant holds by
//! construction, and the R-mode snapshot path depends on it: a line
//! version `≤ t` proves the line's content was published by a transaction
//! ticketed `≤ t`: every writer buffers until its commit batch, which
//! stores under the line locks and unlocks them at the ticket. R-mode readers
//! ([`crate::rmode`]) ticket the pinned clock value their whole read set
//! validated against — every observed writer is ticketed at or below it,
//! so the checker's WR attribution works unchanged.
//!
//! The ticket is minted whether or not an observer is attached;
//! [`ObsHandle::commit_ticketed`] merely reports it.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tufast_htm::Addr;

use crate::traits::{TxInterrupt, TxnBody, TxnOps};
use crate::VertexId;

thread_local! {
    /// Payload of a transaction-body panic caught by [`ObsHandle::run_body`],
    /// parked here while the scheduler rolls the attempt back.
    static CAUGHT_PANIC: RefCell<Option<Box<dyn Any + Send>>> = const { RefCell::new(None) };
}

/// Re-raise the transaction-body panic caught by the current thread's
/// most recent [`ObsHandle::run_body`] call.
///
/// [`Lifecycle::rung`](crate::lifecycle::Lifecycle::rung), its one caller,
/// gets here *after* the attempt's closure rolled the panicked attempt
/// back (locks released, HTM state reset) and the panic was counted: the
/// original payload then propagates on the calling thread exactly as an
/// uncontained panic would, but without wedging any peer.
pub(crate) fn resume_body_panic() -> ! {
    let payload = CAUGHT_PANIC.with(|p| p.borrow_mut().take());
    match payload {
        Some(p) => resume_unwind(p),
        // Unreachable through the scheduler paths (Panicked is only ever
        // produced together with a parked payload), but don't turn a
        // bookkeeping slip into UB-adjacent silence.
        None => panic!("transaction body panicked"),
    }
}

/// Receiver of scheduler lifecycle events. All methods default to no-ops
/// so implementors subscribe only to what they need.
///
/// Methods take `&self`: one observer is shared by every worker thread,
/// so implementations synchronise internally.
pub trait TxnObserver: Send + Sync {
    /// A worker is about to (re-)execute a transaction body.
    fn attempt_begin(&self, _worker: u32) {}

    /// A worker is about to issue a transactional operation. This is the
    /// explorer's scheduling point: blocking here delays the operation.
    fn before_op(&self, _worker: u32) {}

    /// A transactional read returned `val` (own-write read-backs
    /// included; the recorder filters them).
    fn op_read(&self, _worker: u32, _v: VertexId, _addr: Addr, _val: u64) {}

    /// A transactional write of `val` was accepted into the attempt.
    fn op_write(&self, _worker: u32, _v: VertexId, _addr: Addr, _val: u64) {}

    /// The body finished and the worker is about to enter its commit
    /// protocol (second scheduling point).
    fn pre_commit(&self, _worker: u32) {}

    /// The attempt committed with the given serialization ticket.
    fn commit(&self, _worker: u32, _ticket: u64) {}

    /// The attempt rolled back; `user` distinguishes `user_abort` from a
    /// conflict/restart.
    fn abort(&self, _worker: u32, _user: bool) {}
}

/// A worker's handle to the system's observer, taken when the worker is
/// created ([`Lifecycle::new`](crate::Lifecycle::new)). Detached, every
/// hook is one inline `is_some` test; the attached bodies are cold.
#[derive(Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<dyn TxnObserver>>,
}

impl ObsHandle {
    /// A handle with no observer attached.
    #[inline]
    pub fn none() -> Self {
        ObsHandle::default()
    }

    /// Wrap an installed observer.
    #[inline]
    pub fn attached(obs: Option<Arc<dyn TxnObserver>>) -> Self {
        ObsHandle { inner: obs }
    }

    /// Whether an observer is attached.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Forward [`TxnObserver::attempt_begin`].
    #[inline]
    pub fn attempt_begin(&self, worker: u32) {
        if let Some(o) = &self.inner {
            cold(|| o.attempt_begin(worker));
        }
    }

    /// Forward [`TxnObserver::pre_commit`].
    #[inline]
    pub fn pre_commit(&self, worker: u32) {
        if let Some(o) = &self.inner {
            cold(|| o.pre_commit(worker));
        }
    }

    /// Forward [`TxnObserver::commit`]. `ticket` runs only when an observer
    /// is attached: writers pass the tick their commit already minted,
    /// read-only paths a clock read they would otherwise skip.
    #[inline]
    pub fn commit_ticketed(&self, worker: u32, ticket: impl FnOnce() -> u64) {
        if let Some(o) = &self.inner {
            cold(|| o.commit(worker, ticket()));
        }
    }

    /// Forward [`TxnObserver::abort`].
    #[inline]
    pub fn abort(&self, worker: u32, user: bool) {
        if let Some(o) = &self.inner {
            cold(|| o.abort(worker, user));
        }
    }

    /// Run `body` against `inner`, interposing the observer's per-op
    /// hooks when one is attached, and containing body panics: a panic
    /// unwinds no further than this frame, its payload is parked for the
    /// attempt skeleton to re-raise, and the caller sees
    /// [`TxInterrupt::Panicked`] — so it can roll the attempt back
    /// (releasing every lock and HTM resource) before the panic
    /// propagates.
    #[inline]
    pub fn run_body<T: TxnOps>(
        &self,
        inner: &mut T,
        worker: u32,
        body: &mut TxnBody<'_>,
    ) -> Result<(), TxInterrupt> {
        let res = catch_unwind(AssertUnwindSafe(|| match &self.inner {
            Some(obs) => cold(|| body(&mut ObservedOps { inner, obs, worker })),
            None => body(inner),
        }));
        match res {
            Ok(r) => r,
            Err(payload) => {
                CAUGHT_PANIC.with(|p| *p.borrow_mut() = Some(payload));
                Err(TxInterrupt::Panicked)
            }
        }
    }
}

/// Run an attached hook (or an armed fault probe) out of line, off the
/// detached path.
#[cold]
#[inline(never)]
pub(crate) fn cold<R>(hook: impl FnOnce() -> R) -> R {
    hook()
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObsHandle(active: {})", self.is_active())
    }
}

/// [`TxnOps`] decorator that reports every operation to the observer.
struct ObservedOps<'a, T: TxnOps> {
    inner: &'a mut T,
    obs: &'a Arc<dyn TxnObserver>,
    worker: u32,
}

impl<T: TxnOps> TxnOps for ObservedOps<'_, T> {
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.obs.before_op(self.worker);
        let val = self.inner.read(v, addr)?;
        self.obs.op_read(self.worker, v, addr, val);
        Ok(val)
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.obs.before_op(self.worker);
        self.inner.write(v, addr, val)?;
        self.obs.op_write(self.worker, v, addr, val);
        Ok(())
    }

    fn user_abort(&mut self) -> TxInterrupt {
        self.inner.user_abort()
    }
}
