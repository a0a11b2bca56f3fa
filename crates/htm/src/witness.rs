//! The lock-order witness: every blocking acquisition checks, on the
//! thread that makes it, that it keeps the one lock order of the
//! workspace.
//!
//! The order is [`LockClass`]'s declaration order: a thread may block on a
//! class only while every class it holds is declared before it. A thread
//! holding [`LockClass::VertexLock`] may wait for
//! [`LockClass::HtmLineLock`], never the reverse. When every thread keeps
//! the order, no cycle of waits can close. A blocking acquisition that
//! breaks it panics and names both classes:
//!
//! - a class declared after the new one is already held, or
//! - the new class is already held and does not [`nest`](LockClass::nests).
//!
//! A try-acquisition cannot wait, so it is recorded as held but never
//! checked ([`acquired`]). A hold ends when its [`Held`] token drops. The
//! token of a [`Mutex`] rides in the guard, so a guard handed out by a
//! helper stays held in the caller until it drops, and a statement
//! temporary is held only to the end of its statement.
//!
//! The witness runs in debug builds only, so every `cargo test` run feeds
//! it. In release builds [`Held`] is a zero-sized type, [`acquire`] and
//! [`acquired`] compile to nothing, and a [`Mutex`] is the `std` one.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Condvar, LockResult, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// The lock classes, in lock order: a thread acquires them top to bottom.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The durable-graph commit lock: WAL append, fsync and the
    /// transactional apply happen under it, so log order is commit order.
    /// It may wait on scheduler locks, never the reverse.
    DurableWal,
    /// The single global stop-the-world word: the serial-fallback ladder's
    /// last rung and the epoch coordinator.
    SerialToken,
    /// HSync's global fallback lock word. Subscription makes it mutually
    /// safe with the HTM path.
    HsyncFallback,
    /// Per-vertex 2PL lock words. Discovered acquisitions take them in any
    /// order and rely on runtime deadlock detection and victimization.
    /// Declared acquisitions (2PL `execute_declared`) are all-or-nothing
    /// under their sorted line locks and wait with nothing held, so they
    /// close no cycle. Both orders release every hold in one line-lock
    /// batch. The optimistic commit paths (O mode, OCC, TO) take none and
    /// test the words under their line locks instead.
    VertexLock,
    /// Per-line commit locks of the HTM/STM commits and the schedulers'
    /// commit batches. Always acquired in ascending address order,
    /// bounded-try by every optimistic committer, waited for only by the
    /// release batch of 2PL and of the HSync fallback and by 2PL's
    /// declared acquire batch, whose holders never wait for a vertex lock
    /// (a declared acquire that finds one busy lets its lines go first).
    /// Never held across user code.
    HtmLineLock,
    /// A work pool's queue (`FifoPool`, `PriorityPool`, `BucketPool`'s
    /// shared side, `StealPool`'s injector): one queue call under it.
    PoolQueue,
    /// `IdleGate`'s parking lock: taken to park on its condvar or to order
    /// a wake after a parker's registration.
    IdleGate,
    /// The Galois stand-in's worklist: one queue call under it.
    GaloisWorklist,
    /// The schedule explorer's step gate, taken at every gated operation.
    ExploreState,
    /// The history recorder, taken by every observer hook.
    HistoryState,
}

impl LockClass {
    /// Every class, in declaration order.
    pub const ALL: [LockClass; 10] = [
        LockClass::DurableWal,
        LockClass::SerialToken,
        LockClass::HsyncFallback,
        LockClass::VertexLock,
        LockClass::HtmLineLock,
        LockClass::PoolQueue,
        LockClass::IdleGate,
        LockClass::GaloisWorklist,
        LockClass::ExploreState,
        LockClass::HistoryState,
    ];

    /// Whether a thread may hold two locks of this class at once: its own
    /// protocol orders them (address order for line locks, deadlock
    /// detection for vertex locks).
    pub const fn nests(self) -> bool {
        matches!(self, LockClass::VertexLock | LockClass::HtmLineLock)
    }
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    use super::LockClass;

    const CLASSES: usize = LockClass::ALL.len();

    thread_local! {
        /// Per class, the holds of this thread.
        static HELD: [Cell<u32>; CLASSES] = const { [const { Cell::new(0) }; CLASSES] };
    }

    /// Panic if blocking on `class` now breaks the lock order.
    pub(super) fn check(class: LockClass) {
        HELD.with(|held| {
            let later = (class as usize + 1..CLASSES).rfind(|&c| held[c].get() > 0);
            if let Some(c) = later {
                panic!(
                    "lock order: blocking on {class:?} while holding {:?}, which the order puts after it",
                    LockClass::ALL[c]
                );
            }
            if held[class as usize].get() > 0 && !class.nests() {
                panic!("lock order: blocking on {class:?} while already holding {class:?}, which does not nest");
            }
        });
    }

    pub(super) fn push(class: LockClass) {
        HELD.with(|held| held[class as usize].set(held[class as usize].get() + 1));
    }

    pub(super) fn pop(class: LockClass) {
        HELD.with(|held| held[class as usize].set(held[class as usize].get() - 1));
    }
}

/// One hold of a lock class by this thread, recorded until the token
/// drops. [`Held::default`] holds nothing: the empty slot of a holder
/// that is not locked yet.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
pub struct Held(Option<LockClass>);

/// One hold of a lock class by this thread (zero-sized: release builds
/// record nothing).
#[cfg(not(debug_assertions))]
#[derive(Debug, Default)]
pub struct Held(());

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        if let Some(class) = self.0 {
            held::pop(class);
        }
    }
}

impl Held {
    /// Keep holding the class after this token is gone: for a hold that
    /// outlives every scope of its holder, ended by [`release`].
    #[inline]
    pub fn keep(self) {
        #[cfg(debug_assertions)]
        std::mem::forget(self);
    }
}

/// A blocking acquisition of `class`: panics if the order forbids it here,
/// else holds `class` until the token drops. Call it before waiting, so a
/// wrong order panics instead of deadlocking.
#[inline]
#[must_use = "the class is held until the token drops"]
pub fn acquire(class: LockClass) -> Held {
    #[cfg(debug_assertions)]
    {
        held::check(class);
        acquired(class)
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = class;
        Held(())
    }
}

/// A try-acquisition of `class` that succeeded: held until the token
/// drops, never checked (a try cannot wait, so it closes no cycle).
#[inline]
#[must_use = "the class is held until the token drops"]
pub fn acquired(class: LockClass) -> Held {
    #[cfg(debug_assertions)]
    {
        held::push(class);
        Held(Some(class))
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = class;
        Held(())
    }
}

/// End one hold of `class` that [`Held::keep`] kept.
#[inline]
pub fn release(class: LockClass) {
    #[cfg(debug_assertions)]
    held::pop(class);
    #[cfg(not(debug_assertions))]
    let _ = class;
}

/// A `std` mutex of a lock class: [`lock`](Mutex::lock) is a blocking
/// acquisition of the class, and the guard holds it until it drops.
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
    #[cfg(debug_assertions)]
    class: LockClass,
}

impl<T> Mutex<T> {
    /// A mutex of `class` around `value`.
    pub const fn new(class: LockClass, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = class;
        Mutex {
            inner: sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            class,
        }
    }

    /// Lock it, as [`std::sync::Mutex::lock`]: an `Err` carries the guard
    /// of a poisoned mutex.
    #[inline]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let held = acquire(self.class);
        #[cfg(not(debug_assertions))]
        let held = Held(());
        match self.inner.lock() {
            Ok(inner) => Ok(MutexGuard { inner, _held: held }),
            Err(poison) => Err(PoisonError::new(MutexGuard {
                inner: poison.into_inner(),
                _held: held,
            })),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// The guard of a [`Mutex`]: the `std` guard and the hold of its class,
/// released in that order.
#[must_use = "the mutex unlocks when the guard drops"]
pub struct MutexGuard<'a, T> {
    inner: sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Wait on `cv` for at most `dur`, the mutex unlocked meanwhile, as
    /// [`Condvar::wait_timeout`]. The class stays held across the wait: the
    /// thread acquires nothing else before it has the mutex back.
    pub fn wait_timeout(
        self,
        cv: &Condvar,
        dur: Duration,
    ) -> LockResult<(Self, WaitTimeoutResult)> {
        let MutexGuard { inner, _held } = self;
        match cv.wait_timeout(inner, dur) {
            Ok((inner, timeout)) => Ok((MutexGuard { inner, _held }, timeout)),
            Err(poison) => {
                let (inner, timeout) = poison.into_inner();
                Err(PoisonError::new((MutexGuard { inner, _held }, timeout)))
            }
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// The guard-returning helper of the tests below.
    fn locked(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn panic_text(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("the witness let it through");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn all_lists_the_classes_in_declaration_order() {
        for (rank, class) in LockClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, rank);
        }
    }

    fn a_then_b(a: &Mutex<u32>, b: &Mutex<u32>) {
        let _a = locked(a);
        *b.lock().unwrap() += 1;
    }

    fn b_then_a(a: &Mutex<u32>, b: &Mutex<u32>) {
        let _b = locked(b);
        *a.lock().unwrap() += 1;
    }

    #[test]
    fn a_helper_guard_is_held_by_its_caller() {
        let a = Mutex::new(LockClass::PoolQueue, 0);
        let b = Mutex::new(LockClass::HistoryState, 0);
        a_then_b(&a, &b);
        let text = panic_text(|| b_then_a(&a, &b));
        assert!(
            text.contains("PoolQueue") && text.contains("HistoryState"),
            "{text}"
        );
    }

    #[test]
    fn a_statement_temporary_is_released_at_the_end_of_its_statement() {
        let q = Mutex::new(LockClass::GaloisWorklist, std::collections::VecDeque::new());
        q.lock().unwrap().push_back(1);
        let v = q.lock().unwrap().pop_front();
        q.lock().unwrap().push_back(v.unwrap() + 1);
        assert_eq!(q.lock().unwrap().pop_front(), Some(2));
    }

    #[test]
    fn a_class_that_does_not_nest_panics_when_taken_twice() {
        let (a, b) = (
            Mutex::new(LockClass::PoolQueue, 0),
            Mutex::new(LockClass::PoolQueue, 0),
        );
        let text = panic_text(|| {
            let _a = locked(&a);
            drop(locked(&b));
        });
        assert!(
            text.contains("PoolQueue") && text.contains("nest"),
            "{text}"
        );
        let _lines = acquire(LockClass::HtmLineLock);
        drop(acquire(LockClass::HtmLineLock));
    }

    #[test]
    fn a_try_acquisition_is_held_but_not_checked() {
        let history = Mutex::new(LockClass::HistoryState, 0);
        let st = locked(&history);
        let lines = acquired(LockClass::HtmLineLock);
        drop(st);
        // The try's hold is still checked against later blocking ones.
        let text = panic_text(|| drop(acquire(LockClass::VertexLock)));
        assert!(text.contains("HtmLineLock"), "{text}");
        drop(lines);
        drop(acquire(LockClass::VertexLock));
    }

    #[test]
    fn a_kept_hold_lasts_until_released() {
        acquire(LockClass::VertexLock).keep();
        let text = panic_text(|| drop(acquire(LockClass::SerialToken)));
        assert!(text.contains("VertexLock"), "{text}");
        release(LockClass::VertexLock);
        drop(acquire(LockClass::SerialToken));
    }
}
