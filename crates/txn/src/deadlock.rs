//! Deadlock handling for blocking lock acquisition (paper §IV-E).
//!
//! The paper's L mode detects deadlock by checking the wait-for
//! relationship; H and O modes never wait (they only *try* locks), so only
//! L-mode transactions participate. Because each blocked worker waits for
//! at most one lock at a time, the wait-for graph is functional (out-degree
//! ≤ 1) and cycle detection reduces to chain-following from the lock's
//! current holder.
//!
//! Two practical wrinkles:
//!
//! * A lock held in *shared* mode has anonymous holders (the word stores
//!   only a count), so no precise edge can be recorded; waiting on readers
//!   falls back to a bounded wait ([`ANON_WAIT_SPINS`] spins), after which
//!   the requester aborts as the victim.
//! * The paper also describes deadlock *prevention* by global lock
//!   ordering; that is implemented at the scheduler level: the commit
//!   paths lock their lines in sorted order, and 2PL's declared path
//!   (`TplWorker::execute_declared`) takes all of a transaction's vertex
//!   locks in one sorted batch and waits holding nothing, so it never
//!   closes a wait-for cycle. Both 2PL lock orders end in one release,
//!   which reports every commit here ([`WaitForTable::record_commit`]).
//!
//! ## Victim fairness (priority aging)
//!
//! Victims are tracked per worker. A worker that was recently victimized
//! *defers* self-victimization when its wait-for cycle runs through a
//! holder with a lower victim count — at least one member of any cycle has
//! a minimal count and therefore never defers, so progress is preserved
//! while the same worker stops being re-victimized indefinitely. Bounded
//! anonymous waits scale their spin budget the same way. Counts reset on
//! the worker's next commit, discovered or declared.

use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a blocking wait attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The resource became available; retry the acquisition.
    Retry,
    /// A wait-for cycle (or bounded-wait timeout) was found and this worker
    /// was chosen as the victim: release everything and restart.
    Victim,
}

/// Spin iterations of the bounded wait on anonymous (reader-held) locks
/// before the waiter self-aborts as the victim. Scaled up (×2 per recent
/// victimization, capped at ×8) by priority aging.
pub const ANON_WAIT_SPINS: u32 = 10_000;

/// Maximum left-shift applied to the spin budget by priority aging.
const MAX_AGING_SHIFT: u32 = 3;

/// Global wait-for table: `waits[w]` is 1 + the worker id that `w` is
/// currently blocked on, or 0.
pub struct WaitForTable {
    waits: Box<[AtomicU32]>,
    /// Recent victimizations per worker (reset on commit): the priority
    /// used for victim-selection fairness.
    victims: Box<[AtomicU32]>,
}

impl WaitForTable {
    /// A table for up to `max_workers` workers.
    pub fn new(max_workers: usize) -> Self {
        WaitForTable {
            waits: (0..max_workers).map(|_| AtomicU32::new(0)).collect(),
            victims: (0..max_workers).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Record that `me` waits for `holder` and check for a cycle. Returns
    /// `true` if blocking would close a cycle and `me` must become the
    /// victim (its edge is already cleared); `false` means keep waiting —
    /// either there is no cycle, or priority aging deferred victimization
    /// to a cycle member with a lower victim count.
    pub fn register_and_check(&self, me: u32, holder: u32) -> bool {
        debug_assert_ne!(me, holder, "cannot wait on self");
        self.waits[me as usize].store(holder + 1, Ordering::SeqCst);
        // Follow the chain from `holder`. Bounded by the table size; the
        // table is small, and edges are few (blocked workers only).
        let mut cur = holder;
        for _ in 0..self.waits.len() {
            let next = self.waits[cur as usize].load(Ordering::SeqCst);
            if next == 0 {
                return false;
            }
            let next = next - 1;
            if next == me {
                // Cycle through us. Priority aging: if we were victimized
                // more recently than our direct holder, defer — the cycle
                // member with the minimal count never defers, so someone
                // else breaks the cycle. Our edge stays registered so the
                // others still see the full cycle.
                if self.victim_count(me) > self.victim_count(holder) {
                    return false;
                }
                self.clear(me);
                self.record_victim(me);
                return true;
            }
            cur = next;
        }
        // Chain longer than the worker count can only mean a cycle not
        // passing through us — let the worker it passes through detect it;
        // but to guarantee progress we also become a victim here.
        self.clear(me);
        self.record_victim(me);
        true
    }

    /// Remove `me`'s wait edge (after acquiring, aborting, or timing out).
    pub fn clear(&self, me: u32) {
        self.waits[me as usize].store(0, Ordering::SeqCst);
    }

    /// Spin-wait bounded for anonymous holders (shared locks). Returns
    /// [`WaitOutcome::Victim`] when the spin budget (scaled by `me`'s
    /// aging factor) is exhausted, or at once when `escalated`: the job's
    /// watchdog stands at [`Rung::Victims`](crate::health::Rung::Victims)
    /// or above.
    pub fn bounded_anonymous_wait(&self, me: u32, attempt: u32, escalated: bool) -> WaitOutcome {
        let shift = self.victim_count(me).min(MAX_AGING_SHIFT);
        if escalated || attempt >= ANON_WAIT_SPINS << shift {
            self.record_victim(me);
            return WaitOutcome::Victim;
        }
        if attempt % 64 == 63 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
        WaitOutcome::Retry
    }

    /// `me` committed: its victim-priority resets.
    pub fn record_commit(&self, me: u32) {
        let victims = &self.victims[me as usize];
        // Most commits follow no victimization: leave the line clean.
        if victims.load(Ordering::Relaxed) != 0 {
            victims.store(0, Ordering::Relaxed);
        }
    }

    /// Recent victimizations of `me` (since its last commit).
    #[inline]
    pub fn victim_count(&self, me: u32) -> u32 {
        self.victims[me as usize].load(Ordering::Relaxed)
    }

    fn record_victim(&self, me: u32) {
        self.victims[me as usize].fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for WaitForTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let edges: Vec<(usize, u32)> = self
            .waits
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                let v = w.load(Ordering::Relaxed);
                (v != 0).then(|| (i, v - 1))
            })
            .collect();
        f.debug_struct("WaitForTable")
            .field("edges", &edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> WaitForTable {
        WaitForTable::new(n)
    }

    #[test]
    fn no_cycle_on_simple_chain() {
        let t = table(8);
        assert!(!t.register_and_check(0, 1)); // 0 → 1
        assert!(!t.register_and_check(1, 2)); // 1 → 2
        t.clear(0);
        t.clear(1);
    }

    #[test]
    fn two_cycle_detected() {
        let t = table(8);
        assert!(!t.register_and_check(0, 1));
        assert!(t.register_and_check(1, 0), "1→0 closes the 0→1 cycle");
        // Victim's edge must have been cleared.
        assert!(!t.register_and_check(2, 1));
    }

    #[test]
    fn three_cycle_detected() {
        let t = table(8);
        assert!(!t.register_and_check(0, 1));
        assert!(!t.register_and_check(1, 2));
        assert!(t.register_and_check(2, 0));
    }

    #[test]
    fn clear_breaks_the_chain() {
        let t = table(8);
        assert!(!t.register_and_check(0, 1));
        t.clear(0);
        assert!(!t.register_and_check(1, 0), "edge was cleared; no cycle");
    }

    #[test]
    fn bounded_wait_eventually_victimises() {
        let t = table(2);
        assert_eq!(t.bounded_anonymous_wait(0, 0, false), WaitOutcome::Retry);
        assert_eq!(
            t.bounded_anonymous_wait(0, ANON_WAIT_SPINS, false),
            WaitOutcome::Victim
        );
    }

    #[test]
    fn force_victims_short_circuits_every_bounded_wait() {
        // `escalated`: the job's watchdog stands at the Victims rung.
        let t = table(2);
        assert_eq!(t.bounded_anonymous_wait(0, 0, false), WaitOutcome::Retry);
        assert_eq!(t.bounded_anonymous_wait(0, 0, true), WaitOutcome::Victim);
        // Aging from the forced victimization scales the budget; attempt 0
        // is still within it.
        assert_eq!(t.bounded_anonymous_wait(0, 0, false), WaitOutcome::Retry);
    }

    #[test]
    fn recent_victim_defers_to_fresh_holder() {
        let t = table(8);
        // Worker 1 was recently victimized; worker 0 was not.
        t.record_victim(1);
        assert_eq!(t.victim_count(1), 1);
        assert!(!t.register_and_check(0, 1));
        // 1 detects the cycle but defers (its count exceeds 0's); its edge
        // stays registered so 0 can still see the full cycle.
        assert!(!t.register_and_check(1, 0));
        // 0 now detects the same cycle and, with the lower count, becomes
        // the victim — progress is preserved.
        assert!(t.register_and_check(0, 1));
        // A commit resets the priority: 1 self-victimizes normally again.
        t.record_commit(1);
        assert!(!t.register_and_check(0, 1));
        assert!(t.register_and_check(1, 0));
        t.clear(0);
    }

    #[test]
    fn aging_scales_the_anonymous_budget() {
        let t = table(2);
        let base = ANON_WAIT_SPINS;
        t.record_victim(0);
        // One recent victimization doubles the budget.
        assert_eq!(t.bounded_anonymous_wait(0, base, false), WaitOutcome::Retry);
        assert_eq!(
            t.bounded_anonymous_wait(0, base * 2, false),
            WaitOutcome::Victim
        );
        // The scale factor is capped.
        for _ in 0..10 {
            t.record_victim(1);
        }
        assert_eq!(
            t.bounded_anonymous_wait(1, base.saturating_mul(8), false),
            WaitOutcome::Victim
        );
    }

    #[test]
    fn concurrent_registration_always_terminates() {
        // Hammer the table from many threads with random edges; the
        // invariant is simply "no hang and no panic".
        let t = std::sync::Arc::new(table(16));
        std::thread::scope(|s| {
            for me in 0..8u32 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..2000u32 {
                        let holder = (me + 1 + (i % 7)) % 8;
                        if holder != me {
                            let _ = t.register_and_check(me, holder);
                            t.clear(me);
                        }
                    }
                });
            }
        });
    }
}
