//! R mode: an epoch-versioned snapshot-read fast path for declared-pure
//! transactions.
//!
//! A transaction dispatched with [`TxnHint::read_only`] never takes a
//! vertex lock, never logs a read set, and never opens a hardware
//! transaction. Instead it *pins* the global version clock
//! ([`TxnSystem::read_snapshot`]) and validates every read against the
//! pin, RLU/TL2-style:
//!
//! 1. **Pin** `snap = clock_now()`. The clock only moves inside writer
//!    commit critical sections (line locks, vertex-lock acquisitions, the
//!    HSync fallback word), so `snap` names a committed state.
//! 2. **Read** `addr` by bracketing a plain load with two loads of its
//!    cache line's state ([`TxnSystem::peek_committed`], the one
//!    definition of the bracket): the line must be unlocked at the *same*
//!    version before and after the load — and that version `≤ snap`. A
//!    locked or moving line is a writer mid-commit (bounded spin, then
//!    re-pin); a line published past `snap` is a stale snapshot (re-pin
//!    immediately).
//! 3. **Commit** by doing nothing: an accepted read set *is* the committed
//!    state at `snap`, so the transaction serializes at its pin. The
//!    serialization ticket reported to the observer is `snap` itself.
//!
//! Why this is safe against every writer in the workspace — one invariant,
//! **publish at the ticket** (DESIGN.md §14): *a line version `≤ t` proves
//! the line's content was committed by a transaction ticketed `≤ t`*. Every
//! commit path holds all of its written lines locked while it mints its
//! ticket and unlocks them *at* that ticket, so content and version appear
//! together, and a reader pinned anywhere inside a commit finds each of its
//! lines either locked or stamped above the pin — it re-pins instead of
//! accepting a half-published transaction (a fractured read):
//!
//! * HTM commits (H mode, O-mode pieces, H-TO, HSync's fast path), the STM
//!   and the buffered software committers (OCC, TO, the O-mode optimistic
//!   commit, via [`crate::commit::WriteSet::try_lock`]) buffer their writes
//!   and store them under the line locks. The software committers acquire
//!   no vertex lock; the mark they leave in the lock words while they hold
//!   the lines is for each other's validation, not for readers.
//! * 2PL (L mode and the serial fallback included) and the HSync
//!   global-fallback path buffer their writes too, under vertex locks or
//!   the fallback word, and publish them in one release batch
//!   ([`crate::commit::release_at_ticket`]), which stamps every written
//!   line with the ticket as it releases the locks. A rollback runs the
//!   same batch with nothing to store (2PL) or just frees the word
//!   (HSync).
//!
//! Nothing uncommitted is ever in memory, so the line seqlock alone proves
//! a value committed: a vertex lock or the fallback word held by a writer
//! that has not reached its batch guards only buffered values. A reader
//! that needs a committed value but no serialization point can skip even
//! the seqlock: no committer stores a data word before its point of no
//! return, so one load ([`TxnSystem::load_committed`]) suffices. R mode
//! cannot: its reads must all date from `snap`, and only the version says
//! so.
//!
//! The clock-monotonicity argument, spelled out once: a read is accepted
//! only with line version `ver ≤ snap` on both sides of the load. Every
//! version is a clock tick, and `snap` was read before the bracket ran, so
//! `ver ≤ snap` implies the publication happened *before* the pin.
//! Accepted reads are thus exactly the newest publications at or below
//! `snap` — the committed snapshot at the pin — and the writer's ticket
//! (which *is* the version) is `≤ snap`, which keeps the `tufast-check`
//! DSG edges pointed forward.
//!
//! R mode has one entry point, [`read_only_prologue`], which every
//! read/write scheduler runs first under a `read_only` hint. Declared
//! purity is enforced two ways: statically by `tufast-lint`'s
//! `read-purity` rule, and at runtime by demotion (a body that calls
//! [`TxnOps::write`] under a `read_only` hint aborts the R attempt and
//! re-runs on the scheduler's ordinary path).

use tufast_htm::Addr;

use crate::lifecycle::{Lifecycle, RungEnd, Verdict};
use crate::system::TxnSystem;
use crate::traits::{TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome};
use crate::VertexId;

/// Bounded spins per read while a writer is visibly mid-commit (the line
/// locked or republished across the load) before the attempt gives up and
/// re-pins its snapshot.
const R_READ_SPINS: u32 = 128;

/// Attempt budget of the R path: a reader starved by a write storm demotes
/// to the host scheduler's ordinary (lock-based) path, which owns a
/// liveness ladder.
pub const R_DEMOTE_ATTEMPTS: u32 = 64;

/// [`TxnOps`] for one R-mode attempt: validated snapshot reads, and a
/// write path that only records the purity violation.
struct ROps<'a> {
    sys: &'a TxnSystem,
    snap: u64,
    reads: u64,
    wrote: bool,
}

impl ROps<'_> {
    /// One snapshot read through the line seqlock
    /// ([`TxnSystem::peek_committed`]); `Err(Restart)` means re-pin.
    fn snapshot_read(&mut self, addr: Addr) -> Result<u64, TxInterrupt> {
        let mut spins = 0u32;
        loop {
            match self.sys.peek_committed(addr) {
                Some((val, version)) if version <= self.snap => return Ok(val),
                // Published past the pin: this snapshot can never accept
                // the line — re-pin immediately.
                Some(_) => return Err(TxInterrupt::Restart),
                None => {}
            }
            // A writer is mid-commit on the line: spin briefly, then re-pin.
            spins += 1;
            if spins > R_READ_SPINS {
                return Err(TxInterrupt::Restart);
            }
            if spins.is_multiple_of(32) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl TxnOps for ROps<'_> {
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.reads += 1;
        self.snapshot_read(addr)
    }

    fn write(&mut self, _v: VertexId, _addr: Addr, _val: u64) -> Result<(), TxInterrupt> {
        // Declared-purity violation: abort the R attempt so the host
        // scheduler can demote the body to its ordinary path. Nothing is
        // held, so "rollback" is free.
        self.wrote = true;
        Err(TxInterrupt::Restart)
    }
}

/// Run `body` on the snapshot-read path: one rung of at most
/// [`R_DEMOTE_ATTEMPTS`] pins. `Exhausted` means the body must re-run on
/// the host scheduler's ordinary path — it called [`TxnOps::write`]
/// despite the `read_only` declaration, or used up its re-pins under
/// writer churn.
///
/// Holds nothing, ever: every exit (including panic re-raise) leaves no
/// lock, token, or hardware transaction behind.
fn run_read_only(lc: &mut Lifecycle, attempts: &mut u32, body: &mut TxnBody<'_>) -> RungEnd {
    Lifecycle::rung(lc, R_DEMOTE_ATTEMPTS, attempts, |lc, obs| {
        let mut ops = ROps {
            sys: &lc.sys,
            snap: lc.sys.read_snapshot(),
            reads: 0,
            wrote: false,
        };
        let res = obs.run_body(&mut ops, lc.id, body);
        let (reads, wrote, snap) = (ops.reads, ops.wrote, ops.snap);
        lc.stats.reads += reads;
        match res {
            // A write — also one whose interrupt the body swallowed —
            // violated the declaration, and the reads around it may be
            // fractured: nothing this attempt produced is usable.
            Ok(()) | Err(TxInterrupt::Restart) if wrote => Verdict::Leave,
            Ok(()) => {
                // Every read validated against `snap`: serialize there.
                obs.commit_ticketed(lc.id, || snap);
                lc.stats.r_commits += 1;
                Verdict::Committed
            }
            Err(TxInterrupt::Restart) => {
                lc.stats.r_retries += 1;
                Verdict::Restart
            }
            Err(ended) => ended.into(),
        }
    })
}

/// The shared `read_only` prologue for every read/write scheduler's
/// [`crate::TxnWorker::execute_hinted`]: try the R-mode fast path first.
///
/// `Ok(outcome)` means the R path finished the transaction (committed,
/// user-aborted, or health-stopped) — return it as-is. `Err(attempts)`
/// means the body must run on the scheduler's ordinary path; carry
/// `attempts` (0 when the hint was not `read_only`) into its first rung so
/// demoted R attempts stay visible.
#[inline]
pub fn read_only_prologue(
    lc: &mut Lifecycle,
    hint: TxnHint,
    body: &mut TxnBody<'_>,
) -> Result<TxnOutcome, u32> {
    if !hint.read_only {
        return Err(0);
    }
    let mut attempts = 0;
    run_read_only(lc, &mut attempts, body)
        .settled(attempts)
        .ok_or(attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpl::TwoPhaseLocking;
    use crate::traits::{GraphScheduler, TxnWorker};
    use std::sync::Arc;
    use tufast_htm::MemoryLayout;

    fn setup(n: usize) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", n as u64);
        let sys = TxnSystem::with_defaults(n, layout);
        (sys, data)
    }

    #[test]
    fn pure_reads_commit_and_count_on_the_fast_path() {
        let (sys, data) = setup(4);
        for i in 0..4 {
            sys.mem().store_direct(data.addr(i), 10 + i);
        }
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let mut sum = 0;
        let out = w.execute_hinted(TxnHint::read_only(8), &mut |ops| {
            sum = 0;
            for i in 0..4u32 {
                sum += ops.read(i, data.addr(i.into()))?;
            }
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(sum, 10 + 11 + 12 + 13);
        let s = w.take_stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.r_commits, 1);
        assert_eq!(s.r_retries, 0);
        assert_eq!(s.reads, 4);
    }

    #[test]
    fn read_write_scheduler_demotes_writing_bodies() {
        let (sys, data) = setup(1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        // Declared read-only, but the body writes: the R attempt aborts
        // and the body re-runs (and commits) on the ordinary 2PL path.
        let out = w.execute_hinted(TxnHint::read_only(2), &mut |ops| {
            let v = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), v + 5)?;
            Ok(())
        });
        assert!(out.committed);
        assert!(out.attempts >= 2, "one demoted R attempt plus the 2PL run");
        assert_eq!(sys.mem().load_direct(data.addr(0)), 5);
        let s = w.take_stats();
        assert_eq!(s.r_commits, 0);
        assert_eq!(s.commits, 1);
    }

    #[test]
    fn snapshot_rejects_lines_published_past_the_pin() {
        // Deterministic stale-snapshot exercise: the body's first read
        // pins, then a "writer" (direct store) publishes past the pin
        // before the second read; the attempt must re-pin and the retry
        // must observe both new values.
        let (sys, data) = setup(2);
        sys.mem().store_direct(data.addr(0), 1);
        sys.mem().store_direct(data.addr(1), 1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let mut poked = false;
        let mut seen = (0, 0);
        let out = w.execute_hinted(TxnHint::read_only(4), &mut |ops| {
            let a = ops.read(0, data.addr(0))?;
            if !poked {
                poked = true;
                // data lives line-aligned: addr(1) shares line 0 with
                // addr(0) only if within the same 8-word line — use a
                // store to addr(1) to publish its line past the pin.
                sys.mem().store_direct(data.addr(1), 2);
            }
            let b = ops.read(1, data.addr(1))?;
            seen = (a, b);
            Ok(())
        });
        assert!(out.committed);
        assert!(out.attempts >= 2, "the poked attempt must re-pin");
        assert_eq!(seen, (1, 2));
        assert!(w.take_stats().r_retries >= 1);
    }

    #[test]
    fn reader_pinned_mid_batch_accepts_neither_line() {
        // Two vertices whose data words sit on two different lines; a
        // buffered committer holds both while a reader pins.
        let (sys, data) = setup(16);
        let (a0, a1) = (data.addr(0), data.addr(8));
        let mut writes = crate::commit::WriteSet::new(5);
        writes.insert(0, a0, 7);
        writes.insert(8, a1, 8);
        let held = writes.try_lock(&sys, |_| None).unwrap();
        let mut mid = ROps {
            sys: &sys,
            snap: sys.read_snapshot(),
            reads: 0,
            wrote: false,
        };
        assert!(mid.snapshot_read(a0).is_err(), "line is locked");
        let ticket = held.publish();
        assert!(ticket > mid.snap);
        // Both lines now carry the ticket: the stale pin can take neither
        // the new pair nor a mix.
        assert!(mid.snapshot_read(a0).is_err());
        assert!(mid.snapshot_read(a1).is_err());
        let mut fresh = ROps {
            snap: sys.read_snapshot(),
            ..mid
        };
        assert_eq!(fresh.snapshot_read(a0).unwrap(), 7);
        assert_eq!(fresh.snapshot_read(a1).unwrap(), 8);
    }

    #[test]
    fn readers_race_2pl_writers_without_fractures() {
        // A writer keeps the pair (a, a+1) invariant through 2PL writes;
        // concurrent snapshot readers must never observe a torn pair — the
        // release batch publishes both halves at one ticket, so this
        // exercises its re-stamp and the line seqlock.
        let (sys, data) = setup(16);
        let tpl = TwoPhaseLocking::new(Arc::clone(&sys));
        let readers = TwoPhaseLocking::new(Arc::clone(&sys));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = tpl.worker();
                for round in 1..400u64 {
                    for pair in 0..8u32 {
                        let base = u64::from(pair) * 2;
                        w.execute(4, &mut |ops| {
                            ops.write(pair, data.addr(base), round)?;
                            ops.write(pair, data.addr(base + 1), round + 1)?;
                            Ok(())
                        });
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let mut r = readers.worker();
                    // At least one full pass even if the writer already
                    // finished, so `r_commits > 0` holds below.
                    loop {
                        for pair in 0..8u32 {
                            let base = u64::from(pair) * 2;
                            let mut got = (0, 0);
                            let out = r.execute_hinted(TxnHint::read_only(4), &mut |ops| {
                                got.0 = ops.read(pair, data.addr(base))?;
                                got.1 = ops.read(pair, data.addr(base + 1))?;
                                Ok(())
                            });
                            assert!(out.committed);
                            assert!(
                                (got.0 == 0 && got.1 == 0) || got.1 == got.0 + 1,
                                "fractured read: pair {pair} = {got:?}"
                            );
                        }
                        if stop.load(std::sync::atomic::Ordering::Acquire) {
                            break;
                        }
                    }
                    assert!(r.take_stats().r_commits > 0);
                });
            }
        });
    }
}
