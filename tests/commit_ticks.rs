//! Tick-count pins: a software commit publishes at its ticket, so however
//! many vertices it wrote it advances the global version clock exactly
//! once — the one tick every written line and bumped lock word is stamped
//! with. (Before the commit batch each written vertex cost up to four
//! ticks: lock, store, republish, unlock.) No observer is installed here:
//! the tick is part of the protocol, not of the instrumentation.

use std::sync::Arc;

use tufast_suite::htm::{LineState, MemRegion, MemoryLayout};
use tufast_suite::tufast::{ModeClass, TuFast};
use tufast_suite::txn::{
    GraphScheduler, Occ, TimestampOrdering, TwoPhaseLocking, TxnSystem, TxnWorker, VertexId,
};

/// Written vertices: far enough apart that their data words *and* their
/// lock words sit on five different lines each.
const VERTICES: [VertexId; 5] = [3, 12, 21, 30, 39];

fn setup() -> (Arc<TxnSystem>, MemRegion) {
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("data", 48 * 8);
    (TxnSystem::with_defaults(48, layout), data)
}

fn word(data: &MemRegion, v: VertexId) -> tufast_suite::htm::Addr {
    data.addr(u64::from(v) * 8)
}

/// Every written data line and lock-word line carries `ticket`; every lock
/// word is free at version 1.
fn assert_published_at(sys: &TxnSystem, data: &MemRegion, ticket: u64) {
    let (mem, locks) = (sys.mem(), sys.locks());
    for v in VERTICES {
        assert_eq!(mem.load_direct(word(data, v)), u64::from(v) + 100);
        let lw = locks.peek(mem, v);
        assert!(lw.is_free() && lw.version() == 1, "vertex {v}: {lw:?}");
        for line in [word(data, v).line(), locks.addr(v).line()] {
            let want = LineState::Unlocked { version: ticket };
            assert_eq!(mem.line_state(line), want, "vertex {v}");
        }
    }
}

/// Read-modify-write all of [`VERTICES`] in one transaction of `worker`
/// and return how far the clock moved.
fn ticks_of_one_update<W: TxnWorker>(sys: &TxnSystem, data: &MemRegion, worker: &mut W) -> u64 {
    let before = sys.mem().clock_now_pub();
    let out = worker.execute(8192, &mut |ops| {
        for v in VERTICES {
            let x = ops.read(v, word(data, v))?;
            ops.write(v, word(data, v), x + u64::from(v) + 100)?;
        }
        Ok(())
    });
    assert!(out.committed && out.attempts == 1);
    sys.mem().clock_now_pub() - before
}

#[test]
fn occ_commit_ticks_once_for_five_vertices() {
    let (sys, data) = setup();
    let mut w = Occ::new(Arc::clone(&sys)).worker();
    assert_eq!(ticks_of_one_update(&sys, &data, &mut w), 1);
    assert_published_at(&sys, &data, sys.mem().clock_now_pub());
}

#[test]
fn o_mode_commit_ticks_once_for_five_vertices() {
    let (sys, data) = setup();
    let tufast = TuFast::new(Arc::clone(&sys));
    let mut w = tufast.worker();
    // The 8192-word hint is past H mode's reach: the transaction runs its
    // reads in (read-only, tick-free) HTM pieces and commits optimistically.
    assert_eq!(ticks_of_one_update(&sys, &data, &mut w), 1);
    assert_eq!(w.take_tufast_stats().modes.txns(ModeClass::O), 1);
    assert_published_at(&sys, &data, sys.mem().clock_now_pub());
}

#[test]
fn to_commit_ticks_once_for_five_vertices() {
    let (sys, data) = setup();
    let mut w = TimestampOrdering::new(Arc::clone(&sys)).worker();
    // Blind writes: a TO *read* claims `rts` with a ticking direct RMW of
    // its own, which is not the commit's business.
    let before = sys.mem().clock_now_pub();
    let out = w.execute(16, &mut |ops| {
        for v in VERTICES {
            ops.write(v, word(&data, v), u64::from(v) + 100)?;
        }
        Ok(())
    });
    assert!(out.committed && out.attempts == 1);
    assert_eq!(sys.mem().clock_now_pub() - before, 1);
    assert_published_at(&sys, &data, sys.mem().clock_now_pub());
    // The timestamp words were stamped under the same locks.
    for v in VERTICES {
        let line = sys.to_ts_addr(v).line();
        let want = LineState::Unlocked {
            version: sys.mem().clock_now_pub(),
        };
        assert_eq!(sys.mem().line_state(line), want);
        assert!(sys.mem().load_direct(sys.to_ts_addr(v)) >> 32 > 0, "wts");
    }
}

#[test]
fn two_phase_commit_phase_ticks_once_for_five_written_vertices() {
    let (sys, data) = setup();
    let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
    // Acquisitions and in-place stores tick as they go (opacity needs the
    // per-store version); the commit phase starts when the body returns.
    let mut body_end = 0;
    let out = w.execute(16, &mut |ops| {
        for v in VERTICES {
            ops.write(v, word(&data, v), u64::from(v) + 100)?;
        }
        body_end = sys.mem().clock_now_pub();
        Ok(())
    });
    assert!(out.committed && out.attempts == 1);
    assert_eq!(body_end, 2 * VERTICES.len() as u64, "lock + store each");
    assert_eq!(sys.mem().clock_now_pub() - body_end, 1);
    assert_published_at(&sys, &data, sys.mem().clock_now_pub());
}
