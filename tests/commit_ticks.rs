//! Tick-count pins: a software commit publishes at its ticket, so however
//! many vertices it wrote it advances the global version clock exactly
//! once — the one tick every written line and bumped lock word is stamped
//! with. (Before the commit batch each written vertex cost up to four
//! ticks: lock, store, republish, unlock.) No observer is installed here:
//! the tick is part of the protocol, not of the instrumentation.
//!
//! 2PL buffers its writes on both lock orders and releases every hold in
//! that one batch. Discovered, each acquisition (or upgrade) is a direct
//! read-modify-write of its own, so a transaction ticks once per
//! acquisition plus once. A transaction that declares its vertices pays
//! one tick for taking them all at once and no more: a graph mutation
//! moves the clock by exactly two (11 for an edge, 4 for a vertex, 2 for a
//! rejection when each lock and each in-place store ticked).
//!
//! The HSync fallback buffers too: a transaction past HTM capacity ticks
//! once to take the global word and once for the batch that publishes its
//! writes and releases the word.

use std::sync::Arc;

use tufast_suite::graph::mutable::MutationOutcome;
use tufast_suite::graph::{GraphBuilder, MutableGraph, OverlayConfig};
use tufast_suite::htm::{Addr, HtmConfig, LineState, MemRegion, MemoryLayout};
use tufast_suite::tufast::{ModeClass, TuFast};
use tufast_suite::txn::{
    GraphScheduler, HSyncLike, Occ, TimestampOrdering, TwoPhaseLocking, TxnSystem, TxnWorker,
    VertexId,
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
    // Acquisitions tick as they go; the stores wait in the buffer for the
    // commit phase, which starts when the body returns.
    let mut body_end = 0;
    let out = w.execute(16, &mut |ops| {
        for v in VERTICES {
            ops.write(v, word(&data, v), u64::from(v) + 100)?;
        }
        body_end = sys.mem().clock_now_pub();
        Ok(())
    });
    assert!(out.committed && out.attempts == 1);
    assert_eq!(body_end, VERTICES.len() as u64, "one lock each");
    assert_eq!(sys.mem().clock_now_pub() - body_end, 1);
    assert_published_at(&sys, &data, sys.mem().clock_now_pub());
}

#[test]
fn two_phase_read_then_write_ticks_per_acquisition_and_upgrade_plus_one() {
    let (sys, data) = setup();
    let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
    let n = VERTICES.len() as u64;
    assert_eq!(ticks_of_one_update(&sys, &data, &mut w), n + n + 1);
    assert_published_at(&sys, &data, sys.mem().clock_now_pub());
}

/// The line states of every data line and lock-word line of [`VERTICES`].
fn line_states(sys: &TxnSystem, data: &MemRegion) -> Vec<LineState> {
    let (mem, locks) = (sys.mem(), sys.locks());
    VERTICES
        .iter()
        .flat_map(|&v| [word(data, v).line(), locks.addr(v).line()])
        .map(|line| mem.line_state(line))
        .collect()
}

#[test]
fn two_phase_read_only_ticks_per_acquisition_plus_one_release() {
    let (sys, data) = setup();
    let (mem, locks) = (sys.mem(), sys.locks());
    let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
    let was = line_states(&sys, &data);
    let before = mem.clock_now_pub();
    let out = w.execute(16, &mut |ops| {
        for v in VERTICES {
            ops.read(v, word(&data, v))?;
        }
        Ok(())
    });
    assert!(out.committed && out.attempts == 1);
    let ticket = mem.clock_now_pub();
    assert_eq!(ticket - before, VERTICES.len() as u64 + 1);
    // The shared holds went in the release batch: every lock-word line is
    // at the ticket, every word free and unbumped; no data line moved.
    let at_ticket = LineState::Unlocked { version: ticket };
    for (v, was) in VERTICES.iter().zip(was.chunks(2)) {
        let lw = locks.peek(mem, *v);
        assert!(lw.is_free() && lw.version() == 0, "vertex {v}: {lw:?}");
        assert_eq!(mem.line_state(word(&data, *v).line()), was[0], "vertex {v}");
        assert_eq!(mem.line_state(locks.addr(*v).line()), at_ticket);
    }
}

#[test]
fn two_phase_user_abort_ticks_per_acquisition_plus_one_and_publishes_nothing() {
    let (sys, data) = setup();
    let (mem, locks) = (sys.mem(), sys.locks());
    let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
    let was = line_states(&sys, &data);
    let before = mem.clock_now_pub();
    let out = w.execute(16, &mut |ops| {
        for v in VERTICES {
            ops.write(v, word(&data, v), u64::from(v) + 100)?;
        }
        Err(ops.user_abort())
    });
    assert!(!out.committed && out.attempts == 1);
    assert_eq!(mem.clock_now_pub() - before, VERTICES.len() as u64 + 1);
    for (v, was) in VERTICES.iter().zip(was.chunks(2)) {
        assert_eq!(mem.load_direct(word(&data, *v)), 0, "vertex {v}");
        assert_eq!(mem.line_state(word(&data, *v).line()), was[0], "vertex {v}");
        let lw = locks.peek(mem, *v);
        assert!(lw.is_free() && lw.version() == 0, "vertex {v}: {lw:?}");
    }
}

/// [`setup`] plus one word on each of more lines than a hardware
/// transaction holds, so an HSync body that writes them all runs on the
/// fallback path.
fn fallback_setup() -> (Arc<TxnSystem>, MemRegion, Vec<Addr>) {
    let htm = HtmConfig::default();
    let (lines, words_per_line) = (htm.max_lines() as u64 + 1, (htm.line_bytes / 8) as u64);
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("data", 48 * 8);
    let ballast = layout.alloc("ballast", lines * words_per_line);
    let ballast = (0..lines)
        .map(|l| ballast.addr(l * words_per_line))
        .collect();
    (TxnSystem::with_defaults(48, layout), data, ballast)
}

/// One HSync transaction writing [`VERTICES`] and every ballast word, then
/// committing or user-aborting; returns how far the clock moved.
fn ticks_of_one_fallback(
    sys: &Arc<TxnSystem>,
    data: &MemRegion,
    ballast: &[Addr],
    commit: bool,
) -> u64 {
    let mut w = HSyncLike::new(Arc::clone(sys)).worker();
    let before = sys.mem().clock_now_pub();
    let out = w.execute(16, &mut |ops| {
        for v in VERTICES {
            ops.write(v, word(data, v), u64::from(v) + 100)?;
        }
        for &addr in ballast {
            ops.write(0, addr, 1)?;
        }
        if commit {
            Ok(())
        } else {
            Err(ops.user_abort())
        }
    });
    // One capacity abort in HTM, then the fallback.
    assert_eq!((out.committed, out.attempts), (commit, 2));
    assert_eq!(sys.mem().load_direct(sys.fallback_word()), 2, "one hold");
    sys.mem().clock_now_pub() - before
}

#[test]
fn hsync_fallback_commit_ticks_for_the_hold_plus_once_and_publishes_at_the_ticket() {
    let (sys, data, ballast) = fallback_setup();
    let mem = sys.mem();
    let locks_were: Vec<_> = VERTICES
        .iter()
        .map(|&v| mem.line_state(sys.locks().addr(v).line()))
        .collect();
    assert_eq!(ticks_of_one_fallback(&sys, &data, &ballast, true), 2);
    let at_ticket = LineState::Unlocked {
        version: mem.clock_now_pub(),
    };
    for v in VERTICES {
        assert_eq!(mem.load_direct(word(&data, v)), u64::from(v) + 100);
        assert_eq!(
            mem.line_state(word(&data, v).line()),
            at_ticket,
            "vertex {v}"
        );
    }
    for &addr in &ballast {
        assert_eq!(mem.load_direct(addr), 1);
        assert_eq!(mem.line_state(addr.line()), at_ticket, "{addr:?}");
    }
    assert_eq!(mem.line_state(sys.fallback_word().line()), at_ticket);
    // No vertex lock was taken.
    for (v, was) in VERTICES.iter().zip(&locks_were) {
        assert_eq!(mem.line_state(sys.locks().addr(*v).line()), *was);
    }
}

#[test]
fn hsync_fallback_user_abort_publishes_nothing() {
    let (sys, data, ballast) = fallback_setup();
    let mem = sys.mem();
    let data_lines = || {
        let vertices = VERTICES.iter().map(|&v| word(&data, v).line());
        vertices.chain(ballast.iter().map(|addr| addr.line()))
    };
    let was: Vec<_> = data_lines().map(|line| mem.line_state(line)).collect();
    // One tick to take the word, one to release it.
    assert_eq!(ticks_of_one_fallback(&sys, &data, &ballast, false), 2);
    for v in VERTICES {
        assert_eq!(mem.load_direct(word(&data, v)), 0, "vertex {v}");
    }
    assert!(ballast.iter().all(|&addr| mem.load_direct(addr) == 0));
    let now: Vec<_> = data_lines().map(|line| mem.line_state(line)).collect();
    assert_eq!(now, was, "no data line's version moved");
}

#[test]
fn declared_mutations_tick_twice_and_publish_at_the_ticket() {
    let mut layout = MemoryLayout::new();
    let overlay = OverlayConfig {
        slot_cap: 64,
        stripes: 8,
    };
    let mg = MutableGraph::carve(GraphBuilder::new(40).build(), 64, overlay, &mut layout);
    let sys = TxnSystem::with_defaults(64, layout);
    let (mem, locks) = (sys.mem(), sys.locks());
    mg.init(mem);
    let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();

    let words = || mg.overlay_word_range().map(Addr);
    let lines = || mg.overlay_word_range().step_by(8).map(|a| Addr(a).line());
    let versions = || (0..64).map(|v| locks.peek(mem, v).version());
    // One mutation: the outcome wanted, the overlay words it changes, the
    // vertices it declares and, of those, the ones it writes. Vertex 33 is
    // on stripe 1 (its first delta links to nothing: that slot word stays
    // 0); 63 is past the 40 (then 41) live vertices.
    type Worker = <TwoPhaseLocking as GraphScheduler>::Worker;
    type Apply = fn(&MutableGraph, &mut Worker) -> MutationOutcome;
    type Case<'a> = (
        &'a str,
        Apply,
        MutationOutcome,
        usize,
        &'a [VertexId],
        &'a [VertexId],
    );
    let (applied, rejected) = (MutationOutcome::Applied, MutationOutcome::OutOfBounds);
    let cases: [Case<'_>; 4] = [
        (
            "add_edge",
            |mg, w| mg.add_edge(w, 33, 5, 7),
            applied,
            3,
            &[0, 1, 33],
            &[1, 33],
        ),
        (
            "remove_edge",
            |mg, w| mg.remove_edge(w, 33, 5),
            applied,
            4,
            &[0, 1, 33],
            &[1, 33],
        ),
        (
            "add_vertex",
            |mg, w| {
                assert_eq!(mg.add_vertex(w), Some(40));
                MutationOutcome::Applied
            },
            applied,
            1,
            &[0],
            &[0],
        ),
        (
            "rejected",
            |mg, w| mg.add_edge(w, 63, 0, 1),
            rejected,
            0,
            &[0, 7, 63],
            &[],
        ),
    ];
    for (name, apply, want, changed, declared, written) in cases {
        let clock = mem.clock_now_pub();
        let was: Vec<_> = words().map(|a| mem.load_direct(a)).collect();
        let stamped: Vec<_> = lines().map(|l| mem.line_state(l)).collect();
        let bumped: Vec<u32> = versions().collect();
        let got = apply(&mg, &mut w);
        assert_eq!(got, want, "{name}");
        let ticket = mem.clock_now_pub();
        assert_eq!(
            ticket - clock,
            2,
            "{name}: one tick to acquire, one to release"
        );
        let at_ticket = LineState::Unlocked { version: ticket };

        // Every written data line is at the ticket; no other one moved.
        let now = words().map(|a| mem.load_direct(a));
        let dirty: Vec<u64> = (words().zip(now).zip(&was))
            .filter(|((_, now), was)| now != *was)
            .map(|((addr, _), _)| addr.line())
            .collect();
        assert_eq!(dirty.len(), changed, "{name}: words written");
        for (line, before) in lines().zip(stamped) {
            let want = if dirty.contains(&line) {
                at_ticket
            } else {
                before
            };
            assert_eq!(mem.line_state(line), want, "{name}: overlay line {line}");
        }
        // Every declared vertex was released at the ticket, the written ones
        // one commit version on; every lock word is free.
        for &v in declared {
            assert_eq!(
                mem.line_state(locks.addr(v).line()),
                at_ticket,
                "{name}: vertex {v}"
            );
        }
        for (v, (now, before)) in versions().zip(bumped).enumerate() {
            let wrote = written.contains(&(v as VertexId));
            assert_eq!(now, before + u32::from(wrote), "{name}: vertex {v}");
            assert!(
                locks.peek(mem, v as VertexId).is_free(),
                "{name}: vertex {v}"
            );
        }
    }
    assert_eq!((w.stats().commits, w.stats().restarts), (4, 0));
}
