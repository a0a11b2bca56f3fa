//! O mode: HTM-assisted optimistic execution (paper Algorithm 2, Figure 9).
//!
//! The transaction's *reads* run inside a chain of hardware transactions
//! ("pieces") of `period` operations each — inside a piece, conflicting
//! commits are detected for free by the HTM; across pieces, per-vertex
//! commit versions recorded at first touch are validated at commit time.
//! *Writes* are buffered in a private workspace and never enter the HTM.
//!
//! Commit: lock the write set's lines (address order, try-only — O mode
//! never waits, so it can never deadlock), validate the read set by
//! per-vertex version (not by value as Algorithm 2 line 45 does; see
//! DESIGN.md §10), and publish data and version bumps together at the
//! commit's ticket — the protocol of [`tufast_txn::commit`], shared with
//! OCC and TO.

use tufast_htm::{AbortCode, Addr, HtmCtx, IdTable};
use tufast_txn::commit::WriteSet;
use tufast_txn::{LockWord, ObsHandle, TxInterrupt, TxnOps, TxnSystem, Verdict};

use crate::hmode::ABORT_LOCK_BUSY;
use crate::VertexId;

/// Why an O-mode attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OFailCode {
    /// An HTM piece aborted (conflict, capacity, spurious).
    Htm(AbortCode),
    /// A subscribed vertex was write-locked, or the write set could not be
    /// locked at commit (a line stayed busy, or L mode holds a write vertex).
    LockBusy,
    /// Commit-time read validation failed.
    Validation,
}

/// Result of one O-mode attempt.
pub(crate) struct OAttempt {
    /// `Committed`; `Restart` (the router shrinks `period` and retries);
    /// `UserAbort`; or `Panicked`. Whatever did not commit left no HTM
    /// piece open and nothing but a workspace to discard.
    pub(crate) verdict: Verdict,
    /// Operations completed (contention-monitor input).
    pub(crate) ops: OpCount,
    /// HTM pieces a committed attempt used (the router ignores it; the
    /// rollover tests below do not).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) pieces: u32,
    /// Why a `Restart`.
    pub(crate) code: Option<OFailCode>,
    /// On a capacity abort: the number of operations that *did* fit in
    /// the overflowing piece — the router jumps straight to a fitting
    /// period instead of halving blindly from a far-too-large one.
    pub(crate) fit_period: Option<u32>,
}

impl OAttempt {
    fn ended(verdict: Verdict, ops: OpCount) -> Self {
        OAttempt {
            verdict,
            ops,
            pieces: 0,
            code: None,
            fit_period: None,
        }
    }

    /// A failed attempt: the router restarts it.
    pub(crate) fn failed(code: OFailCode, ops: OpCount, fit_period: Option<u32>) -> Self {
        OAttempt {
            verdict: Verdict::Restart,
            ops,
            pieces: 0,
            code: Some(code),
            fit_period,
        }
    }
}

/// Transactional operations of one attempt, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct OpCount {
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

impl OpCount {
    pub(crate) fn total(self) -> u64 {
        self.reads + self.writes
    }
}

/// Reusable per-worker O-mode buffers (hoisted out of the per-attempt
/// path to avoid allocation churn).
pub(crate) struct OScratch {
    /// `(vertex, version at first touch)`.
    reads: Vec<(VertexId, u32)>,
    writes: WriteSet,
}

impl OScratch {
    /// Buffers for worker `me`.
    pub(crate) fn new(me: u32) -> Self {
        OScratch {
            reads: Vec::with_capacity(64),
            writes: WriteSet::new(me),
        }
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// Transactional ops for one O-mode attempt.
pub(crate) struct OModeOps<'a> {
    ctx: &'a mut HtmCtx,
    sys: &'a TxnSystem,
    period: u32,
    piece_ops: u32,
    pieces: u32,
    scratch: &'a mut OScratch,
    /// The vertices read so far (each is in `scratch.reads`).
    seen: &'a mut IdTable,
    failure: Option<OFailCode>,
    /// `piece_ops` at the moment of failure (capacity fit estimation).
    failed_piece_ops: u32,
    ops: OpCount,
}

impl<'a> OModeOps<'a> {
    fn new(
        ctx: &'a mut HtmCtx,
        sys: &'a TxnSystem,
        period: u32,
        scratch: &'a mut OScratch,
        seen: &'a mut IdTable,
    ) -> Self {
        scratch.clear();
        seen.clear();
        OModeOps {
            ctx,
            sys,
            period: period.max(1),
            piece_ops: 0,
            pieces: 1,
            scratch,
            seen,
            failure: None,
            failed_piece_ops: 0,
            ops: OpCount::default(),
        }
    }

    #[inline]
    fn fail(&mut self, code: OFailCode) -> TxInterrupt {
        self.failure = Some(code);
        self.failed_piece_ops = self.piece_ops;
        TxInterrupt::Restart
    }

    /// Close the current HTM piece and open the next once `period`
    /// operations have accumulated (the `counter = period → XEND; XBEGIN`
    /// step of Algorithm 2).
    // tufast-lint: htm-scope
    fn maybe_rollover(&mut self) -> Result<(), TxInterrupt> {
        if self.piece_ops < self.period {
            return Ok(());
        }
        match self.ctx.commit() {
            Ok(()) => {}
            Err(code) => return Err(self.fail(OFailCode::Htm(code))),
        }
        // The only begin failure outside a transaction is the runtime HTM
        // switch flipping off between pieces; fail the attempt so the
        // router escalates to L.
        if self.ctx.begin().is_err() {
            return Err(self.fail(OFailCode::Htm(AbortCode::Conflict)));
        }
        self.piece_ops = 0;
        self.pieces += 1;
        Ok(())
    }

    /// Subscribe `v` on the lock word `lw` its first touch loaded in this
    /// piece: fail if write-locked, else record the commit version for
    /// end-of-transaction validation.
    // tufast-lint: htm-scope
    fn subscribe(&mut self, v: VertexId, lw: LockWord) -> Result<(), TxInterrupt> {
        if lw.writer().is_some() {
            self.ctx.abort_explicit(ABORT_LOCK_BUSY);
            return Err(self.fail(OFailCode::LockBusy));
        }
        // tufast-lint: allow(htm-hazard) -- reads is presized for typical degree; a growth realloc aborts the piece, it cannot corrupt it
        self.scratch.reads.push((v, lw.version()));
        Ok(())
    }
}

impl TxnOps for OModeOps<'_> {
    // Only `read` runs inside an HTM piece; `write` buffers privately.
    // tufast-lint: htm-scope
    fn read(&mut self, v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        self.ops.reads += 1;
        if let Some(val) = self.scratch.writes.words().get(addr) {
            return Ok(val);
        }
        if !self.ctx.in_tx() {
            return Err(TxInterrupt::Restart);
        }
        self.maybe_rollover()?;
        self.piece_ops += 1;
        // tufast-lint: allow(htm-hazard) -- the vertex table reallocates only past its high-water mark; growth would merely abort the piece, which the O retry ladder absorbs
        if self.seen.insert(u64::from(v), 0) {
            // First touch: subscribe the lock word in this piece and record
            // the commit version for end-of-transaction validation.
            let lock = self.sys.locks().addr(v);
            if lock.line() == addr.line() {
                // Paired: the lock word and the value in one bracket.
                let [lw, val] = self
                    .ctx
                    .read_line([lock, addr])
                    .map_err(|code| self.fail(OFailCode::Htm(code)))?;
                self.subscribe(v, LockWord(lw))?;
                return Ok(val);
            }
            let lw = self
                .ctx
                .read(lock)
                .map_err(|code| self.fail(OFailCode::Htm(code)))?;
            self.subscribe(v, LockWord(lw))?;
        }
        self.ctx
            .read(addr)
            .map_err(|code| self.fail(OFailCode::Htm(code)))
    }

    fn write(&mut self, v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        self.ops.writes += 1;
        // Algorithm 2: writes go to the private workspace only.
        self.scratch.writes.insert(v, addr, val);
        Ok(())
    }
}

/// Run one O-mode attempt of `body` with the given HTM `period`;
/// `vertices` is the worker's vertex table, cleared here.
///
/// `skip_validation` disables commit-time read validation: the seeded bug
/// of [`FaultSpec::skip_o_validation`](tufast_txn::FaultSpec::skip_o_validation),
/// which only a `faults` build can set.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attempt(
    ctx: &mut HtmCtx,
    sys: &TxnSystem,
    me: u32,
    period: u32,
    skip_validation: bool,
    scratch: &mut OScratch,
    vertices: &mut IdTable,
    body: &mut tufast_txn::TxnBody<'_>,
    obs: &ObsHandle,
) -> OAttempt {
    if ctx.begin().is_err() {
        let code = OFailCode::Htm(AbortCode::Conflict);
        return OAttempt::failed(code, OpCount::default(), None);
    }
    let mut ops = OModeOps::new(ctx, sys, period, scratch, vertices);
    let result = obs.run_body(&mut ops, me, body);
    let n = ops.ops;
    if let Err(interrupt) = result {
        let code = ops.failure.unwrap_or(OFailCode::Validation);
        let fit_period = (code == OFailCode::Htm(AbortCode::Capacity))
            .then(|| (ops.failed_piece_ops * 3 / 4).max(1));
        if ctx.in_tx() {
            ctx.abort_explicit(match interrupt {
                TxInterrupt::Restart => 0xC1,
                TxInterrupt::UserAbort => 0xCF,
                TxInterrupt::Panicked => 0xCE,
            });
        }
        return match interrupt {
            TxInterrupt::Restart => OAttempt::failed(code, n, fit_period),
            ended => OAttempt::ended(ended.into(), n),
        };
    }

    let pieces = ops.pieces;
    let OScratch { reads, writes } = &mut *scratch;
    let failed = |code| OAttempt::failed(code, n, None);

    // Close the final piece: its commit validates everything read inside it.
    if !ctx.in_tx() {
        return failed(OFailCode::Htm(AbortCode::Conflict));
    }
    if let Err(code) = ctx.commit() {
        let fit_period = (code == AbortCode::Capacity).then(|| 1.max(period * 3 / 4));
        return OAttempt::failed(OFailCode::Htm(code), n, fit_period);
    }

    // Optimistic commit (outside any HTM): lock the write set's lines,
    // validate reads, publish at the ticket.
    obs.pre_commit(me);
    let Some(held) = writes.try_lock(sys, |_| None) else {
        return failed(OFailCode::LockBusy);
    };
    if !skip_validation && !held.reads_current(reads) {
        return failed(OFailCode::Validation);
    }
    // Conflicting writers hold overlapping line sets, so they publish
    // strictly before or after this commit's ticket.
    held.commit(obs);
    OAttempt {
        pieces,
        ..OAttempt::ended(Verdict::Committed, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmode::tests::{but_lines, seed_values, values};
    use std::sync::Arc;
    use tufast_htm::MemoryLayout;

    fn setup(n_vertices: usize, words: u64) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", words);
        let sys = TxnSystem::with_defaults(n_vertices, layout);
        (sys, data)
    }

    /// Test shim: run an attempt with a throwaway scratch.
    fn attempt(
        ctx: &mut tufast_htm::HtmCtx,
        sys: &TxnSystem,
        me: u32,
        period: u32,
        body: &mut tufast_txn::TxnBody<'_>,
    ) -> OAttempt {
        let mut scratch = OScratch::new(me);
        super::attempt(
            ctx,
            sys,
            me,
            period,
            false,
            &mut scratch,
            &mut IdTable::default(),
            body,
            &ObsHandle::none(),
        )
    }

    #[test]
    fn simple_commit_with_piece_rollover() {
        let (sys, data) = setup(64, 64);
        let mut ctx = sys.htm_ctx();
        // period=4 forces many rollovers for a 32-read body.
        let out = attempt(&mut ctx, &sys, 0, 4, &mut |ops| {
            let mut sum = 0u64;
            for v in 0..32u32 {
                sum += ops.read(v, data.addr(u64::from(v)))?;
            }
            ops.write(0, data.addr(0), sum + 1)
        });
        assert_eq!(out.verdict, Verdict::Committed);
        assert_eq!((out.ops.reads, out.ops.writes), (32, 1));
        let pieces = out.pieces;
        assert!(pieces >= 8, "expected ≥8 pieces at period 4, got {pieces}");
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1);
        assert_eq!(sys.locks().peek(sys.mem(), 0).version(), 1);
    }

    #[test]
    fn oversized_transaction_commits_with_small_period() {
        // Far beyond HTM capacity in total, but each piece stays small.
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 80_000);
        let sys = TxnSystem::with_defaults(1, layout);
        let mut ctx = sys.htm_ctx();
        // One word per line, so the period must stay under the 448-line
        // capacity budget (64 sets × 7 usable ways).
        let out = attempt(&mut ctx, &sys, 0, 256, &mut |ops| {
            let mut sum = 0u64;
            for i in 0..10_000u64 {
                sum = sum.wrapping_add(ops.read(0, big.addr(i * 8))?);
            }
            ops.write(0, big.addr(0), sum + 5)
        });
        assert_eq!(
            out.verdict,
            Verdict::Committed,
            "10k-line txn must fit in 256-op pieces"
        );
    }

    #[test]
    fn oversized_period_capacity_aborts() {
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 80_000);
        let sys = TxnSystem::with_defaults(1, layout);
        let mut ctx = sys.htm_ctx();
        // period larger than HTM capacity: the piece itself overflows.
        let out = attempt(&mut ctx, &sys, 0, 100_000, &mut |ops| {
            for i in 0..10_000u64 {
                ops.read(0, big.addr(i * 8))?;
            }
            Ok(())
        });
        assert_eq!(out.verdict, Verdict::Restart);
        assert_eq!(out.code, Some(OFailCode::Htm(AbortCode::Capacity)));
    }

    #[test]
    fn stale_version_fails_validation() {
        let (sys, data) = setup(2, 16);
        let mut ctx = sys.htm_ctx();
        let mut poisoned = false;
        let out = attempt(&mut ctx, &sys, 0, 1000, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            if !poisoned {
                poisoned = true;
                // A competing committer bumps vertex 0 after our piece
                // read it but (crucially) after the piece that read it has
                // been closed — force that by rolling pieces with reads.
            }
            ops.write(1, data.addr(1), x + 1)
        });
        // First run is clean (nothing actually poisoned memory mid-piece).
        assert_eq!(out.verdict, Verdict::Committed);

        // Now interleave: read in attempt, then an external writer bumps
        // vertex 0 *between the final piece commit and validation* — easiest
        // deterministic equivalent: bump before the attempt's commit phase
        // by doing it inside the body *after* a rollover.
        let mut step = 0;
        let out = attempt(&mut ctx, &sys, 0, 1, &mut |ops| {
            let x = ops.read(0, data.addr(0))?; // piece 1
            step += 1;
            if step == 1 {
                sys.locks().try_exclusive(sys.mem(), 0, 50).unwrap();
                sys.mem().store_direct(data.addr(0), 777);
                sys.locks().unlock_exclusive(sys.mem(), 0, 50, true);
            }
            ops.read(1, data.addr(1))?; // forces rollover at period 1
            ops.write(1, data.addr(1), x)
        });
        assert_eq!(
            out.verdict,
            Verdict::Restart,
            "update to a read vertex between pieces must fail the attempt"
        );
    }

    #[test]
    fn write_locked_vertex_aborts_attempt() {
        let (sys, data) = setup(2, 16);
        sys.locks().try_exclusive(sys.mem(), 1, 70).unwrap();
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, 0, 100, &mut |ops| {
            ops.read(1, data.addr(1))?;
            Ok(())
        });
        assert_eq!(out.code, Some(OFailCode::LockBusy));
    }

    #[test]
    fn user_abort_publishes_nothing() {
        let (sys, data) = setup(1, 8);
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, 0, 100, &mut |ops| {
            ops.write(0, data.addr(0), 9)?;
            Err(ops.user_abort())
        });
        assert_eq!(out.verdict, Verdict::UserAbort);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 0);
    }

    /// Reads of three vertices, one of them twice, at period 2 (so the
    /// second read of vertex 0 is in a later piece), a write, and a re-read
    /// of the written vertex: what it read, the lock words after and the
    /// HTM counters, on either layout.
    fn paired_or_not(paired: bool) -> (Vec<u64>, Vec<LockWord>, tufast_htm::HtmStats) {
        let (sys, value) = values(32, paired);
        seed_values(&sys, &value);
        let mut ctx = sys.htm_ctx();
        let mut seen = Vec::new();
        let out = attempt(&mut ctx, &sys, 0, 2, &mut |ops| {
            seen.clear();
            for v in [0, 8, 0, 16] {
                seen.push(ops.read(v, value(v))?);
            }
            ops.write(8, value(8), seen[0] + seen[1])?;
            seen.push(ops.read(8, value(8))?);
            Ok(())
        });
        assert_eq!((out.verdict, out.pieces), (Verdict::Committed, 2));
        let words = (0..32).step_by(8).map(|v| sys.locks().peek(sys.mem(), v));
        (seen, words.collect(), ctx.take_stats())
    }

    #[test]
    fn a_paired_first_touch_counts_as_an_unpaired_one() {
        let (paired, unpaired) = (paired_or_not(true), paired_or_not(false));
        assert_eq!(paired.0, vec![100, 108, 100, 116, 208]);
        assert_eq!(
            paired.1,
            [1, 2, 1, 1].map(|version| LockWord(version << 32))
        );
        // Lock word and value per first touch, the value of the second
        // read of vertex 0; the re-read of a write hits the workspace.
        assert_eq!((paired.2.reads, paired.2.writes), (7, 0));
        assert_eq!(
            (&paired.0, &paired.1, but_lines(&paired.2)),
            (&unpaired.0, &unpaired.1, but_lines(&unpaired.2))
        );
    }

    #[test]
    fn a_paired_write_locked_vertex_fails_lock_busy() {
        let (sys, value) = values(4, true);
        sys.locks().try_exclusive(sys.mem(), 1, 70).unwrap();
        let mut ctx = sys.htm_ctx();
        let out = attempt(&mut ctx, &sys, 0, 100, &mut |ops| {
            ops.read(1, value(1))?;
            Ok(())
        });
        assert_eq!(out.code, Some(OFailCode::LockBusy));
        assert_eq!(ctx.stats().aborts_explicit, 1);
    }

    #[test]
    fn a_paired_first_touch_then_a_foreign_commit_fails_validation() {
        let (sys, value) = values(8, true);
        let mut ctx = sys.htm_ctx();
        let mut interfered = false;
        // Period 1: the read of vertex 4 (another line) closes the piece
        // that read vertex 0, so only commit validation can see the write.
        let out = attempt(&mut ctx, &sys, 0, 1, &mut |ops| {
            let x = ops.read(0, value(0))?;
            if !interfered {
                interfered = true;
                sys.locks().try_exclusive(sys.mem(), 0, 50).unwrap();
                sys.mem().store_direct(value(0), 777);
                sys.locks().unlock_exclusive(sys.mem(), 0, 50, true);
            }
            ops.read(4, value(4))?;
            ops.write(4, value(4), x + 1)
        });
        assert_eq!(
            (out.verdict, out.code),
            (Verdict::Restart, Some(OFailCode::Validation))
        );
        assert_eq!(sys.mem().load_direct(value(4)), 0, "nothing published");
        let out = attempt(&mut ctx, &sys, 0, 1, &mut |ops| {
            let x = ops.read(0, value(0))?;
            ops.write(4, value(4), x + 1)
        });
        assert_eq!(out.verdict, Verdict::Committed);
        assert_eq!(sys.mem().load_direct(value(4)), 778);
    }

    #[test]
    fn concurrent_o_mode_counter_is_exact() {
        let (sys, data) = setup(1, 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sys = Arc::clone(&sys);
                s.spawn(move || {
                    let mut ctx = sys.htm_ctx();
                    let me = sys.new_worker_id();
                    let mut committed = 0;
                    while committed < 400 {
                        let out = attempt(&mut ctx, &sys, me, 64, &mut |ops| {
                            let x = ops.read(0, data.addr(0))?;
                            ops.write(0, data.addr(0), x + 1)
                        });
                        if out.verdict == Verdict::Committed {
                            committed += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1600);
    }
}
