//! The three-mode router (paper §IV-C, Figure 10).

use std::sync::Arc;

use tufast_htm::{AbortCode, IdTable};
use tufast_txn::{
    GraphScheduler, HealthHandle, Lifecycle, Rung, RungEnd, SchedStats, TplAttempt, TxnBody,
    TxnHint, TxnOutcome, TxnSystem, TxnWorker, Verdict,
};

use crate::config::{TuFastConfig, L_ATTEMPT_BUDGET, MAX_PERIOD, MIN_PERIOD, O_RETRIES};
use crate::hmode::{self, HAttempt};
use crate::monitor::ContentionMonitor;
use crate::omode::{self, OAttempt, OFailCode, OScratch, OpCount};
use crate::stats::{ModeClass, TuFastStats};

/// While H is judged futile, every `H_REPROBE_INTERVAL`-th otherwise
/// H-eligible transaction still tries H so recovery is detected.
const H_REPROBE_INTERVAL: u32 = 64;

/// The TuFast hybrid transactional memory.
///
/// Implements [`GraphScheduler`], so it is a drop-in replacement for any of
/// the baseline schedulers in `tufast-txn` — same transaction bodies, same
/// shared [`TxnSystem`].
pub struct TuFast {
    sys: Arc<TxnSystem>,
    config: TuFastConfig,
}

impl TuFast {
    /// TuFast with default parameters over a shared system.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        Self::with_config(sys, TuFastConfig::default())
    }

    /// TuFast with explicit parameters.
    pub fn with_config(sys: Arc<TxnSystem>, config: TuFastConfig) -> Self {
        config.validate();
        TuFast { sys, config }
    }
}

impl GraphScheduler for TuFast {
    type Worker = TuFastWorker;

    fn worker(&self) -> TuFastWorker {
        let lc = Lifecycle::new(&self.sys);
        // A bigger footprint than the HTM holds is bound to capacity-abort.
        let h_reach = self.sys.htm().capacity_words();
        TuFastWorker {
            h_skip_streak: 0,
            monitor: ContentionMonitor::new(MIN_PERIOD, MAX_PERIOD),
            l: TplAttempt::default(),
            vertices: IdTable::default(),
            ctx: self.sys.htm_ctx(),
            o_scratch: OScratch::new(lc.id),
            lc,
            period_cap: MAX_PERIOD,
            h_reach,
            h_hint_cap: h_reach,
            config: self.config.clone(),
            stats: TuFastStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        "TuFast"
    }
}

/// Per-thread TuFast execution state: one worker — one id, one heartbeat
/// slot, one fault handle — with an HTM context, a contention monitor and
/// the 2PL attempt state its L and serial rungs run on.
pub struct TuFastWorker {
    /// Identity, system, health and fault probes, and the scheduler
    /// counters (`stats.sched` stays empty until a take folds them in).
    lc: Lifecycle,
    config: TuFastConfig,
    /// Consecutive H-eligible transactions skipped in degraded mode
    /// (drives the periodic reprobe).
    h_skip_streak: u32,
    ctx: tufast_htm::HtmCtx,
    monitor: ContentionMonitor,
    /// The L and serial rungs' incremental 2PL attempt.
    l: TplAttempt,
    /// The vertices the current H or O attempt has touched. The two modes
    /// never overlap an attempt, and each clears the table at begin.
    vertices: IdTable,
    o_scratch: OScratch,
    /// Learned upper bound on `period` from observed capacity overflows
    /// (piece footprints depend on the workload's line locality, which the
    /// pure contention model cannot see). Recovers slowly on success.
    period_cap: u32,
    /// Size hints above this skip H mode: the HTM capacity in words.
    h_reach: usize,
    /// Learned size-hint bound for entering H mode: hints above this have
    /// been observed to capacity-abort, so H is skipped (the paper's
    /// "unless the size of transaction makes H mode impossible").
    h_hint_cap: usize,
    stats: TuFastStats,
}

impl AsMut<Lifecycle> for TuFastWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

impl TuFastWorker {
    /// Full TuFast statistics (mode breakdown, HTM counters, period trace),
    /// taking and resetting them. Job outcomes are the system's, not the
    /// worker's: read them from `sys.health().counters()`.
    pub fn take_tufast_stats(&mut self) -> TuFastStats {
        let mut out = std::mem::take(&mut self.stats);
        out.sched = std::mem::take(&mut self.lc.stats);
        out.htm = self.ctx.take_stats();
        out
    }

    /// The `period` the worker would choose right now.
    ///
    /// The learned capacity cap is part of the *adaptive* machinery
    /// (paper §IV-D); a static configuration uses its period verbatim and
    /// rediscovers capacity limits per transaction, exactly like the
    /// paper's static baseline in Figure 17.
    pub fn current_period(&self) -> u32 {
        self.config.static_period.unwrap_or_else(|| {
            self.monitor
                .suggest_period()
                .min(self.period_cap)
                .max(MIN_PERIOD)
        })
    }

    /// Reads and writes counted so far.
    fn ops(&self) -> u64 {
        self.lc.stats.reads + self.lc.stats.writes
    }

    /// L mode (§IV-E): a rung of [`L_ATTEMPT_BUDGET`] incremental 2PL
    /// attempts, its ops recorded under `class`; if it leaves the
    /// transaction unsettled (all rolled back), the serial rung. Both are
    /// cold and out of line, so the inlined rungs do not grow the H/O path.
    #[cold]
    #[inline(never)]
    fn l_rung(
        &mut self,
        class: ModeClass,
        mut attempts: u32,
        body: &mut TxnBody<'_>,
    ) -> TxnOutcome {
        let ops = self.ops();
        let end = Lifecycle::rung(self, L_ATTEMPT_BUDGET, &mut attempts, |w, obs| {
            w.l.attempt(&mut w.lc, body, obs)
        });
        match end {
            RungEnd::Exhausted => self.serial_rung(class, attempts, body),
            RungEnd::Committed => {
                self.stats.modes.record(class, self.ops() - ops);
                end.outcome(attempts)
            }
            // A health stop is a clean rollback, not a liveness failure: it
            // must not escalate to the serial token.
            RungEnd::UserAborted | RungEnd::Stopped => end.outcome(attempts),
        }
    }

    /// The last rung of the liveness ladder: unbounded incremental 2PL
    /// attempts with the global serial token held and fault injection
    /// exempt. Arriving transactions wait at the serial gate meanwhile, so
    /// the system drains towards this one writer; peers in flight finish
    /// or exhaust their own L budgets and queue for the token holding
    /// nothing. One writer left, with deadlock detection still underneath,
    /// commits every body that does not user-abort.
    #[cold]
    #[inline(never)]
    fn serial_rung(
        &mut self,
        class: ModeClass,
        mut attempts: u32,
        body: &mut TxnBody<'_>,
    ) -> TxnOutcome {
        let sys = Arc::clone(&self.lc.sys);
        let _token = sys.hold_serial(u64::from(self.lc.id) + 1);
        let ops = self.ops();
        // Exempt for the whole rung, attempt boundaries included; cleared on
        // every exit — before the rung re-raises a body's panic, too.
        self.lc.faults.set_exempt(true);
        let end = Lifecycle::rung(self, u32::MAX, &mut attempts, |w, obs| {
            let verdict = w.l.attempt(&mut w.lc, body, obs);
            w.lc.faults.set_exempt(verdict != Verdict::Panicked);
            verdict
        });
        self.lc.faults.set_exempt(false);
        if end == RungEnd::Committed {
            self.stats.serial_commits += 1;
            self.stats.modes.record(class, self.ops() - ops);
        }
        end.outcome(attempts)
    }
}

impl TxnWorker for TuFastWorker {
    fn execute_hinted(&mut self, txn_hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        let hint = txn_hint.size.max(1);

        // ---- R mode (before everything, including the serial gate):
        // declared-pure bodies pin a snapshot and read with no locks, no
        // read-set logging, and no hardware transaction. R readers hold
        // nothing and the serial rung's writer buffers until its release
        // batch, which publishes at its ticket under the line locks the
        // snapshot bracket checks — so they need not wait out the drain.
        let reads_before = self.lc.stats.reads;
        let mut attempts = match tufast_txn::read_only_prologue(&mut self.lc, txn_hint, body) {
            Ok(out) => {
                if out.committed {
                    let ops = self.lc.stats.reads - reads_before;
                    self.stats.modes.record(ModeClass::R, ops);
                }
                return out;
            }
            // Purity violation or writer-storm starvation: carry the
            // spent attempts into the ordinary H→O→L ladder below.
            Err(spent) => spent,
        };
        // Stop-the-world gate: while a serial holder commits, arriving
        // transactions pause here, holding nothing.
        if !self.lc.serial_gate() {
            return RungEnd::Stopped.outcome(attempts);
        }

        // Watchdog escalation: collapse to the single-writer serial path so
        // a livelocked mix drains behind the global token.
        if self.lc.health.escalated(Rung::Serial) {
            return self.serial_rung(ModeClass::L, attempts, body);
        }

        // Entry decision (Figure 10): size hints beyond O-mode reach, 64
        // times H's, go straight to L mode.
        if hint > 64 * self.h_reach {
            return self.l_rung(ModeClass::L, attempts, body);
        }

        // Runtime degradation: with the HTM switch off, both H and O (its
        // pieces are hardware transactions too) are unusable — go straight
        // to L instead of burning doomed begin() calls.
        if !self.lc.sys.htm().htm_available() {
            self.stats.htm_off_txns += 1;
            return self.l_rung(ModeClass::L, attempts, body);
        }

        // ---- H mode (skipped when the hint alone guarantees overflow,
        // statically or per the learned capacity bound, or while the
        // monitor judges H futile — modulo a periodic reprobe).
        if hint <= self.h_reach.min(self.h_hint_cap) {
            let degraded = self.monitor.h_futile() && {
                self.h_skip_streak = self.h_skip_streak.wrapping_add(1);
                !self.h_skip_streak.is_multiple_of(H_REPROBE_INTERVAL)
            };
            if degraded {
                self.stats.degraded_h_skips += 1;
            } else {
                // At every attempt boundary of this rung the previous
                // hardware transaction aborted (or none ran yet), so
                // nothing is open or held.
                let h_retries = self.config.h_retries;
                let end = Lifecycle::rung(self, h_retries, &mut attempts, |w, obs| {
                    let HAttempt { end, ops } =
                        hmode::attempt(&mut w.ctx, &mut w.lc, &mut w.vertices, body, obs);
                    match end {
                        Ok(Verdict::Committed) => {
                            w.monitor.observe_h(true);
                            w.stats.modes.record(ModeClass::H, ops);
                            // Slow recovery of the learned H bound.
                            if hint * 2 > w.h_hint_cap {
                                w.h_hint_cap = (w.h_hint_cap + w.h_hint_cap / 16).min(w.h_reach);
                            }
                            Verdict::Committed
                        }
                        Ok(ended) => ended,
                        Err(AbortCode::Capacity) => {
                            // Deterministic on retry: proceed to O now,
                            // and skip H for future hints this large.
                            w.h_hint_cap = (hint * 3 / 4).max(64);
                            Verdict::Leave
                        }
                        Err(_) => Verdict::Restart,
                    }
                });
                if let Some(out) = end.settled(attempts) {
                    return out;
                }
                // Fell through to O/L: this H entry failed.
                self.monitor.observe_h(false);
            }
        }

        // ---- O mode with period halving: a rung of `O_RETRIES` attempts
        // that an attempt leaves once `period` falls below the floor. At
        // every attempt boundary the previous O attempt rolled back every
        // piece, so nothing is held.
        let mut period = self.current_period();
        self.stats.period_sum += u64::from(period);
        self.stats.period_samples += 1;
        let mut adjusted = false;
        let o_budget = if period >= MIN_PERIOD { O_RETRIES } else { 0 };
        let end = Lifecycle::rung(self, o_budget, &mut attempts, |w, obs| {
            // Injected O-mode failure (validation / commit-lock), decided
            // here at the router so `omode` stays fault-agnostic; HTM-level
            // faults inside pieces flow through the real abort paths.
            let out = if w.lc.faults.commit_fails() {
                OAttempt::failed(OFailCode::Validation, OpCount::default(), None)
            } else {
                omode::attempt(
                    &mut w.ctx,
                    &w.lc.sys,
                    w.lc.id,
                    period,
                    w.lc.faults.skips_o_validation(),
                    &mut w.o_scratch,
                    &mut w.vertices,
                    body,
                    obs,
                )
            };
            w.lc.stats.reads += out.ops.reads;
            w.lc.stats.writes += out.ops.writes;
            let ops = out.ops.total();
            match out.verdict {
                Verdict::Committed => {
                    w.monitor.observe(ops, 0);
                    // Slow recovery of the learned capacity cap.
                    w.period_cap = (w.period_cap + w.period_cap / 16).min(MAX_PERIOD);
                    let class = if adjusted {
                        ModeClass::OPlus
                    } else {
                        ModeClass::O
                    };
                    w.stats.modes.record(class, ops);
                    Verdict::Committed
                }
                Verdict::Restart => {
                    // Capacity overflow is deterministic in the piece size,
                    // not evidence of contention: jump straight to a
                    // fitting period and keep the monitor clean. Conflicts
                    // feed the monitor and halve the period (paper §IV-D).
                    match out.fit_period {
                        Some(fit) => {
                            // Deterministic overflow: adopt the fitting
                            // period even below the floor — the rung is
                            // then left for L, as the paper prescribes,
                            // instead of re-running a doomed piece size.
                            period = period.min(fit);
                            w.period_cap = period.max(MIN_PERIOD);
                        }
                        None => {
                            let contention_abort = matches!(
                                out.code,
                                Some(
                                    OFailCode::Htm(_) | OFailCode::LockBusy | OFailCode::Validation
                                )
                            );
                            w.monitor.observe(ops.max(1), u64::from(contention_abort));
                            period /= 2;
                        }
                    }
                    adjusted = true;
                    if period >= MIN_PERIOD {
                        Verdict::Restart
                    } else {
                        Verdict::Leave
                    }
                }
                ended => ended,
            }
        });
        if let Some(out) = end.settled(attempts) {
            return out;
        }

        // ---- L mode (after O gave up).
        self.l_rung(ModeClass::O2L, attempts, body)
    }

    fn stats(&self) -> &SchedStats {
        &self.lc.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.lc.stats)
    }

    fn htm_ops(&self) -> u64 {
        // H-mode data reads/writes, lock subscriptions, and O-mode piece
        // reads all run inside emulated hardware transactions.
        let h = self.ctx.stats();
        h.reads + h.writes
    }

    fn health(&self) -> Option<&HealthHandle> {
        Some(&self.lc.health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_htm::MemoryLayout;

    fn setup(n_vertices: usize, words: u64) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", words);
        let sys = TxnSystem::with_defaults(n_vertices, layout);
        (sys, data)
    }

    #[test]
    fn small_transaction_lands_in_h_mode() {
        let (sys, data) = setup(4, 32);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let out = w.execute(4, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::H), 1);
        assert_eq!(stats.modes.total_txns(), 1);
    }

    #[test]
    fn taking_the_scheduler_counters_keeps_the_mode_breakdown() {
        let (sys, data) = setup(4, 32);
        let mut w = TuFast::new(Arc::clone(&sys)).worker();
        assert!(
            w.execute(4, &mut |ops| ops.write(0, data.addr(0), 1))
                .committed
        );
        assert_eq!(w.take_stats().commits, 1);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::H), 1);
        assert_eq!(stats.sched.commits, 0, "already taken");
    }

    #[test]
    fn declared_pure_reads_land_in_r_mode() {
        let (sys, data) = setup(4, 32);
        for i in 0..4u64 {
            sys.mem().store_direct(data.addr(i), i + 1);
        }
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let clock_before = sys.mem().clock_now_pub();
        let mut sum = 0;
        let out = w.execute_hinted(TxnHint::read_only(8), &mut |ops| {
            sum = 0;
            for v in 0..4u32 {
                sum += ops.read(v, data.addr(v.into()))?;
            }
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(sum, 1 + 2 + 3 + 4);
        // The acceptance probes: no hardware transactions, and an
        // unchanged global clock (every lock acquisition and direct store
        // ticks it, so stillness proves zero lock traffic).
        assert_eq!(w.htm_ops(), 0, "R mode must not issue HTM operations");
        assert_eq!(sys.mem().clock_now_pub(), clock_before);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::R), 1);
        assert_eq!(stats.modes.ops(ModeClass::R), 4);
        assert_eq!(stats.sched.r_commits, 1);
        assert_eq!(stats.sched.commits, 1);
    }

    #[test]
    fn writing_body_under_read_only_hint_demotes_and_still_commits() {
        let (sys, data) = setup(4, 32);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let out = w.execute_hinted(TxnHint::read_only(4), &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 7)
        });
        assert!(out.committed);
        assert!(out.attempts >= 2, "one demoted R attempt plus the H run");
        assert_eq!(sys.mem().load_direct(data.addr(0)), 7);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.sched.r_commits, 0);
        assert_eq!(stats.modes.txns(ModeClass::R), 0);
        assert_eq!(stats.modes.total_txns(), 1);
    }

    #[test]
    fn medium_transaction_lands_in_o_mode() {
        // Hint above H threshold but below O threshold: skips H entirely.
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 100_000);
        let sys = TxnSystem::with_defaults(4, layout);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let out = w.execute(10_000, &mut |ops| {
            let mut sum = 0u64;
            for i in 0..5_000u64 {
                sum = sum.wrapping_add(ops.read(0, big.addr(i * 8))?);
            }
            ops.write(1, big.addr(1), sum + 1)
        });
        assert!(out.committed);
        let stats = w.take_tufast_stats();
        assert_eq!(
            stats.modes.txns(ModeClass::O) + stats.modes.txns(ModeClass::OPlus),
            1
        );
        assert_eq!(stats.modes.txns(ModeClass::H), 0);
    }

    #[test]
    fn huge_hint_goes_straight_to_l() {
        let (sys, data) = setup(2, 16);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        // Hint above o_max (262144 by default): body itself is tiny, but
        // the router must trust the hint (the paper's Figure 10 entry arc).
        let out = w.execute(1_000_000, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::L), 1);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1);
    }

    #[test]
    fn no_false_stall_after_an_l_transaction() {
        use std::time::{Duration, Instant};
        use tufast_txn::{Watchdog, WatchdogConfig};
        // One transaction routed to L, then H commits only: the router is
        // one worker with one heartbeat slot, so no slot goes flat while it
        // keeps committing.
        let (sys, data) = setup(2, 16);
        let mut w = TuFast::new(Arc::clone(&sys)).worker();
        let bump = &mut |ops: &mut dyn tufast_txn::TxnOps| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        };
        assert!(w.execute(1_000_000, bump).committed);
        let dog = Watchdog::spawn(
            Arc::clone(&sys),
            WatchdogConfig {
                interval: Duration::from_millis(2),
                grace_scans: 3,
            },
        );
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(150) {
            assert!(w.execute(2, bump).committed, "the live job was stopped");
        }
        let report = dog.stop();
        assert!(!report.cancelled, "{report:?}");
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::L), 1);
        assert!(stats.modes.txns(ModeClass::H) > 1);
    }

    #[test]
    fn a_router_draws_one_worker_id() {
        let (sys, _) = setup(2, 8);
        let tufast = TuFast::new(Arc::clone(&sys));
        let before = sys.new_worker_id();
        let _w = tufast.worker();
        assert_eq!(sys.new_worker_id(), before + 2, "one id for the router");
    }

    #[test]
    fn one_system_makes_more_routers_than_it_has_context_ids() {
        // A router holds an HTM context id (32 766 per memory) and a worker
        // id for its life; both come back when it drops.
        let (sys, data) = setup(1, 8);
        let tufast = TuFast::new(Arc::clone(&sys));
        for i in 0..40_000u64 {
            let mut w = tufast.worker();
            if i % 10_000 == 0 {
                let out = w.execute(2, &mut |ops| {
                    let x = ops.read(0, data.addr(0))?;
                    ops.write(0, data.addr(0), x + 1)
                });
                assert!(out.committed, "router {i}");
            }
        }
        assert_eq!(sys.mem().load_direct(data.addr(0)), 4);
        let w = tufast.worker();
        assert_eq!(w.ctx.id(), 0, "the lowest id is free again");
    }

    #[test]
    fn the_h_reach_is_the_system_s_htm_capacity() {
        use tufast_htm::HtmConfig;
        use tufast_txn::SystemConfig;
        // A 256-word hint against 128 words of capacity skips H; against
        // the default 4 096 it does not.
        for (htm, mode) in [
            (HtmConfig::tiny_for_tests(), ModeClass::O),
            (HtmConfig::default(), ModeClass::H),
        ] {
            let mut layout = MemoryLayout::new();
            let data = layout.alloc("data", 16);
            let config = SystemConfig {
                htm,
                ..SystemConfig::default()
            };
            let sys = TxnSystem::build(2, layout, config);
            let mut w = TuFast::new(Arc::clone(&sys)).worker();
            let out = w.execute(256, &mut |ops| {
                let x = ops.read(0, data.addr(0))?;
                ops.write(0, data.addr(0), x + 1)
            });
            assert!(out.committed, "{mode:?}");
            let stats = w.take_tufast_stats();
            assert_eq!(stats.modes.txns(mode), 1, "{mode:?}");
            assert_eq!(stats.modes.total_txns(), 1, "{mode:?}");
        }
    }

    #[test]
    fn the_serial_rung_routes_every_transaction_through_the_serial_fallback() {
        let (sys, data) = setup(2, 16);
        let mut w = TuFast::new(Arc::clone(&sys)).worker();
        let mut serial_commits = |txns| {
            for _ in 0..txns {
                let out = w.execute(2, &mut |ops| ops.write(0, data.addr(0), 1));
                assert!(out.committed);
            }
            w.take_tufast_stats().serial_commits
        };
        sys.health().escalate(Rung::Victims);
        assert_eq!(serial_commits(1), 0, "below the rung");
        sys.health().escalate(Rung::Serial);
        assert_eq!(serial_commits(3), 3);
        sys.begin_job(None);
        assert_eq!(serial_commits(1), 0, "the next job");
    }

    #[test]
    fn taking_worker_stats_leaves_job_outcomes_on_the_board() {
        use std::time::Duration;
        use tufast_txn::{AbortReason, HealthCounters, JobDeadline};

        let (sys, _) = setup(4, 8);
        sys.begin_job(Some(JobDeadline(Duration::ZERO)));
        assert_eq!(sys.health().poll(), Some(AbortReason::Deadline));
        sys.health().note_escalation();
        let outcomes = sys.health().counters();
        assert_eq!(
            outcomes,
            HealthCounters {
                watchdog_escalations: 1,
                deadline_aborts: 1,
                ..Default::default()
            }
        );
        let tufast = TuFast::new(Arc::clone(&sys));
        let (mut a, mut b) = (tufast.worker(), tufast.worker());
        let _ = a.take_tufast_stats();
        let _ = b.take_tufast_stats();
        assert_eq!(sys.health().counters(), outcomes);
    }

    #[test]
    fn pure_reads_take_no_locks_and_never_tick_the_clock() {
        let (sys, data) = setup(2, 2);
        sys.mem().store_direct(data.addr(0), 77);
        let sched = TuFast::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let clock_before = sys.mem().clock_now_pub();
        let lock_words: Vec<u64> = (0..2)
            .map(|v| sys.mem().load_direct(sys.locks().addr(v)))
            .collect();
        for _ in 0..100 {
            let out = w.execute_hinted(TxnHint::read_only(4), &mut |ops| {
                ops.read(0, data.addr(0))?;
                ops.read(1, data.addr(1))?;
                Ok(())
            });
            assert!(out.committed);
        }
        // Every lock acquisition, direct store, and HTM commit ticks the
        // global clock; an unchanged clock proves 100 pure-read
        // transactions acquired nothing and wrote nothing.
        assert_eq!(sys.mem().clock_now_pub(), clock_before);
        for v in 0..2u32 {
            assert_eq!(
                sys.mem().load_direct(sys.locks().addr(v)),
                lock_words[v as usize],
                "vertex {v} lock word moved under a pure reader"
            );
        }
        assert_eq!(w.take_stats().r_commits, 100);
    }

    #[test]
    fn capacity_overflow_routes_h_to_o() {
        // Small hint (so H is tried) but a body that overflows HTM: must
        // end up committed via O after exactly one H capacity abort.
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 64 * 1024);
        let sys = TxnSystem::with_defaults(2, layout);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let out = w.execute(16, &mut |ops| {
            let mut sum = 0u64;
            for i in 0..2_000u64 {
                sum = sum.wrapping_add(ops.read(0, big.addr(i * 8))?);
            }
            ops.write(1, big.addr(1), sum)
        });
        assert!(out.committed);
        let stats = w.take_tufast_stats();
        // H must have capacity-aborted exactly once (no blind H retries);
        // O-mode pieces may add further capacity aborts while the period
        // halves into range.
        assert!(stats.htm.aborts_capacity >= 1);
        assert!(stats.sched.restarts >= 1);
        assert_eq!(
            stats.modes.txns(ModeClass::O) + stats.modes.txns(ModeClass::OPlus),
            1
        );
    }

    #[test]
    fn wall_clock_deadlines_end_a_blocked_router_transaction() {
        use std::time::{Duration, Instant};
        use tufast_txn::JobDeadline;
        // A foreign holder keeps vertex 0 exclusively locked for the whole
        // run: H aborts on the subscribed lock word, O fails LockBusy
        // (try-only — O never waits), and every L-mode lock wait, the
        // serial fallback's included, victimises when its spin budget runs
        // out. Only the job-level deadline can end the retry ladder, so
        // this proves it threads through the router.
        let (sys, data) = setup(2, 8);
        let blocker = sys.new_worker_id();
        sys.locks().try_exclusive(sys.mem(), 0, blocker).unwrap();
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let t0 = Instant::now();
        sys.begin_job(Some(JobDeadline(Duration::from_millis(20))));
        let out = w.execute(4, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(!out.committed);
        let stats = w.take_tufast_stats();
        assert!(stats.sched.health_stops >= 1);
        assert!(
            stats.sched.anon_wait_victims >= 1,
            "the L fallback's lock waits never ran out of spins"
        );
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "gave up before the job deadline"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "deadline never fired"
        );
        // Release the lock and re-arm the job: the same worker commits.
        sys.locks().unlock_exclusive(sys.mem(), 0, blocker, false);
        sys.begin_job(None);
        let out = w.execute(4, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1);
    }

    #[test]
    fn user_abort_propagates_from_any_mode() {
        let (sys, data) = setup(2, 16);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        for hint in [2usize, 1_000_000] {
            let out = w.execute(hint, &mut |ops| {
                ops.write(0, data.addr(0), 77)?;
                Err(ops.user_abort())
            });
            assert!(!out.committed, "hint {hint}");
            assert_eq!(sys.mem().load_direct(data.addr(0)), 0, "hint {hint}");
        }
    }

    #[test]
    fn concurrent_mixed_sizes_preserve_counter() {
        // Small H-mode increments race with O-mode scans and L-mode
        // monsters, all touching one counter.
        let mut layout = MemoryLayout::new();
        let counter = layout.alloc("counter", 1);
        let filler = layout.alloc("filler", 80_000);
        let sys = TxnSystem::with_defaults(4, layout);
        let tufast = Arc::new(TuFast::new(Arc::clone(&sys)));
        let small = 4u64;
        let per_small = 200u64;
        std::thread::scope(|s| {
            for _ in 0..small {
                let tufast = Arc::clone(&tufast);
                s.spawn(move || {
                    let mut w = tufast.worker();
                    for _ in 0..per_small {
                        w.execute(2, &mut |ops| {
                            let x = ops.read(0, counter.addr(0))?;
                            ops.write(0, counter.addr(0), x + 1)
                        });
                    }
                });
            }
            for t in 0..2u64 {
                let tufast = Arc::clone(&tufast);
                s.spawn(move || {
                    let mut w = tufast.worker();
                    for _ in 0..10 {
                        // Medium: O-mode scan + increment.
                        w.execute(12_000, &mut |ops| {
                            let x = ops.read(0, counter.addr(0))?;
                            let mut sum = 0u64;
                            for i in 0..3_000u64 {
                                sum = sum.wrapping_add(ops.read(1, filler.addr(i * 8 + t))?);
                            }
                            ops.write(0, counter.addr(0), x + 1)
                        });
                    }
                });
            }
            {
                let tufast = Arc::clone(&tufast);
                s.spawn(move || {
                    let mut w = tufast.worker();
                    for _ in 0..5 {
                        // Huge hint: L mode.
                        w.execute(1_000_000, &mut |ops| {
                            let x = ops.read(0, counter.addr(0))?;
                            ops.write(0, counter.addr(0), x + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(
            sys.mem().load_direct(counter.addr(0)),
            small * per_small + 2 * 10 + 5
        );
        for v in 0..4u32 {
            assert!(sys.locks().peek(sys.mem(), v).is_free(), "lock {v} leaked");
        }
    }

    #[test]
    fn serial_fallback_commits_when_l_budget_exhausted() {
        use tufast_txn::{FaultPlan, FaultSpec};
        // Every lock acquisition outside the serial rung fails, so plain L
        // spends its budget; the serial token must still get every
        // transaction committed (holder runs fault-exempt).
        let (sys, data) = setup(4, 32);
        sys.set_fault_plan(Some(FaultPlan::new(FaultSpec {
            lock_fail_permille: 1000,
            ..FaultSpec::default()
        })));
        let tufast = Arc::new(TuFast::new(Arc::clone(&sys)));
        let rounds = 50u64;
        let mut serial = 0u64;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..3 {
                let tufast = Arc::clone(&tufast);
                handles.push(s.spawn(move || {
                    let mut w = tufast.worker();
                    for _ in 0..rounds {
                        // Huge hint: straight to L, where faults bite.
                        let out = w.execute(1_000_000, &mut |ops| {
                            let x = ops.read(0, data.addr(0))?;
                            ops.write(0, data.addr(0), x + 1)
                        });
                        assert!(out.committed);
                    }
                    w.take_tufast_stats().serial_commits
                }));
            }
            for h in handles {
                serial += h.join().expect("worker thread panicked");
            }
        });
        assert_eq!(sys.mem().load_direct(data.addr(0)), 3 * rounds);
        assert!(serial > 0, "expected some serial-fallback commits");
        assert_eq!(sys.mem().load_direct(sys.serial_token()), 0);
    }

    #[test]
    fn serial_token_released_when_body_panics_in_fallback() {
        use tufast_txn::{FaultPlan, FaultSpec};
        // Every non-exempt lock acquisition fails, so the transaction
        // spends its L budget and escalates to the serial fallback, where
        // the (exempt) body finally runs — and panics. The global token
        // must be released and the exemption cleared, or every later
        // `execute` hangs at the entry gate forever.
        let (sys, data) = setup(4, 32);
        sys.set_fault_plan(Some(FaultPlan::new(FaultSpec {
            lock_fail_permille: 1000,
            ..FaultSpec::default()
        })));
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Huge hint: straight to L, budget exhausts, serial commit.
            w.execute(1_000_000, &mut |ops| {
                ops.write(0, data.addr(0), 7)?;
                panic!("body blew up inside the serial section");
            });
        }));
        assert!(panicked.is_err(), "panic must propagate");
        assert_eq!(
            sys.mem().load_direct(sys.serial_token()),
            0,
            "serial token leaked"
        );
        assert_eq!(
            sys.mem().load_direct(data.addr(0)),
            0,
            "write not rolled back"
        );
        for v in 0..4u32 {
            assert!(sys.locks().peek(sys.mem(), v).is_free(), "lock {v} leaked");
        }
        // The worker is reusable, still under the same hostile plan (the
        // serial fallback must also be fault-exempt again, not stuck).
        let out = w.execute(1_000_000, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1);
        assert_eq!(sys.mem().load_direct(sys.serial_token()), 0);
    }

    #[test]
    fn a_plan_installed_on_the_system_reaches_the_router_s_htm_context() {
        use tufast_txn::{FaultKind, FaultPlan, FaultSpec};
        // The plan goes in through `set_fault_plan` alone, never through
        // `HtmConfig::abort_source`: every H attempt (and every O piece)
        // must still abort, and L must still commit.
        let (sys, data) = setup(4, 32);
        let plan = FaultPlan::new(FaultSpec {
            spurious_abort_permille: 1000,
            ..FaultSpec::default()
        });
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        let mut w = TuFast::new(Arc::clone(&sys)).worker();
        let out = w.execute(4, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::H), 0, "no H attempt commits");
        assert_eq!(stats.modes.txns(ModeClass::O2L), 1, "committed in L");
        let h_retries = u64::from(TuFastConfig::default().h_retries);
        assert!(stats.htm.aborts_spurious >= h_retries);
        assert_eq!(
            plan.injected(FaultKind::SpuriousAbort),
            stats.htm.aborts_spurious,
            "counted on the plan"
        );
    }

    #[test]
    fn htm_unavailable_routes_everything_to_l() {
        let (sys, data) = setup(2, 16);
        sys.htm().set_htm_available(false);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let out = w.execute(2, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        let stats = w.take_tufast_stats();
        assert_eq!(stats.htm_off_txns, 1);
        assert_eq!(stats.modes.txns(ModeClass::L), 1);
        assert_eq!(stats.modes.txns(ModeClass::H), 0);
    }

    #[test]
    fn body_panic_propagates_and_leaves_system_clean() {
        let (sys, data) = setup(2, 16);
        let tufast = TuFast::new(Arc::clone(&sys));
        let mut w = tufast.worker();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.execute(2, &mut |ops| {
                ops.write(0, data.addr(0), 99)?;
                panic!("body blew up");
            });
        }));
        assert!(panicked.is_err(), "panic must propagate to the caller");
        // The speculative write was discarded and no locks leak.
        assert_eq!(sys.mem().load_direct(data.addr(0)), 0);
        for v in 0..2u32 {
            assert!(sys.locks().peek(sys.mem(), v).is_free(), "lock {v} leaked");
        }
        // The worker is reusable afterwards.
        let out = w.execute(2, &mut |ops| {
            let x = ops.read(0, data.addr(0))?;
            ops.write(0, data.addr(0), x + 1)
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 1);
    }

    #[test]
    fn period_halving_reaches_l_mode_under_sabotage() {
        // A body that always invalidates its own O-mode read set commits
        // only via L; the breakdown must say O2L.
        let (sys, data) = setup(2, 16);
        let config = TuFastConfig {
            h_retries: 1,
            ..TuFastConfig::default()
        };
        let tufast = TuFast::with_config(Arc::clone(&sys), config);
        let mut w = tufast.worker();
        let sys2 = Arc::clone(&sys);
        let out = w.execute(8_000, &mut |ops| {
            // hint 8000 > 4096: skips H, goes to O.
            let x = ops.read(0, data.addr(0))?;
            // Sabotage: bump vertex 0's version so O validation fails.
            // (Fails silently once L mode holds the lock — by then the
            // sabotage has done its job.)
            if sys2.locks().try_exclusive(sys2.mem(), 0, 90).is_ok() {
                sys2.locks().unlock_exclusive(sys2.mem(), 0, 90, true);
            }
            ops.write(1, data.addr(1), x + 1)
        });
        assert!(out.committed, "L mode must eventually commit");
        let stats = w.take_tufast_stats();
        assert_eq!(stats.modes.txns(ModeClass::O2L), 1);
    }
}
