//! A TinySTM-like word-based software transactional memory — the paper's
//! "STM" baseline (it integrates TinySTM 1.0.5 by "replacing all hardware
//! instructions by software counterparts").
//!
//! The emulated HTM already is that software counterpart, a TL2 with
//! time-base extension over the line table, so STM runs on a software
//! context of it ([`HtmRuntime::software_ctx`](tufast_htm::HtmRuntime::software_ctx)):
//! no capacity limit, no abort source, no HTM switch. The one thing left
//! to model is the *software instrumentation cost*, in the real systems
//! the 2–4× per-access overhead of STM barrier code over raw loads. Our
//! HTM is itself software, so that gap would vanish; it is modelled as a
//! configurable spin per transactional access
//! ([`SoftwareTm::with_penalty`]). EXPERIMENTS.md ("STM on a software
//! context") records the STM columns it yields.

use std::sync::Arc;

use tufast_htm::HtmCtx;

use crate::health::HealthHandle;
use crate::lifecycle::{hardware_attempt, HtmOps, Lifecycle, Verdict};
use crate::system::TxnSystem;
use crate::traits::{GraphScheduler, SchedStats, TxnBody, TxnHint, TxnOutcome, TxnWorker};

/// Default modelled instrumentation cost (spin iterations per access).
const DEFAULT_PENALTY_SPINS: u32 = 25;

/// The TinySTM-like scheduler.
pub struct SoftwareTm {
    sys: Arc<TxnSystem>,
    penalty_spins: u32,
}

impl SoftwareTm {
    /// Create with the default modelled instrumentation cost, 25 spin
    /// iterations per access.
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        SoftwareTm {
            sys,
            penalty_spins: DEFAULT_PENALTY_SPINS,
        }
    }

    /// Override the modelled per-access instrumentation cost (0 disables —
    /// useful for correctness tests).
    pub fn with_penalty(sys: Arc<TxnSystem>, penalty_spins: u32) -> Self {
        SoftwareTm { sys, penalty_spins }
    }
}

impl GraphScheduler for SoftwareTm {
    type Worker = StmWorker;

    fn worker(&self) -> StmWorker {
        StmWorker {
            lc: Lifecycle::new(&self.sys),
            ctx: self.sys.htm().software_ctx(),
            penalty_spins: self.penalty_spins,
        }
    }

    fn name(&self) -> &'static str {
        "STM"
    }
}

/// Per-thread STM state.
pub struct StmWorker {
    lc: Lifecycle,
    /// The software context every attempt runs in.
    ctx: HtmCtx,
    penalty_spins: u32,
}

impl AsMut<Lifecycle> for StmWorker {
    #[inline]
    fn as_mut(&mut self) -> &mut Lifecycle {
        &mut self.lc
    }
}

impl TxnWorker for StmWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        let mut attempts = match crate::rmode::read_only_prologue(&mut self.lc, hint, body) {
            Ok(out) => return out,
            Err(prior) => prior,
        };
        Lifecycle::rung(self, u32::MAX, &mut attempts, |w, obs| {
            // Injected commit failures are probed where the router's O rung
            // probes them: before the attempt runs.
            if w.lc.faults.commit_fails() {
                return Verdict::Restart;
            }
            let ctx = &mut w.ctx;
            ctx.begin()
                .expect("a software context is never switched off");
            let mut ops = HtmOps {
                ctx,
                stats: &mut w.lc.stats,
                penalty_spins: w.penalty_spins,
                last_abort: None,
            };
            // No capacity limit and no injected aborts: every abort is a
            // conflict, and restarts.
            hardware_attempt(&mut ops, w.lc.id, 0, body, obs).unwrap_or(Verdict::Restart)
        })
        .outcome(attempts)
    }

    fn stats(&self) -> &SchedStats {
        &self.lc.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.lc.stats)
    }

    fn health(&self) -> Option<&HealthHandle> {
        Some(&self.lc.health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_htm::MemoryLayout;

    fn bank(n: usize) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let acc = layout.alloc("acc", n as u64);
        let sys = TxnSystem::with_defaults(n, layout);
        for i in 0..n as u64 {
            sys.mem().store_direct(acc.addr(i), 100);
        }
        (sys, acc)
    }

    #[test]
    fn read_own_write_and_publish_at_commit() {
        let (sys, acc) = bank(1);
        let sched = SoftwareTm::with_penalty(Arc::clone(&sys), 0);
        let mut w = sched.worker();
        let out = w.execute(2, &mut |ops| {
            ops.write(0, acc.addr(0), 7)?;
            assert_eq!(ops.read(0, acc.addr(0))?, 7);
            assert_eq!(sys.mem().load_direct(acc.addr(0)), 100, "lazy versioning");
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 7);
    }

    #[test]
    fn no_capacity_limit_unlike_htm() {
        // A transaction far beyond the 32 KB HTM capacity must commit.
        let mut layout = MemoryLayout::new();
        let big = layout.alloc("big", 100_000);
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = SoftwareTm::with_penalty(Arc::clone(&sys), 0);
        let mut w = sched.worker();
        let out = w.execute(100_000, &mut |ops| {
            for i in 0..100_000u64 {
                ops.write(0, big.addr(i), i)?;
            }
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(sys.mem().load_direct(big.addr(99_999)), 99_999);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let (sys, acc) = bank(1);
        let sched = Arc::new(SoftwareTm::with_penalty(Arc::clone(&sys), 0));
        let threads = 8;
        let per = 300;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for _ in 0..per {
                        w.execute(2, &mut |ops| {
                            let x = ops.read(0, acc.addr(0))?;
                            ops.write(0, acc.addr(0), x + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(sys.mem().load_direct(acc.addr(0)), 100 + threads * per);
    }

    #[test]
    fn multi_line_invariant_under_contention() {
        let mut layout = MemoryLayout::new();
        let a = layout.alloc("a", 1);
        let b = layout.alloc("b", 1); // separate cache line
        let sys = TxnSystem::with_defaults(1, layout);
        let sched = Arc::new(SoftwareTm::with_penalty(Arc::clone(&sys), 0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let mut w = sched.worker();
                    for i in 0..300u64 {
                        let d = (t + i) % 9 + 1;
                        w.execute(4, &mut |ops| {
                            let x = ops.read(0, a.addr(0))?;
                            let y = ops.read(0, b.addr(0))?;
                            ops.write(0, a.addr(0), x.wrapping_add(d))?;
                            ops.write(0, b.addr(0), y.wrapping_sub(d))?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let x = sys.mem().load_direct(a.addr(0));
        let y = sys.mem().load_direct(b.addr(0));
        assert_eq!(x.wrapping_add(y), 0);
    }

    #[test]
    fn penalty_spins_make_it_slower() {
        let (sys, acc) = bank(1);
        let fast = SoftwareTm::with_penalty(Arc::clone(&sys), 0);
        let slow = SoftwareTm::with_penalty(Arc::clone(&sys), 5000);
        let time = |sched: &SoftwareTm| {
            let mut w = sched.worker();
            let t0 = std::time::Instant::now();
            for _ in 0..2000 {
                w.execute(2, &mut |ops| {
                    let x = ops.read(0, acc.addr(0))?;
                    ops.write(0, acc.addr(0), x + 1)
                });
            }
            t0.elapsed()
        };
        let t_fast = time(&fast);
        let t_slow = time(&slow);
        assert!(
            t_slow > t_fast,
            "penalty had no effect: {t_fast:?} vs {t_slow:?}"
        );
    }
}
