//! One attempt lifecycle, seven workers: whatever the scheduler, every body
//! execution ends as exactly one commit, user abort or restart, so
//! `commits + user_aborts == transactions` and
//! `restarts == attempts − transactions` with `attempts` summed from the
//! returned [`TxnOutcome`]s. Two threads fight over one counter so restarts
//! do happen; some transactions user-abort after writing, and some write
//! under a `read_only` hint (a demoted R attempt is a restart too). TuFast
//! runs the table three times: routed by a small hint, by a hint beyond O
//! mode's reach (its L rung), and under a job escalated to `Rung::Serial`
//! (its serial rung).

use std::sync::Arc;

use tufast_suite::htm::{Addr, MemoryLayout};
use tufast_suite::tufast::TuFast;
use tufast_suite::txn::{
    GraphScheduler, HSyncLike, HTimestampOrdering, Occ, Rung, SchedStats, SoftwareTm,
    TimestampOrdering, TwoPhaseLocking, TxnHint, TxnSystem, TxnWorker,
};

const THREADS: u64 = 2;
const TXNS: u64 = 300;

/// A size hint beyond TuFast's O-mode reach: straight to its L rung.
const L_HINT: usize = 1_000_000;

/// Run the table's body on `THREADS` workers of `sched`, hinted `size`.
fn account<S: GraphScheduler>(sched: &S, sys: &TxnSystem, counter: Addr, size: usize) {
    let before = sys.mem().load_direct(counter);
    let (mut stats, mut attempts) = (SchedStats::default(), 0u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut w = sched.worker();
                    let mut attempts = 0u64;
                    for i in 0..TXNS {
                        let hint = if i % 5 == 0 {
                            TxnHint::read_only(size)
                        } else {
                            TxnHint::sized(size)
                        };
                        let out = w.execute_hinted(hint, &mut |ops| {
                            let x = ops.read(0, counter)?;
                            ops.write(0, counter, x + 1)?;
                            if i % 7 == 0 {
                                return Err(ops.user_abort());
                            }
                            Ok(())
                        });
                        assert_eq!(out.committed, i % 7 != 0);
                        attempts += u64::from(out.attempts);
                    }
                    (w.take_stats(), attempts)
                })
            })
            .collect();
        for h in handles {
            let (worker_stats, worker_attempts) = h.join().unwrap();
            stats.merge(&worker_stats);
            attempts += worker_attempts;
        }
    });
    let name = format!("{} (hint {size})", sched.name());
    let txns = THREADS * TXNS;
    assert_eq!(stats.commits + stats.user_aborts, txns, "{name}");
    assert_eq!(stats.restarts, attempts - txns, "{name}");
    assert_eq!((stats.panics, stats.health_stops), (0, 0), "{name}");
    let added = sys.mem().load_direct(counter) - before;
    assert_eq!(added, stats.commits, "{name}");
    assert!(
        stats.restarts >= txns / 5,
        "{name}: every demotion restarts"
    );
}

#[test]
fn every_scheduler_accounts_each_attempt_exactly_once() {
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("counter", 1);
    let sys = TxnSystem::with_defaults(1, layout);
    let counter = data.addr(0);
    let s = || Arc::clone(&sys);
    account(&TwoPhaseLocking::new(s()), &sys, counter, 2);
    account(&Occ::new(s()), &sys, counter, 2);
    account(&TimestampOrdering::new(s()), &sys, counter, 2);
    account(&HTimestampOrdering::new(s()), &sys, counter, 2);
    account(&SoftwareTm::with_penalty(s(), 0), &sys, counter, 2);
    account(&HSyncLike::new(s()), &sys, counter, 2);
    account(&TuFast::new(s()), &sys, counter, 2);
    account(&TuFast::new(s()), &sys, counter, L_HINT);
    sys.health().escalate(Rung::Serial);
    account(&TuFast::new(s()), &sys, counter, 2);
}
