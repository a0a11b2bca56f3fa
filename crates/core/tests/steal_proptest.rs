//! Property tests for the work-stealing layer: under every generated
//! schedule, the Chase–Lev deque and the stealing pool deliver each item
//! exactly once — nothing lost, nothing duplicated — and the striped
//! quiescence check never reports quiescent while work remains.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tufast::par::WorkPool;
use tufast::steal::{Steal, StealDeque, StealPool};

proptest! {
    /// The owner pushes and takes from the steal end, racing concurrent
    /// thieves: every pushed item comes out exactly once, across the
    /// owner's takes and the thieves' combined.
    #[test]
    fn deque_never_loses_or_duplicates(
        total in 1usize..2000,
        thieves in 1usize..4,
        pop_stride in 1u32..7,
        cap in 4usize..512,
    ) {
        let d = Arc::new(StealDeque::with_capacity(cap));
        let stop = Arc::new(AtomicBool::new(false));
        let mut collected = std::thread::scope(|s| {
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let d = Arc::clone(&d);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match d.steal() {
                                Steal::Success(v) => got.push(v),
                                Steal::Retry => std::hint::spin_loop(),
                                Steal::Empty => {
                                    if stop.load(Ordering::Acquire) {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut own = Vec::new();
            // The owner's pop, as `StealPool::pop` does it.
            let take = |own: &mut Vec<u32>| {
                if let Steal::Success(x) = d.steal() {
                    own.push(x);
                }
            };
            for v in 0..total as u32 {
                // A full ring spills nothing here: the owner drains
                // instead, like the pool's overflow path would.
                while d.push(v).is_err() {
                    take(&mut own);
                }
                if v % pop_stride == 0 {
                    take(&mut own);
                }
            }
            while !d.is_empty() {
                take(&mut own);
            }
            // Thieves only exit on Empty *after* seeing the stop flag, so
            // anything still in the deque at this point gets stolen.
            stop.store(true, Ordering::Release);
            for h in handles {
                own.extend(h.join().unwrap());
            }
            own
        });
        collected.sort_unstable();
        let expect: Vec<u32> = (0..total as u32).collect();
        prop_assert_eq!(collected, expect);
    }

    /// Seed items into the pool, drain with re-pushes on several worker
    /// threads: the grand total processed equals seeds + re-pushes, and
    /// the pool ends quiescent.
    #[test]
    fn pool_drain_with_repushes_is_exactly_once(
        seeds in 1usize..300,
        workers in 1usize..5,
        fanout_until in 0u32..150,
    ) {
        let pool = Arc::new(StealPool::new(workers));
        for v in 0..seeds as u32 {
            pool.push(v);
        }
        let processed = Arc::new(AtomicU64::new(0));
        let expected_extra = u64::from(fanout_until.min(seeds as u32));
        std::thread::scope(|s| {
            for _ in 0..workers {
                let pool = Arc::clone(&pool);
                let processed = Arc::clone(&processed);
                s.spawn(move || {
                    loop {
                        match pool.pop() {
                            Some(v) => {
                                processed.fetch_add(1, Ordering::Relaxed);
                                // Each original seed below the fanout bound
                                // spawns one child (ids disjoint from seeds).
                                if v < fanout_until && v < seeds as u32 {
                                    pool.push(v + 1_000_000);
                                }
                                pool.done();
                            }
                            None => {
                                if pool.quiescent() {
                                    break;
                                }
                                pool.park_idle();
                            }
                        }
                    }
                });
            }
        });
        prop_assert_eq!(
            processed.load(Ordering::Relaxed),
            seeds as u64 + expected_extra
        );
        prop_assert!(pool.quiescent());
        prop_assert_eq!(pool.pending(), 0);
    }

    /// `pending_items` under quiescence returns exactly the queued items
    /// and leaves them poppable (the epoch-snapshot contract).
    #[test]
    fn pool_pending_items_is_a_faithful_snapshot(
        items in prop::collection::vec(0u32..10_000, 0..200),
        workers in 1usize..5,
    ) {
        let pool = StealPool::new(workers);
        for &v in &items {
            pool.push(v);
        }
        let mut snap: Vec<u32> = pool.pending_items().iter().map(|&(v, _)| v).collect();
        let mut expect = items.clone();
        snap.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(snap, expect.clone());
        prop_assert_eq!(pool.pending(), items.len());
        let mut drained = Vec::new();
        while let Some(v) = pool.pop() {
            drained.push(v);
            pool.done();
        }
        drained.sort_unstable();
        prop_assert_eq!(drained, expect);
        prop_assert!(pool.quiescent());
    }
}
