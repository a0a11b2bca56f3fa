//! Property tests for the work-stealing pool: under every generated
//! schedule it delivers each item exactly once — nothing lost, nothing
//! duplicated — and the striped quiescence check never reports quiescent
//! while work remains. The Chase–Lev deque's own property races the
//! owner's crate-private `pop_own`, so it lives in `steal::tests`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tufast::par::WorkPool;
use tufast::steal::StealPool;

proptest! {
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
