//! Cross-crate integration: every scheduler must produce correct results
//! for every deterministic algorithm — the property that makes the paper's
//! throughput comparisons meaningful (Figures 7, 13, 14 run identical
//! transaction bodies).

use std::fmt::Debug;
use std::sync::Arc;

use tufast_suite::algos::{bfs, coloring, matching, mis, setup, sssp, wcc, AlgoSystem};
use tufast_suite::graph::{gen, Graph, GraphBuilder};
use tufast_suite::htm::MemoryLayout;
use tufast_suite::tufast::TuFast;
use tufast_suite::txn::{
    Declared, GraphScheduler, HSyncLike, HTimestampOrdering, Occ, SoftwareTm, TimestampOrdering,
    TwoPhaseLocking, TxnBody, TxnSystem, TxnWorker,
};

const THREADS: usize = 4;

fn symmetric_rmat(scale: u32, ef: usize, seed: u64) -> Graph {
    let base = gen::rmat(scale, ef, seed);
    let mut b = GraphBuilder::new(base.num_vertices());
    for (s, d) in base.edges() {
        b.add_edge(s, d);
    }
    b.symmetric().build()
}

/// Run one algorithm under one scheduler and compare with the expected
/// output.
fn check_one<S, W, R>(
    name: &str,
    g: &Graph,
    alloc: impl FnOnce(&mut MemoryLayout, usize) -> W,
    ctor: impl FnOnce(Arc<TxnSystem>) -> S,
    run: impl FnOnce(&Graph, &S, &AlgoSystem<W>) -> R,
    expected: &R,
) where
    S: GraphScheduler,
    R: PartialEq + Debug,
{
    let built = setup(g, alloc);
    let sched = ctor(Arc::clone(&built.sys));
    let got = run(g, &sched, &built);
    assert_eq!(&got, expected, "scheduler {name} diverged");
}

macro_rules! for_all_schedulers {
    ($g:expr, $alloc:expr, $run:expr, $expected:expr) => {{
        let g = &$g;
        let expected = $expected;
        check_one("TuFast", g, $alloc, TuFast::new, $run, &expected);
        check_one("2PL", g, $alloc, TwoPhaseLocking::new, $run, &expected);
        check_one("OCC", g, $alloc, Occ::new, $run, &expected);
        check_one("TO", g, $alloc, TimestampOrdering::new, $run, &expected);
        check_one(
            "STM",
            g,
            $alloc,
            |sys| SoftwareTm::with_penalty(sys, 0),
            $run,
            &expected,
        );
        check_one("HSync", g, $alloc, HSyncLike::new, $run, &expected);
        check_one("H-TO", g, $alloc, HTimestampOrdering::new, $run, &expected);
    }};
}

#[test]
fn bfs_is_identical_across_schedulers() {
    let g = gen::grid2d(15, 15);
    let expected = bfs::sequential(&g, 0);
    for_all_schedulers!(
        g,
        bfs::BfsSpace::alloc,
        |g, sched, built| bfs::parallel(g, sched, &built.sys, &built.space, 0, THREADS),
        expected
    );
}

#[test]
fn wcc_is_identical_across_schedulers() {
    let g = symmetric_rmat(9, 4, 17);
    let expected = wcc::sequential(&g);
    for_all_schedulers!(
        g,
        wcc::WccSpace::alloc,
        |g, sched, built| wcc::parallel(g, sched, &built.sys, &built.space, THREADS),
        expected
    );
}

#[test]
fn sssp_is_identical_across_schedulers() {
    let g = gen::with_random_weights(&gen::grid2d(11, 11), 40, 3);
    let expected = sssp::sequential(&g, 0);
    for_all_schedulers!(
        g,
        sssp::SsspSpace::alloc,
        |g, sched, built| {
            sssp::parallel(
                g,
                sched,
                &built.sys,
                &built.space,
                0,
                THREADS,
                sssp::QueueKind::Fifo,
            )
        },
        expected
    );
}

#[test]
fn mis_is_identical_across_schedulers() {
    let g = symmetric_rmat(9, 5, 23);
    let expected = mis::sequential(&g);
    for_all_schedulers!(
        g,
        mis::MisSpace::alloc,
        |g, sched, built| mis::parallel(g, sched, &built.sys, &built.space, THREADS),
        expected
    );
}

#[test]
fn coloring_is_identical_across_schedulers() {
    let g = symmetric_rmat(9, 5, 29);
    let expected = coloring::sequential(&g);
    for_all_schedulers!(
        g,
        coloring::ColoringSpace::alloc,
        |g, sched, built| coloring::parallel(g, sched, &built.sys, &built.space, THREADS),
        expected
    );
}

#[test]
fn matching_is_valid_under_every_scheduler() {
    // Matching is nondeterministic (any maximal matching is acceptable),
    // so validate structure instead of comparing outputs.
    fn check_matching<S: GraphScheduler>(
        name: &str,
        g: &Graph,
        ctor: impl FnOnce(Arc<TxnSystem>) -> S,
    ) {
        let built = setup(g, matching::MatchingSpace::alloc);
        let sched = ctor(Arc::clone(&built.sys));
        let m = matching::parallel(g, &sched, &built.sys, &built.space, THREADS);
        matching::validate(g, &m).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let g = symmetric_rmat(9, 6, 31);
    check_matching("TuFast", &g, TuFast::new);
    check_matching("2PL", &g, TwoPhaseLocking::new);
    check_matching("OCC", &g, Occ::new);
    check_matching("TO", &g, TimestampOrdering::new);
    check_matching("STM", &g, |sys| SoftwareTm::with_penalty(sys, 0));
    check_matching("HSync", &g, HSyncLike::new);
    check_matching("H-TO", &g, HTimestampOrdering::new);
}

/// The declared-footprint row: 2PL's `execute_declared` runs the same
/// bodies as `execute` — bank transfers and "give every neighbour one unit"
/// neighbourhoods, both commutative, so the final memory is one value
/// whatever the interleaving — and every other scheduler takes the default
/// (the footprint ignored). All of them must land on the sequential result.
#[test]
fn declared_footprints_give_the_results_of_execute() {
    let g = symmetric_rmat(8, 4, 41);
    let n = g.num_vertices();
    let transfers = 600;
    // Sequential reference: `transfers` bank moves, then one neighbourhood
    // hand-out from every vertex.
    let (from, to) = (
        |i: usize| (i * 7 % n) as u32,
        |i: usize| (i * 13 + 1) as u32 % n as u32,
    );
    let mut expected = vec![1_000u64; n];
    for i in (0..transfers).filter(|&i| from(i) != to(i)) {
        expected[from(i) as usize] -= 1;
        expected[to(i) as usize] += 1;
    }
    for c in 0..n as u32 {
        for &u in g.neighbors(c).iter().filter(|&&u| u != c) {
            expected[c as usize] -= 1;
            expected[u as usize] += 1;
        }
    }

    fn check<S: GraphScheduler>(
        name: &str,
        declared: bool,
        g: &Graph,
        expected: &[u64],
        endpoints: (impl Fn(usize) -> u32 + Sync, impl Fn(usize) -> u32 + Sync),
        transfers: usize,
        ctor: impl FnOnce(Arc<TxnSystem>) -> S,
    ) {
        let n = g.num_vertices();
        let mut layout = MemoryLayout::new();
        let acc = layout.alloc("accounts", n as u64);
        let sys = TxnSystem::with_defaults(n, layout);
        for v in 0..n as u64 {
            sys.mem().store_direct(acc.addr(v), 1_000);
        }
        let sched = ctor(Arc::clone(&sys));
        let word = |v: u32| acc.addr(u64::from(v));
        let run = |w: &mut S::Worker, footprint: &[Declared], body: &mut TxnBody<'_>| {
            let out = if declared {
                w.execute_declared(footprint, body)
            } else {
                w.execute(2 * footprint.len(), body)
            };
            assert!(out.committed, "{name}");
        };
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (sched, endpoints, run) = (&sched, &endpoints, &run);
                s.spawn(move || {
                    let mut w = sched.worker();
                    let mut footprint = Vec::new();
                    for i in (t..transfers).step_by(THREADS) {
                        let (a, b) = (endpoints.0(i), endpoints.1(i));
                        if a == b {
                            continue;
                        }
                        // Declared in textual order: b may be below a.
                        run(
                            &mut w,
                            &[Declared::write(a), Declared::write(b)],
                            &mut |ops| {
                                let (x, y) = (ops.read(a, word(a))?, ops.read(b, word(b))?);
                                ops.write(a, word(a), x - 1)?;
                                ops.write(b, word(b), y + 1)
                            },
                        );
                    }
                    for c in (t as u32..n as u32).step_by(THREADS) {
                        let others = || g.neighbors(c).iter().copied().filter(move |&u| u != c);
                        footprint.clear();
                        footprint.extend(others().map(Declared::write));
                        footprint.push(Declared::write(c));
                        run(&mut w, &footprint, &mut |ops| {
                            let mut left = ops.read(c, word(c))?;
                            for u in others() {
                                let x = ops.read(u, word(u))?;
                                ops.write(u, word(u), x + 1)?;
                                left -= 1;
                            }
                            ops.write(c, word(c), left)
                        });
                    }
                });
            }
        });
        let got: Vec<u64> = (0..n as u64)
            .map(|v| sys.mem().load_direct(acc.addr(v)))
            .collect();
        assert_eq!(got, expected, "scheduler {name} diverged");
        for v in 0..n as u32 {
            assert!(
                sys.locks().peek(sys.mem(), v).is_free(),
                "{name}: lock {v} leaked"
            );
        }
    }

    check(
        "2PL-declared",
        true,
        &g,
        &expected,
        (from, to),
        transfers,
        TwoPhaseLocking::new,
    );
    check(
        "2PL",
        false,
        &g,
        &expected,
        (from, to),
        transfers,
        TwoPhaseLocking::new,
    );
    check(
        "TuFast",
        true,
        &g,
        &expected,
        (from, to),
        transfers,
        TuFast::new,
    );
    check("OCC", true, &g, &expected, (from, to), transfers, Occ::new);
    check(
        "HSync",
        true,
        &g,
        &expected,
        (from, to),
        transfers,
        HSyncLike::new,
    );
}
