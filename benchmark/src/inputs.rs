//! Seeded inputs: graphs, vertex pickers and mutation scripts.
//!
//! Everything here is a pure function of `--seed` (and `--scale`); the
//! program under test only ever sees the generated values.

use std::time::Instant;

use tufast_graph::wal::Mutation;
use tufast_graph::{binio, gen, Graph, GraphBuilder, VertexId};

use crate::harness::{remove_scratch, scratch, timed, Run};
use crate::heap;
use crate::stats;
use crate::trace::Tracer;

/// splitmix64 finaliser: a well-mixed pure function of `x`.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the R-MAT topology: the one `tufast-bench` builds twitter-s
/// from. It is fixed, and `--seed` relabels the vertices instead, because
/// what a job costs depends on the graph's hubs: with a fresh topology per
/// seed, BFS moved 9 % between seeds against 2 % between runs of one seed,
/// and the allocator's peak footprint jumped in steps of 15 MB. Relabeling
/// keeps the degree distribution — what the H/O/L router reacts to — and
/// still moves every vertex to other cache lines, lock words and L1 sets.
const TOPOLOGY_SEED: u64 = 0x7117;

/// How the generated graph is rebuilt before the job can start — the same
/// steps `examples/analyze` takes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Out-edges only (the mutation base).
    OutEdges,
    /// Out- and in-edges (PageRank, BFS, the micro-transactions).
    InEdges,
    /// Symmetrised, with in-edges (WCC).
    Symmetric,
    /// In-edges plus seeded weights in `1..=100` (SSSP).
    Weighted,
}

/// Wall time of each set-up step, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub reshape_s: f64,
    /// Edges fed to the builder in `build_s`.
    pub build_edges: u64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.reshape_s
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = mix(seed ^ (i as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD)) % (i as u64 + 1);
        perm.swap(i, j as usize);
    }
    perm
}

/// Generate the R-MAT graph of `2^scale` vertices, relabel it by `seed`
/// and reshape it, timing each step (and recording a span per step when
/// tracing).
pub fn build_graph(
    scale: u32,
    edge_factor: usize,
    seed: u64,
    shape: Shape,
    tr: &mut Tracer,
) -> (Graph, SetupTimes) {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let raw = tr.span("graph.generate", || {
        gen::rmat(scale, edge_factor, TOPOLOGY_SEED)
    });
    times.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let built = tr.span("graph.build", || {
        let perm = permutation(raw.num_vertices(), seed);
        let mut b =
            GraphBuilder::new(raw.num_vertices()).with_edge_capacity(raw.num_edges() as usize);
        for (s, d) in raw.edges() {
            b.add_edge(perm[s as usize], perm[d as usize]);
        }
        match shape {
            Shape::OutEdges => b.build(),
            Shape::Symmetric => b.symmetric().with_in_edges().build(),
            Shape::InEdges | Shape::Weighted => b.with_in_edges().build(),
        }
    });
    times.build_s = t.elapsed().as_secs_f64();
    times.build_edges = raw.num_edges();
    drop(raw);
    if shape != Shape::Weighted {
        return (built, times);
    }

    let t = Instant::now();
    let weighted = tr.span("graph.reshape", || {
        gen::with_random_weights(&built, 100, mix(seed))
    });
    times.reshape_s = t.elapsed().as_secs_f64();
    (weighted, times)
}

/// An untraced run sets up again every `SETUP_EVERY_S` seconds of its
/// measured phase, between two repetitions, and at least `SETUP_REPS` times
/// in all; `setup_s` is the fastest (see `Summary`). Spread over the run
/// like the job's own repetitions, because a 55 ms set-up needs a quiet gap
/// of the host as a job does: forty of them bunched into two seconds after
/// the measured phase read either 1.00 or 1.28 times the usual value, by
/// whether those two seconds had such a gap.
const SETUP_EVERY_S: f64 = 0.35;
const SETUP_REPS: usize = 5;

/// The set-up of a graph workload: what `examples/analyze` does before it
/// can start.
pub struct GraphSetup {
    edge_factor: usize,
    shape: Shape,
    /// Times of the repeated set-ups: the graph, and what `rest` took.
    again: Vec<(SetupTimes, f64)>,
    last: Instant,
}

impl GraphSetup {
    pub fn new(edge_factor: usize, shape: Shape) -> GraphSetup {
        GraphSetup {
            edge_factor,
            shape,
            again: Vec::new(),
            last: Instant::now(),
        }
    }

    fn build_once(&self, run: &mut Run) -> (Graph, SetupTimes) {
        let span = run.tracer.begin("setup");
        let out = build_graph(
            run.graph_scale(),
            self.edge_factor,
            run.args.seed,
            self.shape,
            &mut run.tracer,
        );
        run.tracer.end(span);
        out
    }

    /// Build the run's graph under a `setup` span. What the build needed
    /// in passing (twice the graph) is not the job's footprint: the heap's
    /// peak starts over from what is live now.
    pub fn build(&mut self, run: &mut Run) -> (Graph, SetupTimes) {
        let out = self.build_once(run);
        heap::reset_peak();
        self.last = Instant::now();
        out
    }

    /// One more set-up, kept out of the heap's peak. `rest` finishes a
    /// workload's set-up beyond the graph (the durable directory of
    /// `mut-*`), drops it, and returns its seconds.
    fn set_up_again(&mut self, run: &mut Run, rest: impl FnOnce(&mut Run, Graph) -> f64) {
        let sample = heap::outside_peak(|| {
            let (g, times) = self.build_once(run);
            (times, rest(run, g))
        });
        self.again.push(sample);
        self.last = Instant::now();
    }

    /// Call between two repetitions of the measured phase: sets up again
    /// when it is time to (never in a traced run or one of `--reps`
    /// repetitions).
    pub fn between_reps(&mut self, run: &mut Run, rest: impl FnOnce(&mut Run, Graph) -> f64) {
        let due = self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S;
        if due && !run.args.trace && run.args.reps.is_none() {
            self.set_up_again(run, rest);
        }
    }

    /// Record the set-up metrics after the measured phase and after peak
    /// memory was sampled, topping the repetitions up to `SETUP_REPS`.
    /// `first` and `first_rest_s` are the times of the run's own set-up.
    pub fn record(
        &mut self,
        run: &mut Run,
        first: SetupTimes,
        first_rest_s: f64,
        mut rest: impl FnMut(&mut Run, Graph) -> f64,
    ) {
        if !run.args.trace && run.args.reps.is_none() {
            while 1 + self.again.len() < SETUP_REPS {
                self.set_up_again(run, &mut rest);
            }
        }
        let all: Vec<(SetupTimes, f64)> = [(first, first_rest_s)]
            .into_iter()
            .chain(self.again.iter().copied())
            .collect();
        let best =
            |f: fn(&(SetupTimes, f64)) -> f64| stats::min(&all.iter().map(f).collect::<Vec<_>>());
        run.metrics
            .set("setup_s", best(|(t, rest_s)| t.total_s() + rest_s));
        run.metrics
            .set("graph.generate_s", best(|(t, _)| t.generate_s));
        let build_s = best(|(t, _)| t.build_s);
        run.metrics.set("graph.build_s", build_s);
        run.metrics.set(
            "graph.build_edges_per_s",
            first.build_edges as f64 / build_s,
        );
    }
}

/// Save `g` to the binary CSR cache format and load it back (what
/// `analyze --save-bin` then `--graph x.tfg` does), timing both and checking
/// the loaded graph is the saved one.
pub fn binio_roundtrip(run: &mut Run, g: &Graph) {
    let path = scratch("roundtrip.tfg");
    let made = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    let (loaded, secs) = timed(|| {
        binio::save(g, &path)
            .map_err(binio::BinError::from)
            .and_then(|()| binio::load(&path))
    });
    run.tally.attempt(1);
    match (made, loaded) {
        (Ok(()), Ok(back)) => run
            .tally
            .check(back == *g, || "binio: loaded graph differs".into()),
        (Err(e), _) => run.tally.fail(format!("binio: {e}")),
        (_, Err(e)) => run.tally.fail(format!("binio: {e}")),
    }
    run.metrics.set("graph.binio_roundtrip_s", secs);
    remove_scratch();
}

/// The vertex with the most out-edges; ties go to the lowest id. Vertex 0
/// of an R-MAT graph may have no out-edges at all, which turns a
/// traversal into a one-vertex no-op.
pub fn max_out_degree_vertex(g: &Graph) -> VertexId {
    let mut best = (0, 0);
    for v in g.vertices() {
        if g.degree(v) > best.1 {
            best = (v, g.degree(v));
        }
    }
    best.0
}

/// Zipfian picker over `0..n` (Gray et al.'s inversion, as in YCSB): rank
/// 0 is hottest, popularity falls as `1/rank^theta`. Ranks are scattered
/// over vertex ids by a seeded multiplier so the hot set is not the
/// low-id prefix.
pub fn zipfian_picker(n: usize, theta: f64, seed: u64) -> impl Fn(u64) -> VertexId + Sync {
    assert!(theta > 0.0 && theta < 1.0, "theta must lie in (0, 1)");
    let n = n.max(1) as u64;
    let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let zeta2 = 1.0 + 0.5f64.powf(theta);
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
    // An odd multiplier is a bijection on 0..2^k; n is a power of two at
    // every scale, and for other n the modulo only folds a few ranks.
    let scatter = mix(seed) | 1;
    move |i| {
        let u =
            (mix(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < zeta2 {
            1
        } else {
            (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64
        };
        (rank.min(n - 1).wrapping_mul(scatter) % n) as VertexId
    }
}

/// Seeded 70/25/5 add-edge / remove-edge / add-vertex script over a graph
/// that starts with `base_nv` vertices and may grow to `capacity`.
pub fn mutation_script(base_nv: usize, capacity: usize, count: usize, seed: u64) -> Vec<Mutation> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(1);
        mix(state)
    };
    let mut live = base_nv as u32;
    let mut script = Vec::with_capacity(count);
    while script.len() < count {
        let roll = next() % 100;
        let src = (next() % u64::from(live)) as VertexId;
        let mut dst = (next() % u64::from(live)) as VertexId;
        if dst == src {
            dst = (dst + 1) % live;
        }
        if roll < 70 {
            script.push(Mutation::AddEdge {
                src,
                dst,
                weight: 0,
            });
        } else if roll < 95 {
            script.push(Mutation::RemoveEdge { src, dst });
        } else if (live as usize) < capacity {
            live += 1;
            script.push(Mutation::AddVertex);
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_picker_is_pure_and_bounded() {
        let z = zipfian_picker(1024, 0.9, 7);
        for i in 0..10_000 {
            assert!(z(i) < 1024);
            assert_eq!(z(i), z(i));
        }
        assert_ne!(
            (0..64).map(&z).collect::<Vec<_>>(),
            (0..64)
                .map(zipfian_picker(1024, 0.9, 8))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn zipfian_is_skewed() {
        let z = zipfian_picker(1 << 12, 0.9, 3);
        let mut counts = vec![0u32; 1 << 12];
        for i in 0..100_000 {
            counts[z(i) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = counts[..41].iter().sum(); // hottest 1 %
        assert!(top > 30_000, "hottest 1% drew {top} of 100000");
    }

    #[test]
    fn seeds_relabel_one_topology() {
        let mut tr = Tracer::new(false);
        let (a, _) = build_graph(8, 8, 1, Shape::InEdges, &mut tr);
        let (b, _) = build_graph(8, 8, 2, Shape::InEdges, &mut tr);
        let (a2, _) = build_graph(8, 8, 1, Shape::InEdges, &mut tr);
        assert!(a == a2, "the same seed gives the same graph");
        assert!(a != b, "another seed gives another labeling");
        let degrees = |g: &Graph| {
            let mut d: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&a), degrees(&b), "of the same degree sequence");
        let mut p = permutation(1000, 9);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i == v as usize));
    }

    #[test]
    fn source_is_lowest_id_among_max_degree() {
        let mut b = GraphBuilder::new(5);
        for (s, d) in [(1, 0), (1, 2), (3, 0), (3, 4), (4, 0)] {
            b.add_edge(s, d);
        }
        assert_eq!(max_out_degree_vertex(&b.build()), 1);
    }

    #[test]
    fn script_is_seeded_and_respects_capacity() {
        let a = mutation_script(100, 110, 2_000, 5);
        assert_eq!(a, mutation_script(100, 110, 2_000, 5));
        assert_ne!(a, mutation_script(100, 110, 2_000, 6));
        let added = a.iter().filter(|m| **m == Mutation::AddVertex).count();
        assert_eq!(added, 10);
        let adds = a
            .iter()
            .filter(|m| matches!(m, Mutation::AddEdge { .. }))
            .count();
        assert!((1_300..1_600).contains(&adds), "{adds} add-edges of 2000");
    }
}
