//! `analyze` — a small end-to-end CLI a downstream user would actually run:
//! load (or generate) a graph, pick an algorithm and a scheduler, go.
//!
//! ```text
//! cargo run --release --example analyze -- --algo pagerank --graph rmat:12:16
//! cargo run --release --example analyze -- --algo sssp --sched 2pl --graph grid:200:200
//! cargo run --release --example analyze -- --algo wcc --graph path/to/edges.txt
//! cargo run --release --example analyze -- --algo bfs --graph path/to/graph.tfg --save-bin cache.tfg
//! ```
//!
//! Graph specs: `rmat:<scale>:<edge-factor>`, `ba:<n>:<m>`, `grid:<w>:<h>`,
//! a SNAP edge-list path, or a `.tfg` binary cache. Schedulers: `tufast`
//! (default), `2pl`, `occ`, `to`, `stm`, `hsync`, `hto`.

use std::sync::Arc;

use tufast_suite::algos;
use tufast_suite::graph::{binio, gen, load, Graph, GraphBuilder};
use tufast_suite::tufast::TuFast;
use tufast_suite::txn::{
    GraphScheduler, HSyncLike, HTimestampOrdering, Occ, SoftwareTm, TimestampOrdering,
    TwoPhaseLocking, TxnSystem, TxnWorker,
};

struct Args {
    algo: String,
    sched: String,
    graph: String,
    threads: usize,
    source: u32,
    save_bin: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        algo: "pagerank".into(),
        sched: "tufast".into(),
        graph: "rmat:12:16".into(),
        threads: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
        source: 0,
        save_bin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--algo" => out.algo = val("--algo"),
            "--sched" => out.sched = val("--sched"),
            "--graph" => out.graph = val("--graph"),
            "--threads" => out.threads = val("--threads").parse().expect("--threads"),
            "--source" => out.source = val("--source").parse().expect("--source"),
            "--save-bin" => out.save_bin = Some(val("--save-bin")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: analyze --algo <pagerank|bfs|wcc|triangle|sssp|mis|matching|coloring> \
                     [--sched <tufast|2pl|occ|to|stm|hsync|hto>] [--graph <spec>] \
                     [--threads N] [--source V] [--save-bin out.tfg]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }
    out
}

fn build_graph(spec: &str) -> Graph {
    if let Some(rest) = spec.strip_prefix("rmat:") {
        let (scale, ef) = rest.split_once(':').expect("rmat:<scale>:<edge-factor>");
        return gen::rmat(scale.parse().unwrap(), ef.parse().unwrap(), 42);
    }
    if let Some(rest) = spec.strip_prefix("ba:") {
        let (n, m) = rest.split_once(':').expect("ba:<n>:<m>");
        return gen::barabasi_albert(n.parse().unwrap(), m.parse().unwrap(), 42);
    }
    if let Some(rest) = spec.strip_prefix("grid:") {
        let (w, h) = rest.split_once(':').expect("grid:<w>:<h>");
        return gen::grid2d(w.parse().unwrap(), h.parse().unwrap());
    }
    let path = std::path::Path::new(spec);
    if spec.ends_with(".tfg") {
        return binio::load(path).expect("load binary graph");
    }
    load::load_edge_list(path, load::LoadOptions::default()).expect("load edge list")
}

/// Rebuild the graph with what the chosen algorithm needs: in-edges
/// always, symmetry for the undirected algorithms.
fn prepare(g: Graph, algo: &str) -> Graph {
    let needs_sym = matches!(algo, "triangle" | "mis" | "matching" | "coloring" | "wcc");
    let mut b = GraphBuilder::new(g.num_vertices()).with_edge_capacity(g.num_edges() as usize);
    for (s, d) in g.edges() {
        b.add_edge(s, d);
    }
    if needs_sym {
        b = b.symmetric();
    }
    b.with_in_edges().build()
}

/// `f`'s result and its wall time in milliseconds.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let args = parse_args();
    // The set-up steps the benchmark reports as `graph.generate_s`,
    // `graph.build_s` and `graph.reshape`.
    let (g, load_ms) = timed_ms(|| build_graph(&args.graph));
    let (g, build_ms) = timed_ms(|| prepare(g, &args.algo));
    let (g, reshape_ms) = timed_ms(|| match args.algo.as_str() {
        "sssp" => gen::with_random_weights(&g, 100, 7),
        _ => g,
    });
    println!(
        "graph ready: {} vertices, {} edges, avg degree {:.2} ({:.1} ms: \
         generate/load {load_ms:.1}, build {build_ms:.1}, reshape {reshape_ms:.1})",
        g.num_vertices(),
        g.num_edges(),
        g.avg_degree(),
        load_ms + build_ms + reshape_ms
    );
    if let Some(path) = &args.save_bin {
        binio::save(&g, std::path::Path::new(path)).expect("save binary cache");
        println!("binary cache written to {path}");
    }

    macro_rules! dispatch {
        ($ctor:expr) => {{
            run_algorithm(&g, &args, $ctor)
        }};
    }
    match args.sched.as_str() {
        "tufast" => dispatch!(TuFast::new),
        "2pl" => dispatch!(TwoPhaseLocking::new),
        "occ" => dispatch!(Occ::new),
        "to" => dispatch!(TimestampOrdering::new),
        "stm" => dispatch!(SoftwareTm::new),
        "hsync" => dispatch!(HSyncLike::new),
        "hto" => dispatch!(HTimestampOrdering::new),
        other => panic!("unknown scheduler {other:?}"),
    }
}

fn run_algorithm<S: GraphScheduler>(g: &Graph, args: &Args, ctor: impl FnOnce(Arc<TxnSystem>) -> S)
where
    S::Worker: TxnWorker,
{
    let t = args.threads;
    let t0 = std::time::Instant::now();
    match args.algo.as_str() {
        "pagerank" => {
            let built = algos::setup(g, algos::pagerank::PageRankSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let ranks =
                algos::pagerank::parallel(g, &sched, &built.sys, &built.space, t, 0.85, 1e-9);
            let mut order: Vec<usize> = (0..ranks.len()).collect();
            order.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
            println!(
                "PageRank converged in {:.1} ms; top vertices:",
                t0.elapsed().as_secs_f64() * 1e3
            );
            for &v in order.iter().take(5) {
                println!("  vertex {v:>8}  rank {:.6}", ranks[v]);
            }
        }
        "bfs" => {
            let built = algos::setup(g, algos::bfs::BfsSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let dist = algos::bfs::parallel(g, &sched, &built.sys, &built.space, args.source, t);
            let reached = dist.iter().filter(|&&d| d != u64::MAX).count();
            let ecc = dist
                .iter()
                .filter(|&&d| d != u64::MAX)
                .max()
                .copied()
                .unwrap_or(0);
            println!(
                "BFS from {} in {:.1} ms: reached {reached} vertices, eccentricity {ecc}",
                args.source,
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        "wcc" => {
            let built = algos::setup(g, algos::wcc::WccSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let labels = algos::wcc::parallel(g, &sched, &built.sys, &built.space, t);
            println!(
                "Components in {:.1} ms: {} weakly connected components",
                t0.elapsed().as_secs_f64() * 1e3,
                algos::wcc::component_count(&labels)
            );
        }
        "triangle" => {
            let built = algos::setup(g, |l, _| l.alloc("unused", 1));
            let sched = ctor(Arc::clone(&built.sys));
            let count = algos::triangle::parallel(g, &sched, &built.sys, t);
            println!(
                "Triangles in {:.1} ms: {count}",
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        "sssp" => {
            let built = algos::setup(g, algos::sssp::SsspSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let dist = algos::sssp::parallel(
                g,
                &sched,
                &built.sys,
                &built.space,
                args.source,
                t,
                algos::sssp::QueueKind::Priority,
            );
            let reached = dist.iter().filter(|&&d| d != u64::MAX).count();
            println!(
                "SSSP (SPFA) from {} in {:.1} ms: reached {reached} vertices",
                args.source,
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        "mis" => {
            let built = algos::setup(g, algos::mis::MisSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let state = algos::mis::parallel(g, &sched, &built.sys, &built.space, t);
            algos::mis::validate(g, &state).expect("MIS invalid");
            let size = state.iter().filter(|&&s| s == algos::mis::IN_SET).count();
            println!(
                "MIS in {:.1} ms: {size} vertices (validated)",
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        "matching" => {
            let built = algos::setup(g, algos::matching::MatchingSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let m = algos::matching::parallel(g, &sched, &built.sys, &built.space, t);
            algos::matching::validate(g, &m).expect("matching invalid");
            println!(
                "Maximal matching in {:.1} ms: {} pairs (validated)",
                t0.elapsed().as_secs_f64() * 1e3,
                algos::matching::matching_size(&m)
            );
        }
        "coloring" => {
            let built = algos::setup(g, algos::coloring::ColoringSpace::alloc);
            let sched = ctor(Arc::clone(&built.sys));
            let colors = algos::coloring::parallel(g, &sched, &built.sys, &built.space, t);
            let used = algos::coloring::validate(g, &colors).expect("coloring invalid");
            println!(
                "Coloring in {:.1} ms: {used} colors (validated)",
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        other => panic!("unknown algorithm {other:?} (try --help)"),
    }
}
