//! Shared by the graph-construction tests here and by the root
//! `tests/graph_build_gate.rs`: a structural hash for pinning graphs, and a
//! reference builder that spells the builder's contract out with one
//! global sort.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

use tufast_graph::{gen, Csr, Graph, GraphBuilder, VertexId};

/// FNV-1a over the vertex count, both CSRs (each vertex's end offset, then
/// its neighbours) and the weight array; an absent part hashes `u64::MAX`.
pub fn structural_hash(g: &Graph) -> u64 {
    fn eat(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    let mut h = 0xCBF2_9CE4_8422_2325;
    eat(&mut h, g.num_vertices() as u64);
    for csr in [Some(g.forward()), g.reverse()] {
        let Some(csr) = csr else {
            eat(&mut h, u64::MAX);
            continue;
        };
        for v in g.vertices() {
            eat(&mut h, csr.edge_range(v).end as u64);
            for &t in csr.neighbors(v) {
                eat(&mut h, u64::from(t));
            }
        }
    }
    match g.weights() {
        Some(ws) => ws.iter().for_each(|&w| eat(&mut h, u64::from(w))),
        None => eat(&mut h, u64::MAX),
    }
    h
}

/// `g` rebuilt symmetric and with in-edges: what `analyze::prepare` and
/// the benchmark do to a generated graph.
pub fn symmetric_with_in_edges(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices()).with_edge_capacity(g.num_edges() as usize);
    for (s, d) in g.edges() {
        b.add_edge(s, d);
    }
    b.symmetric().with_in_edges().build()
}

/// Assert the structural hashes of `gen::rmat(scale, edge_factor, seed)`,
/// of its symmetric rebuild with in-edges, and of that with weights.
pub fn pin_rmat(scale: u32, edge_factor: usize, seed: u64, want: [u64; 3]) {
    let raw = gen::rmat(scale, edge_factor, seed);
    let sym = symmetric_with_in_edges(&raw);
    let weighted = gen::with_random_weights(&sym, 100, 99);
    let got = [&raw, &sym, &weighted].map(structural_hash);
    assert_eq!(
        got, want,
        "rmat({scale}, {edge_factor}, {seed:#x}): raw / symmetric+in-edges / weighted \
         (got {got:#018x?})"
    );
}

/// The gated benchmark's topology (`benchmark/src/inputs.rs`), bit for bit
/// as it was before the counting-sort builder.
pub fn pin_benchmark_topology() {
    pin_rmat(
        13,
        37,
        0x7117,
        [
            0x9d26_e8d0_6b2b_f69b,
            0x8359_c4b4_d82e_e86d,
            0xc491_cc09_62cb_2a55,
        ],
    );
}

/// The builder's five independent switches.
#[derive(Clone, Copy, Debug)]
pub struct Flags {
    pub symmetric: bool,
    pub in_edges: bool,
    pub weighted: bool,
    pub keep_duplicates: bool,
    pub keep_self_loops: bool,
}

impl Flags {
    /// One of the 32 combinations, from the low five bits.
    pub fn from_bits(bits: u32) -> Flags {
        Flags {
            symmetric: bits & 1 != 0,
            in_edges: bits & 2 != 0,
            weighted: bits & 4 != 0,
            keep_duplicates: bits & 8 != 0,
            keep_self_loops: bits & 16 != 0,
        }
    }

    /// All 32 combinations.
    pub fn all() -> impl Iterator<Item = Flags> {
        (0..32).map(Flags::from_bits)
    }
}

/// Every array of a [`Graph`]: adjacency lists per vertex in both
/// directions, and the weights in out-edge order.
#[derive(Debug, PartialEq, Eq)]
pub struct Arrays {
    pub out: Vec<Vec<VertexId>>,
    pub rev: Option<Vec<Vec<VertexId>>>,
    pub weights: Option<Vec<u32>>,
}

impl Arrays {
    pub fn of(g: &Graph) -> Arrays {
        let lists = |csr: &Csr| g.vertices().map(|v| csr.neighbors(v).to_vec()).collect();
        Arrays {
            out: lists(g.forward()),
            rev: g.reverse().map(lists),
            weights: g.weights().map(<[u32]>::to_vec),
        }
    }
}

/// The builder's contract spelled out: mirror, sort the `(src, dst,
/// weight)` triples, drop self-loops, dedup keeping the smallest weight;
/// in-edges are the sorted transpose. Unweighted edges all weigh zero here,
/// and a builder that was given no edge is unweighted.
pub fn reference(n: usize, edges: &[(VertexId, VertexId, u32)], f: Flags) -> Arrays {
    let weight = |w| if f.weighted { w } else { 0 };
    let mut arcs: Vec<_> = edges.iter().map(|&(s, d, w)| (s, d, weight(w))).collect();
    if f.symmetric {
        arcs.extend(edges.iter().map(|&(s, d, w)| (d, s, weight(w))));
    }
    arcs.sort_unstable();
    if !f.keep_self_loops {
        arcs.retain(|&(s, d, _)| s != d);
    }
    if !f.keep_duplicates {
        arcs.dedup_by_key(|&mut (s, d, _)| (s, d));
    }
    let mut out = vec![Vec::new(); n];
    for &(s, d, _) in &arcs {
        out[s as usize].push(d);
    }
    let mut transposed: Vec<_> = arcs.iter().map(|&(s, d, _)| (d, s)).collect();
    transposed.sort_unstable();
    let mut rev = vec![Vec::new(); n];
    for (d, s) in transposed {
        rev[d as usize].push(s);
    }
    let weights = arcs.iter().map(|&(_, _, w)| w).collect();
    Arrays {
        out,
        rev: f.in_edges.then_some(rev),
        weights: (f.weighted && !edges.is_empty()).then_some(weights),
    }
}

/// The builder under test on the same input (weights ignored unless
/// `f.weighted`).
pub fn build(n: usize, edges: &[(VertexId, VertexId, u32)], f: Flags) -> Graph {
    let mut b = GraphBuilder::new(n).with_edge_capacity(edges.len());
    for &(s, d, w) in edges {
        if f.weighted {
            b.add_weighted_edge(s, d, w);
        } else {
            b.add_edge(s, d);
        }
    }
    if f.symmetric {
        b = b.symmetric();
    }
    if f.in_edges {
        b = b.with_in_edges();
    }
    if f.keep_duplicates {
        b = b.keep_duplicates();
    }
    if f.keep_self_loops {
        b = b.keep_self_loops();
    }
    b.build()
}

/// Assert the builder agrees with the reference under all 32 switch
/// combinations, and that the order edges were added in does not show.
pub fn assert_matches_reference(n: usize, edges: &[(VertexId, VertexId, u32)]) {
    let backwards: Vec<_> = edges.iter().rev().copied().collect();
    for f in Flags::all() {
        let g = build(n, edges, f);
        assert_eq!(
            Arrays::of(&g),
            reference(n, edges, f),
            "{f:?} on {n} vertices, edges {edges:?}"
        );
        assert!(
            g == build(n, &backwards, f),
            "{f:?}: input order shows, edges {edges:?}"
        );
    }
}
