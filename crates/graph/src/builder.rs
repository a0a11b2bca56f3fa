//! Edge-list accumulation and counting-sort CSR construction.

use crate::csr::{counts_to_cursors, Csr, Graph, Reverse, VertexId};

/// Accumulates edges and builds a [`Graph`].
///
/// The built graph has every adjacency list sorted ascending, with
/// duplicates and self-loops removed by default (the paper's analytics
/// treat graphs as simple); the builder can symmetrise (for the undirected
/// MIS/matching workloads) and materialise in-edges (for pull-style
/// PageRank).
///
/// [`build`](Self::build) is a counting sort, `O(m + n)` scatter plus a
/// local sort per adjacency list, with no comparison sort over the whole
/// edge list (DESIGN.md §4.6). Memory bound: at its peak it holds the
/// buffered pairs, one `n + 1` offsets array and one 4-byte target per
/// directed edge of the result (8 bytes, target and weight packed, on the
/// weighted path); `symmetric()` mirrors while scattering rather than
/// doubling the pairs, and the pairs are freed before in-edges are built.
/// `symmetric().with_in_edges()` builds and holds one CSR: the graph is its
/// own transpose ([`Graph::reverse_is_forward`]).
#[derive(Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<u32>,
    weighted: bool,
    keep_duplicates: bool,
    keep_self_loops: bool,
    symmetric: bool,
    in_edges: bool,
}

impl GraphBuilder {
    /// Start a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(num_vertices < u32::MAX as usize, "vertex id overflow");
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            weights: Vec::new(),
            weighted: false,
            keep_duplicates: false,
            keep_self_loops: false,
            symmetric: false,
            in_edges: false,
        }
    }

    /// Pre-size the edge buffer (and the weight buffer, once the first
    /// weighted edge shows the graph is weighted).
    pub fn with_edge_capacity(mut self, cap: usize) -> Self {
        self.edges.reserve(cap);
        self
    }

    /// Add a directed edge.
    ///
    /// # Panics
    /// If either endpoint is out of range, or if weighted edges were added
    /// before (mixing is an error).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(!self.weighted, "cannot mix weighted and unweighted edges");
        self.check(src, dst);
        self.edges.push((src, dst));
    }

    /// Add a directed edge with a weight.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: u32) {
        assert!(
            self.weights.len() == self.edges.len(),
            "cannot mix weighted and unweighted edges"
        );
        self.weighted = true;
        self.check(src, dst);
        if self.weights.is_empty() {
            // Whatever `with_edge_capacity` asked for, for weights as well.
            self.weights.reserve(self.edges.capacity());
        }
        self.edges.push((src, dst));
        self.weights.push(weight);
    }

    #[inline]
    fn check(&self, src: VertexId, dst: VertexId) {
        assert!((src as usize) < self.num_vertices, "src {src} out of range");
        assert!((dst as usize) < self.num_vertices, "dst {dst} out of range");
    }

    /// Keep parallel edges instead of deduplicating.
    pub fn keep_duplicates(mut self) -> Self {
        self.keep_duplicates = true;
        self
    }

    /// Keep self-loops instead of dropping them.
    pub fn keep_self_loops(mut self) -> Self {
        self.keep_self_loops = true;
        self
    }

    /// Add the reverse of every edge before building (undirected view).
    pub fn symmetric(mut self) -> Self {
        self.symmetric = true;
        self
    }

    /// Materialise the reverse adjacency as well.
    pub fn with_in_edges(mut self) -> Self {
        self.in_edges = true;
        self
    }

    /// Number of edges currently buffered.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges are buffered.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Build the graph, consuming the builder.
    pub fn build(self) -> Graph {
        let GraphBuilder {
            num_vertices: n,
            edges,
            weights,
            weighted,
            keep_duplicates,
            keep_self_loops,
            symmetric,
            in_edges,
        } = self;
        let arcs = Arcs {
            edges: &edges,
            symmetric,
            keep_self_loops,
        };

        let (out, out_weights) = if weighted {
            // A slot is `target << 32 | weight`: sorting slots orders a list
            // by target, then by weight, so the first of a run of one
            // target carries the smallest weight — the one dedup keeps.
            let (mut offsets, mut slots) =
                arcs.bucket(n, |i, dst| u64::from(dst) << 32 | u64::from(weights[i]));
            drop((edges, weights));
            sort_and_clean(&mut offsets, &mut slots, keep_duplicates, |slot| slot >> 32);
            let targets = slots.iter().map(|&slot| (slot >> 32) as VertexId).collect();
            let out_weights = slots.iter().map(|&slot| slot as u32).collect();
            (Csr::new(offsets, targets), Some(out_weights))
        } else {
            let (mut offsets, mut targets) = arcs.bucket(n, |_, dst| dst);
            drop(edges);
            sort_and_clean(&mut offsets, &mut targets, keep_duplicates, |dst| dst);
            (Csr::new(offsets, targets), None)
        };
        // A symmetrised adjacency is its own transpose (sorted lists, each
        // arc beside its mirror): nothing to build, nothing to store.
        let rev = match (in_edges, symmetric) {
            (false, _) => Reverse::Absent,
            (true, true) => Reverse::Forward,
            (true, false) => Reverse::Stored(out.transposed()),
        };
        Graph::from_parts(out, rev, out_weights)
    }
}

/// The directed edges a build keeps from the buffered pairs.
struct Arcs<'a> {
    edges: &'a [(VertexId, VertexId)],
    symmetric: bool,
    keep_self_loops: bool,
}

impl Arcs<'_> {
    /// Call `f(pair index, src, dst)` for every pair that is kept and,
    /// when symmetrising, for its mirror right after it.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, VertexId, VertexId)) {
        for (i, &(src, dst)) in self.edges.iter().enumerate() {
            if src == dst && !self.keep_self_loops {
                continue;
            }
            f(i, src, dst);
            if self.symmetric {
                f(i, dst, src);
            }
        }
    }

    /// Counting sort by source: count, prefix-sum, scatter `slot(pair
    /// index, dst)`. Returns the bucket offsets (`n + 1` of them) and the
    /// slots, each bucket in input order.
    fn bucket<T: Copy + Default>(
        &self,
        n: usize,
        slot: impl Fn(usize, VertexId) -> T,
    ) -> (Vec<u64>, Vec<T>) {
        let mut offsets = vec![0u64; n + 1];
        self.for_each(|_, src, _| offsets[src as usize + 1] += 1);
        let mut slots = vec![T::default(); counts_to_cursors(&mut offsets)];
        self.for_each(|i, src, dst| {
            let cursor = &mut offsets[src as usize + 1];
            slots[*cursor as usize] = slot(i, dst);
            *cursor += 1;
        });
        (offsets, slots)
    }
}

/// Sort every bucket and, unless duplicates are kept, drop all but the
/// first slot of each run with one `target`; the survivors are compacted
/// to the front of `slots` and their offsets written over the bucket
/// offsets (the write position never passes the read position).
fn sort_and_clean<T: Copy + Ord>(
    offsets: &mut [u64],
    slots: &mut Vec<T>,
    keep_duplicates: bool,
    target: impl Fn(T) -> T,
) {
    let mut start = 0usize;
    let mut kept = 0usize;
    for end in &mut offsets[1..] {
        let bucket = start..*end as usize;
        start = bucket.end;
        slots[bucket.clone()].sort_unstable();
        if keep_duplicates {
            continue; // nothing dropped: bucket offsets are final
        }
        let first = kept;
        for i in bucket {
            if kept == first || target(slots[kept - 1]) != target(slots[i]) {
                slots[kept] = slots[i];
                kept += 1;
            }
        }
        *end = kept as u64;
    }
    if !keep_duplicates {
        slots.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn keep_duplicates_and_loops_when_requested() {
        let mut b = GraphBuilder::new(2).keep_duplicates().keep_self_loops();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn symmetric_adds_reverse_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.symmetric().build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn symmetric_dedups_mutual_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.symmetric().build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn weights_follow_edges_through_sorting() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(2, 0, 99);
        b.add_weighted_edge(0, 2, 7);
        b.add_weighted_edge(0, 1, 5);
        let g = b.build();
        assert_eq!(
            g.weighted_neighbors(0).collect::<Vec<_>>(),
            vec![(1, 5), (2, 7)]
        );
        assert_eq!(g.weighted_neighbors(2).collect::<Vec<_>>(), vec![(0, 99)]);
    }

    #[test]
    fn duplicate_weighted_edges_keep_smallest_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 9);
        b.add_weighted_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.weighted_neighbors(0).collect::<Vec<_>>(), vec![(1, 3)]);
    }

    #[test]
    fn symmetric_weighted_graph_mirrors_weights() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 4);
        let g = b.symmetric().build();
        assert_eq!(g.weighted_neighbors(1).collect::<Vec<_>>(), vec![(0, 4)]);
    }

    #[test]
    fn edge_capacity_covers_weights() {
        let mut b = GraphBuilder::new(4).with_edge_capacity(1000);
        b.add_weighted_edge(0, 1, 5);
        assert!(b.weights.capacity() >= 1000);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "mix")]
    fn mixing_weighted_and_unweighted_panics() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_weighted_edge(1, 2, 1);
    }
}
