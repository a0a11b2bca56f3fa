//! Compressed-sparse-row adjacency storage.

/// Vertex identifier. `u32` bounds graphs at ~4.2 B vertices, far beyond the
/// laptop-scale stand-ins this reproduction runs on, while halving the
/// memory traffic of the hot adjacency arrays versus `usize`.
pub type VertexId = u32;

/// One direction of adjacency in CSR form: `targets[offsets[v]..offsets[v+1]]`
/// are the neighbours of `v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Box<[u64]>,
    targets: Box<[VertexId]>,
}

impl Csr {
    pub(crate) fn new(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
        }
    }

    /// The reverse adjacency, by counting sort on the target. Walking
    /// sources in ascending order fills every in-list in ascending order
    /// (parallel edges side by side), so nothing is sorted.
    pub(crate) fn transposed(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for &dst in self.targets.iter() {
            offsets[dst as usize + 1] += 1;
        }
        counts_to_cursors(&mut offsets);
        let mut sources = vec![0; self.targets.len()];
        for src in 0..n as VertexId {
            for &dst in self.neighbors(src) {
                let cursor = &mut offsets[dst as usize + 1];
                sources[*cursor as usize] = src;
                *cursor += 1;
            }
        }
        Csr::new(offsets, sources)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbours of `v` (sorted ascending, duplicates removed by the builder
    /// unless multi-edges were requested).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Index range of `v`'s edges in the target array — the edge ids, used
    /// to look up per-edge weights.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }
}

/// Second step of a counting sort whose first step counted list `v`'s
/// entries into `offsets[v + 1]`: a shifted exclusive prefix sum, after
/// which `offsets[v + 1]` is where list `v` starts. The scatter uses that
/// cell as the list's write cursor, so that once the list is full the cell
/// has become where the list ends — the finished CSR offsets, with no
/// second cursor array. Returns the number of entries.
pub(crate) fn counts_to_cursors(offsets: &mut [u64]) -> usize {
    let mut total = 0u64;
    for cursor in &mut offsets[1..] {
        total += std::mem::replace(cursor, total);
    }
    total as usize
}

/// The reverse adjacency of a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Reverse {
    /// Built without in-edges.
    Absent,
    /// The graph equals its transpose (every undirected input): the
    /// forward arrays answer for both directions and no copy is held.
    Forward,
    /// A transpose that differs from the forward adjacency.
    Stored(Csr),
}

/// A directed graph in CSR form, with optional reverse adjacency and
/// optional `u32` edge weights (aligned with the out-edge array).
///
/// Equality is structural over every array — the durability matrix in
/// `tufast-check` relies on it to prove recovery is *bitwise* exact. It
/// can stay derived because the form is canonical: a reverse adjacency
/// equal to the forward one is never stored ([`Graph::from_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    out: Csr,
    rev: Reverse,
    weights: Option<Box<[u32]>>,
}

impl Graph {
    /// Every producer ends here, so every graph is canonical: a stored
    /// reverse equal to `out` is dropped for [`Reverse::Forward`] (the
    /// comparison leaves at the first differing offset or target).
    pub(crate) fn from_parts(out: Csr, rev: Reverse, weights: Option<Vec<u32>>) -> Self {
        if let Some(w) = &weights {
            assert_eq!(w.len() as u64, out.num_edges(), "one weight per out-edge");
        }
        let rev = match rev {
            Reverse::Stored(rev) if rev == out => Reverse::Forward,
            Reverse::Forward => {
                debug_assert!(out.transposed() == out, "not its own transpose");
                Reverse::Forward
            }
            other => other,
        };
        Graph {
            out,
            rev,
            weights: weights.map(Vec::into_boxed_slice),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.out.num_edges()
    }

    /// Average out-degree (the paper's Table II `|E|/|V|` column).
    pub fn avg_degree(&self) -> f64 {
        self.num_edges() as f64 / self.num_vertices().max(1) as f64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Edge-id range of `v`'s out-edges (for weight lookups).
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.out.edge_range(v)
    }

    /// Out-neighbours of `v` zipped with their weights.
    ///
    /// # Panics
    /// If the graph has no weights.
    #[inline]
    pub fn weighted_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let range = self.out.edge_range(v);
        let w = self.weights.as_ref().expect("graph has no edge weights");
        self.out
            .neighbors(v)
            .iter()
            .copied()
            .zip(w[range].iter().copied())
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    /// If the graph was built without in-edges.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.rev().degree(v)
    }

    /// In-neighbours of `v`.
    ///
    /// # Panics
    /// If the graph was built without in-edges.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.rev().neighbors(v)
    }

    /// The reverse adjacency, if materialised.
    #[inline]
    pub fn reverse(&self) -> Option<&Csr> {
        match &self.rev {
            Reverse::Absent => None,
            Reverse::Forward => Some(&self.out),
            Reverse::Stored(rev) => Some(rev),
        }
    }

    /// Whether the graph carries in-edges and equals its transpose, so
    /// that [`reverse`](Self::reverse) *is* [`forward`](Self::forward):
    /// every in-list is the out-list of the same vertex.
    #[inline]
    pub fn reverse_is_forward(&self) -> bool {
        matches!(self.rev, Reverse::Forward)
    }

    /// `v`'s neighbours in the undirected view, each adjacency entry
    /// once: the out-edges, then the in-edges when the graph stores a
    /// transpose of its own. A symmetric graph's out-list already is that
    /// neighbourhood, with or without in-edges.
    #[inline]
    pub fn undirected(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let ins = match &self.rev {
            Reverse::Stored(rev) => rev.neighbors(v),
            Reverse::Absent | Reverse::Forward => &[],
        };
        self.out.neighbors(v).iter().chain(ins).copied()
    }

    /// The reverse adjacency as [`from_parts`](Self::from_parts) takes it.
    pub(crate) fn reverse_parts(&self) -> &Reverse {
        &self.rev
    }

    /// The forward adjacency.
    #[inline]
    pub fn forward(&self) -> &Csr {
        &self.out
    }

    /// Whether edge weights are present.
    #[inline]
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// Per-edge weights aligned with the out-edge array, if present.
    #[inline]
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Iterate all vertices.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Iterate all directed edges as `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Maximum out-degree and the vertex attaining it.
    pub fn max_degree(&self) -> (VertexId, usize) {
        self.vertices()
            .map(|v| (v, self.degree(v)))
            .max_by_key(|&(_, d)| d)
            .unwrap_or((0, 0))
    }

    fn rev(&self) -> &Csr {
        self.reverse()
            .expect("graph built without in-edges; use GraphBuilder::with_in_edges")
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn diamond() -> crate::Graph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.with_in_edges().build()
    }

    #[test]
    fn csr_basics() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_adjacency() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[u32]);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn edges_iterator_enumerates_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn max_degree_finds_hub() {
        let mut b = GraphBuilder::new(5);
        for u in 1..5 {
            b.add_edge(0, u);
        }
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.max_degree(), (0, 4));
    }

    #[test]
    fn weighted_neighbors_align() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(0, 2, 20);
        let g = b.build();
        let wn: Vec<_> = g.weighted_neighbors(0).collect();
        assert_eq!(wn, vec![(1, 10), (2, 20)]);
    }

    #[test]
    #[should_panic(expected = "no edge weights")]
    fn weighted_access_without_weights_panics() {
        let g = diamond();
        let _ = g.weighted_neighbors(0).count();
    }
}
