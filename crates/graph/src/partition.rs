//! Vertex partitioners for the simulated distributed engines (paper Fig. 12).
//!
//! PowerGraph partitions by *vertex-cut*, PowerLyra by *hybrid-cut*
//! (vertex-cut only for high-degree vertices). For the cost model in
//! `tufast-engines::gas` what matters is (a) which machine owns each vertex
//! and (b) how many remote replicas (mirrors) each vertex needs — the
//! replication factor drives the simulated communication volume.

use crate::csr::{Graph, VertexId};

/// A vertex-to-machine assignment plus mirror counts.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Number of machines.
    pub machines: usize,
    /// `owner[v]` = machine that owns vertex `v`.
    pub owner: Vec<u32>,
    /// `mirrors[v]` = number of machines (excluding the owner) holding a
    /// replica of `v` because an incident edge lives there.
    pub mirrors: Vec<u32>,
}

impl Partition {
    /// Average number of replicas per vertex (owner + mirrors) — the
    /// replication factor reported in the PowerGraph/PowerLyra papers.
    pub fn replication_factor(&self) -> f64 {
        if self.owner.is_empty() {
            return 0.0;
        }
        let total: u64 = self.mirrors.iter().map(|&m| u64::from(m) + 1).sum();
        total as f64 / self.owner.len() as f64
    }

    /// Vertices owned by each machine.
    pub fn owned_per_machine(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.machines];
        for &o in &self.owner {
            counts[o as usize] += 1;
        }
        counts
    }
}

#[inline]
fn hash_vertex(v: VertexId) -> u64 {
    u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[inline]
fn owner_of(v: VertexId, machines: usize) -> u32 {
    (hash_vertex(v) % machines as u64) as u32
}

fn mirrors_for(g: &Graph, owner: &[u32], machines: usize) -> Vec<u32> {
    let mut mirrors = vec![0u32; g.num_vertices()];
    let mut seen = vec![u64::MAX; g.num_vertices()]; // bitmap per vertex would be big; use u64 as machine set (machines ≤ 64)
    assert!(
        machines <= 64,
        "cost model supports up to 64 simulated machines"
    );
    for v in g.vertices() {
        seen[v as usize] = 0;
    }
    for (s, d) in g.edges() {
        // An edge is placed on the machine owning its source (edge-cut
        // placement); both endpoints need replicas there.
        let m = owner[s as usize];
        for &v in &[s, d] {
            let bit = 1u64 << m;
            if owner[v as usize] != m && seen[v as usize] & bit == 0 {
                seen[v as usize] |= bit;
                mirrors[v as usize] += 1;
            }
        }
    }
    mirrors
}

/// Hash (edge-cut) partition: every vertex hashed to a machine, edges
/// placed with their source — PowerGraph's baseline "random" placement.
pub fn hash_partition(g: &Graph, machines: usize) -> Partition {
    assert!(machines >= 1);
    let owner: Vec<u32> = g.vertices().map(|v| owner_of(v, machines)).collect();
    let mirrors = mirrors_for(g, &owner, machines);
    Partition {
        machines,
        owner,
        mirrors,
    }
}

/// Hybrid-cut (PowerLyra-like): low-degree vertices are hash-placed with
/// all their in-edges (low replication), while edges incident to
/// high-degree vertices are scattered by the *other* endpoint, modelled
/// here by counting one mirror per distinct neighbouring machine of the
/// hub. `threshold` is the in/out-degree above which a vertex counts as
/// "high" (PowerLyra's θ).
pub fn hybrid_partition(g: &Graph, machines: usize, threshold: usize) -> Partition {
    assert!((1..=64).contains(&machines));
    let owner: Vec<u32> = g.vertices().map(|v| owner_of(v, machines)).collect();
    let mut mirrors = vec![0u32; g.num_vertices()];
    let mut seen = vec![0u64; g.num_vertices()];
    for (s, d) in g.edges() {
        // Low-degree source: edge goes to the source's owner (edge-cut),
        // creating a mirror for `d` there. High-degree source: the edge is
        // placed at `d`'s owner instead (vertex-cut of the hub), creating a
        // mirror for `s` there.
        let (placed_at, mirrored) = if g.degree(s) <= threshold {
            (owner[s as usize], d)
        } else {
            (owner[d as usize], s)
        };
        if owner[mirrored as usize] != placed_at {
            let bit = 1u64 << placed_at;
            if seen[mirrored as usize] & bit == 0 {
                seen[mirrored as usize] |= bit;
                mirrors[mirrored as usize] += 1;
            }
        }
    }
    Partition {
        machines,
        owner,
        mirrors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn hash_partition_covers_all_machines() {
        let g = gen::rmat(10, 8, 1);
        let p = hash_partition(&g, 8);
        let counts = p.owned_per_machine();
        assert_eq!(counts.iter().sum::<usize>(), g.num_vertices());
        assert!(
            counts.iter().all(|&c| c > 0),
            "some machine owns nothing: {counts:?}"
        );
    }

    #[test]
    fn single_machine_has_no_mirrors() {
        let g = gen::rmat(8, 8, 1);
        let p = hash_partition(&g, 1);
        assert!(p.mirrors.iter().all(|&m| m == 0));
        assert!((p.replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replication_grows_with_machines() {
        let g = gen::rmat(10, 8, 1);
        let p2 = hash_partition(&g, 2);
        let p16 = hash_partition(&g, 16);
        assert!(p16.replication_factor() > p2.replication_factor());
    }

    #[test]
    fn hybrid_cut_reduces_replication_on_power_law() {
        // PowerLyra's claim: hybrid-cut beats random edge-cut replication on
        // skewed graphs. Our cost model must reproduce at least the ordering.
        let g = gen::rmat(12, 16, 3);
        let hash = hash_partition(&g, 16);
        let hybrid = hybrid_partition(&g, 16, 100);
        assert!(
            hybrid.replication_factor() <= hash.replication_factor(),
            "hybrid {} vs hash {}",
            hybrid.replication_factor(),
            hash.replication_factor()
        );
    }

    #[test]
    fn mirror_count_on_a_known_cut() {
        // Path 0→1 with vertex v on machine v: vertex 1 mirrors on machine
        // 0 (edge placed with source 0) unless co-located.
        let g = gen::path(2);
        assert_eq!(mirrors_for(&g, &[0, 1], 2), vec![0, 1]);
    }
}
