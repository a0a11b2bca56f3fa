//! [`MutableGraph`]: CSR base plus a transactional per-vertex delta
//! overlay.
//!
//! The base [`Graph`] stays immutable (analytics keep their zero-copy CSR
//! scans); mutations land in an overlay carved out of the shared
//! transactional memory, so `add_edge` / `remove_edge` / `add_vertex` are
//! ordinary transaction bodies executed through *any* scheduler (2PL, OCC,
//! TO, STM, HSync, H-TO, TuFast), serializable alongside reads and
//! observable by the DSG oracle like every other transaction.
//!
//! ## Overlay layout (all words inside [`TxMemory`])
//!
//! * `mg.head` — one word per vertex slot: head of that vertex's delta
//!   chain (`0` = empty, else `slot index + 1`).
//! * `mg.slots` — two words per delta slot:
//!   `word0 = weight << 32 | target`,
//!   `word1 = remove_flag << 63 | previous head`.
//! * `mg.arena` — one used-count word per stripe; slot indices are
//!   striped (`stripe = src % stripes`) so concurrent mutators on
//!   different vertices rarely contend on allocation.
//! * `mg.meta` — the live vertex count.
//!
//! Every word is read and written through [`TxnOps`] with a consistent
//! vertex tag (the chain words of vertex `u` under `u`'s lock, a stripe's
//! count word under vertex tag `stripe`), which is exactly the paper's
//! vertex-association discipline — nothing scheduler-specific anywhere.
//!
//! Chains record *newest-first*: the first op found for a target wins, so
//! the effective adjacency is `(base ∪ adds) \ removes` under
//! last-writer-wins per `(src, dst)` pair. [`MutableGraph::materialize`]
//! folds base + overlay into a fresh deterministic sorted CSR (the
//! durability matrix compares these bitwise).

use std::collections::HashMap;

use tufast_htm::{MemRegion, MemoryLayout, TxMemory};
use tufast_txn::{Declared, TxInterrupt, TxnOps, TxnWorker};

use crate::snapshot::{Section, Snapshot};
use crate::wal::Mutation;
use crate::{Graph, GraphBuilder, VertexId};

/// Size hint (`BEGIN(SIZE)`) for a transaction over one vertex's overlay
/// words — meta + stripe count + head + two slot words, with headroom. The
/// mutations themselves declare their vertices instead
/// ([`TxnWorker::execute_declared`]).
pub const MUTATION_HINT: usize = 8;

/// Geometry of the delta overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlayConfig {
    /// Total delta slots (rounded down to a multiple of `stripes`).
    pub slot_cap: u64,
    /// Allocation stripes (clamped to `1..=capacity`).
    pub stripes: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            slot_cap: 1 << 16,
            stripes: 64,
        }
    }
}

/// What a mutation transaction did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The mutation committed.
    Applied,
    /// An endpoint is outside the live vertex set — nothing was written.
    OutOfBounds,
    /// The overlay (or vertex capacity) is exhausted — nothing was
    /// written; checkpoint to fold the overlay into a new base.
    OverlayFull,
}

/// CSR base + transactional delta overlay. See the module docs.
pub struct MutableGraph {
    base: Graph,
    capacity: usize,
    stripes: u64,
    per_stripe: u64,
    head: MemRegion,
    slots: MemRegion,
    arena: MemRegion,
    meta: MemRegion,
}

impl MutableGraph {
    /// Carve the overlay regions for `base` (growable up to `capacity`
    /// vertices) out of `layout`. Call before `TxnSystem::build`, and
    /// build the system with at least `capacity` vertices so every vertex
    /// tag has a lock word.
    ///
    /// # Panics
    /// If `capacity` is 0, smaller than the base vertex count, or does not
    /// fit a `u32` vertex id.
    pub fn carve(
        base: Graph,
        capacity: usize,
        config: OverlayConfig,
        layout: &mut MemoryLayout,
    ) -> MutableGraph {
        assert!(capacity > 0, "capacity must be nonzero");
        assert!(
            capacity >= base.num_vertices(),
            "capacity {} below base vertex count {}",
            capacity,
            base.num_vertices()
        );
        assert!(capacity < u32::MAX as usize, "vertex id overflow");
        let stripes = config.stripes.clamp(1, capacity as u64);
        let per_stripe = config.slot_cap / stripes;
        let slot_cap = per_stripe * stripes;
        let head = layout.alloc("mg.head", capacity as u64);
        let slots = layout.alloc("mg.slots", (slot_cap * 2).max(1));
        let arena = layout.alloc("mg.arena", stripes);
        let meta = layout.alloc("mg.meta", 1);
        MutableGraph {
            base,
            capacity,
            stripes,
            per_stripe,
            head,
            slots,
            arena,
            meta,
        }
    }

    /// Initialise overlay state in fresh (zeroed) memory: only the live
    /// vertex count needs seeding. Recovery calls
    /// [`MutableGraph::restore_sections`] instead.
    pub fn init(&self, mem: &TxMemory) {
        mem.store_direct(self.meta.addr(0), self.base.num_vertices() as u64);
    }

    /// The immutable CSR base.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Maximum vertex count the overlay supports.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Effective total delta slots (after stripe rounding).
    pub fn slot_cap(&self) -> u64 {
        self.per_stripe * self.stripes
    }

    /// Allocation stripes.
    pub fn stripes(&self) -> u64 {
        self.stripes
    }

    /// Live vertex count (quiescent read).
    pub fn num_vertices(&self, mem: &TxMemory) -> usize {
        mem.load_direct(self.meta.addr(0)) as usize
    }

    /// Delta slots consumed so far (quiescent read).
    pub fn slots_used(&self, mem: &TxMemory) -> u64 {
        self.arena.iter().map(|a| mem.load_direct(a)).sum()
    }

    /// Whether `v`'s allocation stripe has no free delta slots left
    /// (quiescent read — the durable commit path pre-validates with this
    /// under the commit lock so a full stripe is rejected *before* the
    /// mutation reaches the log).
    pub fn stripe_is_full(&self, mem: &TxMemory, v: VertexId) -> bool {
        mem.load_direct(self.arena.addr(self.stripe_of(v))) >= self.per_stripe
    }

    /// Half-open word-address range covering every overlay region, for
    /// history post-processing (`History::tag_mutations`): any transaction
    /// that *writes* into this range is a mutation transaction.
    pub fn overlay_word_range(&self) -> std::ops::Range<u64> {
        let regions = [&self.head, &self.slots, &self.arena, &self.meta];
        let lo = regions.iter().map(|r| r.base().0).min().expect("4 regions");
        let hi = regions.iter().map(|r| r.end().0).max().expect("4 regions");
        lo..hi
    }

    #[inline]
    fn stripe_of(&self, v: VertexId) -> u64 {
        u64::from(v) % self.stripes
    }

    /// Apply one mutation inside a transaction body. Rejections
    /// ([`MutationOutcome::OutOfBounds`] / [`MutationOutcome::OverlayFull`])
    /// return *before any write*, so the transaction commits read-only.
    pub fn txn_apply(
        &self,
        ops: &mut dyn TxnOps,
        mutation: Mutation,
    ) -> Result<MutationOutcome, TxInterrupt> {
        match mutation {
            Mutation::AddEdge { src, dst, weight } => {
                self.txn_push_delta(ops, src, dst, weight, false)
            }
            Mutation::RemoveEdge { src, dst } => self.txn_push_delta(ops, src, dst, 0, true),
            Mutation::AddVertex => Ok(self.txn_add_vertex(ops)?.0),
        }
    }

    fn txn_push_delta(
        &self,
        ops: &mut dyn TxnOps,
        src: VertexId,
        dst: VertexId,
        weight: u32,
        remove: bool,
    ) -> Result<MutationOutcome, TxInterrupt> {
        let live = ops.read(0, self.meta.addr(0))?;
        if u64::from(src) >= live || u64::from(dst) >= live {
            return Ok(MutationOutcome::OutOfBounds);
        }
        let stripe = self.stripe_of(src);
        let stripe_tag = stripe as VertexId;
        let used = ops.read(stripe_tag, self.arena.addr(stripe))?;
        if used >= self.per_stripe {
            return Ok(MutationOutcome::OverlayFull);
        }
        ops.write(stripe_tag, self.arena.addr(stripe), used + 1)?;
        let slot = stripe * self.per_stripe + used;
        let prev = ops.read(src, self.head.addr(u64::from(src)))?;
        ops.write(
            src,
            self.slots.addr(2 * slot),
            (u64::from(weight) << 32) | u64::from(dst),
        )?;
        ops.write(
            src,
            self.slots.addr(2 * slot + 1),
            (u64::from(remove) << 63) | prev,
        )?;
        ops.write(src, self.head.addr(u64::from(src)), slot + 1)?;
        Ok(MutationOutcome::Applied)
    }

    fn txn_add_vertex(
        &self,
        ops: &mut dyn TxnOps,
    ) -> Result<(MutationOutcome, Option<VertexId>), TxInterrupt> {
        let live = ops.read(0, self.meta.addr(0))?;
        if live >= self.capacity as u64 {
            return Ok((MutationOutcome::OverlayFull, None));
        }
        ops.write(0, self.meta.addr(0), live + 1)?;
        Ok((MutationOutcome::Applied, Some(live as VertexId)))
    }

    /// Run `add_edge(src → dst)` as one transaction on `worker`.
    pub fn add_edge<W: TxnWorker>(
        &self,
        worker: &mut W,
        src: VertexId,
        dst: VertexId,
        weight: u32,
    ) -> MutationOutcome {
        self.run(worker, Mutation::AddEdge { src, dst, weight }).0
    }

    /// Run `remove_edge(src → dst)` as one transaction on `worker`.
    pub fn remove_edge<W: TxnWorker>(
        &self,
        worker: &mut W,
        src: VertexId,
        dst: VertexId,
    ) -> MutationOutcome {
        self.run(worker, Mutation::RemoveEdge { src, dst }).0
    }

    /// Grow the vertex set by one as a transaction on `worker`; returns
    /// the new vertex id, or `None` at capacity.
    pub fn add_vertex<W: TxnWorker>(&self, worker: &mut W) -> Option<VertexId> {
        self.run(worker, Mutation::AddVertex).1
    }

    /// Every vertex tag `mutation`'s body can touch, known before `BEGIN`
    /// (a tag may repeat; its strongest mode counts): the live count under
    /// tag 0, written only by `add_vertex`, and for an edge the stripe's
    /// count word and `src`'s chain words. A `src` past the capacity has no
    /// lock word — and the body rejects it on the live count alone, before
    /// it gets to either.
    fn footprint(&self, mutation: Mutation) -> [Declared; 3] {
        match mutation {
            Mutation::AddVertex => [Declared::write(0); 3],
            Mutation::AddEdge { src, .. } | Mutation::RemoveEdge { src, .. }
                if (src as usize) < self.capacity =>
            {
                let stripe_tag = self.stripe_of(src) as VertexId;
                [
                    Declared::read(0),
                    Declared::write(stripe_tag),
                    Declared::write(src),
                ]
            }
            _ => [Declared::read(0); 3],
        }
    }

    fn run<W: TxnWorker>(
        &self,
        worker: &mut W,
        mutation: Mutation,
    ) -> (MutationOutcome, Option<VertexId>) {
        let mut result = MutationOutcome::Applied;
        let mut new_id = None;
        let footprint = self.footprint(mutation);
        let outcome = worker.execute_declared(&footprint, &mut |ops| {
            #[cfg(debug_assertions)]
            let ops = &mut Covered {
                ops,
                footprint: &footprint,
            };
            (result, new_id) = match mutation {
                Mutation::AddVertex => self.txn_add_vertex(ops)?,
                m => (self.txn_apply(ops, m)?, None),
            };
            Ok(())
        });
        debug_assert!(outcome.committed, "mutation bodies never user-abort");
        (result, new_id)
    }

    /// Apply one mutation directly to memory, outside any transaction —
    /// the redo-recovery replay path (single-threaded by construction).
    pub fn apply_direct(&self, mem: &TxMemory, mutation: Mutation) -> MutationOutcome {
        let mut ops = DirectOps(mem);
        self.txn_apply(&mut ops, mutation)
            .expect("direct ops are infallible")
    }

    /// Read vertex `u`'s *effective* adjacency (base ∪ adds \ removes,
    /// sorted by target, deduplicated) inside a transaction body. The
    /// reads subscribe to `u`'s chain words, so a concurrent mutation of
    /// `u` serializes against this read like any other conflict.
    pub fn txn_neighbors(
        &self,
        ops: &mut dyn TxnOps,
        u: VertexId,
        out: &mut Vec<(VertexId, u32)>,
    ) -> Result<(), TxInterrupt> {
        out.clear();
        let live = ops.read(0, self.meta.addr(0))?;
        if u64::from(u) >= live {
            return Ok(());
        }
        let newest = self.chain_newest_ops(ops, u)?;
        self.fold_vertex(u, &newest, |dst, w| out.push((dst, w)));
        out.sort_unstable();
        Ok(())
    }

    /// Newest-first delta ops for `u`: first occurrence of a target wins.
    fn chain_newest_ops(
        &self,
        ops: &mut dyn TxnOps,
        u: VertexId,
    ) -> Result<HashMap<VertexId, DeltaOp>, TxInterrupt> {
        let mut newest = HashMap::new();
        let mut cursor = ops.read(u, self.head.addr(u64::from(u)))?;
        let mut hops = 0u64;
        while cursor != 0 {
            debug_assert!(hops <= self.slot_cap(), "delta chain longer than the arena");
            if hops > self.slot_cap() {
                break;
            }
            hops += 1;
            let slot = cursor - 1;
            let word0 = ops.read(u, self.slots.addr(2 * slot))?;
            let word1 = ops.read(u, self.slots.addr(2 * slot + 1))?;
            let target = (word0 & 0xFFFF_FFFF) as VertexId;
            let weight = (word0 >> 32) as u32;
            let remove = (word1 >> 63) != 0;
            newest.entry(target).or_insert(DeltaOp { remove, weight });
            cursor = word1 & !(1 << 63);
        }
        Ok(newest)
    }

    /// Emit vertex `u`'s effective adjacency given its newest-op map.
    fn fold_vertex(
        &self,
        u: VertexId,
        newest: &HashMap<VertexId, DeltaOp>,
        mut emit: impl FnMut(VertexId, u32),
    ) {
        if (u as usize) < self.base.num_vertices() {
            let weights = self.base.weights();
            for (i, &dst) in self.base.neighbors(u).iter().enumerate() {
                if newest.contains_key(&dst) {
                    continue; // overridden: re-added or removed below
                }
                let w = weights.map_or(0, |ws| ws[self.base.edge_range(u).start + i]);
                emit(dst, w);
            }
        }
        for (&dst, op) in newest {
            if !op.remove {
                emit(dst, op.weight);
            }
        }
    }

    /// Fold base + overlay into a fresh deterministic sorted CSR
    /// (quiescent read: no concurrent mutators). Preserves weighted-ness
    /// and in-edge materialisation of the base; two graphs with the same
    /// committed mutation history materialize bitwise-identically.
    pub fn materialize(&self, mem: &TxMemory) -> Graph {
        let nv = self.num_vertices(mem);
        let mut builder = GraphBuilder::new(nv);
        if self.base.reverse().is_some() {
            builder = builder.with_in_edges();
        }
        let weighted = self.base.has_weights();
        let mut ops = DirectOps(mem);
        for u in 0..nv as VertexId {
            let newest = self
                .chain_newest_ops(&mut ops, u)
                .expect("direct ops are infallible");
            self.fold_vertex(u, &newest, |dst, w| {
                if weighted {
                    builder.add_weighted_edge(u, dst, w);
                } else {
                    builder.add_edge(u, dst);
                }
            });
        }
        builder.build()
    }

    /// Capture the overlay as TFSN delta sections (quiescent read), for
    /// the checkpoint that lets the WAL be truncated.
    pub fn capture_sections(&self, mem: &TxMemory) -> Vec<Section> {
        self.named_regions()
            .into_iter()
            .map(|(name, region)| Section {
                name: name.to_string(),
                words: mem.snapshot_region(region),
            })
            .collect()
    }

    /// Restore the overlay from a snapshot's delta sections. Fails (with a
    /// message) when a section is missing or its length does not match the
    /// carved geometry — the caller falls back to replaying the full WAL.
    pub fn restore_sections(&self, mem: &TxMemory, snap: &Snapshot) -> Result<(), String> {
        for (name, region) in self.named_regions() {
            let section = snap
                .section(name)
                .ok_or_else(|| format!("snapshot is missing section {name:?}"))?;
            if section.words.len() as u64 != region.len() {
                return Err(format!(
                    "section {name:?} has {} words, layout expects {}",
                    section.words.len(),
                    region.len()
                ));
            }
            mem.fill_region_with(region, |i| section.words[i as usize]);
        }
        Ok(())
    }

    fn named_regions(&self) -> [(&'static str, &MemRegion); 4] {
        [
            ("delta.head", &self.head),
            ("delta.slots", &self.slots),
            ("delta.arena", &self.arena),
            ("delta.meta", &self.meta),
        ]
    }
}

impl std::fmt::Debug for MutableGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableGraph")
            .field("base_vertices", &self.base.num_vertices())
            .field("base_edges", &self.base.num_edges())
            .field("capacity", &self.capacity)
            .field("slot_cap", &self.slot_cap())
            .field("stripes", &self.stripes)
            .finish()
    }
}

#[derive(Clone, Copy)]
struct DeltaOp {
    remove: bool,
    weight: u32,
}

/// Infallible [`TxnOps`] straight onto memory — the recovery replay and
/// materialisation path (single-threaded, quiescent by construction).
struct DirectOps<'a>(&'a TxMemory);

impl TxnOps for DirectOps<'_> {
    fn read(&mut self, _v: VertexId, addr: tufast_htm::Addr) -> Result<u64, TxInterrupt> {
        Ok(self.0.load_direct(addr))
    }

    fn write(&mut self, _v: VertexId, addr: tufast_htm::Addr, val: u64) -> Result<(), TxInterrupt> {
        self.0.store_direct(addr, val);
        Ok(())
    }
}

/// Debug builds hold every mutation body to the footprint it declared,
/// under whichever scheduler runs it: a strayed body is still serializable
/// (it reruns incrementally under 2PL), but it has lost what declaring buys.
#[cfg(debug_assertions)]
struct Covered<'a> {
    ops: &'a mut dyn TxnOps,
    footprint: &'a [Declared],
}

#[cfg(debug_assertions)]
impl TxnOps for Covered<'_> {
    fn read(&mut self, v: VertexId, addr: tufast_htm::Addr) -> Result<u64, TxInterrupt> {
        let covers = |d: &Declared| d.v == v;
        debug_assert!(self.footprint.iter().any(covers), "undeclared read of {v}");
        self.ops.read(v, addr)
    }

    fn write(&mut self, v: VertexId, addr: tufast_htm::Addr, val: u64) -> Result<(), TxInterrupt> {
        let covers = |d: &Declared| d.v == v && d.write;
        debug_assert!(self.footprint.iter().any(covers), "undeclared write of {v}");
        self.ops.write(v, addr, val)
    }

    fn user_abort(&mut self) -> TxInterrupt {
        self.ops.user_abort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n.saturating_sub(1) {
            b.add_edge(i as VertexId, i as VertexId + 1);
        }
        b.build()
    }

    fn setup(base: Graph, capacity: usize) -> (MutableGraph, TxMemory) {
        let mut layout = MemoryLayout::new();
        let mg = MutableGraph::carve(
            base,
            capacity,
            OverlayConfig {
                slot_cap: 64,
                stripes: 4,
            },
            &mut layout,
        );
        let mem = TxMemory::new(&layout);
        mg.init(&mem);
        (mg, mem)
    }

    fn edges_of(g: &Graph) -> Vec<(VertexId, VertexId)> {
        g.edges().collect()
    }

    #[test]
    fn direct_add_and_remove_fold_into_materialize() {
        let (mg, mem) = setup(line_graph(4), 8);
        assert_eq!(
            mg.apply_direct(
                &mem,
                Mutation::AddEdge {
                    src: 3,
                    dst: 0,
                    weight: 0
                }
            ),
            MutationOutcome::Applied
        );
        assert_eq!(
            mg.apply_direct(&mem, Mutation::RemoveEdge { src: 1, dst: 2 }),
            MutationOutcome::Applied
        );
        let g = mg.materialize(&mem);
        assert_eq!(edges_of(&g), vec![(0, 1), (2, 3), (3, 0)]);
    }

    #[test]
    fn materialize_shares_the_reverse_only_while_the_graph_is_symmetric() {
        let base = {
            let mut b = GraphBuilder::new(4);
            b.add_edge(0, 1);
            b.add_edge(1, 2);
            b.symmetric().with_in_edges().build()
        };
        let (mg, mem) = setup(base.clone(), 8);
        assert_eq!(mg.materialize(&mem), base);
        assert!(mg.materialize(&mem).reverse_is_forward());
        let add = |src, dst| {
            let weight = 0;
            mg.apply_direct(&mem, Mutation::AddEdge { src, dst, weight })
        };
        assert_eq!(add(2, 3), MutationOutcome::Applied);
        let g = mg.materialize(&mem);
        assert!(!g.reverse_is_forward(), "2 → 3 has no mirror");
        assert_eq!(g.in_neighbors(3), &[2]);
        assert_eq!(g.in_neighbors(2), &[1]);
        assert_eq!(add(3, 2), MutationOutcome::Applied);
        assert!(mg.materialize(&mem).reverse_is_forward());
    }

    #[test]
    fn newest_op_wins_per_edge() {
        let (mg, mem) = setup(line_graph(3), 8);
        // remove then re-add 0→1; add then remove 2→0.
        mg.apply_direct(&mem, Mutation::RemoveEdge { src: 0, dst: 1 });
        mg.apply_direct(
            &mem,
            Mutation::AddEdge {
                src: 0,
                dst: 1,
                weight: 0,
            },
        );
        mg.apply_direct(
            &mem,
            Mutation::AddEdge {
                src: 2,
                dst: 0,
                weight: 0,
            },
        );
        mg.apply_direct(&mem, Mutation::RemoveEdge { src: 2, dst: 0 });
        let g = mg.materialize(&mem);
        assert_eq!(edges_of(&g), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn add_vertex_grows_the_live_set() {
        let (mg, mem) = setup(line_graph(2), 4);
        assert_eq!(
            mg.apply_direct(
                &mem,
                Mutation::AddEdge {
                    src: 0,
                    dst: 2,
                    weight: 0
                }
            ),
            MutationOutcome::OutOfBounds,
            "vertex 2 does not exist yet"
        );
        mg.apply_direct(&mem, Mutation::AddVertex);
        assert_eq!(mg.num_vertices(&mem), 3);
        assert_eq!(
            mg.apply_direct(
                &mem,
                Mutation::AddEdge {
                    src: 0,
                    dst: 2,
                    weight: 0
                }
            ),
            MutationOutcome::Applied
        );
        let g = mg.materialize(&mem);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(edges_of(&g), vec![(0, 1), (0, 2)]);
        // Capacity is a hard stop.
        mg.apply_direct(&mem, Mutation::AddVertex);
        assert_eq!(
            mg.apply_direct(&mem, Mutation::AddVertex),
            MutationOutcome::OverlayFull
        );
    }

    #[test]
    fn overlay_full_rejects_without_writing() {
        let mut layout = MemoryLayout::new();
        let mg = MutableGraph::carve(
            line_graph(4),
            4,
            OverlayConfig {
                slot_cap: 2,
                stripes: 1,
            },
            &mut layout,
        );
        let mem = TxMemory::new(&layout);
        mg.init(&mem);
        assert_eq!(
            mg.apply_direct(
                &mem,
                Mutation::AddEdge {
                    src: 0,
                    dst: 2,
                    weight: 0
                }
            ),
            MutationOutcome::Applied
        );
        assert_eq!(
            mg.apply_direct(
                &mem,
                Mutation::AddEdge {
                    src: 0,
                    dst: 3,
                    weight: 0
                }
            ),
            MutationOutcome::Applied
        );
        assert_eq!(
            mg.apply_direct(
                &mem,
                Mutation::AddEdge {
                    src: 1,
                    dst: 3,
                    weight: 0
                }
            ),
            MutationOutcome::OverlayFull
        );
        assert_eq!(mg.slots_used(&mem), 2);
        // The rejected mutation left no trace.
        assert_eq!(
            edges_of(&mg.materialize(&mem)),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        );
    }

    #[test]
    fn weighted_base_keeps_weights_and_newest_add_overrides() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 5);
        b.add_weighted_edge(1, 2, 9);
        let (mg, mem) = setup(b.build(), 4);
        mg.apply_direct(
            &mem,
            Mutation::AddEdge {
                src: 0,
                dst: 1,
                weight: 42,
            },
        );
        mg.apply_direct(
            &mem,
            Mutation::AddEdge {
                src: 2,
                dst: 0,
                weight: 7,
            },
        );
        let g = mg.materialize(&mem);
        assert_eq!(g.weighted_neighbors(0).collect::<Vec<_>>(), vec![(1, 42)]);
        assert_eq!(g.weighted_neighbors(1).collect::<Vec<_>>(), vec![(2, 9)]);
        assert_eq!(g.weighted_neighbors(2).collect::<Vec<_>>(), vec![(0, 7)]);
    }

    #[test]
    fn capture_restore_roundtrip_is_exact() {
        let (mg, mem) = setup(line_graph(4), 8);
        mg.apply_direct(
            &mem,
            Mutation::AddEdge {
                src: 2,
                dst: 0,
                weight: 0,
            },
        );
        mg.apply_direct(&mem, Mutation::RemoveEdge { src: 0, dst: 1 });
        mg.apply_direct(&mem, Mutation::AddVertex);
        let sections = mg.capture_sections(&mem);
        let snap = Snapshot {
            algo: "mutgraph".into(),
            epoch: 3,
            sections,
        };
        let before = mg.materialize(&mem);

        // A "fresh process": same carve order, zeroed memory, restore.
        let mut layout = MemoryLayout::new();
        let mg2 = MutableGraph::carve(
            line_graph(4),
            8,
            OverlayConfig {
                slot_cap: 64,
                stripes: 4,
            },
            &mut layout,
        );
        let mem2 = TxMemory::new(&layout);
        mg2.restore_sections(&mem2, &snap).unwrap();
        let after = mg2.materialize(&mem2);
        assert_eq!(before, after);
        assert_eq!(mg2.num_vertices(&mem2), 5);
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let (mg, mem) = setup(line_graph(4), 8);
        let mut sections = mg.capture_sections(&mem);
        sections.retain(|s| s.name != "delta.arena");
        let snap = Snapshot {
            algo: "mutgraph".into(),
            epoch: 1,
            sections,
        };
        assert!(mg.restore_sections(&mem, &snap).is_err());

        let mut sections = mg.capture_sections(&mem);
        sections
            .iter_mut()
            .find(|s| s.name == "delta.head")
            .unwrap()
            .words
            .pop();
        let snap = Snapshot {
            algo: "mutgraph".into(),
            epoch: 1,
            sections,
        };
        assert!(mg.restore_sections(&mem, &snap).is_err());
    }

    use std::sync::Arc;
    use tufast_htm::LineState;
    use tufast_txn::{GraphScheduler, TwoPhaseLocking, TxnSystem};

    /// An overlay of 4 stripes over `line_graph(6)`, growable to `capacity`,
    /// and a system with exactly `capacity` lock words.
    fn setup_sys(capacity: usize, slot_cap: u64) -> (MutableGraph, Arc<TxnSystem>) {
        let mut layout = MemoryLayout::new();
        let config = OverlayConfig {
            slot_cap,
            stripes: 4,
        };
        let mg = MutableGraph::carve(line_graph(6), capacity, config, &mut layout);
        let sys = TxnSystem::with_defaults(capacity, layout);
        mg.init(sys.mem());
        (mg, sys)
    }

    fn all_free(sys: &TxnSystem) -> bool {
        (0..sys.num_vertices() as VertexId).all(|v| sys.locks().peek(sys.mem(), v).is_free())
    }

    /// Every overlay line's state, region by region.
    fn overlay_lines(mg: &MutableGraph, mem: &TxMemory) -> Vec<LineState> {
        let lines = |r: &MemRegion| r.base().line()..=r.addr(r.len() - 1).line();
        mg.named_regions()
            .iter()
            .flat_map(|(_, r)| lines(r))
            .map(|l| mem.line_state(l))
            .collect()
    }

    #[test]
    fn footprints_name_the_three_tags_or_only_the_live_count() {
        let (mg, _sys) = setup_sys(8, 64);
        let (r, w) = (Declared::read, Declared::write);
        let of = |m| mg.footprint(m);
        let add = |src| Mutation::AddEdge {
            src,
            dst: 1,
            weight: 0,
        };
        assert_eq!(of(add(6)), [r(0), w(2), w(6)]);
        assert_eq!(of(add(2)), [r(0), w(2), w(2)], "src is its stripe tag");
        assert_eq!(of(add(0)), [r(0), w(0), w(0)], "all three coincide");
        assert_eq!(of(add(4)), [r(0), w(0), w(4)], "the stripe tag is 0");
        assert_eq!(
            of(Mutation::RemoveEdge { src: 7, dst: 0 }),
            [r(0), w(3), w(7)]
        );
        assert_eq!(of(Mutation::AddVertex), [w(0); 3]);
        // No lock word past the capacity: the live count alone decides.
        for src in [8, 9, u32::MAX - 1, u32::MAX] {
            assert_eq!(of(add(src)), [r(0); 3]);
            assert_eq!(of(Mutation::RemoveEdge { src, dst: 0 }), [r(0); 3]);
        }
    }

    #[test]
    fn out_of_range_endpoints_are_rejected_without_touching_a_lock_word_of_theirs() {
        let (mg, sys) = setup_sys(8, 64);
        let mem = sys.mem();
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let (words, lines) = (mg.capture_sections(mem), overlay_lines(&mg, mem));
        // `src` at and far past the capacity (in a debug build an index into
        // the lock array that far out panics), `src` and `dst` past the
        // live count but inside the capacity.
        for (src, dst) in [(8, 0), (u32::MAX - 1, 0), (6, 0), (0, 6), (0, u32::MAX)] {
            let clock = mem.clock_now_pub();
            assert_eq!(
                mg.add_edge(&mut w, src, dst, 1),
                MutationOutcome::OutOfBounds
            );
            assert_eq!(
                mg.remove_edge(&mut w, src, dst),
                MutationOutcome::OutOfBounds
            );
            assert_eq!(mem.clock_now_pub(), clock + 4, "two ticks a rejection");
        }
        assert_eq!(mg.capture_sections(mem), words);
        assert_eq!(overlay_lines(&mg, mem), lines, "no data line was stamped");
        assert!(all_free(&sys));
        assert_eq!((w.stats().commits, w.stats().restarts), (10, 0));
    }

    #[test]
    fn a_full_stripe_commits_read_only() {
        let (mg, sys) = setup_sys(8, 4); // one slot a stripe
        let (mem, locks) = (sys.mem(), sys.locks());
        let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        assert_eq!(mg.add_edge(&mut w, 1, 3, 0), MutationOutcome::Applied);
        let (words, lines) = (mg.capture_sections(mem), overlay_lines(&mg, mem));
        let versions = |vs: [VertexId; 3]| vs.map(|v| locks.peek(mem, v).version());
        let bumped = versions([0, 1, 5]);
        let clock = mem.clock_now_pub();
        assert_eq!(mg.add_edge(&mut w, 5, 3, 0), MutationOutcome::OverlayFull);
        assert_eq!(mem.clock_now_pub(), clock + 2);
        assert_eq!(mg.capture_sections(mem), words);
        assert_eq!(overlay_lines(&mg, mem), lines, "no data line was stamped");
        assert_eq!(versions([0, 1, 5]), bumped, "nothing was written");
        for v in [0, 1, 5] {
            let released = LineState::Unlocked { version: clock + 2 };
            assert_eq!(mem.line_state(locks.addr(v).line()), released);
        }
        assert!(all_free(&sys));
    }

    #[test]
    fn coinciding_vertices_are_held_once_and_bump_once() {
        // src == stripe tag; src == 0 (and so is its tag); tag 0, src not.
        for (src, written) in [(2, vec![2]), (0, vec![0]), (4, vec![0, 4])] {
            let (mg, sys) = setup_sys(8, 64);
            let (mem, locks) = (sys.mem(), sys.locks());
            let mut w = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
            let clock = mem.clock_now_pub();
            assert_eq!(mg.add_edge(&mut w, src, 5, 9), MutationOutcome::Applied);
            assert_eq!(mem.clock_now_pub(), clock + 2, "src {src}");
            assert!(all_free(&sys), "src {src}");
            for v in 0..8 {
                let want = u32::from(written.contains(&v));
                assert_eq!(locks.peek(mem, v).version(), want, "src {src}, vertex {v}");
            }
            assert!(mg.materialize(mem).neighbors(src).contains(&5));
            assert_eq!((w.stats().commits, w.stats().restarts), (1, 0));
        }
    }

    /// A seeded 70/25/5 add-edge / remove-edge / add-vertex script (some of
    /// it out of bounds), as the benchmark's `mut-*` workloads draw it.
    fn script(seed: u64, len: usize) -> Vec<Mutation> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let (src, dst) = (rng.random_range(0..14u32), rng.random_range(0..14u32));
                match rng.random_range(0..100u32) {
                    0..70 => Mutation::AddEdge {
                        src,
                        dst,
                        weight: rng.random_range(0..50u32),
                    },
                    70..95 => Mutation::RemoveEdge { src, dst },
                    _ => Mutation::AddVertex,
                }
            })
            .collect()
    }

    #[test]
    fn declared_and_incremental_mutations_leave_identical_memory_and_counts() {
        for seed in [3, 0x7117, 99] {
            let script = script(seed, 400);
            // Small enough that stripes fill up before the script ends.
            let (declared, sys_d) = setup_sys(12, 256);
            let (plain, sys_p) = setup_sys(12, 256);
            let mut wd = TwoPhaseLocking::new(Arc::clone(&sys_d)).worker();
            let mut wp = TwoPhaseLocking::new(Arc::clone(&sys_p)).worker();
            let mut outcomes = [0usize; 3];
            for &m in &script {
                let got = declared.run(&mut wd, m).0;
                let mut want = MutationOutcome::Applied;
                let out = wp.execute(MUTATION_HINT, &mut |ops| {
                    want = plain.txn_apply(ops, m)?;
                    Ok(())
                });
                assert!(out.committed);
                assert_eq!(got, want, "seed {seed}: {m:?}");
                outcomes[got as usize] += 1;
            }
            assert!(outcomes.iter().all(|&n| n > 0), "seed {seed}: {outcomes:?}");
            let (mem_d, mem_p) = (sys_d.mem(), sys_p.mem());
            assert_eq!(
                declared.capture_sections(mem_d),
                plain.capture_sections(mem_p)
            );
            assert_eq!(declared.materialize(mem_d), plain.materialize(mem_p));
            let (sd, sp) = (wd.stats(), wp.stats());
            assert_eq!(
                (sd.reads, sd.writes, sd.commits, sd.restarts),
                (sp.reads, sp.writes, sp.commits, 0),
                "seed {seed}"
            );
            assert!(all_free(&sys_d));
        }
    }

    #[test]
    fn overlay_word_range_covers_every_region() {
        let (mg, _mem) = setup(line_graph(2), 4);
        let range = mg.overlay_word_range();
        for (_, region) in mg.named_regions() {
            assert!(range.contains(&region.base().0));
            assert!(range.contains(&region.addr(region.len() - 1).0));
        }
    }
}
