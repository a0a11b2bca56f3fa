//! Shared setup plumbing for the transactional algorithms.

use std::sync::Arc;

use tufast_graph::Graph;
use tufast_htm::{MemRegion, MemoryLayout, TxMemory};
use tufast_txn::{SystemConfig, TxnSystem};

/// A built [`TxnSystem`] plus the algorithm's value regions.
///
/// Regions must be carved *before* the system is built (the memory layout
/// is frozen at construction), so algorithms allocate their workspaces
/// through [`setup`].
pub struct AlgoSystem<W> {
    /// The shared transactional system.
    pub sys: Arc<TxnSystem>,
    /// The algorithm's region handles.
    pub space: W,
}

/// Build a [`TxnSystem`] for `g` with default configuration, letting
/// `alloc` carve the algorithm's value regions first.
pub fn setup<W>(g: &Graph, alloc: impl FnOnce(&mut MemoryLayout, usize) -> W) -> AlgoSystem<W> {
    setup_with(g, SystemConfig::default(), alloc)
}

/// [`setup`] with an explicit system configuration.
pub fn setup_with<W>(
    g: &Graph,
    config: SystemConfig,
    alloc: impl FnOnce(&mut MemoryLayout, usize) -> W,
) -> AlgoSystem<W> {
    let n = g.num_vertices();
    let mut layout = MemoryLayout::new();
    let space = alloc(&mut layout, n);
    let sys = TxnSystem::build(n, layout, config);
    AlgoSystem { sys, space }
}

/// Snapshot a region as `u64`s.
pub(crate) fn read_u64_region<const S: u64>(mem: &TxMemory, region: &MemRegion<S>) -> Vec<u64> {
    mem.snapshot_region(region)
}

/// Snapshot a region as `f64`s (bit-cast).
pub(crate) fn read_f64_region<const S: u64>(mem: &TxMemory, region: &MemRegion<S>) -> Vec<f64> {
    region
        .iter()
        .map(|a| f64::from_bits(mem.load_direct(a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_graph::gen;

    #[test]
    fn setup_allocates_before_system_metadata() {
        let g = gen::path(10);
        let built = setup(&g, |layout, n| layout.alloc("values", n as u64));
        assert_eq!(built.space.len(), 10);
        // The region is usable and zeroed.
        assert_eq!(built.sys.mem().load_direct(built.space.addr(9)), 0);
        assert_eq!(built.sys.num_vertices(), 10);
    }
}
