//! The shared HTM runtime: owns the memory and hands out per-thread contexts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::{AbortSource, HtmConfig};
use crate::ctx::HtmCtx;
use crate::memory::{MemoryLayout, TxMemory, WORDS_PER_LINE};

/// Shared entry point to the emulated HTM.
///
/// Cheap to share via `Arc`; create one per experiment, carve the memory
/// with a [`MemoryLayout`], then give each worker thread its own
/// [`HtmCtx`] via [`ctx`](Self::ctx).
pub struct HtmRuntime {
    mem: Arc<TxMemory>,
    config: HtmConfig,
    /// Runtime HTM on/off switch, shared with every context handed out.
    available: Arc<AtomicBool>,
}

impl HtmRuntime {
    /// Build a runtime over a fresh zeroed memory covering `layout`.
    pub fn new(layout: MemoryLayout, config: HtmConfig) -> Self {
        config.validate();
        Self::from_memory(Arc::new(TxMemory::new(&layout)), config)
    }

    /// Build a runtime over an existing shared memory (e.g. to run several
    /// schedulers against the same heap).
    pub fn from_memory(mem: Arc<TxMemory>, config: HtmConfig) -> Self {
        config.validate();
        HtmRuntime {
            mem,
            config,
            available: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Create a new per-thread transaction context under the lowest free
    /// context id of the memory; dropping it gives the id back.
    ///
    /// # Panics
    /// When 32 766 contexts (of both kinds, from every runtime on the
    /// memory) are live at once.
    pub fn ctx(&self) -> HtmCtx {
        self.ctx_with_source(self.config.abort_source.clone())
    }

    /// [`ctx`](Self::ctx), consulting `source` instead of the config's
    /// abort source.
    pub fn ctx_with_source(&self, source: Option<AbortSource>) -> HtmCtx {
        self.new_ctx(&self.config, source, Arc::clone(&self.available))
    }

    /// A context for a software TM: the same TL2 on the geometry
    /// [`HtmConfig::unbounded`] derives from this memory, so it never
    /// capacity-aborts. No abort source reaches it, and its availability
    /// flag is its own, never cleared by
    /// [`set_htm_available`](Self::set_htm_available).
    pub fn software_ctx(&self) -> HtmCtx {
        let lines = self.mem.len().div_ceil(WORDS_PER_LINE);
        let available = Arc::new(AtomicBool::new(true));
        self.new_ctx(&HtmConfig::unbounded(lines), None, available)
    }

    fn new_ctx(
        &self,
        config: &HtmConfig,
        source: Option<AbortSource>,
        available: Arc<AtomicBool>,
    ) -> HtmCtx {
        let id = self
            .mem
            .ctx_ids
            .lease()
            .expect("HTM context ids exhausted: more live contexts than line-lock owners");
        HtmCtx::new(Arc::clone(&self.mem), config, source, id, available)
    }

    /// Switch emulated HTM support on or off at runtime.
    ///
    /// While off, every [`HtmCtx::begin`](crate::HtmCtx::begin) at nesting
    /// depth 0 (on contexts from this runtime) fails with
    /// [`HtmStateError::Unavailable`](crate::HtmStateError::Unavailable) —
    /// modelling TSX being absent or disabled, so hybrid schedulers must
    /// survive on their software fallback paths alone. Transactions already
    /// in flight are unaffected; the switch only gates new `begin`s.
    pub fn set_htm_available(&self, available: bool) {
        // Release/Acquire: a thread that observes the flip also observes
        // whatever configuration the flipping thread wrote before it.
        self.available.store(available, Ordering::Release);
    }

    /// Whether emulated HTM is currently enabled (true unless switched off
    /// via [`set_htm_available`](Self::set_htm_available)).
    #[inline]
    pub fn htm_available(&self) -> bool {
        self.available.load(Ordering::Acquire)
    }

    /// The shared transactional memory.
    #[inline]
    pub fn memory(&self) -> &Arc<TxMemory> {
        &self.mem
    }

    /// The configured geometry.
    #[inline]
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// Words a transaction can touch before the cache is *guaranteed* to
    /// overflow (the paper's "8,192 ints" ≙ 4,096 u64 words). Footprints
    /// well below this may still abort — see [`L1Model`](crate::L1Model).
    #[inline]
    pub fn capacity_words(&self) -> usize {
        self.config.capacity_words()
    }
}

impl std::fmt::Debug for HtmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmRuntime")
            .field("memory", &self.mem)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_get_unique_ids() {
        let mut layout = MemoryLayout::new();
        layout.alloc("w", 8);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        let a = rt.ctx();
        let b = rt.ctx();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn a_dropped_context_s_id_goes_to_the_next_context() {
        let mut layout = MemoryLayout::new();
        layout.alloc("w", 8);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        let (a, b, c) = (rt.ctx(), rt.software_ctx(), rt.ctx());
        assert_eq!([a.id(), b.id(), c.id()], [0, 1, 2]);
        drop(b);
        assert_eq!(rt.ctx().id(), 1, "the lowest free id");
        drop(a);
        assert_eq!(rt.software_ctx().id(), 0);
        // A second runtime on the memory leases from the same ids.
        let other = HtmRuntime::from_memory(Arc::clone(rt.memory()), HtmConfig::default());
        assert_eq!(other.ctx().id(), 0, "the previous context dropped");
        let _held = other.ctx();
        assert_eq!(rt.ctx().id(), 1);
    }

    #[test]
    fn shared_memory_between_runtimes() {
        let mut layout = MemoryLayout::new();
        let r = layout.alloc("w", 8);
        let mem = Arc::new(TxMemory::new(&layout));
        let rt1 = HtmRuntime::from_memory(Arc::clone(&mem), HtmConfig::default());
        let rt2 = HtmRuntime::from_memory(Arc::clone(&mem), HtmConfig::default());
        rt1.memory().store_direct(r.addr(0), 9);
        assert_eq!(rt2.memory().load_direct(r.addr(0)), 9);
    }

    #[test]
    fn htm_switch_gates_new_transactions() {
        use crate::abort::HtmStateError;
        let mut layout = MemoryLayout::new();
        let r = layout.alloc("w", 8);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        let mut ctx = rt.ctx();
        assert!(rt.htm_available());
        rt.set_htm_available(false);
        assert!(!rt.htm_available());
        assert_eq!(ctx.begin(), Err(HtmStateError::Unavailable));
        rt.set_htm_available(true);
        ctx.begin().unwrap();
        ctx.write(r.addr(0), 3).unwrap();
        ctx.commit().unwrap();
        assert_eq!(rt.memory().load_direct(r.addr(0)), 3);
    }

    #[test]
    fn in_flight_transaction_survives_htm_switch_off() {
        let mut layout = MemoryLayout::new();
        let r = layout.alloc("w", 8);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        let mut ctx = rt.ctx();
        ctx.begin().unwrap();
        ctx.write(r.addr(0), 9).unwrap();
        rt.set_htm_available(false);
        // Only new begins are gated: the active transaction still commits.
        ctx.commit().unwrap();
        assert_eq!(rt.memory().load_direct(r.addr(0)), 9);
    }

    #[test]
    fn capacity_words_matches_paper() {
        let mut layout = MemoryLayout::new();
        layout.alloc("w", 8);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        assert_eq!(rt.capacity_words(), 4096);
    }
}
