//! Configuration of the emulated HTM.

use std::sync::Arc;

use crate::abort::AbortCode;

/// Deterministic abort injection: the emulator's one hook for aborts the
/// memory model does not produce itself, consulted once per transactional
/// operation (read or write).
///
/// The closure receives the context id and that context's operation
/// sequence number (1-based, never reset) and returns the [`AbortCode`] to
/// deliver at exactly that point, if any. A fault-injection layer can
/// therefore synthesize [`Capacity`] aborts (deterministic, non-retryable)
/// as well as [`Spurious`] ones (environmental, retryable) and exercise
/// both fallback paths of every hybrid scheduler; the schedule explorer in
/// `tufast-check` places a [`Spurious`] abort at every `n`-th operation.
/// The decision is a pure function of `(ctx_id, op_seq)`, so seeded plans
/// replay exactly.
///
/// [`Spurious`]: crate::AbortCode::Spurious
/// [`Capacity`]: crate::AbortCode::Capacity
#[derive(Clone)]
pub struct AbortSource(Arc<dyn Fn(u32, u64) -> Option<AbortCode> + Send + Sync>);

impl AbortSource {
    /// Wrap a decision function `f(ctx_id, op_seq) -> Some(code)` to abort.
    pub fn new(f: impl Fn(u32, u64) -> Option<AbortCode> + Send + Sync + 'static) -> Self {
        AbortSource(Arc::new(f))
    }

    /// The abort (if any) to deliver at operation `op_seq` of context
    /// `ctx_id`.
    #[inline]
    pub fn sample(&self, ctx_id: u32, op_seq: u64) -> Option<AbortCode> {
        (self.0)(ctx_id, op_seq)
    }
}

impl std::fmt::Debug for AbortSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AbortSource(..)")
    }
}

/// Parameters of the emulated RTM implementation.
///
/// The defaults model the Haswell-class L1D the paper describes: 32 KB,
/// 8-way set-associative, 64-byte lines — 64 sets, one way of each reserved
/// for non-transactional data, so a transaction aborts with
/// [`AbortCode::Capacity`](crate::AbortCode::Capacity) as soon as an eighth
/// distinct transactional line maps to a set that holds seven.
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// Total modelled L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// Cache associativity (ways per set).
    pub associativity: usize,
    /// Cache line size in bytes. Must be a multiple of 8.
    pub line_bytes: usize,
    /// Ways per set unavailable to the transaction because they hold
    /// non-transactional data (stack, code, other heap lines). Real
    /// transactions never get the whole L1 to themselves; reserving one way
    /// reproduces the paper's measured ~25 % abort probability for a 10 KB
    /// random footprint (a pure 8-way model gives only ~6 %).
    pub reserved_ways: usize,
    /// Maximum flat-nesting depth (Intel supports 7 nested `XBEGIN`s that
    /// are flattened into the outermost transaction).
    pub max_nesting: u32,
    /// Optional deterministic abort source, consulted on every
    /// transactional operation. Can deliver any
    /// [`AbortCode`](crate::AbortCode) (the fault-injection layer uses it
    /// for seeded spurious *and* capacity storms). `None` (the default)
    /// injects nothing.
    pub abort_source: Option<AbortSource>,
}

impl HtmConfig {
    /// Number of cache sets implied by the geometry.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.l1_bytes / (self.associativity * self.line_bytes)
    }

    /// Maximum number of distinct lines a transaction can ever hold
    /// (the ways left after reservation, across all sets).
    #[inline]
    pub fn max_lines(&self) -> usize {
        self.num_sets() * (self.associativity - self.reserved_ways)
    }

    /// Capacity in 8-byte words — the paper's "8,192 ints" figure is the
    /// same quantity counted in 4-byte ints.
    #[inline]
    pub fn capacity_words(&self) -> usize {
        self.l1_bytes / 8
    }

    /// Validate the geometry; called by the runtime at construction.
    pub(crate) fn validate(&self) {
        assert!(
            self.line_bytes >= 8 && self.line_bytes.is_multiple_of(8),
            "line size must be a multiple of 8 bytes"
        );
        assert!(self.associativity >= 1, "associativity must be at least 1");
        assert!(
            self.reserved_ways < self.associativity,
            "reserved ways must leave at least one usable way"
        );
        assert!(
            self.l1_bytes
                .is_multiple_of(self.associativity * self.line_bytes),
            "L1 size must be a whole number of sets"
        );
        assert!(
            self.num_sets().is_power_of_two(),
            "number of sets must be a power of two"
        );
    }

    /// The geometry no footprint over a memory of `lines` lines can
    /// overflow: every set has a way for each line that maps to it. The
    /// sets are the fewest (a power of two) whose ways fit
    /// [`L1Model`](crate::L1Model)'s per-set count. A software TM's
    /// context runs on it
    /// ([`HtmRuntime::software_ctx`](crate::HtmRuntime::software_ctx)).
    // Inline: emitted here, it moved the codegen units and `HtmCtx::read`
    // lost an inlining (EXPERIMENTS.md, "STM on a software context").
    #[inline]
    pub fn unbounded(lines: usize) -> Self {
        let sets = lines.div_ceil(usize::from(u16::MAX)).next_power_of_two();
        let ways = lines.div_ceil(sets).max(1);
        HtmConfig {
            l1_bytes: sets * ways * 64,
            associativity: ways,
            reserved_ways: 0,
            ..HtmConfig::default()
        }
    }

    /// A tiny cache geometry (1 KB, 2-way) that makes capacity aborts easy to
    /// trigger in unit tests.
    pub fn tiny_for_tests() -> Self {
        HtmConfig {
            l1_bytes: 1024,
            associativity: 2,
            line_bytes: 64,
            reserved_ways: 0,
            max_nesting: 7,
            abort_source: None,
        }
    }
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            l1_bytes: 32 * 1024,
            associativity: 8,
            line_bytes: 64,
            reserved_ways: 1,
            max_nesting: 7,
            abort_source: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_haswell() {
        let c = HtmConfig::default();
        c.validate();
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.max_lines(), 448); // one way per set reserved
        assert_eq!(c.capacity_words(), 4096);
    }

    #[test]
    fn tiny_geometry_is_valid() {
        let c = HtmConfig::tiny_for_tests();
        c.validate();
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.max_lines(), 16);
    }

    #[test]
    fn an_unbounded_geometry_holds_every_line_of_its_memory() {
        for lines in [0, 1, 65_535, 65_536, 10_000_000] {
            let c = HtmConfig::unbounded(lines);
            c.validate();
            // Every line at once: no set receives more than it has ways.
            let mut l1 = crate::L1Model::new(&c);
            for line in 0..lines as u64 {
                assert!(l1.touch_new_line(line), "line {line} of {lines}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_associativity_rejected() {
        let c = HtmConfig {
            associativity: 0,
            ..HtmConfig::default()
        };
        c.validate();
    }
}
