//! Configuration of the emulated HTM.

use std::sync::Arc;

use crate::abort::AbortCode;

/// Deterministic abort-injection hook, consulted once per transactional
/// operation (read or write).
///
/// The closure receives the context id and that context's global
/// operation sequence number and returns `true` to force a
/// [`Spurious`](crate::AbortCode::Spurious) abort at exactly that point.
/// Unlike [`HtmConfig::spurious_abort_rate`] (a per-op coin flip), an
/// injector makes abort placement a pure function of (context, op) — the
/// schedule explorer in `tufast-check` uses it to enumerate adversarial
/// "abort at every Nth op" schedules reproducibly.
#[derive(Clone)]
pub struct AbortInjector(Arc<dyn Fn(u32, u64) -> bool + Send + Sync>);

impl AbortInjector {
    /// Wrap a decision function `f(ctx_id, op_seq) -> abort?`.
    pub fn new(f: impl Fn(u32, u64) -> bool + Send + Sync + 'static) -> Self {
        AbortInjector(Arc::new(f))
    }

    /// Abort every `n`-th transactional operation (1-based) of every
    /// context. `n = 0` never fires.
    pub fn every_nth(n: u64) -> Self {
        Self::new(move |_, seq| n != 0 && seq % n == 0)
    }

    /// Whether to abort the operation numbered `op_seq` on context
    /// `ctx_id`.
    #[inline]
    pub fn fires(&self, ctx_id: u32, op_seq: u64) -> bool {
        (self.0)(ctx_id, op_seq)
    }
}

impl std::fmt::Debug for AbortInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AbortInjector(..)")
    }
}

/// Generalized deterministic abort source, consulted once per
/// transactional operation *before* [`AbortInjector`] and the random
/// spurious rate.
///
/// Where an [`AbortInjector`] can only force [`Spurious`] aborts, a source
/// returns the full [`AbortCode`] to deliver — a fault-injection layer can
/// therefore synthesize [`Capacity`] aborts (deterministic, non-retryable)
/// as well as [`Spurious`] ones (environmental, retryable) and exercise
/// both fallback paths of every hybrid scheduler. The decision is a pure
/// function of `(ctx_id, op_seq)`, so seeded fault plans replay exactly.
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
    /// Per-transactional-operation probability of an environmental
    /// ([`Spurious`](crate::AbortCode::Spurious)) abort. `0.0` disables
    /// injection (useful for deterministic tests); the paper's environment
    /// has a small nonzero rate from interrupts.
    pub spurious_abort_rate: f64,
    /// Maximum flat-nesting depth (Intel supports 7 nested `XBEGIN`s that
    /// are flattened into the outermost transaction).
    pub max_nesting: u32,
    /// Seed used to derive per-context RNGs for spurious-abort injection.
    pub seed: u64,
    /// Optional deterministic abort injector, consulted on every
    /// transactional operation *in addition to* the random
    /// `spurious_abort_rate`. `None` (the default) disables it.
    pub abort_injector: Option<AbortInjector>,
    /// Optional deterministic abort *source*, consulted before the
    /// injector and the random rate on every transactional operation. Can
    /// deliver any [`AbortCode`](crate::AbortCode) (the fault-injection
    /// layer uses it for seeded spurious *and* capacity storms). `None`
    /// (the default) disables it.
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
        assert!(
            (0.0..1.0).contains(&self.spurious_abort_rate),
            "spurious rate must be in [0,1)"
        );
    }

    /// A tiny cache geometry (1 KB, 2-way) that makes capacity aborts easy to
    /// trigger in unit tests.
    pub fn tiny_for_tests() -> Self {
        HtmConfig {
            l1_bytes: 1024,
            associativity: 2,
            line_bytes: 64,
            reserved_ways: 0,
            spurious_abort_rate: 0.0,
            max_nesting: 7,
            seed: 0xDEAD_BEEF,
            abort_injector: None,
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
            spurious_abort_rate: 0.0,
            max_nesting: 7,
            seed: 0x7A5F_2019, // "TuFast 2019"
            abort_injector: None,
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
    #[should_panic(expected = "associativity")]
    fn zero_associativity_rejected() {
        let c = HtmConfig {
            associativity: 0,
            ..HtmConfig::default()
        };
        c.validate();
    }
}
