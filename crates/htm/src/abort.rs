//! Abort status codes, mirroring the Intel RTM abort status word.

use std::fmt;

/// Why an emulated hardware transaction aborted.
///
/// These correspond to the bits of the `EAX` abort status delivered to the
/// `XBEGIN` fallback handler on real hardware:
///
/// | Variant | RTM status bit |
/// |---------|----------------|
/// | [`AbortCode::Explicit`] | `_XABORT_EXPLICIT` (+ the 8-bit immediate) |
/// | [`AbortCode::Conflict`] | `_XABORT_CONFLICT` |
/// | [`AbortCode::Capacity`] | `_XABORT_CAPACITY` |
/// | [`AbortCode::Spurious`] | none of the above set (interrupt, page fault, …) |
///
/// `may_retry` models `_XABORT_RETRY`: Intel sets it for transient causes
/// (conflicts) and clears it for deterministic ones (capacity). TuFast's
/// router follows exactly this bit — retry conflict aborts in H mode, fall
/// straight to O mode on capacity aborts (paper §IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCode {
    /// The transaction called `XABORT imm8` — in this crate,
    /// [`HtmCtx::abort_explicit`](crate::HtmCtx::abort_explicit).
    Explicit(u8),
    /// Another thread committed (or directly wrote) a line in this
    /// transaction's read set, or locked a line it needs.
    Conflict,
    /// The transaction's footprint no longer fits the modelled L1 cache
    /// (a set exceeded its associativity). Deterministic: retrying the same
    /// transaction will abort again.
    Capacity,
    /// An environmental abort (interrupt, fault). Delivered only by a
    /// configured [`AbortSource`](crate::AbortSource).
    Spurious,
}

impl AbortCode {
    /// Whether Intel would set `_XABORT_RETRY`, i.e. whether an immediate
    /// retry of the same transaction has a chance of succeeding.
    #[inline]
    pub fn may_retry(self) -> bool {
        match self {
            AbortCode::Conflict | AbortCode::Spurious => true,
            AbortCode::Capacity => false,
            // An explicit abort repeats unless the caller changes strategy;
            // Intel leaves the retry bit to the imm8 convention, and TuFast
            // treats lock-busy explicit aborts as retryable.
            AbortCode::Explicit(_) => true,
        }
    }

    /// Whether this abort was caused by the capacity model.
    #[inline]
    pub fn is_capacity(self) -> bool {
        matches!(self, AbortCode::Capacity)
    }
}

impl fmt::Display for AbortCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCode::Explicit(c) => write!(f, "explicit({c:#04x})"),
            AbortCode::Conflict => f.write_str("conflict"),
            AbortCode::Capacity => f.write_str("capacity"),
            AbortCode::Spurious => f.write_str("spurious"),
        }
    }
}

/// Misuse of the [`HtmCtx`](crate::HtmCtx) state machine (distinct from a
/// transaction abort): beginning a transaction twice, or operating outside
/// one. Real RTM would raise `#GP` or silently flatten; the emulation makes
/// the programming error explicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HtmStateError {
    /// `begin` was called while a transaction was already active beyond the
    /// supported flat-nesting depth.
    NestingOverflow,
    /// `read`/`write`/`commit` was called with no active transaction.
    NotInTransaction,
    /// HTM has been switched off at runtime
    /// ([`HtmRuntime::set_htm_available`](crate::HtmRuntime::set_htm_available)),
    /// modelling a machine without TSX or a microcode update that disables
    /// it. `begin` fails immediately; callers must take their software
    /// fallback path.
    Unavailable,
}

impl fmt::Display for HtmStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HtmStateError::NestingOverflow => f.write_str("HTM nesting depth exceeded"),
            HtmStateError::NotInTransaction => f.write_str("no active HTM transaction"),
            HtmStateError::Unavailable => f.write_str("HTM is unavailable on this runtime"),
        }
    }
}

impl std::error::Error for HtmStateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_bit_matches_intel_semantics() {
        assert!(AbortCode::Conflict.may_retry());
        assert!(AbortCode::Spurious.may_retry());
        assert!(!AbortCode::Capacity.may_retry());
        assert!(AbortCode::Explicit(0).may_retry());
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(AbortCode::Conflict.to_string(), "conflict");
        assert_eq!(AbortCode::Capacity.to_string(), "capacity");
        assert_eq!(AbortCode::Explicit(0xAB).to_string(), "explicit(0xab)");
    }
}
