//! # tufast-htm — a software emulation of Intel RTM
//!
//! TuFast (ICDE 2019) relies on Intel TSX/RTM hardware transactions:
//! `XBEGIN`/`XEND`/`XABORT`, eager conflict detection through the cache
//! coherence protocol, and a transactional capacity bounded by the 32 KB,
//! 8-way, 64-byte-line L1 data cache. TSX is unavailable (and fused off on
//! modern parts), so this crate reproduces those semantics in software:
//!
//! * [`TxMemory`] — the shared transactional heap: a flat array of
//!   [`AtomicU64`](std::sync::atomic::AtomicU64) words plus one *line
//!   metadata* word (a versioned lock, TL2-style) per 64-byte cache line and
//!   a global version clock. Non-transactional ("direct") accesses also go
//!   through the line metadata, which gives the emulation the *strong
//!   isolation* real HTM gets from cache coherence: a plain store by another
//!   thread aborts transactions that read the same line.
//! * [`HtmCtx`] — a per-thread transaction context exposing
//!   [`begin`](HtmCtx::begin), [`read`](HtmCtx::read), [`write`](HtmCtx::write),
//!   [`commit`](HtmCtx::commit) and [`abort_explicit`](HtmCtx::abort_explicit),
//!   mirroring `XBEGIN`/loads/stores/`XEND`/`XABORT`.
//! * [`L1Model`] — the capacity model. Every distinct transactional line
//!   occupies one of the 7 usable ways (8 less the reserved one) of one of
//!   the 64 cache sets; the eighth line mapped to a set raises
//!   [`AbortCode::Capacity`]. With uniformly random addresses this
//!   model *derives* the abort-probability curve the paper measures in its
//!   Figure 4 (≈ 23 % at 10 KB, ≈ 1.0 beyond 30 KB) instead of hard-coding it.
//! * [`AbortCode`] — the RTM abort status: `Conflict`, `Capacity`,
//!   `Explicit(code)` and `Spurious` (interrupts and other environmental
//!   aborts, delivered by a configured [`AbortSource`]).
//!
//! ## Conflict detection fidelity
//!
//! Real RTM aborts a transaction the instant another core writes a line in
//! its read set (or accesses a line in its write set). The emulation detects
//! the same conflicts at the transaction's *next transactional access* (every
//! read validates the line version, extending the snapshot TinySTM-style when
//! possible) and, finally, at commit, where the read set is re-validated
//! under the write locks. Committed transactions are therefore strictly
//! serializable, exactly as with real HTM; the only difference is that a
//! doomed transaction may execute a few more instructions before noticing.
//!
//! ## Example
//!
//! ```
//! use tufast_htm::{HtmConfig, HtmRuntime, MemoryLayout};
//!
//! let mut layout = MemoryLayout::new();
//! let counters = layout.alloc("counters", 16);
//! let runtime = HtmRuntime::new(layout, HtmConfig::default());
//! let mut ctx = runtime.ctx();
//!
//! // One emulated hardware transaction: increment two counters atomically.
//! loop {
//!     ctx.begin().unwrap();
//!     let a = match ctx.read(counters.addr(0)) { Ok(v) => v, Err(_) => continue };
//!     if ctx.write(counters.addr(0), a + 1).is_err() { continue; }
//!     let b = match ctx.read(counters.addr(1)) { Ok(v) => v, Err(_) => continue };
//!     if ctx.write(counters.addr(1), b + 1).is_err() { continue; }
//!     if ctx.commit().is_ok() { break; }
//! }
//! let mem = runtime.memory();
//! assert_eq!(mem.load_direct(counters.addr(0)), 1);
//! assert_eq!(mem.load_direct(counters.addr(1)), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod abort;
mod batch;
mod config;
mod counters;
mod ctx;
mod footprint;
mod idtable;
mod l1;
mod lease;
mod memory;
mod meta;
mod runtime;
mod stats;
pub mod witness;
mod wordmap;

pub use abort::{AbortCode, HtmStateError};
pub use batch::LineBatch;
pub use config::{AbortSource, HtmConfig};
pub use counters::AtomicCounters;
pub use ctx::HtmCtx;
pub use footprint::Footprint;
pub use idtable::IdTable;
pub use l1::L1Model;
pub use lease::IdLeases;
pub use memory::{
    Addr, LineState, MemRegion, MemoryLayout, TxMemory, DIRECT_OWNER, WORDS_PER_LINE,
};
pub use runtime::HtmRuntime;
pub use stats::HtmStats;
pub use wordmap::WordMap;

/// Bit-cast an `f64` into the `u64` payload stored in transactional words.
#[inline]
pub fn f64_to_word(v: f64) -> u64 {
    v.to_bits()
}

/// Bit-cast a transactional word back into an `f64`.
#[inline]
pub fn word_to_f64(w: u64) -> f64 {
    f64::from_bits(w)
}

#[cfg(test)]
mod pack_tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(word_to_f64(f64_to_word(v)).to_bits(), v.to_bits());
        }
    }
}
