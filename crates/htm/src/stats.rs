//! Per-context HTM statistics, mergeable across threads.

use crate::abort::AbortCode;

crate::counters! {
    /// Counters describing one context's (or an aggregate of contexts')
    /// transactional activity. The benchmark harness uses these to reproduce the
    /// paper's Figure 4 (abort probability) and to cross-check mode-routing
    /// decisions in the TuFast core.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct HtmStats {
        /// Transactions started.
        pub begins: u64,
        /// Transactions committed.
        pub commits: u64,
        /// Aborts caused by conflicts (including lock-busy lines).
        pub aborts_conflict: u64,
        /// Aborts caused by the capacity model.
        pub aborts_capacity: u64,
        /// Aborts requested via `abort_explicit`.
        pub aborts_explicit: u64,
        /// Injected environmental aborts.
        pub aborts_spurious: u64,
        /// Transactional reads performed (including aborted work).
        pub reads: u64,
        /// Transactional writes performed (including aborted work).
        pub writes: u64,
        /// Successful snapshot extensions (conflict aborts avoided by
        /// revalidating the read set).
        pub extensions: u64,
        /// Largest distinct-line footprint seen in any transaction.
        pub max_lines: u32 => max,
    }
}

impl HtmStats {
    /// Total aborts of all causes.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_explicit + self.aborts_spurious
    }

    /// Fraction of started transactions that aborted (0 when none started).
    pub fn abort_rate(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            self.aborts() as f64 / self.begins as f64
        }
    }

    pub(crate) fn record_abort(&mut self, code: AbortCode) {
        match code {
            AbortCode::Conflict => self.aborts_conflict += 1,
            AbortCode::Capacity => self.aborts_capacity += 1,
            AbortCode::Explicit(_) => self.aborts_explicit += 1,
            AbortCode::Spurious => self.aborts_spurious += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_accounting() {
        let mut s = HtmStats::default();
        s.record_abort(AbortCode::Conflict);
        s.record_abort(AbortCode::Capacity);
        s.record_abort(AbortCode::Explicit(3));
        s.record_abort(AbortCode::Spurious);
        assert_eq!(s.aborts(), 4);
        assert_eq!(s.aborts_conflict, 1);
        assert_eq!(s.aborts_capacity, 1);
        assert_eq!(s.aborts_explicit, 1);
        assert_eq!(s.aborts_spurious, 1);
    }

    #[test]
    fn abort_rate_handles_zero_begins() {
        assert_eq!(HtmStats::default().abort_rate(), 0.0);
        let s = HtmStats {
            begins: 4,
            aborts_conflict: 1,
            ..Default::default()
        };
        assert!((s.abort_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let a = HtmStats {
            begins: 1,
            commits: 2,
            aborts_conflict: 3,
            aborts_capacity: 4,
            aborts_explicit: 5,
            aborts_spurious: 6,
            reads: 7,
            writes: 8,
            extensions: 9,
            max_lines: 10,
        };
        let mut m = a.clone();
        m.merge(&HtmStats::from_values(a.values().map(|v| v * 100)));
        m.merge(&HtmStats {
            max_lines: 3,
            ..Default::default()
        });
        assert_eq!(
            m,
            HtmStats {
                begins: 101,
                commits: 202,
                aborts_conflict: 303,
                aborts_capacity: 404,
                aborts_explicit: 505,
                aborts_spurious: 606,
                reads: 707,
                writes: 808,
                extensions: 909,
                max_lines: 1000,
            }
        );
        assert_eq!(
            HtmStats::NAMES,
            [
                "begins",
                "commits",
                "aborts_conflict",
                "aborts_capacity",
                "aborts_explicit",
                "aborts_spurious",
                "reads",
                "writes",
                "extensions",
                "max_lines",
            ]
        );
        assert_eq!(a.values(), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }
}
