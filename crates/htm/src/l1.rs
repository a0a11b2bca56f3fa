//! The set-associative L1 capacity model.
//!
//! Real RTM tracks the transactional footprint in the L1 data cache: every
//! line read or written must stay resident, and an eviction aborts the
//! transaction with the capacity status. Because the cache is set
//! associative, eviction happens when *one set* overflows, not when the
//! whole cache is full — the paper's §III observation that "cache overflow
//! may occur before 32 KB of unique memory access" and that a 10 KB random
//! footprint already aborts ~25 % of the time.
//!
//! The model: line `l` maps to set `l mod num_sets`; the transaction aborts
//! the moment a set would hold more than `associativity` distinct
//! transactional lines. For uniformly random lines the per-set occupancy is
//! ~Poisson(λ = lines/num_sets), which reproduces the paper's Figure 4 curve
//! without any fitted constants.

use crate::config::HtmConfig;

/// Per-transaction cache-footprint tracker.
///
/// The caller is responsible for feeding it each *distinct* line once
/// (dedup via [`Footprint`](crate::Footprint)).
#[derive(Debug, Clone)]
pub struct L1Model {
    occupancy: Vec<u16>,
    set_mask: u64,
    ways: u16,
    lines: u32,
}

impl L1Model {
    /// Build a tracker for the given geometry.
    pub fn new(config: &HtmConfig) -> Self {
        let sets = config.num_sets();
        L1Model {
            occupancy: vec![0; sets],
            set_mask: sets as u64 - 1,
            ways: (config.associativity - config.reserved_ways) as u16,
            lines: 0,
        }
    }

    /// Forget the current footprint (start of a transaction / HTM piece).
    pub fn reset(&mut self) {
        if self.lines > 0 {
            self.occupancy.fill(0);
            self.lines = 0;
        }
    }

    /// Record one distinct transactional line. Returns `false` when the
    /// line's set overflows — the caller must abort with
    /// [`AbortCode::Capacity`](crate::AbortCode::Capacity).
    #[inline]
    pub fn touch_new_line(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        if self.occupancy[set] >= self.ways {
            return false;
        }
        self.occupancy[set] += 1;
        self.lines += 1;
        true
    }

    /// Number of distinct lines currently tracked.
    #[inline]
    pub fn lines(&self) -> u32 {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L1Model {
        // 8 sets × 2 ways (HtmConfig::tiny_for_tests geometry).
        L1Model::new(&HtmConfig::tiny_for_tests())
    }

    #[test]
    fn sequential_lines_fill_whole_cache() {
        let mut l1 = tiny();
        // 16 sequential lines = exactly 2 per set: all fit.
        for line in 0..16 {
            assert!(l1.touch_new_line(line), "line {line} should fit");
        }
        // The 17th line overflows whichever set it maps to.
        assert!(!l1.touch_new_line(16));
        assert_eq!(l1.lines(), 16);
    }

    #[test]
    fn same_set_overflows_early() {
        let mut l1 = tiny();
        // Lines 0, 8, 16 all map to set 0 (8 sets); third must overflow.
        assert!(l1.touch_new_line(0));
        assert!(l1.touch_new_line(8));
        assert!(!l1.touch_new_line(16));
        assert_eq!(l1.lines(), 2);
    }

    #[test]
    fn reset_clears_footprint() {
        let mut l1 = tiny();
        assert!(l1.touch_new_line(0));
        assert!(l1.touch_new_line(8));
        l1.reset();
        assert_eq!(l1.lines(), 0);
        assert!(l1.touch_new_line(16));
    }

    #[test]
    fn default_geometry_capacity_is_448_sequential_lines() {
        // 64 sets × (8 − 1 reserved) ways.
        let mut l1 = L1Model::new(&HtmConfig::default());
        for line in 0..448 {
            assert!(l1.touch_new_line(line));
        }
        assert!(!l1.touch_new_line(448));
    }

    /// Statistical check of the paper's Figure 4 anchor points: with random
    /// lines over the default geometry, ~160 lines (10 KB) should abort
    /// roughly a quarter of the time and 480 lines (30 KB) nearly always.
    #[test]
    fn random_footprint_abort_probability_matches_paper_anchors() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let config = HtmConfig::default();
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 2000;
        let abort_rate = |lines_per_tx: u64, rng: &mut SmallRng| {
            let mut aborts = 0;
            let mut l1 = L1Model::new(&config);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..trials {
                l1.reset();
                seen.clear();
                let mut fit = true;
                while (seen.len() as u64) < lines_per_tx {
                    let line = rng.random_range(0..1u64 << 24);
                    if seen.insert(line) && !l1.touch_new_line(line) {
                        fit = false;
                        break;
                    }
                }
                if !fit {
                    aborts += 1;
                }
            }
            aborts as f64 / trials as f64
        };
        let p10kb = abort_rate(160, &mut rng); // 10 KB
        let p30kb = abort_rate(480, &mut rng); // 30 KB
        assert!(
            (0.10..0.45).contains(&p10kb),
            "10KB abort rate {p10kb} outside paper band"
        );
        assert!(p30kb > 0.95, "30KB abort rate {p30kb} should be ~1");
    }
}
