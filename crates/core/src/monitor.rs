//! Online contention monitoring and the `period` model (paper §IV-D).
//!
//! Model: an ongoing HTM piece aborts on its next operation with
//! probability `p`. Committing after `P` operations banks `P` operations
//! with probability `(1-p)^P`, so the expected committed work is
//! `E[W] = (1-p)^P · P`, maximised at `P* = -1/ln(1-p) ≈ 1/p`.
//!
//! The monitor tracks `p` as an exponentially-weighted moving average of
//! observed (aborts / operations) inside O-mode pieces, so the suggested
//! initial `period` follows workload drift — the effect the paper's
//! Figure 17 shows on PageRank, where late iterations concentrate on
//! high-degree, high-contention vertices and a static period loses
//! throughput.

/// EWMA weight of a new observation window.
const ALPHA: f64 = 0.2;
/// Operations to accumulate before folding a window into the EWMA.
const WINDOW_OPS: u64 = 256;
/// EWMA weight of one H-mode outcome observation.
const H_ALPHA: f64 = 0.1;
/// Smoothed H-failure rate above which entering H mode is judged futile.
const H_FUTILE_THRESHOLD: f64 = 0.95;

/// Per-worker contention monitor.
#[derive(Clone, Debug)]
pub struct ContentionMonitor {
    /// Smoothed per-operation abort probability.
    p: f64,
    /// Smoothed H-mode entry failure rate (an entry "fails" when it ends
    /// in O/L instead of an H commit). Drives graceful degradation: under
    /// persistent capacity or spurious-abort storms the router stops
    /// burning H retries on every transaction.
    h_fail: f64,
    window_ops: u64,
    window_aborts: u64,
    min_period: u32,
    max_period: u32,
}

impl ContentionMonitor {
    /// Create a monitor clamping suggestions to `[min_period, max_period]`.
    pub fn new(min_period: u32, max_period: u32) -> Self {
        ContentionMonitor {
            // Optimistic prior: roughly one abort per max-size piece.
            p: 1.0 / f64::from(max_period.max(2)),
            h_fail: 0.0,
            window_ops: 0,
            window_aborts: 0,
            min_period,
            max_period,
        }
    }

    /// Record `ops` HTM-piece operations of which `aborts` ended in an
    /// abort. Folds into the EWMA once enough evidence accumulates.
    pub fn observe(&mut self, ops: u64, aborts: u64) {
        self.window_ops += ops;
        self.window_aborts += aborts;
        if self.window_ops >= WINDOW_OPS {
            let sample = self.window_aborts as f64 / self.window_ops as f64;
            self.p = flush_subnormal((1.0 - ALPHA) * self.p + ALPHA * sample);
            self.window_ops = 0;
            self.window_aborts = 0;
        }
    }

    /// Current smoothed per-operation abort probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Record the outcome of one H-mode entry: `committed` is whether the
    /// transaction ultimately committed in H (as opposed to falling through
    /// to O or L).
    pub fn observe_h(&mut self, committed: bool) {
        let sample = if committed { 0.0 } else { 1.0 };
        self.h_fail = flush_subnormal((1.0 - H_ALPHA) * self.h_fail + H_ALPHA * sample);
    }

    /// Whether entering H mode currently looks futile (persistent failure
    /// of H entries — e.g. a spurious-abort storm or an HTM capacity
    /// regime this workload always overflows). The router should skip H
    /// and reprobe occasionally so recovery is detected.
    pub fn h_futile(&self) -> bool {
        self.h_fail > H_FUTILE_THRESHOLD
    }

    /// The `period` maximising expected committed work under the current
    /// `p`: `P* = round(-1/ln(1-p))`, clamped to the configured range.
    pub fn suggest_period(&self) -> u32 {
        let p = self.p.clamp(1e-9, 0.999_999);
        let raw = -1.0 / (1.0 - p).ln();
        let rounded = raw.round().max(1.0).min(f64::from(u32::MAX)) as u32;
        rounded.clamp(self.min_period, self.max_period)
    }
}

/// `x`, or 0 below the smallest normal `f64`. A decaying EWMA otherwise
/// ends on a subnormal fixed point (`0.9 × 5 ulp` rounds back to 5 ulp),
/// and every later update pays a microcode assist on its multiply.
#[inline]
fn flush_subnormal(x: f64) -> f64 {
    if x < f64::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// Expected committed operations for a piece of length `period` under
/// per-operation abort probability `p` — exposed for the model-validation
/// bench (it plots `E[W]` and checks the argmax lands on
/// [`ContentionMonitor::suggest_period`]).
pub fn expected_committed_work(p: f64, period: u32) -> f64 {
    (1.0 - p).powi(period as i32) * f64::from(period)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suggestion_tracks_one_over_p() {
        let mut m = ContentionMonitor::new(1, 1_000_000);
        // Saturate the EWMA with p = 0.01 evidence.
        for _ in 0..200 {
            m.observe(100, 1);
        }
        assert!((m.p() - 0.01).abs() < 0.003, "p = {}", m.p());
        let period = m.suggest_period();
        // -1/ln(0.99) ≈ 99.5.
        assert!((80..=130).contains(&period), "period = {period}");
    }

    #[test]
    fn clamps_to_configured_range() {
        let mut low = ContentionMonitor::new(100, 4096);
        for _ in 0..200 {
            low.observe(100, 50); // p ≈ 0.5 → P* ≈ 1
        }
        assert_eq!(low.suggest_period(), 100);

        let mut high = ContentionMonitor::new(100, 4096);
        for _ in 0..200 {
            high.observe(1000, 0); // p → 0 → P* → ∞
        }
        assert_eq!(high.suggest_period(), 4096);
    }

    #[test]
    fn argmax_of_expected_work_matches_suggestion() {
        for &p in &[0.002, 0.01, 0.05] {
            let mut m = ContentionMonitor::new(1, 1_000_000);
            for _ in 0..500 {
                m.observe(1000, (1000.0 * p) as u64);
            }
            let suggested = m.suggest_period();
            let e_at = |q: u32| expected_committed_work(m.p(), q);
            // The suggestion must beat periods 2× away on either side.
            assert!(e_at(suggested) >= e_at(suggested * 2) * 0.999, "p={p}");
            assert!(
                e_at(suggested) >= e_at((suggested / 2).max(1)) * 0.999,
                "p={p}"
            );
        }
    }

    #[test]
    fn h_futility_needs_persistent_failure_and_recovers() {
        let mut m = ContentionMonitor::new(1, 4096);
        assert!(!m.h_futile());
        // A few failures among successes: not futile.
        for _ in 0..10 {
            m.observe_h(false);
            m.observe_h(true);
        }
        assert!(!m.h_futile());
        // A long unbroken failure streak: futile.
        for _ in 0..64 {
            m.observe_h(false);
        }
        assert!(m.h_futile());
        // Successful reprobes pull it back out of degraded mode.
        for _ in 0..64 {
            m.observe_h(true);
        }
        assert!(!m.h_futile());
    }

    #[test]
    fn a_decayed_h_failure_rate_reaches_zero_not_a_subnormal() {
        let mut m = ContentionMonitor::new(1, 4096);
        m.observe_h(false);
        for _ in 0..10_000 {
            m.observe_h(true);
            let rate = m.h_fail;
            assert!(rate == 0.0 || rate.is_normal(), "h_fail = {rate:e}");
        }
        assert_eq!(m.h_fail, 0.0);

        // The abort probability decays the same way under abort-free windows.
        for _ in 0..10_000 {
            m.observe(WINDOW_OPS, 0);
            assert!(m.p() == 0.0 || m.p().is_normal(), "p = {:e}", m.p());
        }
        assert_eq!(m.p(), 0.0);
    }

    #[test]
    fn window_accumulates_before_folding() {
        let mut m = ContentionMonitor::new(1, 10_000);
        let p0 = m.p();
        m.observe(10, 10); // far below WINDOW_OPS: no fold yet
        assert_eq!(m.p(), p0);
        m.observe(WINDOW_OPS, 0); // now it folds
        assert_ne!(m.p(), p0);
    }
}
