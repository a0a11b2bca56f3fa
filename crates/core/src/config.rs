//! TuFast routing and adaptation parameters (paper §IV-C/§IV-D).

/// Tunable parameters of the three-mode router.
///
/// The defaults follow the paper: a handful of H-mode retries (Intel's
/// recommendation, studied in the paper's Figure 16), `period` halving with
/// a floor of 50 operations (the paper's 100-line floor at two lines per
/// operation, see [`min_period`](Self::min_period)), and a size-hint entry
/// rule that sends obviously-oversized transactions straight past H (and,
/// when truly huge, straight to L).
#[derive(Clone, Debug)]
pub struct TuFastConfig {
    /// H-mode attempts before proceeding to O mode (conflict aborts only —
    /// capacity aborts skip immediately).
    pub h_retries: u32,
    /// O-mode attempts (each with a halved `period`) before L mode. Must
    /// cover enough halvings to walk `max_period` down to `min_period`
    /// (the `period < min_period` floor is the usual exit; this is a
    /// backstop against repeated validation failures at workable periods).
    pub o_retries: u32,
    /// Stop halving `period` below this and proceed to L. The paper uses
    /// 100 *operations* of one line each; here every operation touches 2
    /// lines in two different cache sets (a scattered value word plus its
    /// vertex's lock word, which `MemoryLayout` starts in different sets),
    /// so 50 gives the same 100-line, ~6 KB piece footprint the paper's
    /// floor implies — under half of the ~120 random vertices one piece
    /// holds, so a piece at the floor overflows only on a skewed set.
    pub min_period: u32,
    /// Upper clamp for the adaptive `period`.
    pub max_period: u32,
    /// Size hints above this skip H mode (default: the HTM capacity in
    /// words — a bigger footprint is guaranteed to capacity-abort).
    pub h_max_hint_words: usize,
    /// Size hints above this skip O mode too and go straight to L
    /// (default: 64 × HTM capacity).
    pub o_max_hint_words: usize,
    /// Use the online contention monitor to pick the initial `period`
    /// (paper Figure 17); when `false`, `static_period` is used.
    pub adaptive_period: bool,
    /// Initial/static `period` when adaptation is off (paper Figure 16/17
    /// use 1000).
    pub static_period: u32,
    /// L-mode attempts before the router escalates to the global
    /// serial-fallback token (a stop-the-world single-writer commit that
    /// guarantees liveness even under adversarial fault injection). High
    /// enough that ordinary contention never reaches it; low enough that a
    /// sabotaged worker escalates promptly.
    pub l_attempt_budget: u32,
}

impl Default for TuFastConfig {
    fn default() -> Self {
        let capacity_words = 4096; // 32 KB / 8-byte words
        TuFastConfig {
            h_retries: 4,
            o_retries: 8,
            min_period: 50,
            max_period: 4096,
            h_max_hint_words: capacity_words,
            o_max_hint_words: 64 * capacity_words,
            adaptive_period: true,
            static_period: 1000,
            l_attempt_budget: 64,
        }
    }
}

impl TuFastConfig {
    /// The paper's static-parameter configuration (Figure 16/17 baseline).
    pub fn static_config(period: u32) -> Self {
        TuFastConfig {
            adaptive_period: false,
            static_period: period,
            ..Self::default()
        }
    }

    /// Sanity-check parameter relationships.
    pub(crate) fn validate(&self) {
        assert!(
            self.h_retries >= 1,
            "at least one H attempt is required to enter H mode"
        );
        assert!(self.o_retries >= 1);
        assert!(
            self.l_attempt_budget >= 1,
            "at least one L attempt is required before the serial fallback"
        );
        assert!(self.min_period >= 1);
        assert!(self.max_period >= self.min_period);
        assert!(self.o_max_hint_words >= self.h_max_hint_words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_paper_shaped() {
        let c = TuFastConfig::default();
        c.validate();
        assert_eq!(c.min_period, 50);
        assert_eq!(c.h_max_hint_words, 4096);
        assert!(c.adaptive_period);
    }

    #[test]
    fn static_config_disables_adaptation() {
        let c = TuFastConfig::static_config(500);
        c.validate();
        assert!(!c.adaptive_period);
        assert_eq!(c.static_period, 500);
    }

    #[test]
    #[should_panic(expected = "H attempt")]
    fn zero_h_retries_rejected() {
        TuFastConfig {
            h_retries: 0,
            ..TuFastConfig::default()
        }
        .validate();
    }
}
