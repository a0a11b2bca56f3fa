//! TuFast routing and adaptation parameters (paper §IV-C/§IV-D).

/// The two parameters the paper's figures sweep; everything else the router
/// decides is a constant of this module (O-mode retries, the `period`
/// clamp, the L-mode attempt budget) or read off the system's HTM geometry
/// (the size-hint reaches of H and O).
#[derive(Clone, Debug)]
pub struct TuFastConfig {
    /// H-mode attempts before proceeding to O mode (conflict aborts only —
    /// capacity aborts skip immediately). Intel's recommendation is a
    /// handful; the paper's Figure 16 sweeps it.
    pub h_retries: u32,
    /// `None`: the online contention monitor picks each O-mode transaction's
    /// initial `period` (paper Figure 17). `Some(p)`: `p` verbatim, the
    /// paper's static baseline (Figures 16/17 use 1000).
    pub static_period: Option<u32>,
}

/// O-mode attempts (each with a halved `period`) before L mode. Covers
/// enough halvings to walk [`MAX_PERIOD`] down to [`MIN_PERIOD`] (the
/// `period < MIN_PERIOD` floor is the usual exit; this is a backstop
/// against repeated validation failures at workable periods).
pub(crate) const O_RETRIES: u32 = 8;

/// Stop halving `period` below this and proceed to L. Every operation
/// touches one line — a vertex's value shares its line with its lock word
/// — so a piece at the floor spans ~50 lines, ~3 KB: under a quarter of the
/// ~210 random vertices one hardware transaction holds, so it overflows
/// only on a skewed set. The paper's floor of 100 sent more transactions
/// to L and measured slower (EXPERIMENTS.md).
pub(crate) const MIN_PERIOD: u32 = 50;

/// Upper clamp for the adaptive `period`.
pub(crate) const MAX_PERIOD: u32 = 4096;

/// L-mode attempts before the router escalates to the global serial token
/// (a stop-the-world single-writer commit that guarantees liveness even
/// under adversarial fault injection). High enough that ordinary contention
/// never reaches it; low enough that a sabotaged worker escalates promptly.
pub(crate) const L_ATTEMPT_BUDGET: u32 = 64;

impl Default for TuFastConfig {
    fn default() -> Self {
        TuFastConfig {
            h_retries: 4,
            static_period: None,
        }
    }
}

impl TuFastConfig {
    /// The paper's static-parameter configuration (Figure 16/17 baseline).
    pub fn static_config(period: u32) -> Self {
        TuFastConfig {
            static_period: Some(period),
            ..Self::default()
        }
    }

    /// Sanity-check the parameters.
    pub(crate) fn validate(&self) {
        assert!(
            self.h_retries >= 1,
            "at least one H attempt is required to enter H mode"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_paper_shaped() {
        let c = TuFastConfig::default();
        c.validate();
        assert_eq!(c.h_retries, 4);
        assert_eq!(c.static_period, None, "adaptive");
        assert_eq!(MIN_PERIOD, 50);
    }

    #[test]
    fn static_config_disables_adaptation() {
        let c = TuFastConfig::static_config(500);
        c.validate();
        assert_eq!(c.static_period, Some(500));
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
