//! Mode-breakdown accounting (paper Figure 15).

/// The five commit classes of the paper's Figure 15, plus the R-mode
/// snapshot-read fast path this reproduction adds for declared-pure
/// transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModeClass {
    /// Committed in H mode.
    H,
    /// Committed in O mode at the first O attempt (initial `period`).
    O,
    /// Committed in O mode after at least one `period` adjustment.
    OPlus,
    /// Entered O mode, exhausted it, and finally committed in L mode.
    O2L,
    /// Committed in L mode directly (size hint too large for H/O).
    L,
    /// Declared-pure transaction committed on the R-mode snapshot-read
    /// path (no locks, no read-set logging, no hardware transaction).
    R,
}

impl ModeClass {
    /// All classes in the paper's plotting order (R, an addition over the
    /// paper, plots last).
    pub const ALL: [ModeClass; 6] = [
        ModeClass::H,
        ModeClass::O,
        ModeClass::OPlus,
        ModeClass::O2L,
        ModeClass::L,
        ModeClass::R,
    ];

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            ModeClass::H => "H",
            ModeClass::O => "O",
            ModeClass::OPlus => "O+",
            ModeClass::O2L => "O2L",
            ModeClass::L => "L",
            ModeClass::R => "R",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            ModeClass::H => 0,
            ModeClass::O => 1,
            ModeClass::OPlus => 2,
            ModeClass::O2L => 3,
            ModeClass::L => 4,
            ModeClass::R => 5,
        }
    }
}

/// Committed-transaction counts and operation counts per mode class —
/// the two panels of the paper's Figure 15.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModeBreakdown {
    txns: [u64; 6],
    ops: [u64; 6],
}

impl ModeBreakdown {
    /// Record one committed transaction of `class` that performed `ops`
    /// read/write operations.
    pub fn record(&mut self, class: ModeClass, ops: u64) {
        self.txns[class.index()] += 1;
        self.ops[class.index()] += ops;
    }

    /// Committed transactions in `class`.
    pub fn txns(&self, class: ModeClass) -> u64 {
        self.txns[class.index()]
    }

    /// Operations committed in `class`.
    pub fn ops(&self, class: ModeClass) -> u64 {
        self.ops[class.index()]
    }

    /// Total committed transactions.
    pub fn total_txns(&self) -> u64 {
        self.txns.iter().sum()
    }

    /// Total committed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Fold another worker's breakdown into this one.
    pub fn merge(&mut self, other: &ModeBreakdown) {
        for i in 0..6 {
            self.txns[i] += other.txns[i];
            self.ops[i] += other.ops[i];
        }
    }
}

tufast_htm::counters! {
    /// Everything a TuFast worker counts: the cross-scheduler
    /// [`SchedStats`](tufast_txn::SchedStats), the Figure 15 breakdown, the
    /// emulated-HTM counters, and the router's own counters below.
    #[derive(Clone, Debug, Default)]
    pub struct TuFastStats {
        nested {
            /// Cross-scheduler counters (commits, restarts, reads, writes…).
            pub sched: tufast_txn::SchedStats,
            /// Per-mode commit accounting.
            pub modes: ModeBreakdown,
            /// Emulated-HTM counters (aborts by cause, extensions…).
            pub htm: tufast_htm::HtmStats,
        }
        /// `period` values chosen at O-mode entry (sum and count, for the
        /// adaptive-period trace of Figure 17).
        pub period_sum: u64,
        /// Number of O-mode entries contributing to `period_sum`.
        pub period_samples: u64,
        /// Transactions committed via the global serial-fallback token (the
        /// stop-the-world single-writer backstop after the L attempt budget).
        pub serial_commits: u64,
        /// H-mode entries skipped because the contention monitor judged H
        /// futile (persistent capacity/spurious failure — degraded mode).
        pub degraded_h_skips: u64,
        /// Transactions routed straight to L because the runtime HTM switch
        /// was off at entry.
        pub htm_off_txns: u64,
    }
}

impl TuFastStats {
    /// Mean `period` chosen at O-mode entry.
    pub fn mean_period(&self) -> f64 {
        if self.period_samples == 0 {
            0.0
        } else {
            self.period_sum as f64 / self.period_samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_merges() {
        let mut a = ModeBreakdown::default();
        a.record(ModeClass::H, 10);
        a.record(ModeClass::H, 5);
        a.record(ModeClass::L, 1000);
        assert_eq!(a.txns(ModeClass::H), 2);
        assert_eq!(a.ops(ModeClass::H), 15);
        assert_eq!(a.total_txns(), 3);
        assert_eq!(a.total_ops(), 1015);

        let mut b = ModeBreakdown::default();
        b.record(ModeClass::OPlus, 7);
        a.merge(&b);
        assert_eq!(a.txns(ModeClass::OPlus), 1);
        assert_eq!(a.total_txns(), 4);
    }

    #[test]
    fn labels_match_paper_legend() {
        let labels: Vec<&str> = ModeClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["H", "O", "O+", "O2L", "L", "R"]);
    }

    #[test]
    fn merge_sums_scalars_and_merges_nested() {
        let mut a = TuFastStats {
            period_sum: 1,
            period_samples: 2,
            serial_commits: 3,
            degraded_h_skips: 4,
            htm_off_txns: 5,
            ..Default::default()
        };
        a.sched.commits = 6;
        a.modes.record(ModeClass::O, 7);
        a.htm.max_lines = 8;
        let mut m = a.clone();
        m.merge(&a);
        assert_eq!(m.values(), [2, 4, 6, 8, 10]);
        assert_eq!(m.sched.commits, 12);
        assert_eq!(
            (m.modes.txns(ModeClass::O), m.modes.ops(ModeClass::O)),
            (2, 14)
        );
        assert_eq!(m.htm.max_lines, 8);
        assert_eq!(
            TuFastStats::NAMES,
            [
                "period_sum",
                "period_samples",
                "serial_commits",
                "degraded_h_skips",
                "htm_off_txns",
            ]
        );
        let back = TuFastStats::from_values(a.values());
        assert_eq!(back.values(), a.values());
        assert_eq!(back.sched, tufast_txn::SchedStats::default());
    }

    #[test]
    fn mean_period_handles_empty() {
        let s = TuFastStats::default();
        assert_eq!(s.mean_period(), 0.0);
        let s = TuFastStats {
            period_sum: 3000,
            period_samples: 3,
            ..Default::default()
        };
        assert!((s.mean_period() - 1000.0).abs() < 1e-12);
    }
}
