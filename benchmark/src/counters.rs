//! The crates' public counters (`TuFastStats`, `SchedStats`, `HtmStats`,
//! `PoolCounters`) as benchmark metrics and as trace snapshots.

use tufast::{ModeClass, PoolCounters, TuFastStats};

use crate::harness::Metrics;
use crate::json::Json;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Body executions per committed transaction (1 = nothing wasted).
pub fn attempts_per_commit(stats: &TuFastStats) -> f64 {
    ratio(
        stats.sched.commits + stats.sched.restarts,
        stats.sched.commits,
    )
}

/// Set every `txn.*`, `htm.*` and `core.*` counter metric from one job's
/// harvested counters.
pub fn record(metrics: &mut Metrics, stats: &TuFastStats, pool: &PoolCounters) {
    let s = &stats.sched;
    metrics.set("txn.commits", s.commits as f64);
    metrics.set("txn.restarts", s.restarts as f64);
    metrics.set("txn.attempts_per_commit", attempts_per_commit(stats));
    metrics.set("txn.reads", s.reads as f64);
    metrics.set("txn.writes", s.writes as f64);
    metrics.set("txn.deadlock_victims", s.deadlock_victims as f64);
    metrics.set("txn.wait_victims", s.anon_wait_victims as f64);
    metrics.set("txn.r_commits", s.r_commits as f64);
    metrics.set("txn.r_retries", s.r_retries as f64);

    let h = &stats.htm;
    metrics.set("htm.ops", (h.reads + h.writes) as f64);
    metrics.set("htm.begins", h.begins as f64);
    metrics.set("htm.commit_ratio", ratio(h.commits, h.begins));
    metrics.set("htm.aborts_capacity", h.aborts_capacity as f64);
    metrics.set("htm.aborts_conflict", h.aborts_conflict as f64);

    let m = &stats.modes;
    let share = |class| ratio(m.txns(class), m.total_txns());
    metrics.set("core.mode_h_share", share(ModeClass::H));
    metrics.set("core.mode_o_share", share(ModeClass::O));
    metrics.set("core.mode_oplus_share", share(ModeClass::OPlus));
    metrics.set("core.mode_o2l_share", share(ModeClass::O2L));
    metrics.set("core.mode_l_share", share(ModeClass::L));
    metrics.set("core.mode_r_share", share(ModeClass::R));
    metrics.set(
        "core.mode_l_ops_share",
        ratio(m.ops(ModeClass::L) + m.ops(ModeClass::O2L), m.total_ops()),
    );
    metrics.set("core.period_mean", stats.mean_period());
    metrics.set("core.serial_commits", stats.serial_commits as f64);
    metrics.set("core.degraded_h_skips", stats.degraded_h_skips as f64);

    metrics.set("core.steals", pool.steals as f64);
    metrics.set("core.steal_fails", pool.steal_fails as f64);
    metrics.set("core.bucket_advances", pool.bucket_advances as f64);
    metrics.set("core.parked_wakeups", pool.parked_wakeups as f64);
}

/// The counters as one JSON object, attached to a job's span in the trace.
pub fn snapshot(stats: &TuFastStats, pool: &PoolCounters) -> Json {
    let n = |x: u64| Json::Num(x as f64);
    let s = &stats.sched;
    let h = &stats.htm;
    let modes = ModeClass::ALL
        .iter()
        .map(|&c| {
            (
                c.label(),
                Json::obj([
                    ("txns", n(stats.modes.txns(c))),
                    ("ops", n(stats.modes.ops(c))),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("commits", n(s.commits)),
        ("restarts", n(s.restarts)),
        ("reads", n(s.reads)),
        ("writes", n(s.writes)),
        ("user_aborts", n(s.user_aborts)),
        ("deadlock_victims", n(s.deadlock_victims)),
        ("wait_victims", n(s.anon_wait_victims)),
        ("r_commits", n(s.r_commits)),
        ("r_retries", n(s.r_retries)),
        ("health_stops", n(s.health_stops)),
        ("htm_begins", n(h.begins)),
        ("htm_commits", n(h.commits)),
        ("htm_reads", n(h.reads)),
        ("htm_writes", n(h.writes)),
        ("htm_aborts_conflict", n(h.aborts_conflict)),
        ("htm_aborts_capacity", n(h.aborts_capacity)),
        ("period_sum", n(stats.period_sum)),
        ("period_samples", n(stats.period_samples)),
        ("serial_commits", n(stats.serial_commits)),
        ("degraded_h_skips", n(stats.degraded_h_skips)),
        ("steals", n(pool.steals)),
        ("steal_fails", n(pool.steal_fails)),
        ("bucket_advances", n(pool.bucket_advances)),
        ("parked_wakeups", n(pool.parked_wakeups)),
        ("modes", Json::obj(modes)),
    ])
}
