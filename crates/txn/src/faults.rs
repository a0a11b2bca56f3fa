//! Seeded fault injection (feature `faults`).
//!
//! Mirrors the [`obs`](crate::obs) pattern: schedulers carry a cheap
//! [`FaultHandle`] and consult it at every hot-path decision point — lock
//! acquisitions, commit validations, and attempt boundaries. With the
//! feature disabled (the default) the handle is zero-sized and every
//! probe is an empty inline function, so production builds pay nothing.
//!
//! ## Determinism
//!
//! A [`FaultPlan`] is pure data: a seed plus per-site firing rates (in
//! permille). Every decision is a pure function of
//! `(seed, site, worker, per-worker op counter)` via a splitmix64 hash, so
//! the same plan over the same workload replays the same fault sequence
//! per worker regardless of thread interleaving. HTM-level faults
//! (spurious and capacity aborts) are delivered through an
//! [`AbortSource`] built by [`FaultPlan::abort_source`] and are keyed the
//! same way on `(ctx_id, op_seq)`.
//!
//! ## Sites
//!
//! | Site | Injected effect |
//! |------|-----------------|
//! | [`FaultKind::SpuriousAbort`] | emulated-HTM environmental abort |
//! | [`FaultKind::CapacityAbort`] | emulated-HTM capacity abort (non-retryable) |
//! | [`FaultKind::LockFail`] | a vertex-lock acquisition reports failure |
//! | [`FaultKind::LockStall`] | a bounded spin delay before an acquisition |
//! | [`FaultKind::ValidationFail`] | an optimistic commit validation reports failure |
//! | [`FaultKind::Preempt`] | a bounded spin delay at an attempt boundary |
//! | [`FaultKind::Crash`] | the run dies at a seeded probe (panics with [`InjectedCrash`]) |
//! | [`FaultKind::Stall`] | a seeded worker wedges (long bounded spin) at attempt boundaries |
//! | [`FaultKind::Livelock`] | commit/validation sites report failure, forcing endless restarts |
//! | [`FaultKind::TornWalWrite`] | a WAL append persists only a prefix of the frame, then the process dies |
//! | [`FaultKind::LostFsync`] | a WAL fsync is acknowledged but the data never becomes durable |
//! | [`FaultKind::CrashDuringCommit`] | the process dies after a WAL append but before the effects apply |
//! | [`FaultKind::CrashDuringTruncation`] | the process dies inside checkpoint log truncation |
//!
//! Injected failures are indistinguishable from real ones to the
//! scheduler, which is the point: the chaos matrix in `tufast-check`
//! proves every scheduler's retry/escalation ladder terminates with all
//! transactions committed no matter where the faults land. Workers
//! holding the TuFast *serial-fallback token* mark their handle exempt
//! ([`FaultHandle::set_exempt`]) so the stop-the-world commit that
//! guarantees liveness cannot itself be sabotaged.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tufast_htm::{AbortCode, AbortSource};

/// The kinds of faults the plan can inject, used to index the plan's
/// injected-fault counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Emulated-HTM spurious (environmental) abort.
    SpuriousAbort,
    /// Emulated-HTM capacity abort (deterministic, non-retryable).
    CapacityAbort,
    /// A vertex-lock acquisition reports failure.
    LockFail,
    /// A bounded spin delay before a lock acquisition.
    LockStall,
    /// An optimistic commit validation reports failure.
    ValidationFail,
    /// A bounded spin delay at an attempt boundary (models preemption).
    Preempt,
    /// The whole run dies at a seeded probe: a [`InjectedCrash`] panic
    /// models process death for crash-recovery testing.
    Crash,
    /// A seeded worker wedges — a long (but bounded) spin at every attempt
    /// boundary past the seeded probe count, with no heartbeats. Models a
    /// descheduled or page-faulting worker for watchdog testing.
    Stall,
    /// Commit/validation sites report failure at the given rate, so
    /// attempts restart without anyone committing. Models livelock for
    /// watchdog testing.
    Livelock,
    /// A write-ahead-log append persists only a prefix of its frame before
    /// the process dies — the torn tail a crashed `write(2)` leaves behind.
    TornWalWrite,
    /// A WAL fsync reports success but the bytes never become durable
    /// (lying disk / dropped page-cache flush). Observable only after a
    /// power cut: the harness truncates the log to the last *really*
    /// synced length before recovering.
    LostFsync,
    /// The process dies between a WAL append becoming durable and the
    /// mutation's effects being applied — redo recovery must finish the
    /// commit from the log alone.
    CrashDuringCommit,
    /// The process dies inside checkpoint log truncation (before or after
    /// the `set_len`), so recovery sees either a full log alongside a
    /// covering snapshot or an already-empty one.
    CrashDuringTruncation,
}

impl FaultKind {
    /// All kinds, in counter-index order.
    pub const ALL: [FaultKind; 13] = [
        FaultKind::SpuriousAbort,
        FaultKind::CapacityAbort,
        FaultKind::LockFail,
        FaultKind::LockStall,
        FaultKind::ValidationFail,
        FaultKind::Preempt,
        FaultKind::Crash,
        FaultKind::Stall,
        FaultKind::Livelock,
        FaultKind::TornWalWrite,
        FaultKind::LostFsync,
        FaultKind::CrashDuringCommit,
        FaultKind::CrashDuringTruncation,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::SpuriousAbort => "spurious-abort",
            FaultKind::CapacityAbort => "capacity-abort",
            FaultKind::LockFail => "lock-fail",
            FaultKind::LockStall => "lock-stall",
            FaultKind::ValidationFail => "validation-fail",
            FaultKind::Preempt => "preempt",
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
            FaultKind::Livelock => "livelock",
            FaultKind::TornWalWrite => "torn-wal-write",
            FaultKind::LostFsync => "lost-fsync",
            FaultKind::CrashDuringCommit => "crash-during-commit",
            FaultKind::CrashDuringTruncation => "crash-during-truncation",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            FaultKind::SpuriousAbort => 0,
            FaultKind::CapacityAbort => 1,
            FaultKind::LockFail => 2,
            FaultKind::LockStall => 3,
            FaultKind::ValidationFail => 4,
            FaultKind::Preempt => 5,
            FaultKind::Crash => 6,
            FaultKind::Stall => 7,
            FaultKind::Livelock => 8,
            FaultKind::TornWalWrite => 9,
            FaultKind::LostFsync => 10,
            FaultKind::CrashDuringCommit => 11,
            FaultKind::CrashDuringTruncation => 12,
        }
    }
}

/// Sentinel for [`FaultSpec::crash_worker`]: arm the crash probe on
/// every worker, so whichever reaches the probe count first crashes the
/// run. Useful when per-worker load is nondeterministic (stealing pools).
pub const CRASH_ANY_WORKER: u32 = u32::MAX;

/// Declarative description of a fault plan: a seed plus per-site rates.
///
/// Rates are in permille (0–1000); 1000 fires on every probe. The spin
/// counts bound the injected delays so no plan can stall a worker
/// unboundedly.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Seed from which every per-site decision stream is derived.
    pub seed: u64,
    /// Permille rate of HTM spurious aborts (per transactional op).
    pub spurious_abort_permille: u32,
    /// Permille rate of HTM capacity aborts (per transactional op).
    pub capacity_abort_permille: u32,
    /// Permille rate of failed vertex-lock acquisitions.
    pub lock_fail_permille: u32,
    /// Permille rate of stalls before a vertex-lock acquisition.
    pub lock_stall_permille: u32,
    /// Spin iterations of one injected lock stall.
    pub lock_stall_spins: u32,
    /// Permille rate of forced optimistic-validation failures.
    pub validation_fail_permille: u32,
    /// Permille rate of preemption delays at attempt boundaries.
    pub preempt_permille: u32,
    /// Spin iterations of one injected preemption delay.
    pub preempt_spins: u32,
    /// Worker whose crash probe is armed (ignored while
    /// [`FaultSpec::crash_at_probe`] is 0). [`CRASH_ANY_WORKER`] arms the
    /// probe on every worker, so the *first* worker to reach
    /// [`FaultSpec::crash_at_probe`] dies — the right choice for drivers
    /// whose per-worker load split is nondeterministic (work stealing).
    pub crash_worker: u32,
    /// Probe count at which the seeded worker crashes the run
    /// ([`FaultHandle::crash_point`] panics with [`InjectedCrash`]; every
    /// other worker's next crash probe then dies too, modelling whole
    /// process death). 0 disables crashing.
    pub crash_at_probe: u64,
    /// Worker whose stall probe is armed ([`CRASH_ANY_WORKER`] arms every
    /// worker; ignored while [`FaultSpec::stall_at_probe`] is 0).
    pub stall_worker: u32,
    /// Probe count at (and past) which the seeded worker wedges for
    /// [`FaultSpec::stall_spins`] at every attempt boundary, with no
    /// heartbeats while wedged. 0 disables stalling.
    pub stall_at_probe: u64,
    /// Spin iterations of one injected wedge — deliberately huge by
    /// default so a watchdog scanning every few milliseconds sees the
    /// heartbeat flat across several scans.
    pub stall_spins: u32,
    /// Permille rate of forced restarts at optimistic commit/validation
    /// sites (models livelock: every attempt aborts, nobody commits).
    pub livelock_permille: u32,
    /// WAL append index (1-based) at which the frame is torn: the writer
    /// persists only a prefix of the frame and the process dies
    /// ([`FaultHandle::wal_torn_append`]). 0 disables.
    pub torn_wal_at_append: u64,
    /// Permille rate of WAL fsyncs that report success without making the
    /// data durable ([`FaultHandle::wal_lost_fsync`]).
    pub lost_fsync_permille: u32,
    /// Durable-commit index (1-based) at (and past) which the process dies
    /// after the WAL append but before the mutation's effects apply
    /// ([`FaultHandle::wal_commit_crash_point`]). 0 disables.
    pub crash_at_wal_commit: u64,
    /// Truncation-probe count (1-based) at (and past) which the process
    /// dies inside checkpoint log truncation
    /// ([`FaultHandle::wal_truncation_crash_point`]); the truncation path
    /// probes both before and after its `set_len`, so 1 crashes with the
    /// log intact and 2 crashes with it already emptied. 0 disables.
    pub crash_at_truncation: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xC4A0_5000,
            spurious_abort_permille: 0,
            capacity_abort_permille: 0,
            lock_fail_permille: 0,
            lock_stall_permille: 0,
            lock_stall_spins: 256,
            validation_fail_permille: 0,
            preempt_permille: 0,
            preempt_spins: 512,
            crash_worker: 0,
            crash_at_probe: 0,
            stall_worker: 0,
            stall_at_probe: 0,
            stall_spins: 20_000_000,
            livelock_permille: 0,
            torn_wal_at_append: 0,
            lost_fsync_permille: 0,
            crash_at_wal_commit: 0,
            crash_at_truncation: 0,
        }
    }
}

impl FaultSpec {
    /// Panics on out-of-range rates (permille > 1000).
    pub(crate) fn validate(&self) {
        for (name, rate) in [
            ("spurious_abort", self.spurious_abort_permille),
            ("capacity_abort", self.capacity_abort_permille),
            ("lock_fail", self.lock_fail_permille),
            ("lock_stall", self.lock_stall_permille),
            ("validation_fail", self.validation_fail_permille),
            ("preempt", self.preempt_permille),
            ("livelock", self.livelock_permille),
            ("lost_fsync", self.lost_fsync_permille),
        ] {
            assert!(rate <= 1000, "{name}_permille must be <= 1000, got {rate}");
        }
        assert!(
            self.spurious_abort_permille + self.capacity_abort_permille <= 1000,
            "combined HTM abort rate must be <= 1000 permille"
        );
    }
}

/// A live fault plan: the spec plus per-kind injected-fault counters.
///
/// Shared via `Arc` between the system, every worker's [`FaultHandle`],
/// and the [`AbortSource`] installed into the HTM config.
pub struct FaultPlan {
    spec: FaultSpec,
    injected: [AtomicU64; 13],
    /// Set once the seeded crash fires; all workers' subsequent crash
    /// probes then die too (process death takes every thread with it).
    crashed: AtomicBool,
}

impl FaultPlan {
    /// Build a shareable plan from `spec`.
    ///
    /// # Panics
    /// If any rate exceeds 1000 permille.
    pub fn new(spec: FaultSpec) -> Arc<Self> {
        spec.validate();
        Arc::new(FaultPlan {
            spec,
            injected: Default::default(),
            crashed: AtomicBool::new(false),
        })
    }

    /// Whether the seeded crash has fired (after which every worker's
    /// crash probe dies).
    pub fn crash_armed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Kill the run from outside the probe counts: every worker's next
    /// crash probe dies, exactly as after a seeded crash. Lets a harness
    /// time process death by what the run has *done* (an observer's
    /// count) rather than by a per-worker attempt number.
    pub fn arm_crash(&self) {
        if !self.crashed.swap(true, Ordering::SeqCst) {
            self.record(FaultKind::Crash);
        }
    }

    /// The plan's spec.
    #[inline]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Faults of `kind` injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected so far, all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// `(kind, count)` for every kind with a nonzero count.
    pub fn injected_by_kind(&self) -> Vec<(FaultKind, u64)> {
        FaultKind::ALL
            .iter()
            .filter_map(|&k| {
                let n = self.injected(k);
                (n != 0).then_some((k, n))
            })
            .collect()
    }

    #[inline]
    fn record(&self, kind: FaultKind) {
        self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// An [`AbortSource`] delivering this plan's HTM-level faults,
    /// suitable for [`HtmConfig::abort_source`](tufast_htm::HtmConfig).
    ///
    /// The decision is pure in `(ctx_id, op_seq)`: capacity aborts claim
    /// the low end of the permille roll, spurious aborts the next band.
    pub fn abort_source(self: &Arc<Self>) -> AbortSource {
        let plan = Arc::clone(self);
        AbortSource::new(move |ctx_id, op_seq| {
            let spec = &plan.spec;
            if spec.capacity_abort_permille == 0 && spec.spurious_abort_permille == 0 {
                return None;
            }
            let roll = permille_roll(spec.seed, SITE_HTM, ctx_id, op_seq);
            if roll < spec.capacity_abort_permille {
                plan.record(FaultKind::CapacityAbort);
                Some(AbortCode::Capacity)
            } else if roll < spec.capacity_abort_permille + spec.spurious_abort_permille {
                plan.record(FaultKind::SpuriousAbort);
                Some(AbortCode::Spurious)
            } else {
                None
            }
        })
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("spec", &self.spec)
            .field("total_injected", &self.total_injected())
            .finish()
    }
}

/// Panic payload of an injected crash ([`FaultKind::Crash`]): the chaos
/// harness catches the unwinding run, verifies the payload with
/// [`is_injected_crash`], discards the in-memory system (volatile state
/// dies with the "process"), and exercises recovery from the last
/// snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Worker whose probe fired.
    pub worker: u32,
    /// The probe count at which it fired.
    pub probe: u64,
}

/// Whether a caught panic payload is an [`InjectedCrash`] (as opposed to
/// a genuine bug unwinding out of the run).
pub fn is_injected_crash(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<InjectedCrash>()
}

/// Die with an [`InjectedCrash`] payload from a fault site that must do
/// work *between* deciding to crash and dying — the WAL writer persists a
/// torn frame prefix first, then calls this. Callers pair it with a probe
/// (e.g. [`FaultHandle::wal_torn_append`]) that already armed the plan, so
/// the harness's [`is_injected_crash`] check recognises the unwind.
pub fn raise_injected_crash(worker: u32, probe: u64) -> ! {
    std::panic::panic_any(InjectedCrash { worker, probe })
}

// Per-site salts keep the decision streams of different sites independent.
// All but the HTM salt are consulted only from `FaultHandle`'s active
// (feature-gated) probes; the HTM salt also feeds the always-compiled
// `FaultPlan::abort_source`.
const SITE_HTM: u64 = 0x11;
#[cfg(feature = "faults")]
const SITE_LOCK_FAIL: u64 = 0x22;
#[cfg(feature = "faults")]
const SITE_LOCK_STALL: u64 = 0x33;
#[cfg(feature = "faults")]
const SITE_VALIDATION: u64 = 0x44;
#[cfg(feature = "faults")]
const SITE_PREEMPT: u64 = 0x55;
#[cfg(feature = "faults")]
const SITE_LIVELOCK: u64 = 0x77;
#[cfg(feature = "faults")]
const SITE_WAL_SYNC: u64 = 0x88;

/// splitmix64 finalizer: decisions are pure in the mixed key.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A permille roll in `0..1000`, pure in `(seed, site, worker, seq)`.
#[inline]
fn permille_roll(seed: u64, site: u64, worker: u32, seq: u64) -> u32 {
    (mix(seed ^ (site << 56) ^ (u64::from(worker) << 32) ^ seq) % 1000) as u32
}

/// A cheap, always-present per-worker handle to the system's fault plan.
///
/// With feature `faults` this holds `Option<Arc<FaultPlan>>` plus the
/// worker id and a local probe counter; without it, it is zero-sized and
/// every probe is an empty inline function.
#[derive(Clone, Default)]
pub struct FaultHandle {
    #[cfg(feature = "faults")]
    inner: Option<Arc<FaultPlan>>,
    #[cfg(feature = "faults")]
    worker: u32,
    #[cfg(feature = "faults")]
    seq: u64,
    #[cfg(feature = "faults")]
    exempt: bool,
    /// WAL probes count their own sites (appends / syncs / durable commits
    /// / truncations) instead of sharing `seq`, so count-seeded durability
    /// faults land at exact protocol steps regardless of how many other
    /// probes fired in between.
    #[cfg(feature = "faults")]
    wal_appends: u64,
    #[cfg(feature = "faults")]
    wal_syncs: u64,
    #[cfg(feature = "faults")]
    wal_commits: u64,
    #[cfg(feature = "faults")]
    wal_truncations: u64,
}

impl FaultHandle {
    /// A handle with no plan attached.
    #[inline]
    pub fn none() -> Self {
        FaultHandle::default()
    }

    /// Wrap an installed plan for `worker` (only exists with feature
    /// `faults`).
    #[cfg(feature = "faults")]
    #[inline]
    pub fn attached(plan: Option<Arc<FaultPlan>>, worker: u32) -> Self {
        FaultHandle {
            inner: plan,
            worker,
            seq: 0,
            exempt: false,
            wal_appends: 0,
            wal_syncs: 0,
            wal_commits: 0,
            wal_truncations: 0,
        }
    }

    /// Whether a plan is attached and injection is not exempted (always
    /// `false` without the `faults` feature).
    #[inline]
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "faults")]
        {
            self.inner.is_some() && !self.exempt
        }
        #[cfg(not(feature = "faults"))]
        {
            false
        }
    }

    /// Exempt (or re-subject) this worker from injection. The TuFast
    /// serial-fallback path exempts its stop-the-world commit so the
    /// liveness backstop cannot be sabotaged by the plan it escapes.
    #[inline]
    pub fn set_exempt(&mut self, _exempt: bool) {
        #[cfg(feature = "faults")]
        {
            self.exempt = _exempt;
        }
    }

    /// Probe the lock-stall then lock-fail sites before a vertex-lock
    /// acquisition: possibly spin a bounded stall, then return `true` if
    /// the acquisition must report failure.
    #[inline]
    pub fn lock_acquisition_fails(&mut self) -> bool {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.seq += 1;
                let (spec, seq) = (plan.spec(), self.seq);
                let (stalls, fails) = (spec.lock_stall_permille, spec.lock_fail_permille);
                if self.fires(SITE_LOCK_STALL, stalls, seq, FaultKind::LockStall) {
                    stall(spec.lock_stall_spins);
                }
                return self.fires(SITE_LOCK_FAIL, fails, seq, FaultKind::LockFail);
            }
        }
        false
    }

    /// Probe the validation site inside an optimistic commit: `true`
    /// forces the validation to report failure.
    #[inline]
    pub fn validation_fails(&mut self) -> bool {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.seq += 1;
                let rate = plan.spec().validation_fail_permille;
                return self.fires(SITE_VALIDATION, rate, self.seq, FaultKind::ValidationFail);
            }
        }
        false
    }

    /// Probe the preemption site at an attempt boundary: possibly spin a
    /// bounded delay (models the worker losing its core mid-transaction).
    #[inline]
    pub fn preempt(&mut self) {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.seq += 1;
                let (spec, seq) = (plan.spec(), self.seq);
                if self.fires(SITE_PREEMPT, spec.preempt_permille, seq, FaultKind::Preempt) {
                    stall(spec.preempt_spins);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Probe the crash site (transaction entry in the TuFast router):
    /// when this is the seeded worker at (or past) the seeded probe
    /// count — or the plan has already crashed elsewhere — panic with an
    /// [`InjectedCrash`] payload, modelling process death.
    ///
    /// Exempt workers (the serial-fallback holder) never crash mid-commit;
    /// the crash lands at their next non-exempt entry instead.
    #[inline]
    pub fn crash_point(&mut self) {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.seq += 1;
                // Once any crash fault fired (including the WAL-site ones),
                // the process is dying: every non-exempt probe joins it.
                if plan.crash_armed() {
                    std::panic::panic_any(InjectedCrash {
                        worker: self.worker,
                        probe: self.seq,
                    });
                }
                let spec = plan.spec();
                if spec.crash_at_probe == 0 {
                    return;
                }
                let seeded_worker =
                    spec.crash_worker == CRASH_ANY_WORKER || self.worker == spec.crash_worker;
                let seeded_hit = seeded_worker && self.seq >= spec.crash_at_probe;
                if seeded_hit && !plan.crashed.swap(true, Ordering::SeqCst) {
                    plan.record(FaultKind::Crash);
                }
                if seeded_hit || plan.crash_armed() {
                    std::panic::panic_any(InjectedCrash {
                        worker: self.worker,
                        probe: self.seq,
                    });
                }
            }
        }
    }

    /// Probe the stall site at an attempt boundary: the seeded worker
    /// wedges in a long bounded spin (no heartbeats) at every probe past
    /// the seeded count, so a watchdog scanning the heartbeat board sees a
    /// flat beat on a non-idle worker.
    ///
    /// Unlike [`FaultHandle::preempt`] (a short random delay modelling a
    /// lost scheduling quantum), this is a deterministic, *persistent*
    /// wedge — the deadlock-free kind of liveness failure the watchdog's
    /// stall detector exists to catch.
    #[inline]
    pub fn stall_point(&mut self) {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.seq += 1;
                let spec = plan.spec();
                if spec.stall_at_probe == 0 {
                    return;
                }
                let seeded =
                    spec.stall_worker == CRASH_ANY_WORKER || self.worker == spec.stall_worker;
                if seeded && self.seq >= spec.stall_at_probe {
                    plan.record(FaultKind::Stall);
                    stall(spec.stall_spins);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Probe the livelock site inside an optimistic commit/validation:
    /// `true` forces the attempt to restart. At high rates nobody ever
    /// commits while everyone keeps aborting — the signature the
    /// watchdog's livelock detector (commits flat, restarts climbing)
    /// exists to catch.
    #[inline]
    pub fn livelock_restart(&mut self) -> bool {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.seq += 1;
                let rate = plan.spec().livelock_permille;
                return self.fires(SITE_LIVELOCK, rate, self.seq, FaultKind::Livelock);
            }
        }
        false
    }

    /// Probe the WAL append site. `true` means the seeded torn write
    /// fires: the caller must persist only a *prefix* of the frame and
    /// then die via [`raise_injected_crash`] — a torn write is only ever
    /// observable because the process crashed mid-`write`. Arms the plan's
    /// crash flag so every other worker's next crash probe dies too.
    #[inline]
    pub fn wal_torn_append(&mut self) -> bool {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.wal_appends += 1;
                if plan.crash_armed() {
                    raise_injected_crash(self.worker, self.wal_appends);
                }
                let spec = plan.spec();
                if spec.torn_wal_at_append != 0 && self.wal_appends == spec.torn_wal_at_append {
                    plan.record(FaultKind::TornWalWrite);
                    plan.crashed.store(true, Ordering::SeqCst);
                    return true;
                }
            }
        }
        false
    }

    /// Probe the WAL fsync site: `true` means this fsync must be skipped
    /// while still reporting success to the caller (the lying-disk fault).
    /// The writer keeps its really-durable length behind, and the harness
    /// simulates the power cut that makes the lie observable.
    #[inline]
    pub fn wal_lost_fsync(&mut self) -> bool {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.wal_syncs += 1;
                let rate = plan.spec().lost_fsync_permille;
                return self.fires(SITE_WAL_SYNC, rate, self.wal_syncs, FaultKind::LostFsync);
            }
        }
        false
    }

    /// Probe the post-append / pre-apply window of a durable commit: at
    /// (and past) the seeded commit count the process dies with the
    /// record already durable but its effects not yet applied — redo
    /// recovery must finish the commit from the log alone.
    #[inline]
    pub fn wal_commit_crash_point(&mut self) {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.wal_commits += 1;
                if plan.crash_armed() {
                    raise_injected_crash(self.worker, self.wal_commits);
                }
                let spec = plan.spec();
                if spec.crash_at_wal_commit != 0 && self.wal_commits >= spec.crash_at_wal_commit {
                    if !plan.crashed.swap(true, Ordering::SeqCst) {
                        plan.record(FaultKind::CrashDuringCommit);
                    }
                    raise_injected_crash(self.worker, self.wal_commits);
                }
            }
        }
    }

    /// Probe checkpoint log truncation. The truncation path calls this
    /// both before and after its `set_len`, so a seeded count of 1 dies
    /// with the log still intact (snapshot already durable — replay must
    /// be idempotent) and 2 dies with the log already emptied.
    #[inline]
    pub fn wal_truncation_crash_point(&mut self) {
        #[cfg(feature = "faults")]
        {
            if let Some(plan) = self.active_plan() {
                self.wal_truncations += 1;
                if plan.crash_armed() {
                    raise_injected_crash(self.worker, self.wal_truncations);
                }
                let spec = plan.spec();
                if spec.crash_at_truncation != 0 && self.wal_truncations >= spec.crash_at_truncation
                {
                    if !plan.crashed.swap(true, Ordering::SeqCst) {
                        plan.record(FaultKind::CrashDuringTruncation);
                    }
                    raise_injected_crash(self.worker, self.wal_truncations);
                }
            }
        }
    }

    /// One seeded decision at permille `rate` for `site` at this worker's
    /// `seq`-th probe of it; a hit is recorded on the plan as `kind`.
    #[cfg(feature = "faults")]
    #[inline]
    fn fires(&self, site: u64, rate: u32, seq: u64, kind: FaultKind) -> bool {
        let Some(plan) = &self.inner else {
            return false;
        };
        let hit = rate > 0 && permille_roll(plan.spec().seed, site, self.worker, seq) < rate;
        if hit {
            plan.record(kind);
        }
        hit
    }

    #[cfg(feature = "faults")]
    #[inline]
    fn active_plan(&self) -> Option<Arc<FaultPlan>> {
        if self.exempt {
            return None;
        }
        self.inner.clone()
    }
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultHandle(active: {})", self.is_active())
    }
}

#[cfg(feature = "faults")]
#[inline]
fn stall(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "faults")]
    #[test]
    fn rolls_are_deterministic_and_in_range() {
        for seq in 0..2000 {
            let a = permille_roll(42, SITE_LOCK_FAIL, 3, seq);
            let b = permille_roll(42, SITE_LOCK_FAIL, 3, seq);
            assert_eq!(a, b);
            assert!(a < 1000);
        }
    }

    #[cfg(feature = "faults")]
    #[test]
    fn sites_and_workers_get_independent_streams() {
        let same = (0..1000)
            .filter(|&seq| {
                permille_roll(7, SITE_LOCK_FAIL, 0, seq)
                    == permille_roll(7, SITE_VALIDATION, 0, seq)
            })
            .count();
        assert!(same < 50, "site streams look correlated: {same}/1000");
        let same = (0..1000)
            .filter(|&seq| {
                permille_roll(7, SITE_LOCK_FAIL, 0, seq) == permille_roll(7, SITE_LOCK_FAIL, 1, seq)
            })
            .count();
        assert!(same < 50, "worker streams look correlated: {same}/1000");
    }

    #[test]
    fn abort_source_respects_rates_and_counts() {
        let plan = FaultPlan::new(FaultSpec {
            spurious_abort_permille: 1000,
            ..FaultSpec::default()
        });
        let src = plan.abort_source();
        for seq in 1..100 {
            assert_eq!(src.sample(0, seq), Some(AbortCode::Spurious));
        }
        assert_eq!(plan.injected(FaultKind::SpuriousAbort), 99);

        let plan = FaultPlan::new(FaultSpec {
            capacity_abort_permille: 1000,
            ..FaultSpec::default()
        });
        let src = plan.abort_source();
        assert_eq!(src.sample(5, 1), Some(AbortCode::Capacity));
        assert_eq!(plan.injected(FaultKind::CapacityAbort), 1);

        let quiet = FaultPlan::new(FaultSpec::default());
        assert_eq!(quiet.abort_source().sample(0, 1), None);
        assert_eq!(quiet.total_injected(), 0);
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(FaultSpec {
            lock_fail_permille: 1001,
            ..FaultSpec::default()
        });
    }

    #[cfg(feature = "faults")]
    #[test]
    fn handle_fires_at_full_rate_and_respects_exemption() {
        let plan = FaultPlan::new(FaultSpec {
            lock_fail_permille: 1000,
            validation_fail_permille: 1000,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        assert!(h.is_active());
        assert!(h.lock_acquisition_fails());
        assert!(h.validation_fails());
        h.set_exempt(true);
        assert!(!h.is_active());
        assert!(!h.lock_acquisition_fails());
        assert!(!h.validation_fails());
        h.set_exempt(false);
        assert!(h.lock_acquisition_fails());
        assert_eq!(plan.injected(FaultKind::LockFail), 2);
        assert_eq!(plan.injected(FaultKind::ValidationFail), 1);
    }

    #[test]
    fn inactive_handle_never_fires() {
        let mut h = FaultHandle::none();
        assert!(!h.is_active());
        assert!(!h.lock_acquisition_fails());
        assert!(!h.validation_fails());
        assert!(!h.livelock_restart());
        assert!(!h.wal_torn_append());
        assert!(!h.wal_lost_fsync());
        h.preempt();
        h.crash_point();
        h.stall_point();
        h.wal_commit_crash_point();
        h.wal_truncation_crash_point();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn stall_wedges_only_the_seeded_worker_past_its_probe() {
        let plan = FaultPlan::new(FaultSpec {
            stall_worker: 1,
            stall_at_probe: 2,
            stall_spins: 8, // keep the test quick; duration is not under test
            ..FaultSpec::default()
        });
        let mut seeded = FaultHandle::attached(Some(Arc::clone(&plan)), 1);
        seeded.stall_point(); // probe 1: below the threshold
        assert_eq!(plan.injected(FaultKind::Stall), 0);
        seeded.stall_point(); // probe 2: wedges
        seeded.stall_point(); // probe 3: persistent — wedges again
        assert_eq!(plan.injected(FaultKind::Stall), 2);
        let mut other = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        for _ in 0..5 {
            other.stall_point();
        }
        assert_eq!(plan.injected(FaultKind::Stall), 2, "only worker 1 stalls");
        let mut exempt = FaultHandle::attached(Some(Arc::clone(&plan)), 1);
        exempt.set_exempt(true);
        for _ in 0..5 {
            exempt.stall_point();
        }
        assert_eq!(plan.injected(FaultKind::Stall), 2, "exempt never stalls");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn livelock_fires_at_full_rate_and_counts() {
        let plan = FaultPlan::new(FaultSpec {
            livelock_permille: 1000,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        for _ in 0..10 {
            assert!(h.livelock_restart());
        }
        assert_eq!(plan.injected(FaultKind::Livelock), 10);
        let quiet = FaultPlan::new(FaultSpec::default());
        let mut h = FaultHandle::attached(Some(Arc::clone(&quiet)), 0);
        assert!(!h.livelock_restart());
        assert_eq!(quiet.total_injected(), 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn crash_fires_at_seeded_probe_then_arms_every_worker() {
        let plan = FaultPlan::new(FaultSpec {
            crash_worker: 2,
            crash_at_probe: 3,
            ..FaultSpec::default()
        });
        // The seeded worker survives probes 1 and 2, dies at 3.
        let mut seeded = FaultHandle::attached(Some(Arc::clone(&plan)), 2);
        seeded.crash_point();
        seeded.crash_point();
        assert!(!plan.crash_armed());
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            seeded.crash_point();
        }));
        let payload = died.expect_err("seeded probe must crash");
        assert!(is_injected_crash(payload.as_ref()));
        assert_eq!(
            payload.downcast_ref::<InjectedCrash>(),
            Some(&InjectedCrash {
                worker: 2,
                probe: 3
            })
        );
        assert!(plan.crash_armed());
        assert_eq!(plan.injected(FaultKind::Crash), 1);

        // Any other worker's next crash probe now dies too (process
        // death), but the counter records the crash once.
        let mut other = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.crash_point();
        }));
        assert!(is_injected_crash(
            died.expect_err("armed plan kills all").as_ref()
        ));
        assert_eq!(plan.injected(FaultKind::Crash), 1);

        // Exempt handles never crash (serial-fallback holders).
        let mut exempt = FaultHandle::attached(Some(Arc::clone(&plan)), 1);
        exempt.set_exempt(true);
        exempt.crash_point();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn wildcard_crash_takes_the_first_worker_to_reach_the_probe() {
        let plan = FaultPlan::new(FaultSpec {
            crash_worker: CRASH_ANY_WORKER,
            crash_at_probe: 3,
            ..FaultSpec::default()
        });
        // Two workers race the probe count; whichever probes third dies,
        // regardless of id.
        let mut a = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        let mut b = FaultHandle::attached(Some(Arc::clone(&plan)), 7);
        a.crash_point();
        a.crash_point();
        b.crash_point();
        assert!(!plan.crash_armed());
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.crash_point();
        }));
        let payload = died.expect_err("third probe on any worker must crash");
        assert!(is_injected_crash(payload.as_ref()));
        assert_eq!(
            payload.downcast_ref::<InjectedCrash>(),
            Some(&InjectedCrash {
                worker: 0,
                probe: 3
            })
        );
        assert!(plan.crash_armed());
        assert_eq!(plan.injected(FaultKind::Crash), 1);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn torn_append_fires_once_and_arms_the_plan() {
        let plan = FaultPlan::new(FaultSpec {
            torn_wal_at_append: 3,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        assert!(!h.wal_torn_append()); // append 1
        assert!(!h.wal_torn_append()); // append 2
        assert!(!plan.crash_armed());
        assert!(h.wal_torn_append()); // append 3: torn
        assert!(plan.crash_armed());
        assert_eq!(plan.injected(FaultKind::TornWalWrite), 1);
        // The process is now dying: any other worker's crash probe joins.
        let mut other = FaultHandle::attached(Some(Arc::clone(&plan)), 5);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.crash_point();
        }));
        assert!(is_injected_crash(died.expect_err("armed").as_ref()));
    }

    #[cfg(feature = "faults")]
    #[test]
    fn lost_fsync_fires_at_full_rate_and_counts() {
        let plan = FaultPlan::new(FaultSpec {
            lost_fsync_permille: 1000,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        for _ in 0..7 {
            assert!(h.wal_lost_fsync());
        }
        assert_eq!(plan.injected(FaultKind::LostFsync), 7);
        assert!(!plan.crash_armed(), "a lying fsync is not a crash");
        let quiet = FaultPlan::new(FaultSpec::default());
        let mut h = FaultHandle::attached(Some(Arc::clone(&quiet)), 0);
        assert!(!h.wal_lost_fsync());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn commit_crash_fires_at_seeded_count() {
        let plan = FaultPlan::new(FaultSpec {
            crash_at_wal_commit: 2,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        h.wal_commit_crash_point(); // commit 1 survives
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.wal_commit_crash_point(); // commit 2 dies
        }));
        let payload = died.expect_err("second durable commit must crash");
        assert!(is_injected_crash(payload.as_ref()));
        assert_eq!(
            payload.downcast_ref::<InjectedCrash>(),
            Some(&InjectedCrash {
                worker: 0,
                probe: 2
            })
        );
        assert_eq!(plan.injected(FaultKind::CrashDuringCommit), 1);
        assert!(plan.crash_armed());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn truncation_crash_fires_at_seeded_probe() {
        let plan = FaultPlan::new(FaultSpec {
            crash_at_truncation: 2,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        h.wal_truncation_crash_point(); // before set_len: survives
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.wal_truncation_crash_point(); // after set_len: dies
        }));
        assert!(is_injected_crash(died.expect_err("must crash").as_ref()));
        assert_eq!(plan.injected(FaultKind::CrashDuringTruncation), 1);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn exempt_handles_skip_wal_faults() {
        let plan = FaultPlan::new(FaultSpec {
            torn_wal_at_append: 1,
            lost_fsync_permille: 1000,
            crash_at_wal_commit: 1,
            crash_at_truncation: 1,
            ..FaultSpec::default()
        });
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        h.set_exempt(true);
        assert!(!h.wal_torn_append());
        assert!(!h.wal_lost_fsync());
        h.wal_commit_crash_point();
        h.wal_truncation_crash_point();
        assert_eq!(plan.total_injected(), 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn disabled_crash_spec_never_fires() {
        let plan = FaultPlan::new(FaultSpec::default());
        let mut h = FaultHandle::attached(Some(Arc::clone(&plan)), 0);
        for _ in 0..100 {
            h.crash_point();
        }
        assert!(!plan.crash_armed());
        assert_eq!(plan.injected(FaultKind::Crash), 0);
    }
}
