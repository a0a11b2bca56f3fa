//! Seeded fault injection.
//!
//! A fault site is declared, installed, triggered and counted in one
//! place each:
//!
//! * **declared** as a [`FaultKind`] variant (its discriminant indexes the
//!   plan's counters) plus the [`FaultSpec`] field that triggers it;
//! * **installed** only by
//!   [`TxnSystem::set_fault_plan`](crate::TxnSystem::set_fault_plan): every
//!   worker, HTM context and checkpointed-drain lane created afterwards
//!   carries the plan;
//! * **triggered** by a permille *rate* (a seeded roll per probe) or a
//!   seeded *count* (the n-th probe of the site and past, on the seeded
//!   worker), the four count sites that kill the process sharing one
//!   trigger;
//! * **counted** on the plan ([`FaultPlan::injected`]) and nowhere else.
//!
//! The hooks are in every build. A worker's [`FaultHandle`] is one word:
//! disarmed, a probe is one inline `is_some` test, and the armed bodies
//! are cold and out of line.
//!
//! Every decision is a pure function of `(seed, site, worker, per-site
//! sequence)` via a splitmix64 hash (HTM-level faults: of `(ctx_id,
//! op_seq)`), so a plan replays exactly regardless of thread interleaving.
//! Injected failures are indistinguishable from real ones to the
//! scheduler, which is the point: the chaos matrix in `tufast-check`
//! proves every retry/escalation ladder terminates with all transactions
//! committed no matter where the faults land. The holder of TuFast's
//! serial-fallback token is exempt ([`FaultHandle::set_exempt`]), so the
//! stop-the-world commit that guarantees liveness cannot be sabotaged.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tufast_htm::{AbortCode, AbortSource};

use crate::obs::cold;

/// The kinds of faults a plan can inject. The discriminant indexes the
/// plan's injected-fault counters.
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
    /// The whole run dies at a seeded probe (an [`InjectedCrash`] panic).
    Crash,
    /// A seeded worker wedges — a long bounded spin with no heartbeats —
    /// at every attempt boundary past the seeded probe count.
    Stall,
    /// Commit/validation sites report failure, so attempts restart without
    /// anyone committing.
    Livelock,
    /// A WAL append persists only a prefix of its frame, then the process
    /// dies — the torn tail a crashed `write(2)` leaves behind.
    TornWalWrite,
    /// A WAL fsync reports success but the bytes never become durable
    /// (observable only after a simulated power cut).
    LostFsync,
    /// The process dies after a WAL append became durable but before the
    /// mutation's effects apply: redo recovery finishes the commit.
    CrashDuringCommit,
    /// The process dies inside checkpoint log truncation, before or after
    /// the `set_len`.
    CrashDuringTruncation,
}

/// Number of [`FaultKind`]s: the length of the plan's counter array.
const KINDS: usize = FaultKind::CrashDuringTruncation as usize + 1;

impl FaultKind {
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
}

/// Sentinel for [`FaultSpec::crash_worker`] and [`FaultSpec::stall_worker`]:
/// arm every worker, for runs whose per-worker load is nondeterministic.
pub const CRASH_ANY_WORKER: u32 = u32::MAX;

/// Declarative description of a fault plan: a seed plus one trigger per
/// site. Rates are in permille (1000 fires on every probe); counts are
/// 1-based probe numbers of the site's own sequence (0 disables); spin
/// counts bound the injected delays.
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
    /// Lane of a checkpointed drain whose crash probe is armed (lane 0
    /// runs on the caller's thread); [`CRASH_ANY_WORKER`] arms every lane,
    /// so the *first* to reach [`FaultSpec::crash_at_probe`] dies.
    pub crash_worker: u32,
    /// Item count at which the seeded lane crashes the run: the crash site
    /// ([`FaultHandle::crash_point`]) sits between the items of a
    /// checkpointed drain, one probe per item the lane finishes, whether or
    /// not the item opened a transaction. Every other lane then dies at its
    /// next probe too (whole-process death).
    pub crash_at_probe: u64,
    /// Worker whose stall probe is armed.
    pub stall_worker: u32,
    /// Probe count at (and past) which the seeded worker wedges for
    /// [`FaultSpec::stall_spins`] at every attempt boundary.
    pub stall_at_probe: u64,
    /// Spin iterations of one injected wedge — huge by default, so a
    /// watchdog sees the heartbeat flat across several scans.
    pub stall_spins: u32,
    /// Permille rate of forced restarts at optimistic commit/validation
    /// sites (models livelock: every attempt aborts, nobody commits).
    pub livelock_permille: u32,
    /// WAL append count at which the frame is torn
    /// ([`FaultHandle::wal_torn_append`]).
    pub torn_wal_at_append: u64,
    /// Permille rate of WAL fsyncs that report success without making the
    /// data durable ([`FaultHandle::wal_lost_fsync`]).
    pub lost_fsync_permille: u32,
    /// Durable-commit count at which the process dies between the WAL
    /// append and the apply ([`FaultHandle::wal_commit_crash_point`]).
    pub crash_at_wal_commit: u64,
    /// Truncation-probe count at which the process dies inside checkpoint
    /// log truncation ([`FaultHandle::wal_truncation_crash_point`]).
    pub crash_at_truncation: u64,
    /// Skip the TuFast router's O-mode commit-time read validation: not a
    /// fault site and never a setting, but the schedule explorer's seeded
    /// serializability bug (lost updates), which `tufast-check` must
    /// catch. Every build carries it; only a plan that sets it turns it on.
    #[doc(hidden)]
    pub skip_o_validation: bool,
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
            skip_o_validation: false,
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

/// How a site fires.
enum Trigger {
    /// A seeded roll at every probe, on the decision stream salted `site`.
    Rate { site: u64, permille: u32 },
    /// The probe at (and past) count `at` (0: never) on `worker`
    /// ([`CRASH_ANY_WORKER`]: on every worker).
    Count { at: u64, worker: u32 },
}

impl FaultSpec {
    /// Each site's trigger.
    fn trigger(&self, kind: FaultKind) -> Trigger {
        use FaultKind::*;
        let rate = |site, permille| Trigger::Rate { site, permille };
        let count = |at, worker| Trigger::Count { at, worker };
        match kind {
            SpuriousAbort => rate(SITE_HTM, self.spurious_abort_permille),
            CapacityAbort => rate(SITE_HTM, self.capacity_abort_permille),
            LockFail => rate(SITE_LOCK_FAIL, self.lock_fail_permille),
            LockStall => rate(SITE_LOCK_STALL, self.lock_stall_permille),
            ValidationFail => rate(SITE_VALIDATION, self.validation_fail_permille),
            Preempt => rate(SITE_PREEMPT, self.preempt_permille),
            Crash => count(self.crash_at_probe, self.crash_worker),
            Stall => count(self.stall_at_probe, self.stall_worker),
            Livelock => rate(SITE_LIVELOCK, self.livelock_permille),
            TornWalWrite => count(self.torn_wal_at_append, CRASH_ANY_WORKER),
            LostFsync => rate(SITE_WAL_SYNC, self.lost_fsync_permille),
            CrashDuringCommit => count(self.crash_at_wal_commit, CRASH_ANY_WORKER),
            CrashDuringTruncation => count(self.crash_at_truncation, CRASH_ANY_WORKER),
        }
    }
}

/// A live fault plan: the spec plus per-kind injected-fault counters.
///
/// Shared via `Arc` between the system, every worker's [`FaultHandle`],
/// and the abort source of every HTM context.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    injected: [AtomicU64; KINDS],
    /// Set once a seeded crash fires; all workers' subsequent crash
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

    /// Whether a seeded crash has fired (after which every worker's crash
    /// probe dies).
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
        self.injected[kind as usize].load(Ordering::Relaxed)
    }

    /// Total faults injected so far, all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    #[inline]
    fn record(&self, kind: FaultKind) {
        self.injected[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The [`AbortSource`] delivering this plan's HTM-level faults, which
    /// [`TxnSystem::htm_ctx`](crate::TxnSystem::htm_ctx) gives every
    /// context while the plan is installed.
    ///
    /// The decision is pure in `(ctx_id, op_seq)`: capacity aborts claim
    /// the low end of the permille roll, spurious aborts the next band.
    pub(crate) fn abort_source(self: &Arc<Self>) -> AbortSource {
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

// Per-site salts keep the decision streams of the rate sites independent.
const SITE_HTM: u64 = 0x11;
const SITE_LOCK_FAIL: u64 = 0x22;
const SITE_LOCK_STALL: u64 = 0x33;
const SITE_VALIDATION: u64 = 0x44;
const SITE_PREEMPT: u64 = 0x55;
const SITE_LIVELOCK: u64 = 0x77;
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

/// A handle's probe sequences. The attempt-boundary and commit sites share
/// one; each WAL site counts its own protocol steps, so a count-seeded
/// durability fault lands at an exact step however many other probes
/// fired in between.
#[derive(Clone, Copy)]
enum Seq {
    Attempt,
    Append,
    Sync,
    Commit,
    Truncation,
}

/// A worker's handle to the system's fault plan, taken when the worker is
/// created. One word (the armed state is boxed): disarmed, every probe is
/// one inline `is_some` test, and the armed bodies are cold and out of line.
#[derive(Clone, Default)]
pub struct FaultHandle {
    armed: Option<Box<Armed>>,
}

/// What a handle carries while a plan is attached.
#[derive(Clone)]
struct Armed {
    plan: Arc<FaultPlan>,
    worker: u32,
    /// Set while the worker holds the serial-fallback token.
    exempt: bool,
    /// Probes so far, indexed by [`Seq`].
    seqs: [u64; 5],
}

/// One probe of an armed handle: the plan, borrowed from the handle, and
/// where the probe falls in its site's sequence.
struct Probe<'a> {
    plan: &'a FaultPlan,
    worker: u32,
    seq: u64,
}

impl Probe<'_> {
    /// Whether `kind`'s trigger fires at this probe.
    #[inline]
    fn hits(&self, kind: FaultKind) -> bool {
        match self.plan.spec.trigger(kind) {
            Trigger::Rate { site, permille } => {
                permille > 0
                    && permille_roll(self.plan.spec.seed, site, self.worker, self.seq) < permille
            }
            Trigger::Count { at, worker } => {
                at != 0 && self.seq >= at && (worker == CRASH_ANY_WORKER || worker == self.worker)
            }
        }
    }

    /// Whether `kind` fires here; each firing is counted.
    #[inline]
    fn fires(&self, kind: FaultKind) -> bool {
        let hit = self.hits(kind);
        if hit {
            self.plan.record(kind);
        }
        hit
    }

    /// Whether `kind`, a site that kills the process, fires here. Once any
    /// such site fired the process is dying, and every probe dies at once.
    /// Otherwise `true` means this is the seeded probe: the crash is
    /// counted (once), the plan armed, and the caller dies — at once, or
    /// after tearing a frame.
    #[inline]
    fn kills(&self, kind: FaultKind) -> bool {
        if self.plan.crash_armed() {
            self.die();
        }
        let hit = self.hits(kind);
        if hit && !self.plan.crashed.swap(true, Ordering::SeqCst) {
            self.plan.record(kind);
        }
        hit
    }

    fn die(&self) -> ! {
        raise_injected_crash(self.worker, self.seq)
    }
}

impl Armed {
    /// The next probe of `seq`, unless the handle is exempt.
    #[inline(always)]
    fn probe(&mut self, seq: Seq) -> Option<Probe<'_>> {
        if self.exempt {
            return None;
        }
        self.seqs[seq as usize] += 1;
        let seq = self.seqs[seq as usize];
        let (plan, worker) = (&self.plan, self.worker);
        Some(Probe { plan, worker, seq })
    }

    /// Probe `seq`: whether `kind` fires there (counted).
    #[inline(always)]
    fn fires(&mut self, seq: Seq, kind: FaultKind) -> bool {
        self.probe(seq).is_some_and(|p| p.fires(kind))
    }

    /// Probe `seq` at a site that dies at once when it fires.
    #[inline(always)]
    fn dies_at(&mut self, seq: Seq, kind: FaultKind) {
        if let Some(p) = self.probe(seq).filter(|p| p.kills(kind)) {
            p.die();
        }
    }

    /// Probe an attempt-boundary site that spins when `kind` fires.
    #[inline(always)]
    fn delays(&mut self, kind: FaultKind, spins: fn(&FaultSpec) -> u32) {
        if let Some(p) = self.probe(Seq::Attempt).filter(|p| p.fires(kind)) {
            stall(spins(&p.plan.spec));
            std::thread::yield_now();
        }
    }
}

impl FaultHandle {
    /// A handle with no plan attached.
    #[inline]
    pub fn none() -> Self {
        FaultHandle::default()
    }

    /// Wrap an installed plan for `worker`.
    #[inline]
    pub fn attached(plan: Option<Arc<FaultPlan>>, worker: u32) -> Self {
        let armed = |plan| Armed {
            plan,
            worker,
            exempt: false,
            seqs: [0; 5],
        };
        FaultHandle {
            armed: plan.map(armed).map(Box::new),
        }
    }

    /// Whether a plan is attached and injection is not exempted.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.armed.as_ref().is_some_and(|a| !a.exempt)
    }

    /// Exempt (or re-subject) this worker from injection. The TuFast
    /// serial-fallback path exempts its stop-the-world commit so the
    /// liveness backstop cannot be sabotaged by the plan it escapes.
    #[inline]
    pub fn set_exempt(&mut self, exempt: bool) {
        if let Some(armed) = &mut self.armed {
            armed.exempt = exempt;
        }
    }

    /// Whether the attached plan seeds the explorer's O-mode validation
    /// bug (`FaultSpec::skip_o_validation`).
    #[inline]
    pub fn skips_o_validation(&self) -> bool {
        self.armed
            .as_ref()
            .is_some_and(|a| a.plan.spec.skip_o_validation)
    }

    /// Run `probe` on the armed state, if any: disarmed, one inline
    /// `is_some` test.
    #[inline(always)]
    fn armed<R: Default>(&mut self, probe: impl FnOnce(&mut Armed) -> R) -> R {
        match &mut self.armed {
            Some(armed) => cold(|| probe(armed)),
            None => R::default(),
        }
    }

    /// Probe the lock-stall then lock-fail sites before a vertex-lock
    /// acquisition (one probe, two rolls): possibly spin a bounded stall,
    /// then return `true` if the acquisition must report failure.
    #[inline]
    pub fn lock_acquisition_fails(&mut self) -> bool {
        self.armed(|a| {
            let Some(p) = a.probe(Seq::Attempt) else {
                return false;
            };
            if p.fires(FaultKind::LockStall) {
                stall(p.plan.spec.lock_stall_spins);
            }
            p.fires(FaultKind::LockFail)
        })
    }

    /// Probe the validation site inside an optimistic commit: `true`
    /// forces the validation to report failure.
    #[inline]
    pub fn validation_fails(&mut self) -> bool {
        self.armed(|a| a.fires(Seq::Attempt, FaultKind::ValidationFail))
    }

    /// Probe the livelock site inside an optimistic commit: `true` forces
    /// the attempt to restart (at high rates, commits flat while restarts
    /// climb — what the watchdog's livelock detector catches).
    #[inline]
    pub fn livelock_restart(&mut self) -> bool {
        self.armed(|a| a.fires(Seq::Attempt, FaultKind::Livelock))
    }

    /// Probe the three fault sites of an optimistic commit (validation,
    /// commit-lock acquisition, livelock); `true` means the commit must
    /// report failure without running.
    #[inline]
    pub fn commit_fails(&mut self) -> bool {
        self.validation_fails() || self.lock_acquisition_fails() || self.livelock_restart()
    }

    /// Probe the preemption site at an attempt boundary: possibly spin a
    /// bounded delay (models the worker losing its core mid-transaction).
    #[inline]
    pub fn preempt(&mut self) {
        self.armed(|a| a.delays(FaultKind::Preempt, |spec| spec.preempt_spins))
    }

    /// Probe the stall site at an attempt boundary: past the seeded count
    /// the seeded worker wedges at every probe — a deterministic,
    /// persistent wedge (unlike [`FaultHandle::preempt`]'s short random
    /// delay) that the watchdog's stall detector must catch.
    #[inline]
    pub fn stall_point(&mut self) {
        self.armed(|a| a.delays(FaultKind::Stall, |spec| spec.stall_spins))
    }

    /// Probe the crash site, which a checkpointed drain's lane passes after
    /// each item it finishes: on the seeded lane at (or past) the seeded
    /// item count, or once the plan crashed elsewhere, panic with an
    /// [`InjectedCrash`].
    #[inline]
    pub fn crash_point(&mut self) {
        self.armed(|a| a.dies_at(Seq::Attempt, FaultKind::Crash))
    }

    /// Probe the WAL append site. `true` means the seeded torn write fires
    /// and the plan is armed: the caller persists only a *prefix* of the
    /// frame, then dies via [`raise_injected_crash`].
    #[inline]
    pub fn wal_torn_append(&mut self) -> bool {
        self.armed(|a| {
            a.probe(Seq::Append)
                .is_some_and(|p| p.kills(FaultKind::TornWalWrite))
        })
    }

    /// Probe the WAL fsync site: `true` means this fsync must be skipped
    /// while still reporting success (the lying-disk fault).
    #[inline]
    pub fn wal_lost_fsync(&mut self) -> bool {
        self.armed(|a| a.fires(Seq::Sync, FaultKind::LostFsync))
    }

    /// Probe the post-append / pre-apply window of a durable commit: at
    /// (and past) the seeded commit count the process dies with the record
    /// durable but its effects not yet applied.
    #[inline]
    pub fn wal_commit_crash_point(&mut self) {
        self.armed(|a| a.dies_at(Seq::Commit, FaultKind::CrashDuringCommit))
    }

    /// Probe checkpoint log truncation, called before and after its
    /// `set_len`: a seeded count of 1 dies with the log intact (replay
    /// must be idempotent), 2 with it already emptied.
    #[inline]
    pub fn wal_truncation_crash_point(&mut self) {
        self.armed(|a| a.dies_at(Seq::Truncation, FaultKind::CrashDuringTruncation))
    }
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultHandle(active: {})", self.is_active())
    }
}

#[inline]
fn stall(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_in_range() {
        for seq in 0..2000 {
            let a = permille_roll(42, SITE_LOCK_FAIL, 3, seq);
            let b = permille_roll(42, SITE_LOCK_FAIL, 3, seq);
            assert_eq!(a, b);
            assert!(a < 1000);
        }
    }

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
    fn a_disarmed_handle_is_one_word() {
        assert_eq!(
            std::mem::size_of::<FaultHandle>(),
            std::mem::size_of::<usize>()
        );
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
