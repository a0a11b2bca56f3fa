//! The shared transactional system every scheduler runs on.
//!
//! Besides the memory and the scheduler metadata it owns the two
//! untracked reads of committed state. [`TxnSystem::peek_committed`] is
//! the line seqlock (line state, value, line state): a committed value
//! *and* the ticket that published it, for R mode's snapshot read.
//! [`TxnSystem::load_committed`] is one load of a data word: a committed
//! value without its version, for the settled-neighbour filter — sound
//! because no committer stores a data word before its commit's point of
//! no return.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use tufast_htm::witness::{self, Held, LockClass};
use tufast_htm::{
    Addr, HtmConfig, HtmCtx, HtmRuntime, IdLeases, LineState, MemRegion, MemoryLayout, TxMemory,
};

use crate::commit::relax;
use crate::deadlock::WaitForTable;
use crate::faults::{FaultHandle, FaultPlan};
use crate::health::{CancelToken, HealthBoard, HealthHandle, JobDeadline};
use crate::locks::VertexLocks;
use crate::obs::TxnObserver;
use crate::VertexId;

/// A hold on the global serial token ([`TxnSystem::hold_serial`]). The
/// token reads the holder's claim until the hold drops — on unwind too, so
/// a panic under the token cannot leave every worker gated.
#[must_use = "the token is released when the hold drops"]
pub struct SerialHold<'a> {
    sys: &'a TxnSystem,
    _held: Held,
}

impl Drop for SerialHold<'_> {
    fn drop(&mut self) {
        self.sys.mem().store_direct(self.sys.serial_token, 0);
    }
}

/// System-wide configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Emulated-HTM geometry and abort injection.
    pub htm: HtmConfig,
    /// Upper bound on concurrently live workers (sizes the wait-for table,
    /// the health board and the worker-id bitmap).
    pub max_workers: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            htm: HtmConfig::default(),
            max_workers: 512,
        }
    }
}

/// The shared substrate: one per experiment, shared by every scheduler and
/// worker via `Arc`.
///
/// Construction appends the scheduler metadata — per-vertex lock words,
/// timestamp-ordering read/write timestamps, and the HSync global-fallback
/// word — to the caller's [`MemoryLayout`] (which already holds the
/// algorithm's value regions), then builds the memory and the HTM runtime
/// over it. Locks living *inside* the transactional memory is what lets
/// hardware transactions subscribe to them (paper §IV-A). When the layout
/// holds a [paired](MemoryLayout::alloc_paired) region, its lock slots are
/// the lock words and no lock region is appended.
///
/// **One scheduler family per system.** Workers of different schedulers
/// may share a system only where their protocols see each other's
/// commits. A TO or H-TO reader beside a 2PL writer is not such a pair:
/// the timestamps do not see 2PL's commits, and the reader can commit a
/// torn read. Nothing rejects that mix, so do not build it. The TuFast
/// router's own rungs (H, O, L, serial, R) are built to mix and may run
/// beside each other on one system.
pub struct TxnSystem {
    htm: HtmRuntime,
    locks: VertexLocks,
    /// One word per vertex: write-timestamp in the high 32 bits, read-
    /// timestamp in the low 32 — packed so timestamp ordering can check
    /// `wts` and claim `rts` in one atomic read-modify-write.
    to_ts: MemRegion,
    fallback_word: Addr,
    /// Global serial token word: nonzero (the holder's claim) while a
    /// [`SerialHold`] is taken.
    serial_token: Addr,
    wait_table: WaitForTable,
    /// One heartbeat slot per worker id, and the job-state word.
    health: Arc<HealthBoard>,
    ts_counter: AtomicU64,
    /// The `max_workers` worker ids.
    worker_ids: IdLeases,
    num_vertices: usize,
    /// Installed lifecycle observer (`tufast-check`'s recorder/stepper):
    /// every worker created afterwards reports to it.
    observer: RwLock<Option<Arc<dyn TxnObserver>>>,
    /// Installed fault plan: every worker and HTM context created
    /// afterwards carries it.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
}

impl TxnSystem {
    /// Finalise `layout` (adding scheduler metadata) and build the system.
    ///
    /// # Panics
    /// If the layout's paired region does not cover exactly `num_vertices`.
    pub fn build(num_vertices: usize, mut layout: MemoryLayout, config: SystemConfig) -> Arc<Self> {
        let locks = match layout.paired_locks() {
            Some(slots) => {
                assert_eq!(
                    slots.len(),
                    num_vertices as u64,
                    "the paired region must cover exactly the vertices"
                );
                VertexLocks::paired(slots)
            }
            None => VertexLocks::alloc(&mut layout, num_vertices),
        };
        let to_ts = layout.alloc("to-timestamps", num_vertices as u64);
        let fallback = layout.alloc("hsync-fallback", 1);
        let serial = layout.alloc("serial-token", 1);
        let htm = HtmRuntime::new(layout, config.htm);
        Arc::new(TxnSystem {
            htm,
            locks,
            to_ts,
            fallback_word: fallback.addr(0),
            serial_token: serial.addr(0),
            wait_table: WaitForTable::new(config.max_workers),
            health: Arc::new(HealthBoard::new(config.max_workers)),
            ts_counter: AtomicU64::new(1),
            worker_ids: IdLeases::new(config.max_workers),
            num_vertices,
            observer: RwLock::new(None),
            fault_plan: RwLock::new(None),
        })
    }

    /// Install (or clear) the lifecycle observer. It reaches every worker
    /// created afterwards: each worker takes it when it is created
    /// ([`Lifecycle::new`](crate::Lifecycle::new)), so install it before
    /// creating the workers it should watch. (HTM contexts report
    /// nothing to it.)
    pub fn set_observer(&self, observer: Option<Arc<dyn TxnObserver>>) {
        // Poison-tolerant: a panicking transaction body unwinds through
        // scheduler frames by design, and a hook slot is plain data.
        *self
            .observer
            .write()
            .unwrap_or_else(PoisonError::into_inner) = observer;
    }

    /// The installed observer, if any.
    pub(crate) fn observer(&self) -> Option<Arc<dyn TxnObserver>> {
        self.observer
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Install (or clear) the fault plan: the one way a plan reaches the
    /// system. The plan reaches every worker (and HTM context) created
    /// afterwards: each worker takes it into its [`FaultHandle`], and each
    /// HTM context into its abort source, when it is created, so install
    /// it before creating the workers it should reach.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self
            .fault_plan
            .write()
            .unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A [`FaultHandle`] over the installed plan for `worker`.
    #[inline]
    pub fn fault_handle(&self, worker: u32) -> FaultHandle {
        FaultHandle::attached(self.fault_plan(), worker)
    }

    /// The shared health board (heartbeats and the job-state word).
    #[inline]
    pub fn health(&self) -> &Arc<HealthBoard> {
        &self.health
    }

    /// The current job's cancel token — clone it to cancel from another
    /// thread.
    #[inline]
    pub fn cancel_token(&self) -> &CancelToken {
        &self.health
    }

    /// Re-arm the health board for a fresh job — live, healthy, and
    /// `deadline` (if any) armed from now. The one way to arm a deadline.
    pub fn begin_job(&self, deadline: Option<JobDeadline>) {
        self.health.begin_job(deadline);
    }

    /// A per-worker health probe writing into `worker`'s heartbeat slot.
    /// Every scheduler worker carries one and probes it at attempt
    /// boundaries.
    #[inline]
    pub fn health_handle(&self, worker: u32) -> HealthHandle {
        HealthHandle::attached(Arc::clone(&self.health), worker)
    }

    /// Convenience: a system with default config over `layout`.
    pub fn with_defaults(num_vertices: usize, layout: MemoryLayout) -> Arc<Self> {
        Self::build(num_vertices, layout, SystemConfig::default())
    }

    /// The shared memory.
    #[inline]
    pub fn mem(&self) -> &TxMemory {
        self.htm.memory()
    }

    /// The emulated-HTM runtime.
    #[inline]
    pub fn htm(&self) -> &HtmRuntime {
        &self.htm
    }

    /// A fresh per-thread HTM context. It consults the installed fault
    /// plan's abort source, or the config's when no plan is installed.
    #[inline]
    pub fn htm_ctx(&self) -> HtmCtx {
        match self.fault_plan() {
            Some(plan) => self.htm.ctx_with_source(Some(plan.abort_source())),
            None => self.htm.ctx(),
        }
    }

    /// The per-vertex lock array.
    #[inline]
    pub fn locks(&self) -> &VertexLocks {
        &self.locks
    }

    /// The wait-for table for blocking acquisitions.
    #[inline]
    pub fn wait_table(&self) -> &WaitForTable {
        &self.wait_table
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Lease the lowest free worker id (lock owner, wait-table slot and
    /// heartbeat slot); a [`Lifecycle`](crate::Lifecycle) gives it back
    /// when it drops.
    ///
    /// # Panics
    /// When `max_workers` ids are leased at once.
    pub fn new_worker_id(&self) -> u32 {
        self.worker_ids
            .lease()
            .expect("worker ids exhausted: more live workers than SystemConfig::max_workers")
    }

    /// Give back a leased worker id: what its worker wrote to its slots
    /// comes before the next lease of the id.
    pub(crate) fn release_worker_id(&self, id: u32) {
        self.worker_ids.release(id);
    }

    /// Draw a fresh timestamp (timestamp-ordering schedulers).
    #[inline]
    pub fn next_ts(&self) -> u64 {
        self.ts_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Address of vertex `v`'s packed timestamp word (`wts << 32 | rts`).
    #[inline]
    pub fn to_ts_addr(&self, v: VertexId) -> Addr {
        self.to_ts.addr(u64::from(v))
    }

    /// The HSync global-fallback lock word, a sequence lock: odd while a
    /// fallback transaction holds it, two higher after every hold.
    #[inline]
    pub fn fallback_word(&self) -> Addr {
        self.fallback_word
    }

    /// The global serial token word (TuFast's last-resort stop-the-world
    /// commit, and the epoch checkpoint): 0 when free, the holder's claim
    /// while held.
    #[inline]
    pub fn serial_token(&self) -> Addr {
        self.serial_token
    }

    /// Take the global serial token as `claim` (nonzero: a worker's id + 1,
    /// or the epoch coordinator's reserved claim), waiting while another
    /// hold has it. While it is held no TuFast transaction starts: each
    /// waits at its entry gate ([`Lifecycle::serial_gate`](crate::Lifecycle::serial_gate)).
    pub fn hold_serial(&self, claim: u64) -> SerialHold<'_> {
        debug_assert_ne!(claim, 0, "0 is the free token");
        let held = witness::acquire(LockClass::SerialToken);
        let mut turn = 0u32;
        while self.mem().cas_direct(self.serial_token, 0, claim).is_err() {
            relax(turn);
            turn = turn.wrapping_add(1);
        }
        SerialHold {
            sys: self,
            _held: held,
        }
    }

    /// Pin an R-mode read snapshot: the current global version-clock
    /// value. Every write-publishing path ticks this clock once while it
    /// holds its written lines locked and unlocks them at that tick, so a
    /// reader that validates each read's line version against this pin
    /// observes exactly the committed state as of the pin — see
    /// [`crate::rmode`] for the full protocol.
    #[inline]
    pub fn read_snapshot(&self) -> u64 {
        self.mem().clock_now_pub()
    }

    /// The R-mode bracket around a plain load of `addr`: the value and the
    /// version of its cache line, or `None` while the line is locked or
    /// when it was republished across the load — a line seqlock.
    ///
    /// No pin, no spin, nothing acquired. By publish-at-the-ticket
    /// ([`crate::rmode`]) a returned value was published by the committed
    /// transaction ticketed `line_version` (or is initial state): never an
    /// uncommitted store. Every writer buffers until its commit batch,
    /// which stores under the line locks and unlocks at the ticket, so a
    /// value and its version appear together. The load is untracked: call
    /// it outside transaction bodies (`tufast-lint`'s `untracked-peek`).
    #[inline]
    pub fn peek_committed(&self, addr: Addr) -> Option<(u64, u64)> {
        let mem = self.mem();
        let line = addr.line();
        let before = mem.line_state(line);
        let LineState::Unlocked { version } = before else {
            return None;
        };
        let val = mem.load_direct(addr);
        (mem.line_state(line) == before).then_some((val, version))
    }

    /// A committed value of the **data** word at `addr`: one `Acquire`
    /// load, no version, no retry.
    ///
    /// It rests on one invariant: *no committer stores a data word before
    /// its commit's point of no return.* Every committer buffers its data
    /// and stores it only in its publish step, which runs after validation
    /// and cannot fail ([`HtmCtx::commit`],
    /// [`HeldWrites::publish`](crate::commit::HeldWrites::publish),
    /// [`release_at_ticket`](crate::commit::release_at_ticket)), and a
    /// direct store is committed when it lands. So whatever a data word
    /// holds is committed, or is being published by a commit that can no
    /// longer abort. Use [`peek_committed`](Self::peek_committed) when the
    /// version matters.
    ///
    /// Lock words are outside the invariant — O mode, OCC and TO store
    /// transient writer marks into them before validating — and so are
    /// the TO timestamps, the fallback word and the serial token. The load
    /// is untracked: call it outside transaction bodies (`tufast-lint`'s
    /// `untracked-peek`).
    #[inline]
    pub fn load_committed(&self, addr: Addr) -> u64 {
        self.mem().load_direct(addr)
    }

    /// Words a transaction over a degree-`d` neighbourhood touches —
    /// the size-hint helper exported to algorithm code.
    #[inline]
    pub fn neighborhood_hint(degree: usize) -> usize {
        2 * (degree + 1)
    }
}

impl std::fmt::Debug for TxnSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnSystem")
            .field("vertices", &self.num_vertices)
            .field("memory_words", &self.mem().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_appends_metadata_after_user_regions() {
        let mut layout = MemoryLayout::new();
        let values = layout.alloc("values", 100);
        let sys = TxnSystem::with_defaults(100, layout);
        // User region is intact and disjoint from lock words.
        sys.mem().store_direct(values.addr(99), 7);
        assert_eq!(sys.mem().load_direct(values.addr(99)), 7);
        assert!(sys.locks().addr(0).0 >= 100);
        assert_eq!(sys.locks().len(), 100);
    }

    /// A system of `n` vertices over `user` value regions of a word each.
    fn with_value_regions(n: usize, user: usize) -> (Arc<TxnSystem>, Vec<MemRegion>) {
        let mut layout = MemoryLayout::new();
        let values = (0..user)
            .map(|k| layout.alloc(&format!("values-{k}"), n as u64))
            .collect();
        (TxnSystem::with_defaults(n, layout), values)
    }

    #[test]
    fn no_two_words_of_a_vertex_share_a_cache_set() {
        let sets = HtmConfig::default().num_sets() as u64;
        for n in [8_192, 65_536, 10_007] {
            for user in 1..=3 {
                let (sys, values) = with_value_regions(n, user);
                for v in 0..n as u32 {
                    let words = values
                        .iter()
                        .map(|r| r.addr(u64::from(v)))
                        .chain([sys.locks().addr(v), sys.to_ts_addr(v)]);
                    let mut seen = 0u64;
                    for addr in words {
                        let set = 1 << (addr.line() % sets);
                        assert_eq!(
                            seen & set,
                            0,
                            "n = {n}, {user} user regions: vertex {v} has two words in one set"
                        );
                        seen |= set;
                    }
                }
            }
        }
    }

    /// The mean number of random vertices (lock word + value word each) one
    /// hardware transaction holds before `Capacity`, over a seeded draw.
    fn random_vertices_per_transaction<const S: u64>(
        sys: &TxnSystem,
        values: &MemRegion<S>,
    ) -> f64 {
        let n = sys.num_vertices() as u32;
        let mut ctx = sys.htm_ctx();
        // xorshift64*: seeded, so the mean repeats exactly.
        let mut x = 0x7117_5EED_u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % n
        };
        let trials = 4_000;
        let mut fitted = 0u64;
        for _ in 0..trials {
            ctx.begin().expect("no transaction is open");
            loop {
                let v = next();
                let (lock, value) = (sys.locks().addr(v), values.addr(u64::from(v)));
                match ctx.read(lock).and_then(|_| ctx.read(value)) {
                    Ok(_) => fitted += 1,
                    Err(code) => break assert_eq!(code, tufast_htm::AbortCode::Capacity),
                }
            }
        }
        fitted as f64 / trials as f64
    }

    /// ~120 when a vertex's two lines fall in different sets, 59 when they
    /// share one.
    #[test]
    fn a_hardware_transaction_fits_over_a_hundred_random_vertices() {
        let (sys, values) = with_value_regions(8_192, 1);
        let mean = random_vertices_per_transaction(&sys, &values[0]);
        assert!(mean >= 100.0, "{mean} vertices per transaction");
    }

    /// A system of `n` vertices over one paired value region.
    fn with_paired_region(n: usize) -> (Arc<TxnSystem>, MemRegion<2>) {
        let mut layout = MemoryLayout::new();
        let values = layout.alloc_paired("values", n as u64);
        (TxnSystem::with_defaults(n, layout), values)
    }

    /// One line per vertex: 210.4 on the same draw.
    #[test]
    fn a_paired_region_fits_over_two_hundred_random_vertices() {
        let (sys, values) = with_paired_region(8_192);
        let mean = random_vertices_per_transaction(&sys, &values);
        assert!(mean >= 200.0, "{mean} vertices per transaction");
    }

    #[test]
    fn every_vertex_of_a_paired_region_is_one_line() {
        for n in [1, 8_192, 10_007] {
            let (sys, values) = with_paired_region(n);
            assert_eq!(sys.locks().len(), n as u64);
            for v in 0..n as u32 {
                let (lock, value) = (sys.locks().addr(v), values.addr(u64::from(v)));
                assert_eq!(lock.line(), value.line(), "n = {n}: vertex {v}");
                assert_ne!(lock, value);
            }
            // Nothing else lands in the pairs: the timestamps come after.
            assert!(sys.to_ts_addr(0) >= values.end());
        }
    }

    #[test]
    #[should_panic(expected = "at most one paired region")]
    fn a_second_paired_allocation_panics() {
        let mut layout = MemoryLayout::new();
        layout.alloc_paired("values", 16);
        layout.alloc_paired("more-values", 16);
    }

    #[test]
    #[should_panic(expected = "cover exactly the vertices")]
    fn a_paired_region_of_another_length_panics_at_build() {
        let mut layout = MemoryLayout::new();
        layout.alloc_paired("values", 15);
        TxnSystem::with_defaults(16, layout);
    }

    #[test]
    fn peek_committed_returns_the_value_and_the_version_it_was_published_at() {
        let (sys, values) = with_value_regions(16, 1);
        let (a0, a8) = (values[0].addr(0), values[0].addr(8));
        assert_eq!(sys.peek_committed(a0), Some((0, 0)), "initial state");
        sys.mem().store_direct(a0, 7);
        let stamped = sys.mem().clock_now_pub();
        assert_eq!(sys.peek_committed(a0), Some((7, stamped)));

        // A buffered committer holds the lines: nothing to see until it
        // publishes, and then the pair arrives at its ticket.
        let mut writes = crate::commit::WriteSet::new(5);
        writes.insert(0, a0, 70);
        writes.insert(8, a8, 80);
        let held = writes.try_lock(&sys, |_| None).unwrap();
        assert_eq!(sys.peek_committed(a0), None);
        assert_eq!(sys.peek_committed(a8), None);
        let ticket = held.publish();
        assert_eq!(sys.peek_committed(a0), Some((70, ticket)));
        assert_eq!(sys.peek_committed(a8), Some((80, ticket)));
    }

    #[test]
    fn peek_committed_never_sees_an_in_place_store_that_rolls_back() {
        use crate::traits::{GraphScheduler, TxnWorker};
        let (sys, values) = with_value_regions(8, 1);
        let addr = values[0].addr(3);
        sys.mem().store_direct(addr, 9);
        let committed = sys.peek_committed(addr).unwrap();

        // 2PL buffers the store under the vertex lock: memory keeps the
        // committed value while the hold lasts, and the rollback leaves the
        // data line as it was.
        let mut tpl = crate::tpl::TwoPhaseLocking::new(Arc::clone(&sys)).worker();
        let out = tpl.execute(2, &mut |ops| {
            ops.write(3, addr, 1)?;
            assert_eq!(sys.mem().load_direct(addr), 9, "the store is not in memory");
            assert_eq!(sys.peek_committed(addr), Some(committed));
            Err(ops.user_abort())
        });
        assert!(!out.committed);
        assert_eq!(
            sys.peek_committed(addr),
            Some(committed),
            "same value, same version"
        );

        // The HSync fallback path buffers under the global word too
        // (8 000 lines: past HTM capacity, so the body runs there).
        let big = 8_000u64;
        let mut layout = MemoryLayout::new();
        let region = layout.alloc("big", big);
        let sys = TxnSystem::with_defaults(1, layout);
        let committed = sys.peek_committed(region.addr(0)).unwrap();
        let mut hsync = crate::hsync::HSyncLike::new(Arc::clone(&sys)).worker();
        let mut peeked_in_fallback = false;
        let out = hsync.execute(big as usize, &mut |ops| {
            for i in 0..big {
                ops.write(0, region.addr(i), 1)?;
            }
            peeked_in_fallback = true;
            let in_memory = sys.mem().load_direct(region.addr(0));
            assert_eq!(in_memory, 0, "the store is not in memory");
            assert_eq!(sys.peek_committed(region.addr(0)), Some(committed));
            Err(ops.user_abort())
        });
        assert!(!out.committed && peeked_in_fallback);
        assert_eq!(
            sys.peek_committed(region.addr(0)),
            Some(committed),
            "same value, same version"
        );
        // One hold, released: the rollback only let go of the word.
        assert_eq!(sys.mem().load_direct(sys.fallback_word()), 2);
    }

    #[test]
    fn load_committed_reads_a_held_line_at_its_committed_value() {
        let (sys, values) = with_value_regions(16, 1);
        let (a0, a8) = (values[0].addr(0), values[0].addr(8));
        sys.mem().store_direct(a0, 7);
        assert_eq!(sys.load_committed(a0), 7);

        // Locked and validated, not yet published: memory holds the
        // committed words, where the seqlock sees only a locked line.
        let mut writes = crate::commit::WriteSet::new(5);
        writes.insert(0, a0, 70);
        writes.insert(8, a8, 80);
        let held = writes.try_lock(&sys, |_| None).unwrap();
        assert_eq!(sys.peek_committed(a0), None);
        assert_eq!((sys.load_committed(a0), sys.load_committed(a8)), (7, 0));
        held.publish();
        assert_eq!((sys.load_committed(a0), sys.load_committed(a8)), (70, 80));

        // An abandoned hold leaves the words as they were.
        writes.insert(0, a0, 700);
        drop(writes.try_lock(&sys, |_| None).unwrap());
        assert_eq!(sys.load_committed(a0), 70);
    }

    #[test]
    fn a_peek_pinned_before_a_region_fill_accepts_no_new_value() {
        let mut layout = MemoryLayout::new();
        let values = layout.alloc_paired("value", 16);
        let sys = TxnSystem::with_defaults(16, layout);
        let locks = sys.locks();
        locks.try_shared(sys.mem(), 3).unwrap();
        let lock_words = || -> Vec<u64> {
            let addrs = (0..16).map(|v| locks.addr(v));
            addrs.map(|a| sys.mem().load_direct(a)).collect()
        };
        let locks_before = lock_words();
        assert_ne!(locks_before[3], 0, "vertex 3 is read-held");
        // A reader pinned at `pin` accepts a peek stamped at or below it.
        let pin = sys.mem().clock_now_pub();
        let accepts = |addr| matches!(sys.peek_committed(addr), Some((_, at)) if at <= pin);
        assert!(values.iter().all(accepts), "the zeroed region is committed");

        sys.mem().fill_region_with(&values, |i| {
            // Mid-publish every line of the region is held: nothing to see.
            assert!(values.iter().all(|a| sys.peek_committed(a).is_none()));
            i + 1
        });

        for (i, addr) in (0..).zip(values.iter()) {
            assert_eq!(sys.peek_committed(addr), Some((i + 1, pin + 1)));
        }
        assert!(
            !values.iter().any(accepts),
            "every line is stamped past the pin"
        );
        assert_eq!(lock_words(), locks_before, "the lock words are untouched");
    }

    #[test]
    fn worker_ids_are_unique_and_bounded() {
        let layout = MemoryLayout::new();
        let sys = TxnSystem::build(
            1,
            layout,
            SystemConfig {
                max_workers: 4,
                ..SystemConfig::default()
            },
        );
        let ids: Vec<u32> = (0..4).map(|_| sys.new_worker_id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let sys = TxnSystem::with_defaults(1, MemoryLayout::new());
        let a = sys.next_ts();
        let b = sys.next_ts();
        assert!(b > a);
    }

    #[test]
    fn hint_model_matches_stats_module() {
        assert_eq!(TxnSystem::neighborhood_hint(0), 2);
        assert_eq!(TxnSystem::neighborhood_hint(10), 22);
    }
}
