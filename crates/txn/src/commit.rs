//! Publish at the ticket: the software commit protocol every lock-word
//! scheduler shares, modelled on the emulated-HTM commit itself.
//!
//! A committer gathers the cache lines it is about to change — data lines
//! *and* the lines of the vertex lock words it bumps or releases — into one
//! [`LineBatch`], locks them in address order, mints **one** clock tick
//! (its serialization ticket) while they are all held, and unlocks every
//! line at that tick. Content and version become visible together, so *a
//! line version `≤ t` proves the line's content was committed by a
//! transaction ticketed `≤ t`* by construction (DESIGN.md §14).
//!
//! * **Buffered committers** (O mode, OCC, TO): [`WriteSet::try_lock`] →
//!   validate against the [`HeldWrites`] → [`HeldWrites::commit`]. Try-only,
//!   so an optimistic committer never waits. No vertex lock is *acquired*:
//!   the words' line locks already exclude everyone who takes or tests one
//!   through its line. The committer only marks its write vertices' words
//!   (plain stores under those locks, one fence) for the one party that
//!   reads lock words past the line locks: another committer's validation.
//! * **Lock holders** (2PL in both lock orders, the HSync fallback):
//!   [`release_at_ticket`] is their one release, of a commit or a
//!   rollback. Both buffer: a commit's batch stores the buffered words and
//!   releases every vertex 2PL holds, or the fallback word. A 2PL
//!   rollback runs the batch with nothing to store; an HSync rollback
//!   only frees the word.
//!
//! No committer stores a value in memory before its ticket, so a reader
//! needs the line seqlock alone ([`TxnSystem::peek_committed`]). And every
//! publish step — [`HeldWrites::publish`], [`release_at_ticket`] and the
//! HTM commit's — runs after validation and cannot fail, so no committer
//! stores a *data* word before its point of no return, and a reader that
//! needs no version makes one load ([`TxnSystem::load_committed`]). Lock
//! words are outside that corollary: [`WriteSet::try_lock`] marks them
//! before the caller validates.
//!
//! Every failure path releases the lines at their old versions, tickless.

use std::sync::atomic::{fence, Ordering};

use tufast_htm::{Addr, LineBatch, LineState, TxMemory, WordMap, DIRECT_OWNER};

use crate::locks::LockWord;
use crate::obs::ObsHandle;
use crate::system::TxnSystem;
use crate::traits::TxInterrupt;
use crate::VertexId;

/// Bounded spins per line while locking a buffered write set (an optimistic
/// committer must not wait: its peers can invalidate it meanwhile).
const COMMIT_LOCK_SPINS: u32 = 128;
/// Bounded retries of [`read_stable`]'s bracket.
const READ_RETRIES: u32 = 4096;

/// One turn of a bounded wait. Yields regularly: on oversubscribed cores
/// the holder needs CPU time to finish.
#[inline]
pub fn relax(turn: u32) {
    if turn % 32 == 31 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// A transaction's buffered writes: values by address, and the distinct
/// vertices written, whose commit versions the commit bumps.
pub struct WriteSet {
    /// The committing worker's id (the vertex-lock owner id space).
    me: u32,
    words: WordMap,
    vertices: Vec<VertexId>,
    seen: WordMap,
    /// Commit scratch: the lines of the write set.
    batch: LineBatch,
}

impl WriteSet {
    /// An empty write set for worker `me`.
    pub fn new(me: u32) -> Self {
        WriteSet {
            me,
            words: WordMap::with_capacity(32),
            vertices: Vec::with_capacity(16),
            seen: WordMap::with_capacity(16),
            batch: LineBatch::with_capacity(32),
        }
    }

    /// Forget all writes, keeping allocations.
    pub fn clear(&mut self) {
        self.words.clear();
        self.vertices.clear();
        self.seen.clear();
    }

    /// Buffer `val` for `addr`, a word of vertex `v`.
    #[inline]
    pub fn insert(&mut self, v: VertexId, addr: Addr, val: u64) {
        self.words.insert(addr, val);
        if self.seen.insert(Addr(u64::from(v)), 1) {
            self.vertices.push(v);
        }
    }

    /// The buffered words, in first-write order.
    #[inline]
    pub fn words(&self) -> &WordMap {
        &self.words
    }

    /// The distinct vertices written, in first-write order.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Lock, in address order, the lines of the buffered words, of the
    /// written vertices' lock words and of whatever further word
    /// `vertex_word` names per written vertex (TO's timestamps), which the
    /// caller will check or [`store`](HeldWrites::store) under the same
    /// locks. `None` when a line, or a written vertex's 2PL lock, stayed
    /// busy; nothing is held then.
    pub fn try_lock<'a>(
        &'a mut self,
        sys: &'a TxnSystem,
        vertex_word: impl Fn(VertexId) -> Option<Addr>,
    ) -> Option<HeldWrites<'a>> {
        let (mem, locks) = (sys.mem(), sys.locks());
        self.batch.clear();
        for (addr, _) in self.words.iter() {
            self.batch.push(addr.line());
        }
        for &v in &self.vertices {
            self.batch.push(locks.addr(v).line());
        }
        for addr in self.vertices.iter().filter_map(|&v| vertex_word(v)) {
            self.batch.push(addr.line());
        }
        // A word that is free under its line lock stays free until we unlock.
        // One held by a 2PL transaction gets a bounded wait, as a busy line
        // does — but with no line held, so its holder can release it.
        let mut spins = 0;
        loop {
            if !mem.try_lock_lines(&mut self.batch, DIRECT_OWNER, COMMIT_LOCK_SPINS) {
                return None;
            }
            let held = |&&v: &&VertexId| !locks.peek(mem, v).is_free();
            let Some(&busy) = self.vertices.iter().find(held) else {
                break;
            };
            mem.unlock_lines(&mut self.batch, None);
            while !locks.peek(mem, busy).is_free() {
                spins += 1;
                if spins > COMMIT_LOCK_SPINS {
                    return None;
                }
                relax(spins);
            }
        }
        for &v in &self.vertices {
            mem.store_locked(
                locks.addr(v),
                locks.peek(mem, v).with_writer(Some(self.me)).0,
            );
        }
        // Two committers that each read a vertex the other writes must not
        // both validate: past this fence either we see their mark or they
        // see ours (the marks were plain stores).
        fence(Ordering::SeqCst);
        Some(HeldWrites {
            sys,
            me: self.me,
            batch: &mut self.batch,
            words: &self.words,
            vertices: &self.vertices,
            live: true,
        })
    }
}

/// A [`WriteSet`] whose lines are locked and whose vertices are marked:
/// validate against it, then [`publish`](Self::publish). Dropping it
/// instead abandons the commit — marks removed, every line released at its
/// old version, the clock unmoved.
pub struct HeldWrites<'a> {
    sys: &'a TxnSystem,
    me: u32,
    batch: &'a mut LineBatch,
    words: &'a WordMap,
    vertices: &'a [VertexId],
    /// Not yet published.
    live: bool,
}

impl HeldWrites<'_> {
    /// Silo-style read validation: every `(vertex, version at first read)`
    /// is still current, and owned by no 2PL writer or other committer.
    pub fn reads_current(&self, reads: &[(VertexId, u32)]) -> bool {
        let (mem, locks, me) = (self.sys.mem(), self.sys.locks(), self.me);
        reads.iter().all(|&(v, ver)| {
            let w = locks.peek(mem, v);
            w.writer().is_none_or(|o| o == me) && w.version() == ver
        })
    }

    /// The distinct vertices written.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        self.vertices
    }

    /// Store to a `vertex_word` named at [`WriteSet::try_lock`].
    #[inline]
    pub fn store(&self, addr: Addr, val: u64) {
        self.sys.mem().store_locked(addr, val);
    }

    /// Release every written vertex's lock word, with a version bump iff
    /// `wrote`.
    fn release_words(&self, wrote: bool) {
        let (mem, locks) = (self.sys.mem(), self.sys.locks());
        for &v in self.vertices {
            mem.store_locked(locks.addr(v), locks.peek(mem, v).released(wrote).0);
        }
    }

    /// [`publish`](Self::publish) and report the ticket to the observer. A
    /// read-only transaction has nothing to publish and just lets go: every
    /// writer it read from published (and ticketed) before the read sampled
    /// it, so the current clock upper-bounds their tickets.
    pub fn commit(self, obs: &ObsHandle) {
        let (mem, me) = (self.sys.mem(), self.me);
        if self.words.is_empty() {
            drop(self);
            obs.commit_ticketed(me, || mem.clock_now_pub());
        } else {
            let ticket = self.publish();
            obs.commit_ticketed(me, || ticket);
        }
    }

    /// Store the buffered words, mint the serialization ticket, bump every
    /// written vertex's commit version and unlock all lines at the ticket,
    /// which is returned. Cannot fail.
    pub fn publish(mut self) -> u64 {
        let mem = self.sys.mem();
        for (addr, val) in self.words.iter() {
            mem.store_locked(addr, val);
        }
        let ticket = mem.clock_tick_pub();
        self.release_words(true);
        mem.unlock_lines(self.batch, Some(ticket));
        self.live = false;
        ticket
    }
}

impl Drop for HeldWrites<'_> {
    fn drop(&mut self) {
        if self.live {
            self.release_words(false);
            self.sys.mem().unlock_lines(self.batch, None);
        }
    }
}

/// Publish under held vertex locks or the fallback word: lock `batch`'s
/// lines in address order — the caller gathered every line `apply` stores
/// to — mint the ticket, run `apply` under the locks and unlock all lines
/// at the ticket, which is returned.
///
/// This one waits for its lines — a lock holder's release cannot back out
/// — and cannot deadlock: every multi-line holder locks ascending, the
/// optimistic ones are try-only, and nobody waits for a vertex lock while
/// holding a line.
#[inline]
pub fn release_at_ticket(mem: &TxMemory, batch: &mut LineBatch, apply: impl FnOnce()) -> u64 {
    mem.lock_lines(batch);
    let ticket = mem.clock_tick_pub();
    apply();
    mem.unlock_lines(batch, Some(ticket));
    ticket
}

/// Lock-free consistent read for the buffered schedulers (OCC, TO): run
/// `sample` with vertex `v` quiescent around it — no 2PL writer on `v`, and
/// `v`'s lock-word line unlocked at the same version before and after, so
/// no commit batch that writes `v` overlapped the sample. Returns the lock
/// word the sample ran under.
pub(crate) fn read_stable<T>(
    sys: &TxnSystem,
    v: VertexId,
    mut sample: impl FnMut() -> Result<T, TxInterrupt>,
) -> Result<(LockWord, T), TxInterrupt> {
    let (mem, locks) = (sys.mem(), sys.locks());
    let line = locks.addr(v).line();
    for attempt in 0..READ_RETRIES {
        let before = mem.line_state(line);
        let word = locks.peek(mem, v);
        if matches!(before, LineState::Locked { .. }) || word.writer().is_some() {
            relax(attempt);
            continue;
        }
        let out = sample()?;
        if mem.line_state(line) == before {
            return Ok((word, out));
        }
    }
    Err(TxInterrupt::Restart)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast_htm::{MemRegion, MemoryLayout};

    /// Sixteen vertices, one data word each, every word on its own line.
    fn setup() -> (Arc<TxnSystem>, MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", 16 * 8);
        (TxnSystem::with_defaults(16, layout), data)
    }

    fn writes_of(data: &MemRegion, vs: &[VertexId], val: u64) -> WriteSet {
        let mut ws = WriteSet::new(ME);
        for &v in vs {
            ws.insert(v, data.addr(u64::from(v) * 8), val);
        }
        ws
    }

    const ME: u32 = 40;

    fn no_extra() -> impl Fn(VertexId) -> Option<Addr> {
        |_| None
    }

    #[test]
    fn publish_ticks_once_and_stamps_data_and_lock_lines_alike() {
        let (sys, data) = setup();
        let (mem, locks) = (sys.mem(), sys.locks());
        let vs = [9, 2, 5];
        let mut ws = writes_of(&data, &vs, 77);
        let clock = mem.clock_now_pub();
        let held = ws.try_lock(&sys, no_extra()).expect("nothing contends");
        assert!(held.reads_current(&[(2, 0), (3, 0)]));
        assert!(!held.reads_current(&[(2, 1)]), "stale version");
        let ticket = held.publish();
        assert_eq!(ticket, clock + 1);
        assert_eq!(mem.clock_now_pub(), clock + 1, "k vertices, one tick");
        for &v in &vs {
            let addr = data.addr(u64::from(v) * 8);
            assert_eq!(mem.load_direct(addr), 77);
            assert_eq!(locks.peek(mem, v).version(), 1);
            assert!(locks.peek(mem, v).is_free());
            for line in [addr.line(), locks.addr(v).line()] {
                let want = LineState::Unlocked { version: ticket };
                assert_eq!(mem.line_state(line), want);
            }
        }
        assert_eq!(locks.peek(mem, 3).version(), 0, "unwritten neighbour");
    }

    #[test]
    fn busy_vertex_or_dropped_hold_changes_nothing() {
        let (sys, data) = setup();
        let (mem, locks) = (sys.mem(), sys.locks());
        let vs = [1, 12];
        let mut ws = writes_of(&data, &vs, 5);
        let lines: Vec<u64> = vs
            .iter()
            .flat_map(|&v| [data.addr(u64::from(v) * 8).line(), locks.addr(v).line()])
            .collect();
        let states = || lines.iter().map(|&l| mem.line_state(l)).collect::<Vec<_>>();

        // A 2PL reader holds vertex 12: the write set cannot be locked.
        locks.try_shared(mem, 12).unwrap();
        let (clock, was) = (mem.clock_now_pub(), states());
        assert!(ws.try_lock(&sys, no_extra()).is_none());
        assert_eq!(states(), was);
        assert_eq!(mem.clock_now_pub(), clock);
        locks.unlock_shared(mem, 12);

        // A failed validation drops the hold.
        let (clock, was) = (mem.clock_now_pub(), states());
        let held = ws.try_lock(&sys, no_extra()).unwrap();
        assert!(matches!(mem.line_state(lines[0]), LineState::Locked { .. }));
        assert_eq!(
            locks.peek(mem, 1).writer(),
            Some(ME),
            "marked for validators"
        );
        drop(held);
        assert_eq!(states(), was);
        assert_eq!(mem.clock_now_pub(), clock);
        for &v in &vs {
            assert_eq!(mem.load_direct(data.addr(u64::from(v) * 8)), 0);
            assert_eq!(locks.peek(mem, v).version(), 0);
        }
    }

    #[test]
    fn another_committers_vertex_fails_validation_not_ours() {
        let (sys, data) = setup();
        let mut mine = writes_of(&data, &[0], 1);
        let mut theirs = WriteSet::new(ME + 1);
        theirs.insert(8, data.addr(8 * 8), 2);
        let a = mine.try_lock(&sys, no_extra()).unwrap();
        let b = theirs.try_lock(&sys, no_extra()).unwrap();
        // Write skew in the making: each read the other's write vertex.
        assert!(
            a.reads_current(&[(0, 0), (3, 0), (9, 0)]),
            "own and unwritten"
        );
        assert!(!a.reads_current(&[(8, 0)]));
        assert!(!b.reads_current(&[(0, 0)]));
        drop(a);
        assert!(
            b.reads_current(&[(0, 0)]),
            "an abandoned commit leaves no mark"
        );
    }

    #[test]
    fn release_at_ticket_frees_words_and_stamps_written_lines() {
        let (sys, data) = setup();
        let (mem, locks) = (sys.mem(), sys.locks());
        for v in [4, 11] {
            locks.try_exclusive(mem, v, 3).unwrap();
            mem.store_direct(data.addr(u64::from(v) * 8), 9);
        }
        let mut batch = LineBatch::with_capacity(8);
        let clock = mem.clock_now_pub();
        let words = [11, 4].map(|v| locks.addr(v));
        for addr in [11, 4].map(|v| data.addr(v * 8)).into_iter().chain(words) {
            batch.push(addr.line());
        }
        let ticket = release_at_ticket(mem, &mut batch, || {
            for addr in words {
                mem.store_locked(addr, LockWord(mem.load_direct(addr)).released(true).0);
            }
        });
        assert_eq!((ticket, mem.clock_now_pub()), (clock + 1, clock + 1));
        for v in [4u32, 11] {
            assert!(locks.peek(mem, v).is_free());
            assert_eq!(locks.peek(mem, v).version(), 1);
            let want = LineState::Unlocked { version: ticket };
            assert_eq!(mem.line_state(data.addr(u64::from(v) * 8).line()), want);
            assert_eq!(mem.line_state(locks.addr(v).line()), want);
        }
    }

    #[test]
    fn read_stable_refuses_a_sample_that_overlaps_a_batch() {
        let (sys, data) = setup();
        let mem = sys.mem();
        let mut ws = writes_of(&data, &[6], 42);
        let addr = data.addr(6 * 8);
        // A commit lands inside the first sample only.
        let mut first = true;
        let (word, val) = read_stable(&sys, 6, || {
            if std::mem::take(&mut first) {
                let stale = mem.load_direct(addr);
                ws.try_lock(&sys, no_extra()).unwrap().publish();
                return Ok(stale);
            }
            Ok(mem.load_direct(addr))
        })
        .unwrap();
        assert_eq!((word.version(), val), (1, 42), "stale sample retried");
    }
}
