//! Execution-history recording via the schedulers' observer hooks.
//!
//! A [`Recorder`] is installed on a [`TxnSystem`](tufast_txn::TxnSystem)
//! with `set_observer` before the workers are created, and logs every
//! transaction attempt they run: the values each read returned, the values each
//! write installed, and — for committed attempts — the *serialization
//! ticket* the scheduler minted inside its commit critical section.
//! Draining the recorder yields a [`History`], the input format of the
//! [`dsg`](crate::dsg) checker.
//!
//! ## History format
//!
//! A history is a flat list of [`TxnRecord`]s in completion order. Each
//! record is one *attempt*: a committed transaction produces exactly one
//! committed record; every restart produces an additional aborted record.
//! Reads keep their program order and carry an `own_write` flag when they
//! observed the attempt's own earlier (possibly still-buffered) write —
//! the checker excludes those from write-read attribution. Writes keep
//! program order too; the last write per address is the published value.

use std::collections::HashMap;

use tufast_htm::witness::{LockClass, Mutex};
use tufast_htm::Addr;
use tufast_txn::{TxnObserver, VertexId};

/// One transactional read as the scheduler saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadEvent {
    /// Vertex the operation was tagged with.
    pub vertex: VertexId,
    /// Word address read.
    pub addr: Addr,
    /// Value returned to the transaction body.
    pub val: u64,
    /// The attempt had already written `addr`: this is a read-back of its
    /// own (buffered or in-place) write, not an inter-transaction
    /// dependency.
    pub own_write: bool,
}

/// One transactional write as the scheduler accepted it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteEvent {
    /// Vertex the operation was tagged with.
    pub vertex: VertexId,
    /// Word address written.
    pub addr: Addr,
    /// Value installed (buffered until commit on optimistic paths).
    pub val: u64,
}

/// What kind of transaction a record is, for anomaly attribution.
///
/// The recorder itself cannot tell a graph *mutation* (an
/// `add_edge`/`remove_edge`/`add_vertex` transaction on the delta
/// overlay) from an analytics transaction — both are just reads and
/// writes. [`History::tag_mutations`] classifies records afterwards by
/// address: any transaction that wrote into the overlay's word range is
/// a mutation. With the tag in place, a lost-update or write-write
/// anomaly between an `add_edge` and a relaxation names which side was
/// the mutation instead of reporting two anonymous transactions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TxnKind {
    /// Algorithm transaction (relaxation, pull/push step, …).
    #[default]
    Analytics,
    /// Graph mutation through the delta overlay.
    Mutation,
}

/// One recorded transaction attempt.
#[derive(Clone, Debug)]
pub struct TxnRecord {
    /// Worker id the scheduler reported (TuFast reports its router id for
    /// H/O attempts and its embedded 2PL worker's id for L attempts; both
    /// are internally consistent per attempt).
    pub worker: u32,
    /// Whether the attempt committed.
    pub committed: bool,
    /// For aborted attempts: `true` when the body requested the abort,
    /// `false` for conflict/restart aborts.
    pub user_abort: bool,
    /// Serialization ticket (committed attempts only). Writers mint it
    /// inside their commit critical section, so per address, ticket order
    /// is publication order; read-only transactions report a clock upper
    /// bound instead.
    pub ticket: Option<u64>,
    /// Reads in program order.
    pub reads: Vec<ReadEvent>,
    /// Writes in program order.
    pub writes: Vec<WriteEvent>,
    /// Classification, assigned by [`History::tag_mutations`]
    /// (defaults to [`TxnKind::Analytics`]).
    pub kind: TxnKind,
}

impl TxnRecord {
    /// The value this attempt would publish for `addr` (its last write),
    /// if it wrote that address at all.
    pub fn published(&self, addr: Addr) -> Option<u64> {
        self.writes
            .iter()
            .rev()
            .find(|w| w.addr == addr)
            .map(|w| w.val)
    }

    /// Whether the attempt performed any write.
    pub fn is_writer(&self) -> bool {
        !self.writes.is_empty()
    }
}

/// A complete per-run execution history.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// All recorded attempts, in completion order.
    pub txns: Vec<TxnRecord>,
    /// The uniform initial value of every data word before the run (0 for
    /// zero-initialised memory). The checker uses it to tell initial-state
    /// reads apart from reads of a committed write that happens to carry
    /// the same value — the latter would make attribution ambiguous.
    pub initial: u64,
}

impl History {
    /// Indices of the committed records.
    pub fn committed(&self) -> impl Iterator<Item = usize> + '_ {
        self.txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.committed)
            .map(|(i, _)| i)
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> usize {
        self.txns.iter().filter(|t| t.committed).count()
    }

    /// Classify every record that wrote into `overlay` (the delta
    /// overlay's word-address range, from
    /// `MutableGraph::overlay_word_range`) as a [`TxnKind::Mutation`].
    /// Reads don't count: a relaxation that *consults* the overlay via
    /// `txn_neighbors` is still analytics. Returns how many records were
    /// tagged.
    pub fn tag_mutations(&mut self, overlay: std::ops::Range<u64>) -> usize {
        let mut tagged = 0;
        for t in &mut self.txns {
            if t.writes.iter().any(|w| overlay.contains(&w.addr.0)) {
                t.kind = TxnKind::Mutation;
                tagged += 1;
            }
        }
        tagged
    }

    /// Indices of records tagged [`TxnKind::Mutation`].
    pub fn mutations(&self) -> impl Iterator<Item = usize> + '_ {
        self.txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TxnKind::Mutation)
            .map(|(i, _)| i)
    }
}

/// In-flight attempt state for one worker id.
#[derive(Default)]
struct Pending {
    reads: Vec<ReadEvent>,
    writes: Vec<WriteEvent>,
}

impl Pending {
    fn has_written(&self, addr: Addr) -> bool {
        self.writes.iter().any(|w| w.addr == addr)
    }

    fn finish(self, worker: u32, ticket: Option<u64>, user_abort: bool) -> TxnRecord {
        TxnRecord {
            worker,
            committed: ticket.is_some(),
            user_abort,
            ticket,
            reads: self.reads,
            writes: self.writes,
            kind: TxnKind::default(),
        }
    }
}

/// A [`TxnObserver`] that accumulates a [`History`].
///
/// Install with [`TxnSystem::set_observer`](tufast_txn::TxnSystem);
/// drain with [`take_history`](Recorder::take_history) after the
/// workload quiesces. One recorder serves all workers of a system; the
/// per-event critical section is a handful of vector pushes.
pub struct Recorder {
    state: Mutex<RecorderState>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            state: Mutex::new(LockClass::HistoryState, RecorderState::default()),
        }
    }
}

#[derive(Default)]
struct RecorderState {
    current: HashMap<u32, Pending>,
    done: Vec<TxnRecord>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Drain everything recorded so far into a [`History`]. In-flight
    /// (unfinished) attempts are discarded; call this only after the
    /// workload threads have joined.
    pub fn take_history(&self) -> History {
        let mut st = self.state.lock().unwrap();
        st.current.clear();
        History {
            txns: std::mem::take(&mut st.done),
            initial: 0,
        }
    }
}

impl TxnObserver for Recorder {
    fn attempt_begin(&self, worker: u32) {
        let mut st = self.state.lock().unwrap();
        // A fresh attempt supersedes any stale pending state (e.g. an
        // attempt whose abort path carried no observer notification).
        st.current.insert(worker, Pending::default());
    }

    fn op_read(&self, worker: u32, v: VertexId, addr: Addr, val: u64) {
        let mut st = self.state.lock().unwrap();
        let pending = st.current.entry(worker).or_default();
        let own = pending.has_written(addr);
        pending.reads.push(ReadEvent {
            vertex: v,
            addr,
            val,
            own_write: own,
        });
    }

    fn op_write(&self, worker: u32, v: VertexId, addr: Addr, val: u64) {
        let mut st = self.state.lock().unwrap();
        st.current
            .entry(worker)
            .or_default()
            .writes
            .push(WriteEvent {
                vertex: v,
                addr,
                val,
            });
    }

    fn commit(&self, worker: u32, ticket: u64) {
        let mut st = self.state.lock().unwrap();
        let pending = st.current.remove(&worker).unwrap_or_default();
        st.done.push(pending.finish(worker, Some(ticket), false));
    }

    fn abort(&self, worker: u32, user: bool) {
        let mut st = self.state.lock().unwrap();
        let pending = st.current.remove(&worker).unwrap_or_default();
        st.done.push(pending.finish(worker, None, user));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_commit_with_own_write_flag() {
        let rec = Recorder::new();
        rec.attempt_begin(3);
        rec.op_read(3, 0, Addr(10), 5);
        rec.op_write(3, 0, Addr(10), 6);
        rec.op_read(3, 0, Addr(10), 6); // read-back
        rec.commit(3, 42);
        let h = rec.take_history();
        assert_eq!(h.txns.len(), 1);
        let t = &h.txns[0];
        assert!(t.committed);
        assert_eq!(t.ticket, Some(42));
        assert_eq!(t.reads.len(), 2);
        assert!(!t.reads[0].own_write);
        assert!(t.reads[1].own_write);
        assert_eq!(t.published(Addr(10)), Some(6));
    }

    #[test]
    fn tag_mutations_classifies_by_written_address() {
        let rec = Recorder::new();
        // Worker 0: mutation — writes an overlay word (addr 50).
        rec.attempt_begin(0);
        rec.op_read(0, 0, Addr(50), 0);
        rec.op_write(0, 0, Addr(50), 1);
        rec.commit(0, 1);
        // Worker 1: analytics — *reads* the overlay, writes elsewhere.
        rec.attempt_begin(1);
        rec.op_read(1, 0, Addr(50), 1);
        rec.op_write(1, 0, Addr(7), 9);
        rec.commit(1, 2);
        let mut h = rec.take_history();
        assert!(h.txns.iter().all(|t| t.kind == TxnKind::Analytics));
        assert_eq!(h.tag_mutations(40..60), 1);
        assert_eq!(h.txns[0].kind, TxnKind::Mutation);
        assert_eq!(
            h.txns[1].kind,
            TxnKind::Analytics,
            "overlay reads don't tag"
        );
        assert_eq!(h.mutations().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn aborted_attempts_are_kept_separately() {
        let rec = Recorder::new();
        rec.attempt_begin(1);
        rec.op_write(1, 0, Addr(4), 9);
        rec.abort(1, false);
        rec.attempt_begin(1);
        rec.op_write(1, 0, Addr(4), 9);
        rec.commit(1, 7);
        let h = rec.take_history();
        assert_eq!(h.txns.len(), 2);
        assert!(!h.txns[0].committed);
        assert!(!h.txns[0].user_abort);
        assert!(h.txns[1].committed);
        assert_eq!(h.committed_count(), 1);
    }

    #[test]
    fn interleaved_workers_do_not_mix() {
        let rec = Recorder::new();
        rec.attempt_begin(0);
        rec.attempt_begin(1);
        rec.op_write(0, 0, Addr(1), 100);
        rec.op_write(1, 0, Addr(2), 200);
        rec.commit(1, 2);
        rec.commit(0, 1);
        let h = rec.take_history();
        assert_eq!(h.txns.len(), 2);
        assert_eq!(h.txns[0].worker, 1);
        assert_eq!(h.txns[0].published(Addr(2)), Some(200));
        assert_eq!(h.txns[1].worker, 0);
        assert_eq!(h.txns[1].published(Addr(1)), Some(100));
    }
}
