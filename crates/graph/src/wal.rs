//! Write-ahead log for durable graph mutations (TFWL format).
//!
//! Every mutation transaction appends one CRC-32-framed commit record
//! *before* its effects become visible in transactional memory; redo
//! recovery ([`crate::durable`]) replays the log on top of the newest
//! valid TFSN snapshot. The format is designed so that no on-disk
//! corruption can panic the reader, and so that a torn tail (the residue
//! of a crash mid-`write`) is detected and truncated on open:
//!
//! ```text
//! header (36 bytes):
//!   magic "TFWL" | version u32 | capacity u64 | slot_cap u64 |
//!   stripes u64 | header_crc u32            — CRC-32 of the 32 bytes above
//! per record (29 bytes):
//!   len u32                                 — payload length (always 13)
//!   lsn u64                                 — strictly +1 per record
//!   payload: op u8 | a u32 | b u32 | w u32
//!   crc u32                                 — CRC-32 of len | lsn | payload
//! ```
//!
//! The header carries the delta-overlay geometry
//! ([`crate::mutable::OverlayConfig`] fields) so recovery can carve an
//! identical memory layout before any snapshot exists.
//!
//! Durability protocol (DESIGN.md §13):
//!
//! * **Append before visibility** — the durable commit path holds a commit
//!   lock across append → fsync → transactional apply, so log order *is*
//!   commit order and every record's effects follow its frame.
//! * **Group commit** — [`SyncPolicy::Group`] batches fsyncs; commits
//!   acknowledged between syncs are durable only after the next sync (the
//!   standard group-commit contract).
//! * **Staged appends** — a frame is *appended* when it is staged, *written*
//!   at the group boundary or when the buffer fills, *durable* after the
//!   fsync. [`WalWriter::append`] copies the finished frame into a small
//!   user-space buffer; the buffer reaches the file in one `write` per
//!   group, so only whole frames in LSN order are ever written.
//! * **Fail closed** — after any failed write, fsync or truncation the
//!   writer refuses every later operation: a frame written behind a torn
//!   one would be unreachable at recovery, and a retried fsync may falsely
//!   succeed.
//! * **Torn-tail truncation** — [`WalWriter::open`] validates every frame
//!   (length, CRC, LSN continuity) and truncates the file at the first
//!   invalid byte, so a crash mid-append costs exactly the torn record.
//!
//! What an acknowledged commit survives (recovery is prefix-closed in every
//! cell; "since the last sync" means since the last group boundary,
//! [`WalWriter::sync_now`] or checkpoint):
//!
//! | event | `EveryCommit` | `Group{n}`, one `write` per frame (before) | `Group{n}`, staged (now) |
//! |---|---|---|---|
//! | clean drop | every commit | every commit | every commit — `Drop` writes what is staged, without an fsync |
//! | process death | every commit | every commit (the page cache outlives the process) | all but the commits since the last sync (at most `n - 1`) |
//! | power cut | every commit | all but the commits since the last sync | all but the commits since the last sync |
//!
//! Under `Group` call [`WalWriter::sync_now`] (`DurableGraph::sync`) before
//! dropping a writer whose commits must all survive: the drop-time write is
//! best effort and reports no error.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast_txn::{raise_injected_crash, FaultHandle};

use crate::snapshot::crc32;
use crate::VertexId;

const MAGIC: &[u8; 4] = b"TFWL";
const VERSION: u32 = 1;
/// Header size in bytes: magic + version + three u64 geometry fields + CRC.
pub const HEADER_LEN: u64 = 4 + 4 + 8 + 8 + 8 + 4;
/// Fixed payload size of one record.
const PAYLOAD_LEN: u32 = 1 + 4 + 4 + 4;
/// Full frame size of one record.
pub const FRAME_LEN: u64 = 4 + 8 + PAYLOAD_LEN as u64 + 4;

/// Staging-buffer capacity: the whole frames that fit in 4 KiB (141). An
/// unsynced run longer than this is written out a buffer at a time.
const STAGE_CAP: usize = 4096 / FRAME_LEN as usize * FRAME_LEN as usize;

/// Pseudo worker id of the WAL's fault probes: the durable commit path's
/// fault handle, and the worker its injected crashes report.
pub(crate) const WAL_WORKER: u32 = u32::MAX - 1;

/// Errors from WAL I/O.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a TFWL file, or a structurally invalid header.
    Format(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Format(m) => write!(f, "bad TFWL log: {m}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One logged graph mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Add the directed edge `src → dst` (weight ignored on unweighted
    /// graphs).
    AddEdge {
        /// Source vertex.
        src: VertexId,
        /// Target vertex.
        dst: VertexId,
        /// Edge weight (0 when unweighted).
        weight: u32,
    },
    /// Remove the directed edge `src → dst` (base and overlay copies).
    RemoveEdge {
        /// Source vertex.
        src: VertexId,
        /// Target vertex.
        dst: VertexId,
    },
    /// Grow the vertex set by one (the new id is the pre-mutation count).
    AddVertex,
}

impl Mutation {
    fn encode(self) -> [u8; PAYLOAD_LEN as usize] {
        let (op, a, b, w) = match self {
            Mutation::AddEdge { src, dst, weight } => (1u8, src, dst, weight),
            Mutation::RemoveEdge { src, dst } => (2, src, dst, 0),
            Mutation::AddVertex => (3, 0, 0, 0),
        };
        let mut p = [0u8; PAYLOAD_LEN as usize];
        p[0] = op;
        p[1..5].copy_from_slice(&a.to_le_bytes());
        p[5..9].copy_from_slice(&b.to_le_bytes());
        p[9..13].copy_from_slice(&w.to_le_bytes());
        p
    }

    fn decode(p: &[u8]) -> Option<Mutation> {
        let a = u32::from_le_bytes(p[1..5].try_into().ok()?);
        let b = u32::from_le_bytes(p[5..9].try_into().ok()?);
        let w = u32::from_le_bytes(p[9..13].try_into().ok()?);
        match p[0] {
            1 => Some(Mutation::AddEdge {
                src: a,
                dst: b,
                weight: w,
            }),
            2 => Some(Mutation::RemoveEdge { src: a, dst: b }),
            3 => Some(Mutation::AddVertex),
            _ => None,
        }
    }
}

/// One validated record read back from the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (strictly +1 per record).
    pub lsn: u64,
    /// The mutation it commits.
    pub mutation: Mutation,
}

/// Delta-overlay geometry carried in the log header, so recovery can carve
/// an identical [`MemoryLayout`](tufast_htm::MemoryLayout) before any
/// snapshot exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalHeader {
    /// Maximum vertex count the overlay supports.
    pub capacity: u64,
    /// Total delta slots.
    pub slot_cap: u64,
    /// Slot-arena stripes.
    pub stripes: u64,
}

impl WalHeader {
    fn encode(self) -> [u8; HEADER_LEN as usize] {
        let mut h = [0u8; HEADER_LEN as usize];
        h[0..4].copy_from_slice(MAGIC);
        h[4..8].copy_from_slice(&VERSION.to_le_bytes());
        h[8..16].copy_from_slice(&self.capacity.to_le_bytes());
        h[16..24].copy_from_slice(&self.slot_cap.to_le_bytes());
        h[24..32].copy_from_slice(&self.stripes.to_le_bytes());
        let crc = crc32(&h[0..32]);
        h[32..36].copy_from_slice(&crc.to_le_bytes());
        h
    }
}

/// What [`WalWriter::open`] found on disk.
#[derive(Debug)]
pub struct WalOpenReport {
    /// The validated header.
    pub header: WalHeader,
    /// Every valid record, in LSN order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/garbage tail truncated away.
    pub truncated_bytes: u64,
}

/// Parse TFWL bytes without touching the filesystem: validates the header,
/// then scans records until the first invalid frame. Returns the header,
/// the valid records, and the byte length of the valid prefix (everything
/// past it is torn tail or garbage). Never panics on malformed input.
pub fn parse_bytes(bytes: &[u8]) -> Result<(WalHeader, Vec<WalRecord>, u64), WalError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(WalError::Format(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    let h = &bytes[..HEADER_LEN as usize];
    if &h[0..4] != MAGIC {
        return Err(WalError::Format(format!("wrong magic {:?}", &h[0..4])));
    }
    let version = u32::from_le_bytes(h[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(WalError::Format(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let stored_crc = u32::from_le_bytes(h[32..36].try_into().expect("4 bytes"));
    if stored_crc != crc32(&h[0..32]) {
        return Err(WalError::Format("header checksum mismatch".into()));
    }
    let header = WalHeader {
        capacity: u64::from_le_bytes(h[8..16].try_into().expect("8 bytes")),
        slot_cap: u64::from_le_bytes(h[16..24].try_into().expect("8 bytes")),
        stripes: u64::from_le_bytes(h[24..32].try_into().expect("8 bytes")),
    };

    let mut records = Vec::new();
    let mut offset = HEADER_LEN as usize;
    let mut prev_lsn: Option<u64> = None;
    while bytes.len() - offset >= FRAME_LEN as usize {
        let frame = &bytes[offset..offset + FRAME_LEN as usize];
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        if len != PAYLOAD_LEN {
            break; // garbage or future format: treat as end of valid log
        }
        let crc_end = FRAME_LEN as usize - 4;
        let stored = u32::from_le_bytes(frame[crc_end..].try_into().expect("4 bytes"));
        if stored != crc32(&frame[..crc_end]) {
            break; // torn or corrupt frame
        }
        let lsn = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
        if let Some(prev) = prev_lsn {
            if lsn != prev + 1 {
                break; // stale residue from before a truncation
            }
        }
        let Some(mutation) = Mutation::decode(&frame[12..12 + PAYLOAD_LEN as usize]) else {
            break; // unknown opcode
        };
        records.push(WalRecord { lsn, mutation });
        prev_lsn = Some(lsn);
        offset += FRAME_LEN as usize;
    }
    Ok((header, records, offset as u64))
}

/// How aggressively commits are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every commit (durable the moment `add_edge` returns).
    EveryCommit,
    /// Group commit: fsync once every `max_pending` appends (and on
    /// [`WalWriter::sync_now`] / checkpoint). Commits acknowledged between
    /// syncs are durable only after the next sync.
    Group {
        /// Appends to batch per fsync (0 is treated as 1).
        max_pending: u32,
    },
}

/// What a [`WalWriter`] has done since it was created or opened, counted
/// where it happens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalIoCounts {
    /// Frames appended (staged).
    pub frames: u64,
    /// `write` calls that handed staged frames to the file.
    pub writes: u64,
    /// fsyncs really executed (a seeded lost fsync is not one).
    pub fsyncs: u64,
}

/// Appending writer over one TFWL log file.
///
/// One writer at a time (the durable-graph commit lock guarantees this);
/// reading via [`parse_bytes`] is safe anytime. Dropping a writer hands
/// what is staged to the file without an fsync and without reporting an
/// error, like `BufWriter`; call [`WalWriter::sync_now`] first when the
/// frames must survive.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    header: WalHeader,
    next_lsn: u64,
    /// Bytes appended: what the file holds plus what is staged.
    written_len: u64,
    /// Whole frames appended but not yet written, in LSN order. Allocated
    /// by the first append; empty once the writer has failed.
    staged: Vec<u8>,
    /// Kind of the I/O error that failed the writer closed.
    failed: Option<std::io::ErrorKind>,
    io: WalIoCounts,
    /// Length as of the last *really executed* fsync — lags `written_len`
    /// under group commit and whenever a lost-fsync fault lied. Shared so
    /// the durability harness can simulate the power cut that exposes the
    /// lie (truncate to this length, then recover).
    durable_len: Arc<AtomicU64>,
    pending: u32,
    policy: SyncPolicy,
    faults: FaultHandle,
}

/// The log frame of `mutation` at `lsn`: length, LSN, payload, CRC.
/// Always inlined: `append`'s hot path builds it in place.
#[inline(always)]
fn frame(lsn: u64, mutation: Mutation) -> [u8; FRAME_LEN as usize] {
    let mut frame = [0u8; FRAME_LEN as usize];
    frame[0..4].copy_from_slice(&PAYLOAD_LEN.to_le_bytes());
    frame[4..12].copy_from_slice(&lsn.to_le_bytes());
    frame[12..12 + PAYLOAD_LEN as usize].copy_from_slice(&mutation.encode());
    let crc_end = FRAME_LEN as usize - 4;
    let crc = crc32(&frame[..crc_end]);
    frame[crc_end..].copy_from_slice(&crc.to_le_bytes());
    frame
}

impl WalWriter {
    /// Create a fresh log at `path` with `header` (fails if the file
    /// exists), write and sync the header, and return a writer positioned
    /// at LSN 1.
    pub fn create(
        path: &Path,
        header: WalHeader,
        policy: SyncPolicy,
    ) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        Ok(WalWriter::at(file, path, header, 1, HEADER_LEN, policy))
    }

    /// A writer over `file`, positioned at `len`, whose next frame is `next_lsn`.
    fn at(
        file: File,
        path: &Path,
        header: WalHeader,
        next_lsn: u64,
        len: u64,
        policy: SyncPolicy,
    ) -> WalWriter {
        WalWriter {
            file,
            path: path.to_path_buf(),
            header,
            next_lsn,
            written_len: len,
            staged: Vec::new(),
            failed: None,
            io: WalIoCounts::default(),
            durable_len: Arc::new(AtomicU64::new(len)),
            pending: 0,
            policy,
            faults: FaultHandle::none(),
        }
    }

    /// Open an existing log: validate the header, scan and return every
    /// valid record, and truncate any torn/garbage tail on disk. The
    /// writer resumes at `last LSN + 1` (callers recovering on top of a
    /// snapshot bump this with [`WalWriter::set_next_lsn`]).
    pub fn open(path: &Path, policy: SyncPolicy) -> Result<(WalWriter, WalOpenReport), WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (header, records, valid_len) = parse_bytes(&bytes)?;
        let truncated_bytes = bytes.len() as u64 - valid_len;
        if truncated_bytes > 0 {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let next_lsn = records.last().map_or(1, |r| r.lsn + 1);
        Ok((
            WalWriter::at(file, path, header, next_lsn, valid_len, policy),
            WalOpenReport {
                header,
                records,
                truncated_bytes,
            },
        ))
    }

    /// The geometry header the log was created with.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// LSN the next [`WalWriter::append`] will use.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Bytes appended so far (header included), whether staged, written
    /// or synced.
    pub fn written_len(&self) -> u64 {
        self.written_len
    }

    /// Frames appended, writes issued and fsyncs executed so far.
    pub fn io_counts(&self) -> WalIoCounts {
        self.io
    }

    /// Force the next LSN (recovery sets `snapshot epoch + 1` when the
    /// snapshot is newer than every surviving record).
    pub fn set_next_lsn(&mut self, lsn: u64) {
        self.next_lsn = lsn;
    }

    /// Shared really-durable length — what would survive a power cut right
    /// now. The durability harness clones this before a crash run and
    /// truncates the file to it afterwards, simulating the page cache
    /// dying with the process.
    pub fn durable_len_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.durable_len)
    }

    /// Install the fault probes consulted at append/fsync/truncation.
    pub fn set_fault_handle(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    /// Append one mutation record and return its LSN. The frame is staged
    /// in memory: it reaches the file at the next sync, or earlier when
    /// the staging buffer is full.
    ///
    /// A seeded torn-write fault writes the staged whole frames, persists
    /// only a prefix of this one and then dies
    /// ([`tufast_txn::InjectedCrash`]), modelling a crash mid-`write`.
    pub fn append(&mut self, mutation: Mutation) -> Result<u64, WalError> {
        self.check_open()?;
        let lsn = self.next_lsn;
        if self.faults.wal_torn_append() {
            return self.tear(lsn, mutation);
        }
        let frame = frame(lsn, mutation);
        if self.staged.len() + frame.len() > STAGE_CAP {
            self.flush()?;
        }
        if self.staged.capacity() == 0 {
            self.staged.reserve_exact(STAGE_CAP);
        }
        self.staged.extend_from_slice(&frame);
        self.written_len += FRAME_LEN;
        self.next_lsn += 1;
        self.pending = self.pending.saturating_add(1);
        self.io.frames += 1;
        Ok(lsn)
    }

    /// Persist a torn prefix of the frame — what a crash in the middle of
    /// `write(2)` leaves behind — then die. The sync makes the torn bytes
    /// themselves durable, the worst case for the reader. Out of line: only
    /// an armed fault plan gets here.
    #[cold]
    #[inline(never)]
    fn tear(&mut self, lsn: u64, mutation: Mutation) -> Result<u64, WalError> {
        let frame = frame(lsn, mutation);
        self.flush()?;
        let torn = self.file.write_all(&frame[..frame.len() / 2]);
        self.fail_closed(torn)?;
        let _ = self.file.sync_data();
        raise_injected_crash(WAL_WORKER, lsn)
    }

    /// The sticky error of a writer that has failed closed.
    fn check_open(&self) -> Result<(), WalError> {
        match self.failed {
            None => Ok(()),
            Some(kind) => Err(WalError::Io(std::io::Error::new(
                kind,
                "WAL writer failed closed after an earlier I/O error",
            ))),
        }
    }

    /// Pass an I/O result through; an error fails the writer closed and
    /// drops what is staged, which can no longer follow the file's valid
    /// prefix.
    fn fail_closed<T>(&mut self, result: std::io::Result<T>) -> Result<T, WalError> {
        result.map_err(|e| {
            self.failed = Some(e.kind());
            self.staged.clear();
            WalError::Io(e)
        })
    }

    /// Hand the staged frames to the file in one `write`.
    fn flush(&mut self) -> Result<(), WalError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.staged);
        self.fail_closed(written)?;
        self.staged.clear();
        self.io.writes += 1;
        Ok(())
    }

    /// Make the log durable per the sync policy: every commit, or once a
    /// group of `max_pending` has accumulated.
    pub fn commit_sync(&mut self) -> Result<(), WalError> {
        match self.policy {
            SyncPolicy::EveryCommit => self.sync_now(),
            SyncPolicy::Group { max_pending } => {
                if self.pending >= max_pending.max(1) {
                    self.sync_now()
                } else {
                    self.check_open()
                }
            }
        }
    }

    /// Write what is staged and fsync the log now. A seeded lost-fsync
    /// fault reports success while leaving the really-durable length
    /// behind.
    pub fn sync_now(&mut self) -> Result<(), WalError> {
        self.check_open()?;
        if self.pending == 0 && self.durable_len.load(Ordering::Relaxed) == self.written_len {
            return Ok(());
        }
        self.pending = 0;
        self.flush()?;
        if self.faults.wal_lost_fsync() {
            return Ok(()); // the lie: acknowledged, not durable
        }
        let synced = self.file.sync_data();
        self.fail_closed(synced)?;
        self.io.fsyncs += 1;
        self.durable_len.store(self.written_len, Ordering::Relaxed);
        Ok(())
    }

    /// Crash probe for the post-append / pre-apply window of a durable
    /// commit (consulted by the durable-graph commit path).
    #[inline]
    pub fn commit_crash_point(&mut self) {
        self.faults.wal_commit_crash_point();
    }

    /// Truncate the log back to its header after a covering snapshot is
    /// durable, discarding what is staged (the snapshot covers it too).
    /// Probes the crash site both before and after the `set_len`, so the
    /// durability matrix can seed a death on either side.
    pub fn truncate_for_checkpoint(&mut self) -> Result<(), WalError> {
        self.check_open()?;
        self.staged.clear();
        self.faults.wal_truncation_crash_point();
        let rewound = self
            .file
            .set_len(HEADER_LEN)
            .and_then(|()| self.file.sync_all())
            .and_then(|()| self.file.seek(SeekFrom::Start(HEADER_LEN)));
        self.fail_closed(rewound)?;
        self.written_len = HEADER_LEN;
        self.durable_len.store(HEADER_LEN, Ordering::Relaxed);
        self.pending = 0;
        self.faults.wal_truncation_crash_point();
        Ok(())
    }
}

#[cfg(test)]
impl WalWriter {
    /// Swap the file under the writer (tests point it at `/dev/full` to
    /// make the next write fail); returns the previous one.
    pub(crate) fn replace_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }
}

impl Drop for WalWriter {
    /// Best effort, like `BufWriter`: write what is staged, no fsync, the
    /// error ignored. A writer that failed closed has nothing staged.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("next_lsn", &self.next_lsn)
            .field("written_len", &self.written_len)
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tufast-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("graph.wal")
    }

    fn header() -> WalHeader {
        WalHeader {
            capacity: 64,
            slot_cap: 128,
            stripes: 8,
        }
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn sample(i: u32) -> Mutation {
        match i % 3 {
            0 => Mutation::AddEdge {
                src: i,
                dst: i + 1,
                weight: i * 10,
            },
            1 => Mutation::RemoveEdge { src: i, dst: i + 2 },
            _ => Mutation::AddVertex,
        }
    }

    #[test]
    fn roundtrip_preserves_records_and_header() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
        for i in 0..9 {
            let lsn = w.append(sample(i)).unwrap();
            assert_eq!(lsn, u64::from(i) + 1);
            w.commit_sync().unwrap();
        }
        drop(w);
        let (w, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.header, header());
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.records.len(), 9);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64 + 1);
            assert_eq!(r.mutation, sample(i as u32));
        }
        assert_eq!(w.next_lsn(), 10);
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = temp_wal("clobber");
        WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
        assert!(matches!(
            WalWriter::create(&path, header(), SyncPolicy::EveryCommit),
            Err(WalError::Io(_))
        ));
    }

    #[test]
    fn truncated_frame_is_dropped_and_tail_truncated() {
        let path = temp_wal("torn-frame");
        let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
        for i in 0..4 {
            w.append(sample(i)).unwrap();
            w.commit_sync().unwrap();
        }
        drop(w);
        // Tear the last frame in half.
        let bytes = std::fs::read(&path).unwrap();
        let torn_len = bytes.len() - (FRAME_LEN / 2) as usize;
        std::fs::write(&path, &bytes[..torn_len]).unwrap();

        let (w, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.records.len(), 3, "torn record must be dropped");
        assert_eq!(
            report.truncated_bytes,
            FRAME_LEN - FRAME_LEN / 2,
            "the torn half-frame is the truncated tail"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            HEADER_LEN + 3 * FRAME_LEN,
            "the tail must be truncated on disk, not just skipped"
        );
        assert_eq!(w.next_lsn(), 4, "the torn record's LSN is reused");
    }

    #[test]
    fn bad_crc_ends_the_valid_prefix() {
        let path = temp_wal("bad-crc");
        let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
        for i in 0..5 {
            w.append(sample(i)).unwrap();
        }
        w.sync_now().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of record 3 (0-indexed 2).
        let off = (HEADER_LEN + 2 * FRAME_LEN + 14) as usize;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.records.len(), 2, "records after the flip are gone");
        assert_eq!(report.truncated_bytes, 3 * FRAME_LEN);
    }

    #[test]
    fn garbage_tail_is_truncated() {
        let path = temp_wal("garbage");
        let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
        for i in 0..3 {
            w.append(sample(i)).unwrap();
        }
        w.sync_now().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 173]);
        std::fs::write(&path, &bytes).unwrap();

        let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.truncated_bytes, 173);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            HEADER_LEN + 3 * FRAME_LEN
        );
    }

    #[test]
    fn zero_length_and_short_files_are_format_errors() {
        for len in [0usize, 1, 4, HEADER_LEN as usize - 1] {
            let bytes = vec![0u8; len];
            assert!(matches!(parse_bytes(&bytes), Err(WalError::Format(_))));
        }
        let path = temp_wal("zero");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            WalWriter::open(&path, SyncPolicy::EveryCommit),
            Err(WalError::Format(_))
        ));
    }

    #[test]
    fn header_corruption_is_rejected() {
        let mut h = header().encode().to_vec();
        for i in 0..h.len() {
            let mut bad = h.clone();
            bad[i] ^= 0x20;
            assert!(
                parse_bytes(&bad).is_err(),
                "header flip at offset {i} went undetected"
            );
        }
        // Version bump specifically must be refused, not truncated-around.
        h[4] = 2;
        let crc = crc32(&h[0..32]);
        h[32..36].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(parse_bytes(&h), Err(WalError::Format(_))));
    }

    #[test]
    fn adversarial_bytes_never_panic() {
        // Seeded byte soup (splitmix64, mirroring the binio/snapshot
        // hardening tests): parse must return, never panic or OOM.
        let mut state = 0x57A1_F00Du64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 31)
        };
        for len in [0usize, 7, 36, 64, 300, 4096] {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = parse_bytes(&bytes);
        }
        // Valid header followed by soup: must yield the header and an
        // empty (or prefix-only) record list, never a panic.
        let mut lying = header().encode().to_vec();
        lying.extend((0..500).map(|_| next() as u8));
        let (h, _, valid) = parse_bytes(&lying).unwrap();
        assert_eq!(h, header());
        assert!(valid >= HEADER_LEN);
    }

    #[test]
    fn stale_lsn_residue_after_rewind_is_ignored() {
        // A frame whose LSN does not continue the sequence (stale residue
        // from a longer previous life of the log) ends the valid prefix.
        let mut bytes = header().encode().to_vec();
        let frame = |lsn: u64| {
            let mut f = vec![0u8; FRAME_LEN as usize];
            f[0..4].copy_from_slice(&PAYLOAD_LEN.to_le_bytes());
            f[4..12].copy_from_slice(&lsn.to_le_bytes());
            f[12] = 3; // AddVertex
            let crc = crc32(&f[..FRAME_LEN as usize - 4]);
            f[FRAME_LEN as usize - 4..].copy_from_slice(&crc.to_le_bytes());
            f
        };
        bytes.extend(frame(1));
        bytes.extend(frame(2));
        bytes.extend(frame(7)); // stale: valid CRC, wrong LSN
        let (_, records, valid) = parse_bytes(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(valid, HEADER_LEN + 2 * FRAME_LEN);
    }

    #[test]
    fn group_commit_lags_durable_len_until_sync() {
        let path = temp_wal("group");
        let mut w =
            WalWriter::create(&path, header(), SyncPolicy::Group { max_pending: 4 }).unwrap();
        let durable = w.durable_len_handle();
        for i in 0..3 {
            w.append(sample(i)).unwrap();
            w.commit_sync().unwrap();
        }
        assert_eq!(
            durable.load(Ordering::Relaxed),
            HEADER_LEN,
            "3 < max_pending: nothing synced yet"
        );
        assert_eq!(file_len(&path), HEADER_LEN, "the 3 frames are staged");
        assert_eq!(w.written_len(), HEADER_LEN + 3 * FRAME_LEN);
        w.append(sample(3)).unwrap();
        w.commit_sync().unwrap(); // 4th append triggers the group sync
        assert_eq!(durable.load(Ordering::Relaxed), HEADER_LEN + 4 * FRAME_LEN);
        assert_eq!(file_len(&path), HEADER_LEN + 4 * FRAME_LEN);
        assert_eq!(w.io_counts().writes, 1, "one write for the group of 4");
    }

    #[test]
    fn checkpoint_truncation_rewinds_to_header() {
        let path = temp_wal("ckpt");
        let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
        for i in 0..5 {
            w.append(sample(i)).unwrap();
            w.commit_sync().unwrap();
        }
        w.truncate_for_checkpoint().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        assert_eq!(w.next_lsn(), 6, "LSNs keep counting across truncation");
        // Appends after truncation land right after the header.
        w.append(sample(9)).unwrap();
        w.commit_sync().unwrap();
        drop(w);
        let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].lsn, 6);
    }

    #[test]
    fn full_buffer_writes_whole_frames_only() {
        let path = temp_wal("cap");
        let deferred = SyncPolicy::Group {
            max_pending: u32::MAX,
        };
        let mut w = WalWriter::create(&path, header(), deferred).unwrap();
        assert_eq!(w.staged.capacity(), 0, "no buffer before the first append");
        let per_buffer = (STAGE_CAP / FRAME_LEN as usize) as u64;
        assert_eq!(per_buffer, 141);
        for i in 0..300u64 {
            w.append(sample(i as u32)).unwrap();
            w.commit_sync().unwrap();
            let on_disk = file_len(&path) - HEADER_LEN;
            assert_eq!(on_disk % FRAME_LEN, 0, "a split frame reached the file");
            assert_eq!(on_disk / FRAME_LEN, i / per_buffer * per_buffer);
            assert_eq!(w.written_len(), HEADER_LEN + (i + 1) * FRAME_LEN);
        }
        assert_eq!(w.staged.capacity(), STAGE_CAP, "the buffer never regrows");
        assert_eq!(
            w.durable_len_handle().load(Ordering::Relaxed),
            HEADER_LEN,
            "a full buffer is written, not synced"
        );
        w.sync_now().unwrap();
        let counts = w.io_counts();
        assert_eq!((counts.frames, counts.writes, counts.fsyncs), (300, 3, 1));
        drop(w);
        let (_, report) = WalWriter::open(&path, deferred).unwrap();
        assert_eq!(report.records.len(), 300);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn io_counts_are_one_write_per_group() {
        let cases = [
            (SyncPolicy::EveryCommit, 10u64, 10u64, 10u64),
            (SyncPolicy::Group { max_pending: 4 }, 10, 3, 3),
            (SyncPolicy::Group { max_pending: 4 }, 8, 2, 2),
            (SyncPolicy::Group { max_pending: 0 }, 5, 5, 5),
        ];
        for (case, (policy, frames, writes, fsyncs)) in cases.into_iter().enumerate() {
            let path = temp_wal(&format!("counts-{case}"));
            let mut w = WalWriter::create(&path, header(), policy).unwrap();
            for i in 0..frames {
                w.append(sample(i as u32)).unwrap();
                w.commit_sync().unwrap();
            }
            w.sync_now().unwrap(); // drain the last, partial group
            w.sync_now().unwrap(); // nothing pending: no write, no fsync
            let counts = w.io_counts();
            assert_eq!(
                (counts.frames, counts.writes, counts.fsyncs),
                (frames, writes, fsyncs),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn pending_saturates_instead_of_wrapping() {
        let path = temp_wal("saturate");
        let deferred = SyncPolicy::Group {
            max_pending: u32::MAX,
        };
        let mut w = WalWriter::create(&path, header(), deferred).unwrap();
        w.pending = u32::MAX - 1;
        w.append(sample(0)).unwrap();
        w.append(sample(1)).unwrap(); // would wrap to 0 (panic in debug)
        assert_eq!(w.pending, u32::MAX);
        w.commit_sync().unwrap(); // the group of u32::MAX is full: syncs
        assert_eq!(w.pending, 0);
        assert_eq!(file_len(&path), HEADER_LEN + 2 * FRAME_LEN);
    }

    #[test]
    fn checkpoint_truncation_discards_staged_frames() {
        let path = temp_wal("ckpt-staged");
        let mut w =
            WalWriter::create(&path, header(), SyncPolicy::Group { max_pending: 4 }).unwrap();
        for i in 0..6 {
            w.append(sample(i)).unwrap();
            w.commit_sync().unwrap();
        }
        assert_eq!(file_len(&path), HEADER_LEN + 4 * FRAME_LEN, "2 are staged");
        w.truncate_for_checkpoint().unwrap();
        assert_eq!(file_len(&path), HEADER_LEN);
        assert_eq!(w.written_len(), HEADER_LEN);
        assert_eq!(w.next_lsn(), 7, "LSNs keep counting across truncation");
        w.append(sample(9)).unwrap();
        drop(w); // the staged frames of before the checkpoint must not reappear
        let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].lsn, 7);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn drop_writes_staged_frames_without_syncing() {
        let path = temp_wal("drop");
        let mut w =
            WalWriter::create(&path, header(), SyncPolicy::Group { max_pending: 8 }).unwrap();
        let durable = w.durable_len_handle();
        for i in 0..3 {
            w.append(sample(i)).unwrap();
            w.commit_sync().unwrap();
        }
        assert_eq!(file_len(&path), HEADER_LEN);
        drop(w);
        assert_eq!(file_len(&path), HEADER_LEN + 3 * FRAME_LEN);
        assert_eq!(
            durable.load(Ordering::Relaxed),
            HEADER_LEN,
            "written at drop, never fsynced: a power cut still loses them"
        );
        let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
        assert_eq!(report.records.len(), 3);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn io_error_fails_the_writer_closed() {
        let path = temp_wal("dev-full");
        let mut w =
            WalWriter::create(&path, header(), SyncPolicy::Group { max_pending: 2 }).unwrap();
        for i in 0..2 {
            w.append(sample(i)).unwrap();
            w.commit_sync().unwrap();
        }
        // The disk fills: every write fails with ENOSPC.
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let real = w.replace_file(full);
        w.append(sample(2)).unwrap(); // staged, no I/O yet
        w.commit_sync().unwrap();
        w.append(sample(3)).unwrap();
        assert!(matches!(w.commit_sync(), Err(WalError::Io(_))));
        assert!(
            w.staged.is_empty(),
            "a failed writer keeps nothing to flush"
        );
        // Space comes back; the writer must stay failed, or the next frame
        // (LSN 5) would land behind the gap left by LSNs 3 and 4.
        drop(w.replace_file(real));
        let lsn = w.next_lsn();
        assert!(matches!(w.append(sample(4)), Err(WalError::Io(_))));
        assert!(matches!(w.commit_sync(), Err(WalError::Io(_))));
        assert!(matches!(w.sync_now(), Err(WalError::Io(_))));
        assert!(matches!(w.truncate_for_checkpoint(), Err(WalError::Io(_))));
        assert_eq!(w.next_lsn(), lsn);
        let counts = w.io_counts();
        assert_eq!((counts.frames, counts.writes, counts.fsyncs), (4, 1, 1));
        drop(w); // the drop writes nothing either
        let bytes = std::fs::read(&path).unwrap();
        let (_, records, valid) = parse_bytes(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(valid, bytes.len() as u64, "nothing sits behind the prefix");
    }

    mod fault_tests {
        use super::*;
        use std::sync::Arc as StdArc;
        use tufast_txn::{is_injected_crash, FaultPlan, FaultSpec};

        #[test]
        fn torn_append_leaves_a_recoverable_prefix() {
            let path = temp_wal("fault-torn");
            let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
            let plan = FaultPlan::new(FaultSpec {
                torn_wal_at_append: 3,
                ..FaultSpec::default()
            });
            w.set_fault_handle(FaultHandle::attached(Some(StdArc::clone(&plan)), 0));
            w.append(sample(0)).unwrap();
            w.commit_sync().unwrap();
            w.append(sample(1)).unwrap();
            w.commit_sync().unwrap();
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = w.append(sample(2));
            }));
            assert!(is_injected_crash(
                died.expect_err("torn append dies").as_ref()
            ));
            drop(w);
            // The file holds 2 full frames plus a torn half-frame.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                HEADER_LEN + 2 * FRAME_LEN + FRAME_LEN / 2
            );
            let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
            assert_eq!(report.records.len(), 2);
            assert_eq!(report.truncated_bytes, FRAME_LEN / 2);
        }

        #[test]
        fn torn_append_writes_the_staged_frames_before_the_tear() {
            let path = temp_wal("fault-torn-staged");
            let mut w =
                WalWriter::create(&path, header(), SyncPolicy::Group { max_pending: 4 }).unwrap();
            let plan = FaultPlan::new(FaultSpec {
                torn_wal_at_append: 7,
                ..FaultSpec::default()
            });
            w.set_fault_handle(FaultHandle::attached(Some(StdArc::clone(&plan)), 0));
            for i in 0..6 {
                w.append(sample(i)).unwrap();
                w.commit_sync().unwrap();
            }
            assert_eq!(file_len(&path), HEADER_LEN + 4 * FRAME_LEN, "2 are staged");
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = w.append(sample(6));
            }));
            assert!(is_injected_crash(
                died.expect_err("torn append dies").as_ref()
            ));
            drop(w);
            assert_eq!(
                file_len(&path),
                HEADER_LEN + 6 * FRAME_LEN + FRAME_LEN / 2,
                "whole frames in LSN order, then the half frame"
            );
            let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
            assert_eq!(report.records.len(), 6);
            assert_eq!(report.truncated_bytes, FRAME_LEN / 2);
        }

        #[test]
        fn lost_fsync_keeps_durable_len_behind() {
            let path = temp_wal("fault-lostsync");
            let mut w = WalWriter::create(&path, header(), SyncPolicy::EveryCommit).unwrap();
            let plan = FaultPlan::new(FaultSpec {
                lost_fsync_permille: 1000,
                ..FaultSpec::default()
            });
            w.set_fault_handle(FaultHandle::attached(Some(StdArc::clone(&plan)), 0));
            let durable = w.durable_len_handle();
            w.append(sample(0)).unwrap();
            w.commit_sync().unwrap(); // "succeeds" but the sync was dropped
            assert_eq!(w.written_len(), HEADER_LEN + FRAME_LEN);
            assert_eq!(
                durable.load(Ordering::Relaxed),
                HEADER_LEN,
                "the lying fsync must not advance the durable length"
            );
            // Simulated power cut: truncate to what was really durable.
            drop(w);
            let keep = durable.load(Ordering::Relaxed);
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(keep).unwrap();
            drop(f);
            let (_, report) = WalWriter::open(&path, SyncPolicy::EveryCommit).unwrap();
            assert!(report.records.is_empty(), "the acked commit was lost");
        }
    }
}
