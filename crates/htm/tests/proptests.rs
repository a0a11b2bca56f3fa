//! Property-based tests of the HTM substrate: the transaction-local tables
//! against std-collection models across thousands of clear cycles, the
//! line-lock batch against `sort + dedup`, the emulator op by op against a
//! reference built on `std` sets, and serializability of random
//! single-threaded transaction schedules against a direct interpreter.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

use tufast_htm::{
    AbortCode, Addr, Footprint, HtmConfig, HtmCtx, HtmRuntime, HtmStats, IdTable, LineBatch,
    LineState, MemoryLayout, TxMemory, WordMap, DIRECT_OWNER, WORDS_PER_LINE,
};

/// Run one generation of map operations against the model, then compare the
/// dense order. `kind`: 0 = get, 1 = insert, 2/3 = entry (find-or-insert).
fn wordmap_cycle(map: &mut WordMap, ops: &[(u8, u64, u64)], stride: u64) {
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for &(kind, k, v) in ops {
        let k = k * stride;
        match kind {
            0 => assert_eq!(map.get(Addr(k)), model.get(&k).copied()),
            1 => {
                assert_eq!(map.insert(Addr(k), v), model.insert(k, v).is_none());
                if order.len() < model.len() {
                    order.push(k);
                }
            }
            _ => {
                let (slot, fresh) = map.entry(Addr(k), v);
                assert_eq!(fresh, !model.contains_key(&k));
                let expect = *model.entry(k).or_insert(v);
                assert_eq!(*slot, expect, "a present key keeps its value");
                *slot ^= 1;
                model.insert(k, expect ^ 1);
                if fresh {
                    order.push(k);
                }
            }
        }
    }
    assert_eq!(map.len(), model.len());
    let got: Vec<(u64, u64)> = map.iter().map(|(a, v)| (a.0, v)).collect();
    let want: Vec<(u64, u64)> = order.iter().map(|k| (*k, model[k])).collect();
    assert_eq!(got, want, "first-insertion order with last values");
}

/// Same for the dense-id table, with the ids as given.
fn idtable_cycle(table: &mut IdTable, ops: &[(u8, u64, u64)]) {
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for &(kind, id, v) in ops {
        match kind {
            0 => assert_eq!(table.get(id), model.get(&id).copied()),
            1 => {
                assert_eq!(table.insert(id, v), model.insert(id, v).is_none());
                if order.len() < model.len() {
                    order.push(id);
                }
            }
            _ => {
                let (slot, fresh) = table.entry(id, v);
                assert_eq!(fresh, !model.contains_key(&id));
                let expect = *model.entry(id).or_insert(v);
                assert_eq!(*slot, expect, "a present id keeps its value");
                *slot ^= 1;
                model.insert(id, expect ^ 1);
                if fresh {
                    order.push(id);
                }
            }
        }
    }
    assert_eq!(table.len(), model.len());
    let got: Vec<(u64, u64)> = table.iter().collect();
    let want: Vec<(u64, u64)> = order.iter().map(|id| (*id, model[id])).collect();
    assert_eq!(got, want, "first-touch order with last values");
}

/// Same for the footprint. `kind`: even = read at version `v`, odd = write.
fn footprint_cycle(fp: &mut Footprint, ops: &[(u8, u64, u64)], stride: u64) {
    let mut reads: HashMap<u64, u64> = HashMap::new();
    let mut writes: HashSet<u64> = HashSet::new();
    let mut order: Vec<u64> = Vec::new();
    for &(kind, line, v) in ops {
        let line = line * stride;
        let known = reads.contains_key(&line) || writes.contains(&line);
        if kind % 2 == 0 {
            assert_eq!(fp.note_read(line, v), !known);
            reads.entry(line).or_insert(v);
        } else {
            assert_eq!(fp.note_write(line), !known);
            writes.insert(line);
        }
        if !known {
            order.push(line);
        }
    }
    let got: Vec<_> = fp.reads().collect();
    let want: Vec<_> = order
        .iter()
        .filter_map(|l| reads.get(l).map(|&v| (*l, v, writes.contains(l))))
        .collect();
    assert_eq!(got, want, "first-read versions in first-touch order");
    let got: Vec<_> = fp.writes().collect();
    let want: Vec<_> = order
        .iter()
        .copied()
        .filter(|l| writes.contains(l))
        .collect();
    assert_eq!(got, want);
}

/// Lines of the memory the batch cycles lock.
const BATCH_LINES: u64 = 96;

/// One gather: `segments` of `(kind, start, len, step)` — ascending runs
/// (kind 0–2), descending ones (3), repeats of one line (4), scattered
/// lines (5) — concatenated, or dealt out round-robin when `interleave`.
fn gather_order(segments: &[(u8, u64, usize, u64)], interleave: bool) -> Vec<u64> {
    let runs: Vec<Vec<u64>> = segments
        .iter()
        .map(|&(kind, start, len, step)| {
            (0..len as u64)
                .map(|i| match kind {
                    0..=2 => start + i * step,
                    3 => start + (len as u64 - i) * step,
                    4 => start,
                    _ => start.wrapping_mul(i * 2 + 1).wrapping_add(i * step * 37),
                } % BATCH_LINES)
                .collect()
        })
        .collect();
    if !interleave {
        return runs.concat();
    }
    let longest = runs.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| runs.iter().filter_map(move |r| r.get(i).copied()))
        .collect()
}

/// Gather `order` into `batch`, lock, and release — at a fresh ticket when
/// `publish`, else unchanged. `versions` is the model of every line's
/// version; the locked set must be exactly `sort + dedup` of `order`.
fn batch_cycle(
    mem: &TxMemory,
    batch: &mut LineBatch,
    versions: &mut [u64],
    order: &[u64],
    publish: bool,
) {
    let mut want = order.to_vec();
    want.sort_unstable();
    want.dedup();

    batch.clear();
    for &line in order {
        batch.push(line);
    }
    // Try-only: a line gathered twice fails here instead of waiting for
    // itself.
    assert!(
        mem.try_lock_lines(batch, DIRECT_OWNER, 1),
        "nothing else holds a line"
    );
    assert_eq!(batch.held(), want, "locked ascending, equal ids once");
    for line in 0..BATCH_LINES {
        let held = mem.held_version(line, DIRECT_OWNER);
        let in_batch = want.binary_search(&line).is_ok();
        assert_eq!(
            held,
            in_batch.then_some(versions[line as usize]),
            "line {line}"
        );
    }

    let clock = mem.clock_now_pub();
    let ticket = publish.then(|| mem.clock_tick_pub());
    mem.unlock_lines(batch, ticket);
    assert!(batch.held().is_empty());
    assert_eq!(mem.clock_now_pub(), clock + u64::from(publish));
    if publish {
        for &line in &want {
            versions[line as usize] = clock + 1;
        }
    }
    for line in 0..BATCH_LINES {
        let version = versions[line as usize];
        assert_eq!(
            mem.line_state(line),
            LineState::Unlocked { version },
            "line {line}"
        );
    }
}

/// A trivially-correct single-threaded reference for [`HtmCtx`]: the same
/// TL2 protocol and capacity model written over `std` collections, with a
/// plain clock, plain per-line versions and plain words instead of the
/// shared memory.
struct RefHtm {
    sets: u64,
    ways: usize,
    words: Vec<u64>,
    line_ver: Vec<u64>,
    clock: u64,
    in_tx: bool,
    start_ts: u64,
    read_set: Vec<(u64, u64)>,
    read_lines: HashSet<u64>,
    write_lines: HashSet<u64>,
    write_buf: HashMap<u64, u64>,
    write_order: Vec<u64>,
    stats: HtmStats,
}

impl RefHtm {
    fn new(words: usize, config: &HtmConfig) -> Self {
        RefHtm {
            sets: config.num_sets() as u64,
            ways: config.associativity - config.reserved_ways,
            words: vec![0; words],
            line_ver: vec![0; words.div_ceil(8)],
            clock: 0,
            in_tx: false,
            start_ts: 0,
            read_set: Vec::new(),
            read_lines: HashSet::new(),
            write_lines: HashSet::new(),
            write_buf: HashMap::new(),
            write_order: Vec::new(),
            stats: HtmStats::default(),
        }
    }

    fn begin(&mut self) {
        self.in_tx = true;
        self.start_ts = self.clock;
        self.stats.begins += 1;
    }

    fn abort(&mut self, code: AbortCode) -> AbortCode {
        match code {
            AbortCode::Conflict => self.stats.aborts_conflict += 1,
            AbortCode::Capacity => self.stats.aborts_capacity += 1,
            AbortCode::Explicit(_) => self.stats.aborts_explicit += 1,
            AbortCode::Spurious => self.stats.aborts_spurious += 1,
        }
        self.reset();
        code
    }

    fn reset(&mut self) {
        self.in_tx = false;
        self.read_set.clear();
        self.read_lines.clear();
        self.write_lines.clear();
        self.write_buf.clear();
        self.write_order.clear();
    }

    /// Does a line new to the footprint still fit its cache set?
    fn fits(&mut self, line: u64) -> bool {
        let resident = |l: &&u64| **l != line && **l % self.sets == line % self.sets;
        let in_set = self
            .read_lines
            .union(&self.write_lines)
            .filter(resident)
            .count();
        let fits = in_set < self.ways;
        let lines = self.read_lines.union(&self.write_lines).count() - usize::from(!fits);
        self.stats.max_lines = self.stats.max_lines.max(lines as u32);
        fits
    }

    fn read(&mut self, addr: u64) -> Result<u64, AbortCode> {
        self.stats.reads += 1;
        if let Some(&v) = self.write_buf.get(&addr) {
            return Ok(v);
        }
        let line = addr / 8;
        let ver = self.line_ver[line as usize];
        if ver > self.start_ts {
            let intact = |&(l, v): &(u64, u64)| self.line_ver[l as usize] == v;
            if !self.read_set.iter().all(intact) {
                return Err(self.abort(AbortCode::Conflict));
            }
            self.start_ts = self.clock;
            self.stats.extensions += 1;
        }
        if self.read_lines.insert(line) {
            self.read_set.push((line, ver));
            if !self.write_lines.contains(&line) && !self.fits(line) {
                return Err(self.abort(AbortCode::Capacity));
            }
        }
        Ok(self.words[addr as usize])
    }

    fn write(&mut self, addr: u64, val: u64) -> Result<(), AbortCode> {
        self.stats.writes += 1;
        let line = addr / 8;
        if self.write_buf.insert(addr, val).is_none() {
            self.write_order.push(addr);
        }
        if self.write_lines.insert(line) && !self.read_lines.contains(&line) && !self.fits(line) {
            return Err(self.abort(AbortCode::Capacity));
        }
        Ok(())
    }

    fn commit(&mut self) -> Result<(), AbortCode> {
        if !self.write_buf.is_empty() {
            self.clock += 1;
            let intact = |&(l, v): &(u64, u64)| self.line_ver[l as usize] == v;
            if !self.read_set.iter().all(intact) {
                return Err(self.abort(AbortCode::Conflict));
            }
            for addr in &self.write_order {
                self.words[*addr as usize] = self.write_buf[addr];
            }
            for &line in &self.write_lines {
                self.line_ver[line as usize] = self.clock;
            }
        }
        self.stats.commits += 1;
        self.reset();
        Ok(())
    }

    fn store_direct(&mut self, addr: u64, val: u64) {
        self.clock += 1;
        self.words[addr as usize] = val;
        self.line_ver[(addr / 8) as usize] = self.clock;
    }
}

/// Drive `ctx` and the reference in lockstep through `txns`; every op must
/// give the same value or the same abort code (so: at the same op index).
/// `kind`: 0–3 read, 4–5 write, 6 re-read of the last written word,
/// 7 a direct store "from another core" in the middle of the transaction.
fn htm_lockstep(config: HtmConfig, words: u64, txns: &[Vec<(u8, u64, u64)>]) {
    lockstep(config, words, txns, false);
}

/// [`htm_lockstep`]; with `line_reads`, kind 3 is a two-word
/// [`HtmCtx::read_line`] inside one line — of `a`, or of the last written
/// word's line when `v % 3 == 0`, so the write-buffer fallback runs too —
/// against two reads of the reference.
fn lockstep(config: HtmConfig, words: u64, txns: &[Vec<(u8, u64, u64)>], line_reads: bool) {
    let mut layout = MemoryLayout::new();
    layout.alloc("arena", words);
    let rt = HtmRuntime::new(layout, config.clone());
    let mut ctx: HtmCtx = rt.ctx();
    let mut model = RefHtm::new(words as usize, &config);
    for (t, ops) in txns.iter().enumerate() {
        ctx.begin().unwrap();
        model.begin();
        let mut last_written = 0;
        for (i, &(kind, a, v)) in ops.iter().enumerate() {
            let a = a % words;
            let step = match kind {
                3 if line_reads => {
                    let first = if v % 3 == 0 { last_written } else { a };
                    let second = first - first % 8 + v % 8;
                    let want = model
                        .read(first)
                        .and_then(|x| model.read(second).map(|y| [x, y]));
                    ctx.read_line([Addr(first), Addr(second)]) == want
                }
                0..=3 => ctx.read(Addr(a)) == model.read(a),
                4 | 5 => {
                    last_written = a;
                    ctx.write(Addr(a), v) == model.write(a, v)
                }
                6 => ctx.read(Addr(last_written)) == model.read(last_written),
                _ => {
                    rt.memory().store_direct(Addr(a), v);
                    model.store_direct(a, v);
                    true
                }
            };
            assert!(step, "txn {t} op {i} ({kind}, {a}, {v}) diverged");
            assert_eq!(ctx.in_tx(), model.in_tx, "txn {t} op {i}");
            if !ctx.in_tx() {
                break;
            }
        }
        if ctx.in_tx() {
            assert_eq!(ctx.commit(), model.commit(), "txn {t} commit");
        }
        assert_eq!(ctx.stats(), &model.stats, "after txn {t}");
    }
    for (a, &want) in model.words.iter().enumerate() {
        assert_eq!(rt.memory().load_direct(Addr(a as u64)), want, "word {a}");
    }
}

/// A hub-sized generation (forces growth well past the steady state).
fn hub_ops(n: usize) -> Vec<(u8, u64, u64)> {
    (0..n as u64).map(|i| ((i % 4) as u8, i * 3, i)).collect()
}

proptest! {
    /// ≥ 10 000 clear cycles over the 64 cases: mostly tiny generations,
    /// one hub-sized one (growth, then clear-after-growth), strided keys,
    /// and — every other case — a table that starts at the stamp limit so
    /// the first clear crosses the wrap-around.
    #[test]
    fn wordmap_matches_hashmap_across_clear_cycles(
        cycles in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u64..48, 0u64..1 << 40), 0..24), 160..320),
        hub in (0usize..160, 200usize..2500),
        stride_log in 0u32..7,
        wrap in any::<bool>(),
    ) {
        let mut map = if wrap { WordMap::at_stamp_wrap(4) } else { WordMap::with_capacity(4) };
        for (i, ops) in cycles.iter().enumerate() {
            if i == hub.0 {
                wordmap_cycle(&mut map, &hub_ops(hub.1), 1 << stride_log);
                map.clear();
            }
            wordmap_cycle(&mut map, ops, 1 << stride_log);
            map.clear();
            prop_assert!(map.is_empty());
            prop_assert_eq!(map.get(Addr(0)), None);
        }
    }

    /// The same ≥ 10 240 clear cycles, hub-sized generation and forced
    /// wrap-around for the dense-id table. Ids are `k << shift` over twelve
    /// scales, so the slot array grows step by step under live entries and
    /// above stale stamps of earlier generations.
    #[test]
    fn idtable_matches_hashmap_across_clear_cycles(
        cycles in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u64..48, 0u32..12, 0u64..1 << 40), 0..24), 160..320),
        hub in (0usize..160, 200usize..2500),
        wrap in any::<bool>(),
    ) {
        let mut table = if wrap { IdTable::at_stamp_wrap(4) } else { IdTable::with_capacity(4) };
        for (i, ops) in cycles.iter().enumerate() {
            if i == hub.0 {
                idtable_cycle(&mut table, &hub_ops(hub.1));
                table.clear();
            }
            let ops: Vec<_> = ops.iter().map(|&(kind, k, shift, v)| (kind, k << shift, v)).collect();
            idtable_cycle(&mut table, &ops);
            table.clear();
            prop_assert!(table.is_empty());
            prop_assert_eq!(table.get(0), None);
        }
    }

    #[test]
    fn footprint_matches_set_model_across_clear_cycles(
        cycles in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u64..48, 0u64..1 << 48), 0..24), 160..320),
        hub in (0usize..160, 200usize..2500),
        stride_log in 0u32..7,
        wrap in any::<bool>(),
    ) {
        let mut fp = if wrap { Footprint::at_stamp_wrap(4) } else { Footprint::with_capacity(4) };
        for (i, ops) in cycles.iter().enumerate() {
            if i == hub.0 {
                footprint_cycle(&mut fp, &hub_ops(hub.1), 1 << stride_log);
                fp.clear();
            }
            footprint_cycle(&mut fp, ops, 1 << stride_log);
            fp.clear();
            prop_assert_eq!(fp.reads().count() + fp.writes().count(), 0);
        }
    }

    /// One reused batch through many gathers in any order — a few
    /// interleaved ascending runs (what commits push), descending runs,
    /// repeats, empty segments, scatter — against `sort + dedup`: the
    /// locked set, its order, and every line's version after a published
    /// or an abandoned round.
    #[test]
    fn line_batch_locks_exactly_sort_dedup(
        cycles in prop::collection::vec(
            (
                prop::collection::vec((0u8..6, 0u64..BATCH_LINES, 0usize..14, 1u64..5), 0..6),
                any::<bool>(),
                any::<bool>(),
            ),
            1..40,
        ),
    ) {
        let mem = TxMemory::with_words(BATCH_LINES * 8);
        let mut versions = vec![0u64; BATCH_LINES as usize];
        for line in (0..BATCH_LINES).step_by(3) {
            mem.store_direct(Addr(line * 8), line);
            versions[line as usize] = mem.clock_now_pub();
        }
        let mut batch = LineBatch::with_capacity(4);
        for (segments, interleave, publish) in &cycles {
            let order = gather_order(segments, *interleave);
            batch_cycle(&mem, &mut batch, &mut versions, &order, *publish);
        }
    }

    /// The emulator against the reference, op by op: small transactions
    /// with one hub-sized one in between (so every table has grown before
    /// the small ones that follow), under the tiny geometry — capacity
    /// aborts after a handful of lines — the default one, and the
    /// software TM's, which holds every line of the memory.
    #[test]
    fn htm_ctx_matches_the_std_reference(
        small in prop::collection::vec(
            prop::collection::vec((0u8..8, 0u64..4096, 0u64..1000), 1..40), 4..40),
        hub in prop::collection::vec((0u8..7, 0u64..8192, 0u64..1000), 300..1200),
        hub_at in 0usize..4,
        geometry in 0u8..3,
    ) {
        let mut txns = small;
        txns.insert(hub_at, hub);
        let (config, words) = match geometry {
            0 => (HtmConfig::tiny_for_tests(), 192),
            1 => (HtmConfig::default(), 8192),
            _ => (HtmConfig::unbounded(8192 / WORDS_PER_LINE), 8192),
        };
        htm_lockstep(config, words, &txns);
    }

    /// The same lockstep with two-word line reads mixed in: a line read is
    /// two reads of the reference in values, abort code, `in_tx` and every
    /// counter, whether it hits the write buffer, a snapshot extension, a
    /// direct store between operations or a capacity abort.
    #[test]
    fn htm_ctx_line_reads_match_the_std_reference(
        small in prop::collection::vec(
            prop::collection::vec((0u8..8, 0u64..4096, 0u64..1000), 1..40), 4..40),
        hub in prop::collection::vec((0u8..7, 0u64..8192, 0u64..1000), 300..1200),
        hub_at in 0usize..4,
        tiny in any::<bool>(),
    ) {
        let mut txns = small;
        txns.insert(hub_at, hub);
        let (config, words) = if tiny {
            (HtmConfig::tiny_for_tests(), 192)
        } else {
            (HtmConfig::default(), 8192)
        };
        lockstep(config, words, &txns, true);
    }

    /// Random schedules of transactional read-modify-writes interleaved
    /// with direct stores must match a plain interpreter (single thread:
    /// every transaction commits unless capacity kills it, and capacity
    /// can't, at these sizes).
    #[test]
    fn single_thread_schedule_matches_interpreter(
        script in prop::collection::vec((0u64..64, 0u64..100, any::<bool>()), 1..100),
    ) {
        let mut layout = MemoryLayout::new();
        layout.alloc("cells", 64);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        let mut ctx = rt.ctx();
        let mut model = vec![0u64; 64];
        for &(addr, delta, transactional) in &script {
            if transactional {
                loop {
                    ctx.begin().unwrap();
                    let Ok(v) = ctx.read(Addr(addr)) else { continue };
                    if ctx.write(Addr(addr), v.wrapping_add(delta)).is_err() {
                        continue;
                    }
                    if ctx.commit().is_ok() {
                        break;
                    }
                }
            } else {
                rt.memory().fetch_add_direct(Addr(addr), delta);
            }
            model[addr as usize] = model[addr as usize].wrapping_add(delta);
        }
        for (i, &expected) in model.iter().enumerate() {
            prop_assert_eq!(rt.memory().load_direct(Addr(i as u64)), expected);
        }
    }

    /// The capacity model is deterministic: the same footprint aborts (or
    /// fits) identically across repeated attempts.
    #[test]
    fn capacity_verdict_is_deterministic(lines in prop::collection::hash_set(0u64..4096, 1..600)) {
        let mut layout = MemoryLayout::new();
        layout.alloc("arena", 4096 * 8);
        let rt = HtmRuntime::new(layout, HtmConfig::default());
        let mut ctx = rt.ctx();
        let verdict = |ctx: &mut tufast_htm::HtmCtx| -> bool {
            ctx.begin().unwrap();
            for &line in &lines {
                if ctx.read(Addr(line * 8)).is_err() {
                    return false; // aborted (capacity)
                }
            }
            ctx.commit().is_ok()
        };
        let first = verdict(&mut ctx);
        for _ in 0..3 {
            prop_assert_eq!(verdict(&mut ctx), first);
        }
    }
}
