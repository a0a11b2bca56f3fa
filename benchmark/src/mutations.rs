//! `mut-volatile` and `mut-durable`: one seeded 70/25/5 add-edge /
//! remove-edge / add-vertex script through the commit paths of
//! `tufast-graph`, then redo recovery.
//!
//! * volatile — `MutableGraph` alone on a 2PL worker (no log);
//! * deferred — `DurableGraph`'s commit protocol (commit lock, precheck, WAL
//!   append, transactional apply) with the fsync deferred to the end of the
//!   script: the library's share of a durable commit, without the device;
//! * group — `DurableGraph` with `SyncPolicy::Group{32}`, every call timed;
//! * every-commit — `DurableGraph` with one fsync per commit.
//!
//! `mut-volatile` gates the first and `mut-durable` the second. The two
//! paths that wait for the disk are reported per layer only: four fifths of
//! a group commit's time is the fsync of a shared virtio disk, and between
//! two calibration sets twenty minutes apart the group-commit rate moved by
//! 28 % — a gate on it would refuse the benchmark itself. Every run takes
//! all the paths, because the check is that all the graphs (volatile,
//! deferred, group, every-commit, recovered) are equal; a path that is not
//! gated runs a short fixed prefix of the script in an untraced run. A
//! single mutator: the commit lock serializes writers. The durable paths
//! are bounded by time as well as by count, so a slow disk shortens the
//! script instead of overrunning the run; the volatile path then
//! materializes at the same prefixes.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tufast_graph::durable::{self, DurableError, DurableOpen};
use tufast_graph::mutable::{MutableGraph, MutationOutcome, OverlayConfig};
use tufast_graph::wal::{Mutation, SyncPolicy, WalHeader, WalWriter, FRAME_LEN, HEADER_LEN};
use tufast_graph::{DurableGraph, Graph};
use tufast_htm::MemoryLayout;
use tufast_txn::{GraphScheduler, SystemConfig, TwoPhaseLocking, TxnSystem, TxnWorker};

use crate::harness::{peak_rss_mb, remove_scratch, scratch, summarize, timed, Run};
use crate::heap::peak_heap_mb;
use crate::inputs::{binio_roundtrip, mutation_script, GraphSetup, Shape};
use crate::stats::{self, latency_summary, median, paired_ratio};

/// The path a workload gates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gated {
    Volatile,
    /// The commit protocol with the fsync deferred.
    Durable,
}

/// What each path gets of a run: the script prefix it runs and the share
/// of the measuring budget it may use at most (a slow disk shortens the
/// prefix instead of overrunning the run).
struct Plan {
    every: (usize, f64),
    group: (usize, f64),
    /// The deferred and the volatile path run their whole script again and
    /// again; this is the share of the budget the repetitions fill (0: one
    /// repetition, for the cross-check).
    deferred: f64,
    volatile: f64,
}

/// The gated path gets most of a run. In an untraced run the paths that
/// wait for the disk run a fixed, short prefix for the cross-check (fixed,
/// so that the run's footprint does not depend on the disk's speed); the
/// traced pass measures them in full.
fn plan(path: Gated, traced: bool, sz: &Sizes) -> Plan {
    let (every, group) = if traced {
        ((sz.every, 0.15), (sz.group, 0.35))
    } else {
        ((sz.every / 8, 0.1), (sz.group / 4, 0.15))
    };
    let main = if traced { 0.25 } else { 0.6 };
    match path {
        Gated::Volatile => Plan {
            every,
            group,
            deferred: 0.0,
            volatile: main,
        },
        Gated::Durable => Plan {
            every,
            group,
            deferred: main,
            volatile: 0.0,
        },
    }
}

/// The gated durable path never syncs until its script ends.
const DEFERRED: SyncPolicy = SyncPolicy::Group {
    max_pending: u32::MAX,
};

const BASE_EDGE_FACTOR: usize = 8;
/// Script lengths of the nominal job at paper scale.
const VOLATILE: usize = 1_000_000;
const GROUP: usize = 400_000;
const EVERY: usize = 20_000;
const GROUP_SIZE: u32 = 32;
/// Mutations per timed chunk of each durable path (a few milliseconds with
/// the fsync deferred).
const GROUP_CHUNK: usize = 4_000;
const EVERY_CHUNK: usize = 1_000;
/// In the traced pass every this-many-th mutation call becomes a span
/// (a span per call would be 1.4 M spans, a 150 MB trace).
const SPAN_EVERY: usize = 16;

struct Sizes {
    volatile: usize,
    group: usize,
    every: usize,
    capacity: usize,
    overlay: OverlayConfig,
}

fn sizes(run: &Run, base_nv: usize) -> Sizes {
    let shrink = (-run.args.scale).clamp(0, 8) as u32;
    let volatile = (VOLATILE >> shrink).max(2_000);
    Sizes {
        volatile,
        group: (GROUP >> shrink).max(800),
        every: (EVERY >> shrink).max(100),
        // 5 % of the script adds vertices.
        capacity: base_nv + volatile / 10,
        overlay: OverlayConfig {
            // Twice the script, so a skewed stripe never fills.
            slot_cap: (volatile as u64 * 2).next_power_of_two(),
            stripes: 64,
        },
    }
}

struct Opened {
    dg: DurableGraph,
    sys: Arc<TxnSystem>,
    replayed: usize,
    /// Seconds in `DurableOpen::begin` (load base, scan the log).
    begin_s: f64,
    /// Seconds in `DurableOpen::finish` (restore + replay).
    finish_s: f64,
}

fn open(dir: &Path, policy: SyncPolicy, run: &mut Run) -> Result<Opened, DurableError> {
    let span = run.tracer.begin("graph.recover");
    let t = Instant::now();
    let mut layout = MemoryLayout::new();
    let prep = DurableOpen::begin(dir, policy, &mut layout)?;
    let begin_s = t.elapsed().as_secs_f64();
    let sys = TxnSystem::build(prep.capacity(), layout, SystemConfig::default());
    let t = Instant::now();
    let (dg, report) = prep.finish(&sys)?;
    let finish_s = t.elapsed().as_secs_f64();
    run.tracer.end(span);
    Ok(Opened {
        dg,
        sys,
        replayed: report.replayed,
        begin_s,
        finish_s,
    })
}

/// [`open`], with a failure counted as one failed operation.
fn open_or_fail(dir: &Path, policy: SyncPolicy, what: &str, run: &mut Run) -> Option<Opened> {
    run.tally.attempt(1);
    match open(dir, policy, run) {
        Ok(o) => Some(o),
        Err(e) => {
            run.tally.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// `init_dir` then [`open_or_fail`] on a fresh directory.
fn create_or_fail(
    dir: &Path,
    base: &Graph,
    sz: &Sizes,
    policy: SyncPolicy,
    what: &str,
    run: &mut Run,
) -> Option<Opened> {
    if let Err(e) = durable::init_dir(dir, base, sz.capacity, sz.overlay) {
        run.tally.attempt(1);
        run.tally.fail(format!("{what}: {e}"));
        return None;
    }
    open_or_fail(dir, policy, what, run)
}

fn apply_volatile(mg: &MutableGraph, w: &mut impl TxnWorker, m: Mutation) -> MutationOutcome {
    match m {
        Mutation::AddEdge { src, dst, weight } => mg.add_edge(w, src, dst, weight),
        Mutation::RemoveEdge { src, dst } => mg.remove_edge(w, src, dst),
        Mutation::AddVertex => mg
            .add_vertex(w)
            .map_or(MutationOutcome::OverlayFull, |_| MutationOutcome::Applied),
    }
}

fn apply_durable(
    dg: &DurableGraph,
    w: &mut impl TxnWorker,
    m: Mutation,
) -> Result<MutationOutcome, DurableError> {
    match m {
        Mutation::AddEdge { src, dst, weight } => dg.add_edge(w, src, dst, weight),
        Mutation::RemoveEdge { src, dst } => dg.remove_edge(w, src, dst),
        Mutation::AddVertex => Ok(dg
            .add_vertex(w)?
            .map_or(MutationOutcome::OverlayFull, |_| MutationOutcome::Applied)),
    }
}

/// One timed chunk of a durable path.
struct ChunkTime {
    secs: f64,
    len: usize,
    traced: bool,
}

/// What one pass over a durable path did.
struct DurableRun {
    done: usize,
    /// The chunks in script order.
    chunks: Vec<ChunkTime>,
    /// Nanoseconds of every commit call (empty unless every call is timed).
    latencies: Vec<u64>,
}

impl DurableRun {
    /// Mutations per second of each chunk.
    fn rates(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .map(|c| c.len as f64 / c.secs.max(1e-12))
            .collect()
    }
}

/// The fastest time seen of each chunk of a script that is run again and
/// again, `[untraced, traced]`. Chunk `i` is the same mutations on the same
/// overlay in every pass, so the sum of these minima is the whole script
/// with every part of it at its least disturbed — a 2 ms chunk falls into
/// a quiet gap of the host far more often than a 25 ms script does.
#[derive(Default)]
struct ChunkMinima {
    best: [Vec<f64>; 2],
    lens: Vec<usize>,
}

impl ChunkMinima {
    fn add(&mut self, pass: &DurableRun) {
        for (i, c) in pass.chunks.iter().enumerate() {
            if self.lens.len() <= i {
                self.lens.push(c.len);
                self.best[0].push(f64::INFINITY);
                self.best[1].push(f64::INFINITY);
            }
            let slot = &mut self.best[usize::from(c.traced)][i];
            *slot = slot.min(c.secs);
        }
    }

    /// Mutations per second of the script with every chunk at its fastest,
    /// traced or not.
    fn rate(&self) -> f64 {
        let secs: f64 = (self.best[0].iter().zip(&self.best[1]))
            .map(|(u, t)| u.min(*t))
            .sum();
        self.lens.iter().sum::<usize>() as f64 / secs.max(1e-12)
    }

    /// Traced over untraced time, summed over the chunks that have both.
    fn traced_over_untraced(&self) -> Option<f64> {
        let (mut untraced, mut traced) = (0.0, 0.0);
        for (u, t) in self.best[0].iter().zip(&self.best[1]) {
            if u.is_finite() && t.is_finite() {
                untraced += u;
                traced += t;
            }
        }
        (untraced > 0.0).then(|| traced / untraced)
    }
}

/// Run `script` through `dg` in chunks until it ends or `budget_s` is
/// used; a rejected or failed commit is a failed operation. The final
/// `sync` drains what is pending after the last chunk, outside its timer.
/// When tracing, every second chunk (shifted by `pass_no`, so that a script
/// run again and again has both kinds of every chunk) records a span for
/// every `SPAN_EVERY`-th call. With `time_every_call` each call is timed in
/// both passes (the latency percentiles); otherwise only the calls that
/// become spans are.
#[allow(clippy::too_many_arguments)]
fn durable_path(
    dg: &DurableGraph,
    sys: &Arc<TxnSystem>,
    script: &[Mutation],
    chunk: usize,
    budget_s: f64,
    span_name: &'static str,
    time_every_call: bool,
    pass_no: usize,
    run: &mut Run,
) -> DurableRun {
    let sched = TwoPhaseLocking::new(Arc::clone(sys));
    let mut w = sched.worker();
    let mut out = DurableRun {
        done: 0,
        chunks: Vec::new(),
        latencies: Vec::with_capacity(if time_every_call { script.len() } else { 0 }),
    };
    let origin = run.tracer.origin();
    let start = Instant::now();
    for (chunk_no, part) in script.chunks(chunk).enumerate() {
        let traced = run.args.trace && (pass_no + chunk_no).is_multiple_of(2);
        let t = Instant::now();
        for (i, &m) in part.iter().enumerate() {
            let span = traced && i % SPAN_EVERY == 0;
            let t0 = (time_every_call || span).then(|| origin.elapsed().as_nanos() as u64);
            let result = apply_durable(dg, &mut w, m);
            if let Some(t0) = t0 {
                let t1 = origin.elapsed().as_nanos() as u64;
                if time_every_call {
                    out.latencies.push(t1 - t0);
                }
                if span {
                    run.tracer.add_closed(span_name, t0, t1);
                }
            }
            if !matches!(result, Ok(MutationOutcome::Applied)) {
                run.tally
                    .fail(format!("{span_name}: {m:?} gave {result:?}"));
            }
        }
        out.chunks.push(ChunkTime {
            secs: t.elapsed().as_secs_f64(),
            len: part.len(),
            traced,
        });
        out.done += part.len();
        if out.done == script.len() || start.elapsed().as_secs_f64() >= budget_s {
            let synced = run.tracer.span("graph.sync", || dg.sync());
            run.tally
                .check(synced.is_ok(), || format!("{span_name}: final sync failed"));
            break;
        }
    }
    run.tally.attempt(out.done as u64);
    out
}

/// The volatile path on a fresh overlay: the whole script, returning the
/// seconds the mutation calls took and the graph materialized after each
/// of `cuts` mutations (outside the timer).
fn volatile_path(
    base: &Graph,
    sizes: &Sizes,
    script: &[Mutation],
    cuts: &[usize],
    traced: bool,
    run: &mut Run,
) -> (f64, Vec<(usize, Graph)>) {
    let mut layout = MemoryLayout::new();
    let mg = MutableGraph::carve(base.clone(), sizes.capacity, sizes.overlay, &mut layout);
    let sys = TxnSystem::build(sizes.capacity, layout, SystemConfig::default());
    mg.init(sys.mem());
    let sched = TwoPhaseLocking::new(Arc::clone(&sys));
    let mut w = sched.worker();
    let mut bounds = vec![0, script.len()];
    bounds.extend(cuts);
    bounds.sort_unstable();
    bounds.dedup();
    let origin = run.tracer.origin();
    let mut secs = 0.0;
    let mut graphs = Vec::new();
    for pair in bounds.windows(2) {
        let part = &script[pair[0]..pair[1]];
        let t = Instant::now();
        let mut rejected = 0u64;
        for (i, &m) in part.iter().enumerate() {
            let t0 = (traced && i % SPAN_EVERY == 0).then(|| origin.elapsed().as_nanos() as u64);
            rejected += u64::from(apply_volatile(&mg, &mut w, m) != MutationOutcome::Applied);
            if let Some(t0) = t0 {
                run.tracer
                    .add_closed("mutation.volatile", t0, origin.elapsed().as_nanos() as u64);
            }
        }
        secs += t.elapsed().as_secs_f64();
        for _ in 0..rejected {
            run.tally.fail("volatile: mutation rejected");
        }
        if cuts.contains(&pair[1]) {
            let g = run
                .tracer
                .span("graph.materialize", || mg.materialize(sys.mem()));
            graphs.push((pair[1], g));
        }
    }
    run.tally.attempt(script.len() as u64);
    (secs, graphs)
}

pub fn run(run: &mut Run, path: Gated) {
    // Set-up: generate the base, initialise the durable directory, open it.
    let mut setup = GraphSetup::new(BASE_EDGE_FACTOR, Shape::OutEdges);
    let (base, setup_times) = setup.build(run);
    let sz = sizes(run, base.num_vertices());
    let group_dir = scratch("group");
    let group_policy = SyncPolicy::Group {
        max_pending: GROUP_SIZE,
    };
    let (group, first_open_s) =
        timed(|| create_or_fail(&group_dir, &base, &sz, group_policy, "set-up", run));
    let Some(group) = group else { return };
    // The rest of one more set-up: a fresh directory, initialised and opened.
    let set_up_dir = |run: &mut Run, base: Graph| {
        let dir = scratch("setup");
        timed(|| create_or_fail(&dir, &base, &sz, group_policy, "set-up repetition", run)).1
    };
    let script = mutation_script(base.num_vertices(), sz.capacity, sz.volatile, run.args.seed);
    println!(
        "base: {} vertices, {} edges; script of {} mutations ({} group, {} every-commit)",
        base.num_vertices(),
        base.num_edges(),
        sz.volatile,
        sz.group,
        sz.every
    );

    let traced = run.args.trace;
    let plan = plan(path, traced, &sz);
    let seconds = run.args.seconds;

    // Every-commit: one fsync per mutation.
    let every_dir = scratch("every");
    let policy = SyncPolicy::EveryCommit;
    let Some(every) = create_or_fail(&every_dir, &base, &sz, policy, "every-commit", run) else {
        return;
    };
    let every_run = durable_path(
        &every.dg,
        &every.sys,
        &script[..plan.every.0],
        EVERY_CHUNK,
        plan.every.1 * seconds,
        "mutation.every",
        true,
        0,
        run,
    );
    let every_graph = every.dg.materialize();
    drop(every);

    // Group commit, every call timed, on the directory opened during set-up.
    let group_run = durable_path(
        &group.dg,
        &group.sys,
        &script[..plan.group.0],
        GROUP_CHUNK,
        plan.group.1 * seconds,
        "mutation.group",
        true,
        0,
        run,
    );
    let wal_len = std::fs::metadata(group_dir.join(durable::WAL_FILE)).map_or(0, |m| m.len());
    let (group_graph, materialize_s) = timed(|| {
        run.tracer
            .span("graph.materialize", || group.dg.materialize())
    });
    drop(group);

    // The commit protocol with the fsync deferred: fresh directories, the
    // nominal script again and again while the budget lasts. The first pass
    // is the one cross-checked.
    let mut deferred = ChunkMinima::default();
    // Mutations per second of each whole pass.
    let mut deferred_passes = Vec::new();
    let mut deferred_first = None;
    let deferred_start = Instant::now();
    for pass_no in 0.. {
        let dir = scratch("deferred");
        let Some(o) = create_or_fail(&dir, &base, &sz, DEFERRED, "deferred commit", run) else {
            break;
        };
        let left = plan.deferred * seconds - deferred_start.elapsed().as_secs_f64();
        let pass = durable_path(
            &o.dg,
            &o.sys,
            &script[..sz.group],
            GROUP_CHUNK,
            left,
            "mutation.deferred",
            false,
            pass_no,
            run,
        );
        deferred.add(&pass);
        if pass.done == sz.group {
            let secs: f64 = pass.chunks.iter().map(|c| c.secs).sum();
            deferred_passes.push(pass.done as f64 / secs.max(1e-12));
        }
        if deferred_first.is_none() {
            deferred_first = Some((pass.done, o.dg.materialize()));
        }
        drop(o);
        setup.between_reps(run, set_up_dir);
        let used = deferred_start.elapsed().as_secs_f64();
        if run.args.reps.is_some() || used >= plan.deferred * seconds {
            break;
        }
    }
    let Some((deferred_done, deferred_graph)) = deferred_first else {
        return;
    };

    // Recovery: reopen without a checkpoint, so the whole log is redone.
    let mut recovery_s = Vec::new();
    let mut replay_rate = Vec::new();
    for rep in 0..3 {
        let t = Instant::now();
        let Some(o) = open_or_fail(&group_dir, group_policy, "recovery", run) else {
            continue;
        };
        recovery_s.push(t.elapsed().as_secs_f64());
        replay_rate.push(o.replayed as f64 / o.finish_s.max(1e-12));
        run.tally.check(o.replayed == group_run.done, || {
            format!(
                "recovery replayed {} of {} records",
                o.replayed, group_run.done
            )
        });
        if rep == 0 {
            println!(
                "recovery: begin {:.4} s, finish {:.4} s, {} records",
                o.begin_s, o.finish_s, o.replayed
            );
            run.tally.attempt(1);
            let same = run.verifying(|_| o.dg.materialize() == group_graph);
            run.tally.check(same, || {
                "recovered graph differs from the group-commit graph".into()
            });
        }
    }

    // Volatile: fresh overlays, the whole script; the first repetition also
    // materializes at the prefixes the durable paths reached. When
    // tracing, every second repetition records spans.
    let cuts = [every_run.done, group_run.done, deferred_done];
    // Seconds of the script, `[untraced, traced]`.
    let mut vol_secs = [Vec::new(), Vec::new()];
    let mut rep_no = 0usize;
    let min_reps = if plan.volatile > 0.0 { 3 } else { 1 };
    run.repeat(plan.volatile, min_reps, |run| {
        let first = rep_no == 0;
        let spans = traced && rep_no.is_multiple_of(2);
        rep_no += 1;
        let (secs, graphs) = volatile_path(
            &base,
            &sz,
            &script,
            if first { &cuts } else { &[] },
            spans,
            run,
        );
        vol_secs[usize::from(spans)].push(secs);
        if first {
            let at = |cut: usize| graphs.iter().find(|(c, _)| *c == cut).map(|(_, g)| g);
            for (what, cut, durable) in [
                ("every-commit", every_run.done, &every_graph),
                ("group-commit", group_run.done, &group_graph),
                ("deferred-commit", deferred_done, &deferred_graph),
            ] {
                run.tally.attempt(1);
                let same = run.verifying(|_| at(cut) == Some(durable));
                run.tally.check(same, || {
                    format!("volatile graph differs from the {what} graph")
                });
            }
        }
        setup.between_reps(run, set_up_dir);
    });
    remove_scratch();

    // The least disturbed repetition or chunk (see `harness::Summary`).
    let vol = summarize(&vol_secs.concat());
    let grp = summarize(&group_run.rates());
    let dfr = summarize(&deferred_passes);
    let evy = summarize(&every_run.rates());
    // Every chunk of the script at its least disturbed.
    let deferred_rate = deferred.rate();
    println!("volatile script seconds: {vol}");
    println!(
        "deferred-commit mutations/s: {deferred_rate:.0} over chunk minima; whole passes: {dfr}"
    );
    println!("group-commit mutations/s: {grp}");
    println!("every-commit mutations/s: {evy}");
    let mut lat = group_run.latencies;
    let (p50, top, p_top) = latency_summary(&mut lat);
    println!(
        "group commit latency: p50 {:.3} us, p{top} {:.3} us over {} calls",
        p50 as f64 / 1e3,
        p_top as f64 / 1e3,
        lat.len()
    );
    // One path, nothing summed: the script through the overlay, or the
    // durable script through the deferred path, each chunk at its fastest.
    let (job_s, main) = match path {
        Gated::Volatile => (vol.min, &vol),
        Gated::Durable => (sz.group as f64 / deferred_rate, &dfr),
    };
    run.metrics.set("job_s", job_s);
    run.metrics.set(
        "graph.volatile_mutations_per_s",
        sz.volatile as f64 / vol.min.max(1e-12),
    );
    run.metrics
        .set("graph.deferred_mutations_per_s", deferred_rate);
    run.metrics.set("graph.durable_mutations_per_s", grp.max);
    run.metrics
        .set("graph.every_commit_mutations_per_s", evy.max);
    run.metrics.set("graph.commit_p50_us", p50 as f64 / 1e3);
    run.metrics.set("graph.commit_p99_us", p_top as f64 / 1e3);
    run.metrics.set("graph.recovery_s", stats::min(&recovery_s));
    run.metrics
        .set("graph.replay_records_per_s", stats::max(&replay_rate));
    run.metrics.set("graph.materialize_s", materialize_s);
    run.metrics.set(
        "graph.fsyncs",
        (group_run.done as u64).div_ceil(u64::from(GROUP_SIZE)) as f64,
    );
    run.metrics.set(
        "graph.wal_bytes_per_mutation",
        wal_len.saturating_sub(HEADER_LEN) as f64 / group_run.done.max(1) as f64,
    );
    if traced {
        // Traced and untraced repetitions (chunks) of the gated path
        // alternate.
        let ratio = match path {
            Gated::Volatile => paired_ratio(&vol_secs[1], &vol_secs[0]),
            Gated::Durable => deferred.traced_over_untraced(),
        };
        if let Some(ratio) = ratio {
            run.metrics.set("bench.trace_overhead_ratio", ratio - 1.0);
        }
        binio_roundtrip(run, &base);
        run.metrics.set("bench.reps", main.n as f64);
        run.metrics.set("bench.rel_iqr", main.rel_iqr);
        probes(run, &base, &sz, &script);
        run.metrics.set("bench.peak_rss_mb", peak_rss_mb());
    } else {
        run.metrics.set("peak_heap_mb", peak_heap_mb());
    }
    setup.record(run, setup_times, first_open_s, set_up_dir);
    remove_scratch();
}

/// Single-layer probes of the mutation paths (traced pass only).
fn probes(run: &mut Run, base: &Graph, sz: &Sizes, script: &[Mutation]) {
    // The overlay alone: the recovery path's direct apply, no transaction.
    let mut layout = MemoryLayout::new();
    let mg = MutableGraph::carve(base.clone(), sz.capacity, sz.overlay, &mut layout);
    let sys = TxnSystem::build(sz.capacity, layout, SystemConfig::default());
    mg.init(sys.mem());
    let part = &script[..script.len().min(200_000)];
    let ((), secs) = timed(|| {
        for &m in part {
            mg.apply_direct(sys.mem(), m);
        }
    });
    run.metrics
        .set("graph.overlay_apply_ns", secs * 1e9 / part.len() as f64);

    // The log alone: appends without a sync, then single-frame syncs.
    let dir = scratch("wal-probe");
    let header = WalHeader {
        capacity: sz.capacity as u64,
        slot_cap: sz.overlay.slot_cap,
        stripes: sz.overlay.stripes,
    };
    let created = std::fs::create_dir_all(&dir)
        .map_err(DurableError::from)
        .and_then(|()| Ok(WalWriter::create(&dir.join("probe.wal"), header, DEFERRED)?));
    match created {
        Ok(mut wal) => {
            let appends = part.len().min(100_000);
            let (ok, secs) = timed(|| part[..appends].iter().all(|&m| wal.append(m).is_ok()));
            run.tally.attempt(1);
            run.tally.check(ok, || "wal probe: append failed".into());
            run.metrics
                .set("graph.wal_append_ns", secs * 1e9 / appends as f64);
            let _ = wal.sync_now();
            let mut sync_us = Vec::new();
            for &m in &part[..200.min(part.len())] {
                let _ = wal.append(m);
                let (synced, secs) = timed(|| wal.sync_now());
                run.tally.attempt(1);
                run.tally
                    .check(synced.is_ok(), || "wal probe: fsync failed".into());
                sync_us.push(secs * 1e6);
            }
            run.metrics.set("graph.fsync_us", median(&sync_us));
            debug_assert_eq!(
                wal.written_len(),
                HEADER_LEN + FRAME_LEN * (appends as u64 + 200)
            );
        }
        Err(e) => {
            run.tally.attempt(1);
            run.tally.fail(format!("wal probe: {e}"));
        }
    }
    remove_scratch();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(chunks: &[(f64, bool)]) -> DurableRun {
        DurableRun {
            done: 10 * chunks.len(),
            chunks: chunks
                .iter()
                .map(|&(secs, traced)| ChunkTime {
                    secs,
                    len: 10,
                    traced,
                })
                .collect(),
            latencies: Vec::new(),
        }
    }

    #[test]
    fn chunk_minima_sum_the_fastest_time_of_each_chunk() {
        let mut m = ChunkMinima::default();
        m.add(&pass(&[(2.0, false), (8.0, true), (4.0, false)]));
        m.add(&pass(&[(3.0, true), (4.0, false)])); // a pass cut short
        m.add(&pass(&[(1.0, false), (6.0, true), (5.0, false)]));
        // Fastest per chunk: 1 + 4 + 4 seconds for 30 mutations.
        assert_eq!(m.rate(), 30.0 / 9.0);
        // Chunks 0 and 1 have both kinds: (3 + 6) traced over (1 + 4) untraced.
        assert_eq!(m.traced_over_untraced(), Some(9.0 / 5.0));
        assert_eq!(ChunkMinima::default().traced_over_untraced(), None);
    }
}
