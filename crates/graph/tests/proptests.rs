//! Property-based tests of graph construction, generator and WAL-writer
//! invariants.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use tufast_graph::wal::{
    parse_bytes, Mutation, SyncPolicy, WalHeader, WalRecord, WalWriter, FRAME_LEN, HEADER_LEN,
};
use tufast_graph::{binio, gen, load, GraphBuilder};

/// What a process death right now would leave to recovery: the valid
/// records of the file as it is, and whether anything sits behind them.
fn on_disk(path: &std::path::Path) -> (Vec<WalRecord>, bool) {
    let bytes = std::fs::read(path).unwrap();
    let (_, records, valid) = parse_bytes(&bytes).unwrap();
    (records, valid == bytes.len() as u64)
}

proptest! {
    /// CSR construction preserves exactly the deduplicated, loop-free edge
    /// multiset, sorted per source.
    #[test]
    fn builder_matches_model(edges in prop::collection::vec((0u32..50, 0u32..50), 0..400)) {
        let mut b = GraphBuilder::new(50);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.build();
        let mut model: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(s, d)| s != d)
            .collect();
        model.sort_unstable();
        model.dedup();
        let got: Vec<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(got, model);
        // Adjacency lists are sorted (binary-searchable).
        for v in g.vertices() {
            prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// In-edges are the exact transpose.
    #[test]
    fn reverse_is_transpose(edges in prop::collection::vec((0u32..40, 0u32..40), 0..300)) {
        let mut b = GraphBuilder::new(40);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.with_in_edges().build();
        let forward: Vec<(u32, u32)> = g.edges().collect();
        let mut back: Vec<(u32, u32)> = g
            .vertices()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        back.sort_unstable();
        prop_assert_eq!(forward, back);
    }

    /// A symmetric graph is its own transpose and stores it once: the
    /// shortcut build equals, array for array, what a plain builder makes
    /// of both directions, survives a TFG1 round trip, and no graph with
    /// an unmirrored arc claims it.
    #[test]
    fn symmetric_graph_is_its_own_transpose(
        edges in prop::collection::vec((0u32..24, 0u32..24, 1u32..9), 0..160),
        weighted in any::<bool>(),
        keep_duplicates in any::<bool>(),
        keep_self_loops in any::<bool>(),
    ) {
        let builder = || {
            let mut b = GraphBuilder::new(24).with_in_edges();
            if keep_duplicates {
                b = b.keep_duplicates();
            }
            if keep_self_loops {
                b = b.keep_self_loops();
            }
            b
        };
        let add = |b: &mut GraphBuilder, s, d, w| match weighted {
            true => b.add_weighted_edge(s, d, w),
            false => b.add_edge(s, d),
        };
        let (mut directed, mut both_ways) = (builder(), builder());
        let mut shortcut = builder().symmetric();
        for &(s, d, w) in &edges {
            add(&mut directed, s, d, w);
            add(&mut shortcut, s, d, w);
            add(&mut both_ways, s, d, w);
            add(&mut both_ways, d, s, w);
        }
        let (sym, plain) = (shortcut.build(), both_ways.build());
        prop_assert!(sym.reverse_is_forward() && plain.reverse_is_forward());
        prop_assert_eq!(&sym, &plain);
        prop_assert_eq!(sym.reverse(), Some(sym.forward()));
        for v in sym.vertices() {
            prop_assert_eq!(sym.in_neighbors(v), sym.neighbors(v));
            prop_assert!(sym.undirected(v).eq(sym.neighbors(v).iter().copied()));
        }

        let mut file = Vec::new();
        binio::write_graph(&sym, &mut file).unwrap();
        let back = binio::read_graph(file.as_slice()).unwrap();
        prop_assert!(back.reverse_is_forward());
        prop_assert_eq!(&back, &sym);

        // The flag is a fact about the arcs, however the graph was made.
        let directed = directed.build();
        let mut arcs: Vec<_> = directed.edges().collect();
        let mut mirrored: Vec<_> = arcs.iter().map(|&(s, d)| (d, s)).collect();
        arcs.sort_unstable();
        mirrored.sort_unstable();
        prop_assert_eq!(directed.reverse_is_forward(), arcs == mirrored);
    }

    /// Symmetric graphs are actually symmetric.
    #[test]
    fn symmetric_builder_produces_symmetric_graph(edges in prop::collection::vec((0u32..30, 0u32..30), 0..200)) {
        let mut b = GraphBuilder::new(30);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.symmetric().build();
        for (s, d) in g.edges() {
            prop_assert!(g.neighbors(d).binary_search(&s).is_ok(), "missing reverse of ({s},{d})");
        }
    }

    /// Edge-list round-trip preserves the degree multiset.
    #[test]
    fn edge_list_roundtrip(edges in prop::collection::vec((0u32..30, 0u32..30), 1..200)) {
        let mut b = GraphBuilder::new(30);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.build();
        let mut buf = Vec::new();
        load::write_edge_list(&g, &mut buf).unwrap();
        let g2 = load::read_edge_list(buf.as_slice(), load::LoadOptions::default()).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        let mut d1: Vec<usize> = g.vertices().map(|v| g.degree(v)).filter(|&d| d > 0).collect();
        let mut d2: Vec<usize> = g2.vertices().map(|v| g2.degree(v)).filter(|&d| d > 0).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    /// R-MAT generators are deterministic in their seed and in-bounds.
    #[test]
    fn rmat_is_seed_deterministic(seed in any::<u64>()) {
        let g1 = gen::rmat(7, 4, seed);
        let g2 = gen::rmat(7, 4, seed);
        prop_assert_eq!(g1.num_edges(), g2.num_edges());
        prop_assert_eq!(g1.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        prop_assert_eq!(g1.num_vertices(), 128);
    }

    /// Random weights stay in range and respect undirected symmetry.
    #[test]
    fn weights_in_range(seed in any::<u64>(), max_w in 1u32..1000) {
        let base = gen::grid2d(6, 6);
        let g = gen::with_random_weights(&base, max_w, seed);
        for v in g.vertices() {
            for (u, w) in g.weighted_neighbors(v) {
                prop_assert!((1..=max_w).contains(&w));
                let back: Vec<u32> = g
                    .weighted_neighbors(u)
                    .filter(|&(x, _)| x == v)
                    .map(|(_, w)| w)
                    .collect();
                prop_assert_eq!(back, vec![w]);
            }
        }
    }

    /// The staged WAL writer against a `Vec<WalRecord>` model, under the
    /// three policy shapes: whatever the sequence of appends, syncs,
    /// checkpoint truncations and drop-and-reopens, the file always holds
    /// whole frames forming a prefix of what was appended (so does a log
    /// cut by a process death), all of it after a `sync_now` or a clean
    /// drop, with dense LSNs.
    #[test]
    fn wal_file_is_always_a_prefix_of_the_appended_records(
        shape in 0u32..3,
        group in 1u32..6,
        ops in prop::collection::vec((0u32..10, 0u32..200), 1..60),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tufast-wal-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.wal");
        let policy = match shape {
            0 => SyncPolicy::EveryCommit,
            1 => SyncPolicy::Group { max_pending: group },
            _ => SyncPolicy::Group { max_pending: u32::MAX },
        };
        let header = WalHeader { capacity: 64, slot_cap: 128, stripes: 8 };
        let mut w = WalWriter::create(&path, header, policy).unwrap();
        // Every record appended since the last truncation.
        let mut model: Vec<WalRecord> = Vec::new();
        let mut next_lsn = 1u64;
        let append = |w: &mut WalWriter, model: &mut Vec<WalRecord>, next_lsn: &mut u64, x: u32| {
            let mutation = match x % 3 {
                0 => Mutation::AddEdge { src: x, dst: x + 1, weight: x * 7 },
                1 => Mutation::RemoveEdge { src: x, dst: x + 2 },
                _ => Mutation::AddVertex,
            };
            prop_assert_eq!(w.append(mutation).unwrap(), *next_lsn);
            model.push(WalRecord { lsn: *next_lsn, mutation });
            *next_lsn += 1;
        };
        for &(op, arg) in &ops {
            let mut all_on_disk = false;
            match op {
                // A commit: append, then the policy decides.
                0..=4 => {
                    append(&mut w, &mut model, &mut next_lsn, arg);
                    w.commit_sync().unwrap();
                    all_on_disk = policy == SyncPolicy::EveryCommit;
                }
                // A burst of appends with no sync (can overflow the buffer).
                5 => {
                    for i in 0..arg {
                        append(&mut w, &mut model, &mut next_lsn, arg + i);
                    }
                }
                6 => w.commit_sync().unwrap(),
                7 => {
                    w.sync_now().unwrap();
                    all_on_disk = true;
                }
                8 => {
                    w.truncate_for_checkpoint().unwrap();
                    model.clear();
                    all_on_disk = true;
                }
                _ => {
                    drop(w);
                    let (reopened, report) = WalWriter::open(&path, policy).unwrap();
                    prop_assert_eq!(&report.records, &model);
                    prop_assert_eq!(report.truncated_bytes, 0);
                    w = reopened;
                    // As `DurableOpen::finish` does after a checkpoint
                    // emptied the log.
                    w.set_next_lsn(next_lsn);
                    all_on_disk = true;
                }
            }
            prop_assert_eq!(w.next_lsn(), next_lsn);
            prop_assert_eq!(w.written_len(), HEADER_LEN + FRAME_LEN * model.len() as u64);
            let (records, whole_frames) = on_disk(&path);
            prop_assert!(whole_frames, "a partial frame reached the file");
            prop_assert!(records.len() <= model.len());
            prop_assert_eq!(&records[..], &model[..records.len()]);
            if all_on_disk {
                prop_assert_eq!(records.len(), model.len());
            }
            let first = model.first().map_or(next_lsn, |r| r.lsn);
            prop_assert!(records.iter().enumerate().all(|(i, r)| r.lsn == first + i as u64));
        }
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
