//! Binary CSR cache format.
//!
//! Parsing multi-gigabyte edge lists dominates start-up for real datasets;
//! graph systems (Ligra, GraphChi, …) all ship a binary pre-converted
//! format for this reason. This one stores the CSR arrays directly:
//!
//! ```text
//! magic "TFG1" | flags u32 | num_vertices u64 | num_edges u64
//! offsets  (num_vertices+1) × u64 LE
//! targets  num_edges × u32 LE
//! [weights num_edges × u32 LE]           — iff flags & WEIGHTS
//! [in_offsets / in_targets as above]     — iff flags & IN_EDGES
//! ```
//!
//! Loading is a few large reads plus validation — no per-edge parsing.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};

const MAGIC: &[u8; 4] = b"TFG1";
const FLAG_WEIGHTS: u32 = 1;
const FLAG_IN_EDGES: u32 = 2;

/// Errors from binary graph I/O.
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a TFG1 file, or structurally invalid.
    Format(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "I/O error: {e}"),
            BinError::Format(m) => write!(f, "bad TFG1 file: {m}"),
        }
    }
}

impl std::error::Error for BinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinError::Io(e) => Some(e),
            BinError::Format(_) => None,
        }
    }
}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

fn write_u32s<W: Write>(out: &mut W, values: impl Iterator<Item = u32>) -> io::Result<()> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u64s<W: Write>(out: &mut W, values: impl Iterator<Item = u64>) -> io::Result<()> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Payloads are read in bounded chunks: a corrupt header lying about
/// element counts fails at end-of-file after reading what is actually
/// there, instead of pre-allocating the claimed (possibly absurd) size.
const CHUNK_ELEMS: usize = 1 << 16;

fn read_u32s<R: Read>(input: &mut R, n: usize) -> io::Result<Vec<u32>> {
    let mut out = Vec::new();
    let mut chunk = vec![0u8; CHUNK_ELEMS * 4];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(CHUNK_ELEMS);
        let bytes = &mut chunk[..take * 4];
        input.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        remaining -= take;
    }
    Ok(out)
}

fn read_u64s<R: Read>(input: &mut R, n: usize) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    let mut chunk = vec![0u8; CHUNK_ELEMS * 8];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(CHUNK_ELEMS);
        let bytes = &mut chunk[..take * 8];
        input.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Write `g` in TFG1 format.
pub fn write_graph<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    let mut flags = 0u32;
    if g.has_weights() {
        flags |= FLAG_WEIGHTS;
    }
    if g.reverse().is_some() {
        flags |= FLAG_IN_EDGES;
    }
    out.write_all(MAGIC)?;
    out.write_all(&flags.to_le_bytes())?;
    out.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    out.write_all(&g.num_edges().to_le_bytes())?;

    let n = g.num_vertices() as VertexId;
    let mut offset = 0u64;
    write_u64s(
        &mut out,
        (0..=n).map(|v| {
            if v == 0 {
                return 0;
            }
            offset += g.degree(v - 1) as u64;
            offset
        }),
    )?;
    write_u32s(
        &mut out,
        (0..n).flat_map(|v| g.neighbors(v).iter().copied()),
    )?;
    if let Some(w) = g.weights() {
        write_u32s(&mut out, w.iter().copied())?;
    }
    if g.reverse().is_some() {
        let mut offset = 0u64;
        write_u64s(
            &mut out,
            (0..=n).map(|v| {
                if v == 0 {
                    return 0;
                }
                offset += g.in_degree(v - 1) as u64;
                offset
            }),
        )?;
        write_u32s(
            &mut out,
            (0..n).flat_map(|v| g.in_neighbors(v).iter().copied()),
        )?;
    }
    out.flush()
}

/// Read a TFG1 graph.
pub fn read_graph<R: Read>(reader: R) -> Result<Graph, BinError> {
    let mut input = BufReader::new(reader);
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(BinError::Format(format!("wrong magic {magic:?}")));
    }
    let mut word = [0u8; 4];
    input.read_exact(&mut word)?;
    let flags = u32::from_le_bytes(word);
    if flags & !(FLAG_WEIGHTS | FLAG_IN_EDGES) != 0 {
        return Err(BinError::Format(format!("unknown flags {flags:#x}")));
    }
    let mut qword = [0u8; 8];
    input.read_exact(&mut qword)?;
    let num_vertices_raw = u64::from_le_bytes(qword);
    input.read_exact(&mut qword)?;
    let num_edges = u64::from_le_bytes(qword);
    // Vertex ids are u32 throughout; a header beyond that range is corrupt
    // (and would otherwise silently truncate in the casts below).
    if num_vertices_raw > u64::from(u32::MAX) {
        return Err(BinError::Format(format!(
            "vertex count {num_vertices_raw} exceeds the u32 id range"
        )));
    }
    let num_vertices = num_vertices_raw as usize;
    let num_edges_len = usize::try_from(num_edges)
        .map_err(|_| BinError::Format(format!("edge count {num_edges} is not addressable")))?;

    let offsets = read_u64s(&mut input, num_vertices + 1)?;
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&num_edges)
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(BinError::Format("non-monotonic offsets".into()));
    }
    let targets = read_u32s(&mut input, num_edges_len)?;
    if targets.iter().any(|&t| t as usize >= num_vertices) {
        return Err(BinError::Format("target out of range".into()));
    }
    let weights = if flags & FLAG_WEIGHTS != 0 {
        Some(read_u32s(&mut input, num_edges_len)?)
    } else {
        None
    };
    // In-edges are recomputed by the builder rather than trusted (the file
    // may be hand-made; correctness beats the small rebuild cost: one
    // O(m + n) transposition of the out-edges, no sort — and a transpose
    // equal to the out-edges is dropped again, `Graph::from_parts`). Their
    // offsets are still validated, end included: a transpose has as many
    // edges as the header says, so corruption is reported as such.
    let want_in = flags & FLAG_IN_EDGES != 0;
    if want_in {
        let in_offsets = read_u64s(&mut input, num_vertices + 1)?;
        if in_offsets.first() != Some(&0)
            || in_offsets.last() != Some(&num_edges)
            || in_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(BinError::Format("non-monotonic in-offsets".into()));
        }
        let _ = read_u32s(&mut input, num_edges_len)?;
    }

    let mut builder = GraphBuilder::new(num_vertices)
        .with_edge_capacity(num_edges as usize)
        .keep_duplicates()
        .keep_self_loops();
    if want_in {
        builder = builder.with_in_edges();
    }
    for v in 0..num_vertices {
        let range = offsets[v] as usize..offsets[v + 1] as usize;
        for i in range {
            match &weights {
                Some(w) => builder.add_weighted_edge(v as VertexId, targets[i], w[i]),
                None => builder.add_edge(v as VertexId, targets[i]),
            }
        }
    }
    Ok(builder.build())
}

/// Save `g` to `path`.
pub fn save(g: &Graph, path: &Path) -> io::Result<()> {
    write_graph(g, std::fs::File::create(path)?)
}

/// Load a graph from `path`.
pub fn load(path: &Path) -> Result<Graph, BinError> {
    read_graph(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_graph(g, &mut buf).unwrap();
        read_graph(buf.as_slice()).unwrap()
    }

    #[test]
    fn plain_graph_roundtrips_exactly() {
        let g = gen::rmat(8, 6, 3);
        let g2 = roundtrip(&g);
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(
            g2.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn weighted_graph_roundtrips_exactly() {
        let g = gen::with_random_weights(&gen::grid2d(7, 5), 20, 9);
        let g2 = roundtrip(&g);
        assert!(g2.has_weights());
        for v in g.vertices() {
            assert_eq!(
                g.weighted_neighbors(v).collect::<Vec<_>>(),
                g2.weighted_neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn in_edges_flag_rebuilds_reverse_adjacency() {
        let base = gen::rmat(7, 4, 5);
        let mut b = crate::GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        let g = b.with_in_edges().build();
        let g2 = roundtrip(&g);
        assert!(g2.reverse().is_some());
        for v in g.vertices() {
            assert_eq!(g.in_neighbors(v), g2.in_neighbors(v));
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_graph(&b"NOPE....."[..]).unwrap_err();
        assert!(matches!(err, BinError::Format(_)));
    }

    #[test]
    fn rejects_out_of_range_targets() {
        // Handcraft: 1 vertex, 1 edge pointing at vertex 7.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"TFG1");
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        let err = read_graph(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinError::Format(_)));
    }

    #[test]
    fn rejects_lying_headers_without_allocating() {
        // Header claims u64::MAX vertices/edges over a tiny body: the
        // chunked reader must fail fast at EOF, not pre-allocate.
        for (nv, ne) in [
            (u64::MAX, 0u64),
            (1 << 40, 1 << 40),
            (4, u64::MAX),
            (u64::from(u32::MAX) + 1, 0),
        ] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"TFG1");
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&nv.to_le_bytes());
            buf.extend_from_slice(&ne.to_le_bytes());
            buf.extend_from_slice(&[0u8; 64]);
            assert!(read_graph(buf.as_slice()).is_err(), "nv={nv} ne={ne}");
        }
    }

    #[test]
    fn rejects_non_monotonic_in_offsets() {
        // Valid forward CSR (1 vertex, 0 edges) + garbage in-offsets.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"TFG1");
        buf.extend_from_slice(&2u32.to_le_bytes()); // FLAG_IN_EDGES
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // offsets[0]
        buf.extend_from_slice(&0u64.to_le_bytes()); // offsets[1]
        buf.extend_from_slice(&9u64.to_le_bytes()); // in_offsets[0] != 0
        buf.extend_from_slice(&1u64.to_le_bytes()); // decreasing
        let err = read_graph(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinError::Format(_)));
    }

    #[test]
    fn rejects_in_offsets_that_end_off_the_edge_count() {
        // 0 → 1 with in-edges, then the last in-offset (the 8 bytes before
        // the one in-target) rewritten: still monotonic, no longer a
        // transpose of one edge. One in-target more keeps a reader that
        // believes the offset from failing at end-of-file instead.
        let mut b = crate::GraphBuilder::new(2);
        b.add_edge(0, 1);
        let mut good = Vec::new();
        write_graph(&b.with_in_edges().build(), &mut good).unwrap();
        assert!(read_graph(good.as_slice()).is_ok());
        let last = good.len() - 12..good.len() - 4;
        assert_eq!(good[last.clone()], 1u64.to_le_bytes());
        for wrong in [0u64, 2] {
            let mut buf = good.clone();
            buf[last.clone()].copy_from_slice(&wrong.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            let err = read_graph(buf.as_slice()).unwrap_err();
            assert!(matches!(err, BinError::Format(_)), "last = {wrong}: {err}");
        }
    }

    #[test]
    fn adversarial_bytes_never_panic() {
        // Seeded byte soup at assorted lengths: every parse must return
        // Err (or a tiny valid graph), never panic.
        let mut state = 0x7F65_21C3u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 31)
        };
        for len in [0usize, 4, 12, 24, 64, 256, 1024] {
            for _round in 0..8 {
                let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let _ = read_graph(bytes.as_slice());
                // Again with a valid magic so the header fields get fuzzed.
                if bytes.len() >= 4 {
                    bytes[..4].copy_from_slice(b"TFG1");
                    let _ = read_graph(bytes.as_slice());
                }
            }
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let g = gen::path(5);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_graph(buf.as_slice()).is_err());
    }

    #[test]
    fn file_roundtrip_on_disk() {
        let g = gen::grid2d(6, 6);
        let dir = std::env::temp_dir().join("tufast-binio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tfg");
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(
            g2.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        let _ = std::fs::remove_file(&path);
    }
}
