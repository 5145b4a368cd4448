//! The on-disk CSR graph store: a compact binary format plus a read-only
//! `mmap` loader.
//!
//! The paper's headline claim is *larger-than-memory* selection; after the
//! drivers went engine-resident the k-NN graph itself was the last
//! process-resident piece. This module makes the ground set disk-resident:
//! the symmetrized, parallel-edge-deduplicated CSR adjacency is written
//! once and then memory-mapped read-only, so the OS pages rows in on
//! demand, many concurrent selections share one immutable mapping, and the
//! expensive graph build amortizes to zero across runs.
//!
//! # Binary layout (version 1, little-endian)
//!
//! ```text
//! offset  size              field
//! 0       8                 magic  b"SUBMCSR1"
//! 8       4                 version (u32, = 1)
//! 12      4                 flags   (u32: bit0 symmetric)
//! 16      8                 num_nodes (u64)
//! 24      8                 num_edges (u64, directed CSR entries)
//! 32      8                 checksum  (u64, FNV-1a-64 over every payload byte)
//! 40      24                reserved (zero)
//! 64      (n+1)·8           offsets   (u64 each, row v = [offsets[v], offsets[v+1]))
//! …       e·4               neighbors (u32 dense node ids, sorted per row)
//! …       e·4               weights   (f32, finite and non-negative)
//! ```
//!
//! The magic/version/flags/reserved checks and the checksum are
//! `submod_obs::format`'s, shared with the write-ahead journal.
//!
//! Every section starts at a file offset aligned to its element size
//! (the header is 64 bytes and `mmap` regions are page-aligned), so the
//! loader reinterprets the mapping in place — *zero-copy* — after a single
//! validation sweep. Validation is exhaustive and typed: a malformed store
//! surfaces as a [`GraphError`], never as UB or a panic.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use submod_obs::format::{self, Fnv1a64, HeaderError};

/// First 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"SUBMCSR1";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Bytes of header before the offsets section.
pub const HEADER_LEN: usize = 64;

const FLAG_SYMMETRIC: u32 = 1;
/// The zeroed bytes that close the header.
const RESERVED: std::ops::Range<usize> = 40..HEADER_LEN;

/// Errors produced while writing, opening, or validating an on-disk graph
/// store.
///
/// Every failure mode of the `mmap` path is a first-class variant: I/O,
/// a bad header, truncation, payload corruption, and each CSR
/// invariant violation. `Io` keeps the rendered OS error so the enum stays
/// `Clone + PartialEq` for tests.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// An OS-level read/write/map failure.
    Io {
        /// What was being done.
        context: &'static str,
        /// Rendered underlying error.
        detail: String,
    },
    /// The header is malformed: too short, a foreign magic, a future
    /// version, unknown flags, or non-zero reserved bytes.
    Header(HeaderError),
    /// The file is shorter (or longer) than the header-declared sections.
    Truncated {
        /// Byte length the header demands.
        expected: u64,
        /// Byte length actually on disk.
        actual: u64,
    },
    /// The payload bytes do not hash to the stored checksum (bit rot or a
    /// partial write).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the bytes on disk.
        computed: u64,
    },
    /// More nodes than the `u32` neighbor encoding can address.
    TooManyNodes {
        /// Node count in the header.
        num_nodes: u64,
    },
    /// `offsets[v+1] < offsets[v]`.
    NonMonotoneOffsets {
        /// First node whose row start exceeds its row end.
        node: usize,
    },
    /// An offset pointed past the edge arrays.
    OffsetOutOfBounds {
        /// Node whose offset overruns.
        node: usize,
        /// The offending offset value.
        offset: u64,
        /// Number of edge entries actually present.
        num_edges: u64,
    },
    /// `offsets[num_nodes]` did not equal the header's edge count.
    EdgeCountMismatch {
        /// Terminal offset value.
        offsets_end: u64,
        /// Edge count the header declared.
        num_edges: u64,
    },
    /// A neighbor id referenced a node outside `0..num_nodes`.
    EdgeOutOfBounds {
        /// Row containing the bad edge.
        node: usize,
        /// The out-of-range neighbor id.
        neighbor: u32,
        /// Number of nodes in the store.
        num_nodes: usize,
    },
    /// A neighbor row was not strictly ascending (unsorted or duplicated).
    UnsortedNeighbors {
        /// Row that violates the order.
        node: usize,
    },
    /// A row contained its own node id.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// An edge weight was NaN, infinite, or negative.
    InvalidWeight {
        /// Row containing the bad weight.
        node: usize,
        /// The offending weight.
        weight: f32,
    },
    /// A section was not aligned for its element type. Unreachable for
    /// files this crate writes (the layout is aligned by construction);
    /// kept so a hand-crafted file still fails closed.
    Misaligned {
        /// Which section was misaligned.
        section: &'static str,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Io { context, detail } => {
                write!(f, "i/o failure while {context}: {detail}")
            }
            GraphError::Header(err) => write!(f, "bad graph store header: {err}"),
            GraphError::Truncated { expected, actual } => {
                write!(f, "store file is {actual} bytes but the header demands {expected}")
            }
            GraphError::ChecksumMismatch { stored, computed } => {
                write!(f, "payload checksum {computed:#018x} does not match stored {stored:#018x}")
            }
            GraphError::TooManyNodes { num_nodes } => {
                write!(f, "{num_nodes} nodes exceed the u32 neighbor id space")
            }
            GraphError::NonMonotoneOffsets { node } => {
                write!(f, "offsets are not monotone at node {node}")
            }
            GraphError::OffsetOutOfBounds { node, offset, num_edges } => {
                write!(f, "offset {offset} of node {node} exceeds the {num_edges} stored edges")
            }
            GraphError::EdgeCountMismatch { offsets_end, num_edges } => {
                write!(f, "terminal offset {offsets_end} does not match edge count {num_edges}")
            }
            GraphError::EdgeOutOfBounds { node, neighbor, num_nodes } => {
                write!(f, "node {node} lists neighbor {neighbor} outside 0..{num_nodes}")
            }
            GraphError::UnsortedNeighbors { node } => {
                write!(f, "neighbor row of node {node} is not strictly ascending")
            }
            GraphError::SelfLoop { node } => write!(f, "node {node} lists itself as a neighbor"),
            GraphError::InvalidWeight { node, weight } => {
                write!(f, "weight {weight} of node {node} is not a finite non-negative number")
            }
            GraphError::Misaligned { section } => {
                write!(f, "section `{section}` is not aligned for its element type")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl GraphError {
    fn io(context: &'static str, err: std::io::Error) -> Self {
        GraphError::Io { context, detail: err.to_string() }
    }
}

/// Folds a primary failure and its failed fallback into one `io::Error`
/// so both causes survive into the rendered [`GraphError::Io`] detail.
fn io_pair(primary: std::io::Error, fallback: std::io::Error) -> std::io::Error {
    std::io::Error::new(primary.kind(), format!("{primary}; owned-buffer fallback: {fallback}"))
}

/// Byte length a version-1 store with these counts must have, or `None`
/// if the counts are so large the length overflows `u64` (only reachable
/// from a corrupt header — no real file can be that long).
fn expected_len(num_nodes: u64, num_edges: u64) -> Option<u64> {
    let offsets = num_nodes.checked_add(1)?.checked_mul(8)?;
    let edges = num_edges.checked_mul(8)?;
    (HEADER_LEN as u64).checked_add(offsets)?.checked_add(edges)
}

/// Writes a validated CSR triple as a store file.
///
/// The caller guarantees the arrays already satisfy the CSR invariants
/// (they come from a live [`SimilarityGraph`]).
///
/// [`SimilarityGraph`]: crate::SimilarityGraph
pub(crate) fn write_store(
    path: &Path,
    offsets: &[u64],
    neighbors: &[u32],
    weights: &[f32],
    symmetric: bool,
) -> Result<(), GraphError> {
    let _span = submod_obs::span_full("store.write");
    let num_nodes = offsets.len() - 1;
    if num_nodes as u64 > u64::from(u32::MAX) {
        return Err(GraphError::TooManyNodes { num_nodes: num_nodes as u64 });
    }

    // Pre-pass: checksum the payload exactly as it will be laid out.
    let mut sum = Fnv1a64::new();
    for &o in offsets {
        sum.update(&o.to_le_bytes());
    }
    for &n in neighbors {
        sum.update(&n.to_le_bytes());
    }
    for &w in weights {
        sum.update(&w.to_le_bytes());
    }

    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| GraphError::io("creating the store directory", e))?;
        }
    }
    let file = File::create(path).map_err(|e| GraphError::io("creating the store file", e))?;
    let mut w = BufWriter::new(file);
    let wr = |w: &mut BufWriter<File>, bytes: &[u8]| {
        w.write_all(bytes).map_err(|e| GraphError::io("writing the store file", e))
    };

    let flags = if symmetric { FLAG_SYMMETRIC } else { 0 };
    wr(&mut w, &MAGIC)?;
    wr(&mut w, &VERSION.to_le_bytes())?;
    wr(&mut w, &flags.to_le_bytes())?;
    wr(&mut w, &(num_nodes as u64).to_le_bytes())?;
    wr(&mut w, &(neighbors.len() as u64).to_le_bytes())?;
    wr(&mut w, &sum.finish().to_le_bytes())?;
    wr(&mut w, &[0u8; RESERVED.end - RESERVED.start])?;
    for &o in offsets {
        wr(&mut w, &o.to_le_bytes())?;
    }
    for &n in neighbors {
        wr(&mut w, &n.to_le_bytes())?;
    }
    for &x in weights {
        wr(&mut w, &x.to_le_bytes())?;
    }
    w.flush().map_err(|e| GraphError::io("flushing the store file", e))?;
    let payload = std::mem::size_of_val(offsets)
        + std::mem::size_of_val(neighbors)
        + std::mem::size_of_val(weights);
    submod_obs::counter!("store.writes").incr();
    submod_obs::counter!("store.written_bytes").add((HEADER_LEN + payload) as u64);
    Ok(())
}

/// Opens and fully validates a store file.
///
/// The returned view checked each section's bounds and alignment once and
/// cached the typed slices, so its accessors are bare pointer/length loads
/// that inline into the per-edge graph-traversal loops.
pub(crate) fn open_store(path: &Path) -> Result<submod_mman::CsrView, GraphError> {
    use submod_obs::faults::{self, FaultSite};
    let _span = submod_obs::span_full("store.open");
    // Injected transient open faults self-clear, so the bounded retry
    // always recovers; injected permanent faults exhaust the attempts and
    // surface as a typed error like any real open failure would.
    let file = faults::check_io(FaultSite::StoreOpen)
        .and_then(|()| File::open(path))
        .map_err(|e| GraphError::io("opening the store file", e))?;
    // A failed mmap (no mmap support, address-space exhaustion, or an
    // injected mmap-open fault) degrades to reading the file into an owned
    // buffer: the run proceeds at the cost of residency, and the switch is
    // recorded — never silent.
    let mmap = match submod_mman::Mmap::map_readonly(&file) {
        Ok(mmap) => mmap,
        Err(map_err) => {
            submod_obs::counter!("store.mmap_open_fallbacks").incr();
            submod_mman::Mmap::read_owned(&file).map_err(|read_err| {
                GraphError::io(
                    "mapping the store file (and the owned-buffer fallback)",
                    io_pair(map_err, read_err),
                )
            })?
        }
    };
    let bytes: &[u8] = &mmap;
    submod_obs::counter!("store.opens").incr();
    submod_obs::counter!("store.mapped_bytes").add(bytes.len() as u64);

    // The reserved region is outside the payload checksum, so the header
    // check zero-checks it explicitly.
    format::check_header(bytes, &MAGIC, VERSION, FLAG_SYMMETRIC, RESERVED)
        .map_err(GraphError::Header)?;
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let (num_nodes, num_edges, stored_sum) = (field(16), field(24), field(32));
    if num_nodes > u64::from(u32::MAX) {
        return Err(GraphError::TooManyNodes { num_nodes });
    }
    let expected = expected_len(num_nodes, num_edges)
        .ok_or(GraphError::Truncated { expected: u64::MAX, actual: bytes.len() as u64 })?;
    if bytes.len() as u64 != expected {
        return Err(GraphError::Truncated { expected, actual: bytes.len() as u64 });
    }

    let computed = format::fnv1a64(&bytes[HEADER_LEN..]);
    if computed != stored_sum {
        return Err(GraphError::ChecksumMismatch { stored: stored_sum, computed });
    }

    let offsets = HEADER_LEN..HEADER_LEN + (num_nodes as usize + 1) * 8;
    let neighbors = offsets.end..offsets.end + num_edges as usize * 4;
    let weights = neighbors.end..neighbors.end + num_edges as usize * 4;
    let view = submod_mman::CsrView::new(mmap, offsets, neighbors, weights)
        .map_err(|section| GraphError::Misaligned { section })?;
    validate_csr(view.offsets(), view.neighbors(), view.weights())?;
    Ok(view)
}

/// Checks every CSR invariant the rest of the workspace relies on:
/// monotone in-bounds offsets, strictly ascending in-bounds neighbor rows
/// without self-loops, and finite non-negative weights.
///
/// Shared by the store loader and [`SimilarityGraph::from_csr_parts`], so
/// an on-disk row is held to exactly the standard an in-memory row is.
///
/// [`SimilarityGraph::from_csr_parts`]: crate::SimilarityGraph::from_csr_parts
pub(crate) fn validate_csr(
    offsets: &[u64],
    neighbors: &[u32],
    weights: &[f32],
) -> Result<(), GraphError> {
    let num_nodes = offsets.len() - 1;
    let num_edges = neighbors.len() as u64;
    if num_nodes as u64 > u64::from(u32::MAX) {
        return Err(GraphError::TooManyNodes { num_nodes: num_nodes as u64 });
    }
    if neighbors.len() != weights.len() {
        return Err(GraphError::EdgeCountMismatch {
            offsets_end: neighbors.len() as u64,
            num_edges: weights.len() as u64,
        });
    }
    if offsets[0] != 0 {
        return Err(GraphError::NonMonotoneOffsets { node: 0 });
    }
    for v in 0..num_nodes {
        if offsets[v + 1] < offsets[v] {
            return Err(GraphError::NonMonotoneOffsets { node: v });
        }
        if offsets[v + 1] > num_edges {
            return Err(GraphError::OffsetOutOfBounds {
                node: v + 1,
                offset: offsets[v + 1],
                num_edges,
            });
        }
    }
    if offsets[num_nodes] != num_edges {
        return Err(GraphError::EdgeCountMismatch { offsets_end: offsets[num_nodes], num_edges });
    }
    for v in 0..num_nodes {
        let row = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
        let mut prev: Option<u32> = None;
        for &w in row {
            if w as usize >= num_nodes {
                return Err(GraphError::EdgeOutOfBounds { node: v, neighbor: w, num_nodes });
            }
            if w as usize == v {
                return Err(GraphError::SelfLoop { node: v });
            }
            if let Some(p) = prev {
                if w <= p {
                    return Err(GraphError::UnsortedNeighbors { node: v });
                }
            }
            prev = Some(w);
        }
    }
    for (i, &w) in weights.iter().enumerate() {
        if !(w.is_finite() && w >= 0.0) {
            // Binary-search the owning row for a precise report.
            let node = offsets.partition_point(|&o| o <= i as u64).saturating_sub(1);
            return Err(GraphError::InvalidWeight { node, weight: w });
        }
    }
    Ok(())
}
