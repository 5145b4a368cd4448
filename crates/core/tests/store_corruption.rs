//! Corruption tests for the on-disk CSR graph store.
//!
//! Every failure mode of `SimilarityGraph::open_store` must surface as a
//! typed `GraphError` — never a panic, never UB. These tests take a valid
//! store file and break it one section at a time: truncation, foreign
//! magic, future version, random bit-flips, and each semantic CSR
//! invariant. For semantic corruptions the header checksum is re-fixed
//! after the edit (via `submod_obs::format::fnv1a64`) so the *validator*,
//! not the checksum, is what catches the damage.

use std::path::PathBuf;
use submod_core::store::{HEADER_LEN, VERSION};
use submod_core::{GraphBuilder, GraphError, SimilarityGraph};
use submod_obs::format::{fnv1a64, HeaderError};

fn sample_graph() -> SimilarityGraph {
    let mut b = GraphBuilder::new(6);
    b.add_undirected(0, 1, 0.5).unwrap();
    b.add_undirected(1, 2, 0.25).unwrap();
    b.add_undirected(2, 3, 0.75).unwrap();
    b.add_undirected(3, 4, 0.1).unwrap();
    b.add_undirected(4, 5, 0.9).unwrap();
    b.add_undirected(0, 5, 0.33).unwrap();
    b.build()
}

/// Writes the sample graph to a fresh temp store and returns its path and
/// bytes.
fn valid_store(name: &str) -> (PathBuf, Vec<u8>) {
    let path = std::env::temp_dir()
        .join(format!("submod-corruption-test-{}-{name}.csr", std::process::id()));
    sample_graph().write_store(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Rewrites the file with `bytes`, after re-fixing the header checksum so
/// semantic validation (not the checksum) judges the content.
fn write_with_fixed_checksum(path: &PathBuf, mut bytes: Vec<u8>) {
    let sum = fnv1a64(&bytes[HEADER_LEN..]);
    bytes[32..40].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
}

/// Byte offset of the offsets section entry for node `v`.
fn offset_pos(v: usize) -> usize {
    HEADER_LEN + v * 8
}

/// Byte offset of neighbor entry `i` in a store over `n` nodes.
fn neighbor_pos(n: usize, i: usize) -> usize {
    HEADER_LEN + (n + 1) * 8 + i * 4
}

/// Byte offset of weight entry `i` in a store over `n` nodes, `e` edges.
fn weight_pos(n: usize, e: usize, i: usize) -> usize {
    neighbor_pos(n, e) + i * 4
}

#[test]
fn valid_store_opens() {
    let (path, _) = valid_store("valid");
    let mapped = SimilarityGraph::open_store(&path).unwrap();
    assert_eq!(mapped, sample_graph());
    cleanup(&path);
}

#[test]
fn store_bytes_are_pinned() {
    // The exact bytes of the sample store, recorded before the header and
    // checksum code moved to `submod_obs::format`: a change to the layout,
    // the header or the checksum fails here.
    let (path, bytes) = valid_store("pinned");
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (216, 0x5dba_1e9d_65a0_bce9));
    cleanup(&path);
}

#[test]
fn truncated_file_is_rejected_at_every_length() {
    let (path, bytes) = valid_store("truncate");
    // Sweep a selection of truncation points: inside the header, at the
    // header boundary, inside each section, and one byte short.
    for cut in [0, 1, 7, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 9, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        // A cut inside the header is the header check's; any later cut is
        // the section-length check's.
        match SimilarityGraph::open_store(&path) {
            Err(GraphError::Truncated { expected, actual })
            | Err(GraphError::Header(HeaderError::Truncated { expected, actual })) => {
                assert_eq!(actual, cut as u64);
                assert!(expected > actual, "cut at {cut}");
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    cleanup(&path);
}

#[test]
fn oversized_file_is_rejected() {
    let (path, mut bytes) = valid_store("oversize");
    bytes.extend_from_slice(&[0u8; 16]);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(SimilarityGraph::open_store(&path), Err(GraphError::Truncated { .. })));
    cleanup(&path);
}

#[test]
fn wrong_magic_is_rejected() {
    let (path, mut bytes) = valid_store("magic");
    bytes[0..8].copy_from_slice(b"SUBMODG1"); // the pre-store cache format
    std::fs::write(&path, &bytes).unwrap();
    match SimilarityGraph::open_store(&path) {
        Err(GraphError::Header(HeaderError::BadMagic { found })) => {
            assert_eq!(&found, b"SUBMODG1")
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn future_version_is_rejected() {
    let (path, mut bytes) = valid_store("version");
    bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match SimilarityGraph::open_store(&path) {
        Err(GraphError::Header(HeaderError::UnsupportedVersion { found })) => {
            assert_eq!(found, VERSION + 1)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn unknown_flags_are_rejected() {
    // Bit 1 once marked a utilities section; no version-1 file sets it.
    for bit in [0x02, 0x80] {
        let (path, mut bytes) = valid_store(&format!("flags-{bit}"));
        bytes[12] |= bit;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SimilarityGraph::open_store(&path),
            Err(GraphError::Header(HeaderError::UnknownFlags { .. }))
        ));
        cleanup(&path);
    }
}

#[test]
fn payload_bit_flips_fail_the_checksum() {
    let (path, bytes) = valid_store("bitflip");
    // Flip one bit in each payload section (offsets, neighbors, weights)
    // WITHOUT re-fixing the header checksum: the checksum must catch it.
    let n = 6;
    let e = sample_graph().num_directed_edges();
    for pos in [offset_pos(2), neighbor_pos(n, 1), weight_pos(n, e, 3)] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x04;
        std::fs::write(&path, &corrupt).unwrap();
        match SimilarityGraph::open_store(&path) {
            Err(GraphError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed, "flip at byte {pos}");
            }
            other => panic!("flip at byte {pos}: expected ChecksumMismatch, got {other:?}"),
        }
    }
    cleanup(&path);
}

#[test]
fn header_checksum_bit_flip_is_caught() {
    let (path, mut bytes) = valid_store("sumflip");
    bytes[33] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(SimilarityGraph::open_store(&path), Err(GraphError::ChecksumMismatch { .. })));
    cleanup(&path);
}

#[test]
fn non_monotone_offsets_are_rejected() {
    let (path, mut bytes) = valid_store("monotone");
    // Node 2's offset jumps above node 3's.
    let pos = offset_pos(2);
    bytes[pos..pos + 8].copy_from_slice(&100u64.to_le_bytes());
    write_with_fixed_checksum(&path, bytes);
    // 100 also overruns the edge arrays, so either typed error is honest;
    // this store has few edges, so the bounds check fires first.
    match SimilarityGraph::open_store(&path) {
        Err(GraphError::OffsetOutOfBounds { offset: 100, .. })
        | Err(GraphError::NonMonotoneOffsets { .. }) => {}
        other => panic!("expected an offset error, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn decreasing_offsets_are_rejected() {
    let (path, bytes) = valid_store("decreasing");
    let mut corrupt = bytes;
    // Swap two interior offsets so the sequence decreases while staying
    // in bounds.
    let a = offset_pos(2);
    let b = offset_pos(3);
    let (va, vb) = (
        u64::from_le_bytes(corrupt[a..a + 8].try_into().unwrap()),
        u64::from_le_bytes(corrupt[b..b + 8].try_into().unwrap()),
    );
    assert!(va < vb, "sample graph must have strictly growing rows here");
    corrupt[a..a + 8].copy_from_slice(&vb.to_le_bytes());
    corrupt[b..b + 8].copy_from_slice(&va.to_le_bytes());
    write_with_fixed_checksum(&path, corrupt);
    assert!(matches!(
        SimilarityGraph::open_store(&path),
        Err(GraphError::NonMonotoneOffsets { .. })
    ));
    cleanup(&path);
}

#[test]
fn terminal_offset_mismatch_is_rejected() {
    let (path, mut bytes) = valid_store("terminal");
    let e = sample_graph().num_directed_edges() as u64;
    let pos = offset_pos(6); // offsets[num_nodes]
    bytes[pos..pos + 8].copy_from_slice(&(e - 1).to_le_bytes());
    write_with_fixed_checksum(&path, bytes);
    assert!(matches!(
        SimilarityGraph::open_store(&path),
        Err(GraphError::EdgeCountMismatch { .. })
    ));
    cleanup(&path);
}

#[test]
fn out_of_bounds_neighbor_is_rejected() {
    let (path, mut bytes) = valid_store("edge-bounds");
    let pos = neighbor_pos(6, 0);
    bytes[pos..pos + 4].copy_from_slice(&999u32.to_le_bytes());
    write_with_fixed_checksum(&path, bytes);
    match SimilarityGraph::open_store(&path) {
        Err(GraphError::EdgeOutOfBounds { neighbor: 999, num_nodes: 6, .. }) => {}
        other => panic!("expected EdgeOutOfBounds, got {other:?}"),
    }
    cleanup(&path);
}

#[test]
fn self_loop_is_rejected() {
    let (path, mut bytes) = valid_store("self-loop");
    // Node 0's first neighbor becomes node 0 itself.
    let pos = neighbor_pos(6, 0);
    bytes[pos..pos + 4].copy_from_slice(&0u32.to_le_bytes());
    write_with_fixed_checksum(&path, bytes);
    assert!(matches!(SimilarityGraph::open_store(&path), Err(GraphError::SelfLoop { node: 0 })));
    cleanup(&path);
}

#[test]
fn unsorted_neighbor_row_is_rejected() {
    let (path, mut bytes) = valid_store("unsorted");
    // Node 0 has neighbors [1, 5]; rewriting the first as 5 makes the row
    // [5, 5] — a duplicate, which strict ascent also forbids.
    let pos = neighbor_pos(6, 0);
    bytes[pos..pos + 4].copy_from_slice(&5u32.to_le_bytes());
    write_with_fixed_checksum(&path, bytes);
    assert!(matches!(
        SimilarityGraph::open_store(&path),
        Err(GraphError::UnsortedNeighbors { node: 0 })
    ));
    cleanup(&path);
}

#[test]
fn non_finite_and_negative_weights_are_rejected() {
    let n = 6;
    let e = sample_graph().num_directed_edges();
    for (name, bad) in
        [("nan", f32::NAN), ("inf", f32::INFINITY), ("neginf", f32::NEG_INFINITY), ("neg", -0.5)]
    {
        let (path, mut bytes) = valid_store(&format!("weight-{name}"));
        let pos = weight_pos(n, e, 2);
        bytes[pos..pos + 4].copy_from_slice(&bad.to_le_bytes());
        write_with_fixed_checksum(&path, bytes);
        match SimilarityGraph::open_store(&path) {
            Err(GraphError::InvalidWeight { weight, .. }) => {
                assert!(weight.is_nan() == bad.is_nan() && (bad.is_nan() || weight == bad));
            }
            other => panic!("{name}: expected InvalidWeight, got {other:?}"),
        }
        cleanup(&path);
    }
}

#[test]
fn missing_file_is_an_io_error() {
    let path = std::env::temp_dir()
        .join(format!("submod-corruption-test-{}-missing.csr", std::process::id()));
    assert!(matches!(SimilarityGraph::open_store(&path), Err(GraphError::Io { .. })));
}

#[test]
fn every_single_byte_corruption_is_caught_or_harmless() {
    // Exhaustive single-byte fuzz: flip each byte of the store in turn
    // (without checksum re-fix). Opening must either fail with a typed
    // error or — only when the flip hits a reserved/ignorable byte —
    // yield a graph; it must never panic.
    let (path, bytes) = valid_store("fuzz");
    let original = sample_graph();
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        match SimilarityGraph::open_store(&path) {
            Err(_) => {}
            Ok(g) => {
                // Only a flags-adjacent no-op (there are none: all bits
                // checked) or reserved-byte flip could land here — but
                // reserved bytes are covered by the checksum, so any Ok
                // must be the original graph. Defensive: verify.
                assert_eq!(g, original, "byte {pos} flip silently changed the graph");
                panic!("byte {pos} flip was not detected");
            }
        }
    }
    cleanup(&path);
}
