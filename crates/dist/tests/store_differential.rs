//! The mmap-backed graph store maps exactly what was written: a
//! round-trip property test (build → write → mmap → compare the raw CSR
//! arrays bit-for-bit) pins the storage layer over every graph shape the
//! builders produce: undirected and directed edges, isolated nodes, a
//! single node, and `symmetrized()` output. That selections over a mapped
//! graph equal those over the owned one is the backing axis of the
//! facade's invariance harness (`tests/invariance.rs`).

use proptest::prelude::*;
use submod_core::{GraphBuilder, NodeId, SimilarityGraph};

/// A seeded 64-bit LCG stream.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// A random graph of one of the shapes a store must map exactly: up to
/// three edges out of each node, added with `add_directed` (rows need not
/// mirror each other) or `add_undirected`; nodes with `v % 4 < isolated`
/// get no edge at all; and with `symmetrize` the result goes through
/// `symmetrized()`.
fn shaped_graph(
    n: usize,
    seed: u64,
    directed: bool,
    isolated: u64,
    symmetrize: bool,
) -> SimilarityGraph {
    let mut b = GraphBuilder::new(n);
    let mut next = lcg(seed);
    let linked = |v: u64| v % 4 >= isolated;
    for v in (0..n as u64).filter(|&v| linked(v)) {
        for _ in 0..3 {
            let w = next() % n as u64;
            if w != v && linked(w) {
                let s = 0.05 + (next() % 900) as f32 / 1000.0;
                if directed {
                    b.add_directed(v, w, s).expect("edge");
                } else {
                    b.add_undirected(v, w, s).expect("edge");
                }
            }
        }
    }
    let graph = b.build();
    if symmetrize {
        graph.symmetrized()
    } else {
        graph
    }
}

/// Writes `graph` to a temp store and reopens it memory-mapped.
fn mapped_copy(graph: &SimilarityGraph, name: &str) -> SimilarityGraph {
    let path =
        std::env::temp_dir().join(format!("submod-differential-{}-{name}.csr", std::process::id()));
    graph.write_store(&path).expect("write store");
    let mapped = SimilarityGraph::open_store(&path).expect("open store");
    let _ = std::fs::remove_file(&path); // the live mapping keeps it readable
    assert!(mapped.is_mapped());
    mapped
}

/// The dataflow backends clone the graph into their closures, so a
/// mapped graph's `Clone` must alias, not copy, the store.
#[test]
fn mapped_clones_share_the_mapping() {
    let mapped = mapped_copy(&shaped_graph(60, 99, false, 0, false), "clones");
    let clone = mapped.clone();
    assert_eq!(
        mapped.csr_parts().1.as_ptr(),
        clone.csr_parts().1.as_ptr(),
        "clone must alias the same mmap"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round-trip property: build a random graph of any shape, write it,
    /// map it back, and compare the raw CSR arrays **bit for bit** —
    /// offsets, neighbor ids, and the exact f32 weight bits — plus every
    /// row through the accessors, the symmetry flag, and the heap bytes.
    #[test]
    fn store_roundtrip_preserves_adjacency_exactly(
        seed in 0u64..10_000,
        // One case in eight is the one-node graph.
        n in (0usize..72).prop_map(|x| x.saturating_sub(8).max(1)),
        directed in any::<bool>(),
        isolated in 0u64..4,
        symmetrize in any::<bool>(),
    ) {
        let graph = shaped_graph(n, seed, directed, isolated, symmetrize);
        let name = format!("roundtrip-{seed}-{n}-{directed}-{isolated}-{symmetrize}");
        let mapped = mapped_copy(&graph, &name);
        let (o1, n1, w1) = graph.csr_parts();
        let (o2, n2, w2) = mapped.csr_parts();
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(w1.len(), w2.len());
        for (a, b) in w1.iter().zip(w2.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "weight bits must round-trip");
        }
        for v in (0..n).map(NodeId::from_index) {
            prop_assert_eq!(graph.neighbors(v), mapped.neighbors(v));
            prop_assert_eq!(graph.weights(v), mapped.weights(v));
            prop_assert_eq!(graph.degree(v), mapped.degree(v));
        }
        prop_assert_eq!(mapped.is_symmetric(), graph.is_symmetric());
        prop_assert_eq!(mapped.heap_bytes(), 0);
        prop_assert_eq!(mapped.memory_bytes(), graph.memory_bytes());
    }
}
