//! Differential suite: the same instance selected over the **owned**
//! in-memory graph and over the **mmap-backed** on-disk store must produce
//! bitwise-identical results — ids, order, and objective value bits — for
//! every algorithm (bounding, multi-round greedy, GreeDi), both drivers
//! (in-memory and dataflow), at 1/2/8 pool threads.
//!
//! The CI matrix additionally runs this whole suite under
//! `SUBMOD_KERNELS=scalar`, so the contract holds under both kernel
//! dispatches.
//!
//! A round-trip property test (build → write → mmap → compare the raw CSR
//! arrays bit-for-bit) pins the storage layer itself, over every graph
//! shape the builders produce: undirected and directed edges, isolated
//! nodes, a single node, and `symmetrized()` output. The algorithm
//! differentials then pin everything stacked on top of it.

use proptest::prelude::*;
use submod_core::{GraphBuilder, NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::Pipeline;
use submod_dist::{
    bound_dataflow, bound_in_memory, distributed_greedy, distributed_greedy_dataflow, greedi,
    greedi_dataflow, BoundingConfig, DistGreedyConfig, PartitionStyle, SamplingStrategy,
};
use submod_exec::with_threads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A seeded 64-bit LCG stream.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// A deterministic pseudo-random instance (LCG-drawn weights).
fn instance(n: usize, seed: u64) -> (SimilarityGraph, PairwiseObjective) {
    let mut b = GraphBuilder::new(n);
    let mut next = lcg(seed);
    for v in 0..n as u64 {
        for _ in 0..3 {
            let w = next() % n as u64;
            if w != v {
                let s = 0.05 + (next() % 900) as f32 / 1000.0;
                b.add_undirected(v, w, s).expect("edge");
            }
        }
    }
    let graph = b.build();
    let utilities: Vec<f32> = (0..n).map(|_| 0.1 + (next() % 900) as f32 / 1000.0).collect();
    let objective = PairwiseObjective::from_alpha(0.85, utilities).expect("objective");
    (graph, objective)
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

fn ground(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::from_index).collect()
}

/// Selections as raw ids (order preserved) plus the objective value's
/// exact bits.
fn fingerprint(selection: &submod_core::Selection) -> (Vec<u64>, u64) {
    (selection.selected().iter().map(|v| v.raw()).collect(), selection.objective_value().to_bits())
}

/// Runs `f` against the owned and the mapped graph at every thread count
/// and demands one identical result.
fn differential<R: PartialEq + std::fmt::Debug>(
    what: &str,
    owned: &SimilarityGraph,
    mapped: &SimilarityGraph,
    f: impl Fn(&SimilarityGraph) -> R,
) {
    let reference = with_threads(THREAD_COUNTS[0], || f(owned));
    for &threads in &THREAD_COUNTS {
        let mem = with_threads(threads, || f(owned));
        let map = with_threads(threads, || f(mapped));
        assert_eq!(mem, reference, "{what}: owned drifted at {threads} threads");
        assert_eq!(map, reference, "{what}: mapped diverged at {threads} threads");
    }
}

#[test]
fn bounding_matches_over_the_store_both_drivers() {
    let (graph, objective) = instance(80, 29);
    let mapped = mapped_copy(&graph, "bounding");
    for config in [
        BoundingConfig::exact(),
        BoundingConfig::approximate(0.5, SamplingStrategy::Uniform, 3).expect("config"),
        BoundingConfig::approximate(0.4, SamplingStrategy::Weighted, 9).expect("config"),
    ] {
        differential("bounding", &graph, &mapped, |g| {
            let mem = bound_in_memory(g, &objective, 12, &config).expect("in-memory");
            let pipeline = Pipeline::new(3).expect("pipeline");
            let df = bound_dataflow(&pipeline, g, &objective, 12, &config).expect("dataflow");
            assert_eq!(mem, df, "drivers diverged");
            mem
        });
    }
}

#[test]
fn multiround_greedy_matches_over_the_store_both_drivers() {
    let (graph, objective) = instance(120, 7);
    let mapped = mapped_copy(&graph, "multiround");
    differential("multi-round greedy", &graph, &mapped, |g| {
        let config = DistGreedyConfig::new(6, 4).expect("config").seed(11).adaptive(true);
        let report = distributed_greedy(g, &objective, &ground(120), 18, &config).expect("run");
        let pipeline = Pipeline::new(4).expect("pipeline");
        let df = distributed_greedy_dataflow(&pipeline, g, &objective, &ground(120), 18, &config)
            .expect("dataflow");
        assert_eq!(fingerprint(&report.selection), fingerprint(&df.selection));
        assert_eq!(report.rounds, df.rounds);
        (fingerprint(&report.selection), report.rounds)
    });
}

#[test]
fn greedi_matches_over_the_store_both_drivers() {
    let (graph, objective) = instance(100, 13);
    let mapped = mapped_copy(&graph, "greedi");
    for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
        differential("GreeDi", &graph, &mapped, |g| {
            let report = greedi(g, &objective, 10, 4, style, 5).expect("run");
            let pipeline = Pipeline::new(3).expect("pipeline");
            let df = greedi_dataflow(&pipeline, g, &objective, 10, 4, style, 5).expect("dataflow");
            assert_eq!(fingerprint(&report.selection), fingerprint(&df.selection));
            assert_eq!(report.merge, df.merge);
            (fingerprint(&report.selection), report.merge.union_size)
        });
    }
}

/// The GreeDi shards of a mapped graph are induced subgraphs of one
/// shared mapping — `Clone` must alias, not copy, the store.
#[test]
fn mapped_clones_share_the_mapping() {
    let (graph, _) = instance(60, 99);
    let mapped = mapped_copy(&graph, "clones");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random instances: a full selection over the mapped store equals
    /// the owned one, ids and value bits, on arbitrary configurations.
    #[test]
    fn random_selections_match_over_the_store(
        seed in 0u64..500,
        machines in 1usize..6,
        rounds in 1usize..4,
        k in 4usize..16,
    ) {
        let (graph, objective) = instance(60, seed);
        let mapped = mapped_copy(&graph, &format!("random-{seed}"));
        let config = DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        let mem = distributed_greedy(&graph, &objective, &ground(60), k, &config).expect("owned");
        let map = distributed_greedy(&mapped, &objective, &ground(60), k, &config).expect("mapped");
        prop_assert_eq!(fingerprint(&mem.selection), fingerprint(&map.selection));
        prop_assert_eq!(mem.rounds, map.rounds);
    }
}
