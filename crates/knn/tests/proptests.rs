//! Property-based tests for the k-NN layer: exact search against a naive
//! reference, backend sanity, and graph-construction invariants.

use proptest::prelude::*;
use submod_knn::{
    build_knn_graph, cosine_similarity, kmeans, Embeddings, ExactKnn, IvfIndex, KnnBackend,
    NearestNeighbors, Neighbor,
};

fn arb_embeddings(max_n: usize, dim: usize) -> impl Strategy<Value = Embeddings> {
    (2usize..=max_n)
        .prop_flat_map(move |n| proptest::collection::vec(-1.0f32..1.0, n * dim))
        .prop_map(move |flat| Embeddings::from_flat(dim, flat).expect("embeddings"))
}

/// Naive top-k by full sort — the reference for the heap-based search.
fn naive_top_k(data: &Embeddings, query: &[f32], k: usize, exclude: u32) -> Vec<u32> {
    let mut scored: Vec<(f32, u32)> = (0..data.len())
        .filter(|&i| i as u32 != exclude)
        .map(|i| (cosine_similarity(data.row(i), query), i as u32))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, i)| i).collect()
}

/// Ids and similarity bits of a result list — what "bit for bit" compares.
fn bits(hits: &[Neighbor]) -> Vec<(u32, u32)> {
    hits.iter().map(|&(id, sim)| (id, sim.to_bits())).collect()
}

/// The IVF batch contract on one block of indexed points: the
/// cell-blocked `search_batch_excluding` (and `search_batch`) must return,
/// per query, exactly what one `search_excluding` (`search`) call does —
/// same ids, same order, same similarity bits. The one-query calls are
/// the same batch path on a block of one, so this pins that a result does
/// not depend on the block it rides in; the independent reference (the
/// private gather-kernel widening loop) is `ivf.rs`'s
/// `batch_equals_the_widening_loop`.
fn assert_ivf_batch_equals_loop(index: &IvfIndex, block: &[u32], k: usize) {
    let data = index.embeddings();
    let queries: Vec<&[f32]> = block.iter().map(|&v| data.row(v as usize)).collect();
    let excluding = index.search_batch_excluding(&queries, k, block);
    let plain = index.search_batch(&queries, k);
    assert_eq!((excluding.len(), plain.len()), (block.len(), block.len()));
    for (slot, (&v, q)) in block.iter().zip(&queries).enumerate() {
        assert_eq!(
            bits(&excluding[slot]),
            bits(&index.search_excluding(q, k, v)),
            "point {v} at block slot {slot}, excluding itself"
        );
        assert_eq!(bits(&plain[slot]), bits(&index.search(q, k)), "point {v} at block slot {slot}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The cell-blocked IVF batch path equals batches of one for
    /// random blocks with duplicate queries, for the home-cell blocks the
    /// graph build issues, with `nprobe` below, at and above `nlist`, and
    /// with `k` from 1 to far more than the probed cells hold (which
    /// sends queries through the widening fallback mid-batch).
    #[test]
    fn ivf_batch_equals_one_query_loop(
        data in arb_embeddings(120, 5),
        nlist in 1usize..10,
        nprobe in 1usize..12,
        k in 1usize..40,
        picks in proptest::collection::vec(0usize..120, 1..50),
        seed in 0u64..64,
    ) {
        let nlist = nlist.min(data.len());
        let index = IvfIndex::build(data.clone(), nlist, nprobe, seed).unwrap();

        // A random block: arbitrary order, repeated queries.
        let random: Vec<u32> = picks.iter().map(|&p| (p % data.len()) as u32).collect();
        assert_ivf_batch_equals_loop(&index, &random, k);

        // The build's blocks: the index's quantizer is this very k-means
        // (same data, cell count, iteration cap and seed), so grouping by
        // its assignments reproduces the home cells.
        let model = kmeans(&data, nlist, 25, seed).unwrap();
        for cell in 0..nlist as u32 {
            let home: Vec<u32> = (0..data.len() as u32)
                .filter(|&v| model.assignments()[v as usize] == cell)
                .collect();
            assert_ivf_batch_equals_loop(&index, &home, k);
        }
    }

    /// The graph build is the same graph, array for array, at 1, 2 and 8
    /// pool threads, for every backend (the IVF build includes its
    /// parallel k-means seeding, assignment and centroid update).
    #[test]
    fn build_is_identical_at_any_thread_count(
        data in arb_embeddings(90, 6),
        k in 1usize..8,
        backend_pick in 0u8..2,
        seed in 0u64..64,
    ) {
        let backend = match backend_pick {
            0 => KnnBackend::Exact,
            _ => KnnBackend::Ivf { nlist: 6.min(data.len()), nprobe: 2 },
        };
        let build = |threads: usize| {
            submod_exec::with_threads(threads, || build_knn_graph(&data, k, &backend, seed).unwrap())
        };
        let reference = build(1);
        for threads in [2, 8] {
            let graph = build(threads);
            prop_assert_eq!(graph.csr_parts(), reference.csr_parts(), "{} threads", threads);
        }
    }

    /// The heap-based exact search returns exactly the naive reference,
    /// one query at a time and as one batch of every point.
    #[test]
    fn exact_search_matches_naive(data in arb_embeddings(40, 4), k in 1usize..10) {
        let index = ExactKnn::build(data.clone()).unwrap();
        let ids = |hits: Vec<Neighbor>| -> Vec<u32> { hits.into_iter().map(|(i, _)| i).collect() };
        for q in 0..data.len().min(5) {
            let ours = ids(index.search_excluding(data.row(q), k, q as u32));
            let reference = naive_top_k(&data, data.row(q), k, q as u32);
            prop_assert_eq!(&ours, &reference, "query {}", q);
        }
        let queries: Vec<&[f32]> = (0..data.len()).map(|q| data.row(q)).collect();
        let excludes: Vec<u32> = (0..data.len() as u32).collect();
        for (q, hits) in index.search_batch_excluding(&queries, k, &excludes).into_iter().enumerate() {
            let reference = naive_top_k(&data, data.row(q), k, q as u32);
            prop_assert_eq!(&ids(hits), &reference, "batched query {}", q);
        }
    }

    /// Built graphs are always symmetric with valid weights, regardless of
    /// the backend.
    #[test]
    fn graphs_are_symmetric_with_valid_weights(
        data in arb_embeddings(60, 4),
        k in 1usize..6,
        backend_pick in 0u8..2,
    ) {
        let backend = match backend_pick {
            0 => KnnBackend::Exact,
            _ => KnnBackend::Ivf { nlist: 4, nprobe: 2 },
        };
        prop_assume!(data.len() > k);
        let graph = build_knn_graph(&data, k, &backend, 7).unwrap();
        prop_assert_eq!(graph.num_nodes(), data.len());
        prop_assert!(graph.is_symmetric());
        let (_, _, weights) = graph.csr_parts();
        for &w in weights {
            prop_assert!(w > 0.0 && w <= 1.0, "weight {}", w);
        }
    }

    /// Search results are sorted by similarity and never contain the
    /// excluded point or duplicates.
    #[test]
    fn search_results_are_sorted_and_unique(data in arb_embeddings(50, 4), k in 1usize..12) {
        let index = ExactKnn::build(data.clone()).unwrap();
        let hits = index.search_excluding(data.row(0), k, 0);
        for pair in hits.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1);
        }
        let mut ids: Vec<u32> = hits.iter().map(|&(i, _)| i).collect();
        prop_assert!(!ids.contains(&0));
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before);
    }

    /// Cosine similarity is symmetric, bounded, and 1 on self (non-zero).
    #[test]
    fn cosine_properties(
        a in proptest::collection::vec(-10.0f32..10.0, 6),
        b in proptest::collection::vec(-10.0f32..10.0, 6),
    ) {
        let ab = cosine_similarity(&a, &b);
        let ba = cosine_similarity(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((-1.0..=1.0).contains(&ab));
        let norm_a: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assume!(norm_a > 0.1);
        prop_assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-5);
    }
}

/// Pins the batched-search contract on exactly what `KnnBackend::auto`
/// builds: below the crossover (exact) and above it (IVF), a
/// `search_batch` / `search_batch_excluding` call must return the same
/// ids **and the same similarity bits** as one-query-at-a-time calls.
/// Those calls are the batch path on a block of one, so this checks
/// independence from the block, not the ranking itself; the rankings'
/// references are `exact_search_matches_naive` and `ivf.rs`'s
/// `batch_equals_the_widening_loop`.
#[test]
fn auto_backend_batch_equals_single_query_searches() {
    use submod_knn::{IvfIndex, KnnBackend, AUTO_EXACT_MAX_POINTS};

    fn embeddings(n: usize, dim: usize, seed: u64) -> Embeddings {
        let mut s = seed;
        let flat: Vec<f32> = (0..n * dim)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Embeddings::from_flat(dim, flat).unwrap()
    }

    fn check(index: &dyn NearestNeighbors, data: &Embeddings, k: usize) {
        let probe = data.len().min(60);
        let queries: Vec<&[f32]> = (0..probe).map(|v| data.row(v)).collect();
        let excludes: Vec<u32> = (0..probe as u32).collect();
        let batched = index.search_batch(&queries, k);
        let batched_ex = index.search_batch_excluding(&queries, k, &excludes);
        for (v, q) in queries.iter().enumerate() {
            let single = index.search(q, k);
            let single_ex = index.search_excluding(q, k, v as u32);
            assert_eq!(batched[v].len(), single.len(), "query {v}");
            for (got, want) in batched[v].iter().zip(&single) {
                assert_eq!(got.0, want.0, "query {v}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "query {v}");
            }
            assert_eq!(batched_ex[v].len(), single_ex.len(), "query {v}");
            for (got, want) in batched_ex[v].iter().zip(&single_ex) {
                assert_eq!(got.0, want.0, "query {v}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "query {v}");
            }
        }
    }

    // Below the crossover `auto` is exact (the kernel batch path).
    let small = embeddings(500, 16, 7);
    assert_eq!(KnnBackend::auto(small.len()), KnnBackend::Exact);
    let exact = ExactKnn::build(small.clone()).unwrap();
    check(&exact, &small, 10);

    // Above it `auto` is IVF with nlist = √n, nprobe = 8.
    let big = embeddings(AUTO_EXACT_MAX_POINTS + 100, 8, 13);
    let KnnBackend::Ivf { nlist, nprobe } = KnnBackend::auto(big.len()) else {
        panic!("auto above the crossover must be IVF");
    };
    let ivf = IvfIndex::build(big.clone(), nlist, nprobe, 13).unwrap();
    check(&ivf, &big, 10);
}
