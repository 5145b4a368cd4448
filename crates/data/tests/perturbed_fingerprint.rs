//! Golden fingerprints of `PerturbedDataset::materialize`: an FNV-1a over
//! the CSR arrays and the utility bits of two materialized slices (factor
//! limits 2 and 7 of a factor-100 dataset) on two seeded bases — 300 ×
//! 64-d (whole 8-lane chunks) and 250 × 33-d (a one-element tail lane in
//! every sibling cosine). The values were recorded on the one-edge-list
//! construction that preceded the parallel CSR fill; a change to the
//! sibling ring, the per-index RNG, the kernels or the graph assembly that
//! moves a single bit fails here, at 1, 2 and 8 threads and under
//! `SUBMOD_KERNELS=scalar`.

use submod_core::SimilarityGraph;
use submod_data::{ClusteredDataset, PerturbedDataset, SelectionInstance};
use submod_knn::{build_knn_graph, KnnBackend};
use submod_obs::format::Fnv1a64;

/// Feeds one materialized slice's CSR arrays and utility bits to `h`.
fn hash_slice(h: &mut Fnv1a64, graph: &SimilarityGraph, utilities: &[f32]) {
    let (offsets, neighbors, weights) = graph.csr_parts();
    offsets.iter().for_each(|o| h.update(&o.to_le_bytes()));
    neighbors.iter().for_each(|n| h.update(&n.to_le_bytes()));
    weights.iter().for_each(|w| h.update(&w.to_bits().to_le_bytes()));
    utilities.iter().for_each(|u| h.update(&u.to_bits().to_le_bytes()));
}

/// A clustered base with its exact 10-NN graph and utilities spread over
/// `[0, 1)`.
fn base(classes: usize, points_per_class: usize, dim: usize, seed: u64) -> SelectionInstance {
    let data = ClusteredDataset::generate(classes, points_per_class, dim, 0.25, seed).unwrap();
    let graph = build_knn_graph(data.embeddings(), 10, &KnnBackend::Exact, seed).unwrap();
    let n = data.len();
    SelectionInstance {
        graph,
        utilities: (0..n).map(|i| (i * 37 % 101) as f32 / 101.0).collect(),
        embeddings: data.embeddings().clone(),
        labels: data.labels().to_vec(),
    }
}

fn fingerprint(base: &SelectionInstance, seed: u64) -> u64 {
    let perturbed = PerturbedDataset::new(base, 100, 0.05, seed).unwrap();
    let mut h = Fnv1a64::new();
    for factor_limit in [2, 7] {
        let (graph, utilities) = perturbed.materialize(factor_limit).unwrap();
        assert!(graph.is_symmetric());
        hash_slice(&mut h, &graph, &utilities);
    }
    h.finish()
}

fn check(base: &SelectionInstance, seed: u64, golden: u64) {
    for threads in [1, 2, 8] {
        let got = submod_exec::with_threads(threads, || fingerprint(base, seed));
        assert_eq!(
            format!("{got:#018x}"),
            format!("{golden:#018x}"),
            "{} x {}-d fingerprint moved at {threads} threads",
            base.len(),
            base.embeddings.dim()
        );
    }
}

#[test]
fn fingerprint_300_by_64() {
    check(&base(20, 15, 64, 21), 5, 0xa3c34f2500ec3d03);
}

#[test]
fn fingerprint_250_by_33_tail_lane() {
    check(&base(10, 25, 33, 22), 6, 0x3036cab5503c1991);
}
