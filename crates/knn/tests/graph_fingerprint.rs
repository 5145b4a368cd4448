//! Golden fingerprints of the k-NN build, recorded on the commit
//! **before** the tile-kernel rewrite and required of every commit
//! since: an FNV-1a over the CSR arrays of the Exact and IVF (`auto`
//! parameters) graphs, and over the k-means model (centroid bits,
//! assignments, inertia bits, `iterations_run`), on two seeded inputs —
//! 5 000 × 64-d (whole 8-lane chunks) and 3 000 × 33-d (a one-element
//! tail lane). A kernel, scheduler or graph-assembly change that moves a
//! single bit of any graph fails here, at any `EXEC_NUM_THREADS` and
//! under `SUBMOD_KERNELS=scalar`.

use submod_core::SimilarityGraph;
use submod_knn::{build_knn_graph, kmeans, Embeddings, IvfIndex, KMeansModel, KnnBackend};
use submod_obs::format::{splitmix64, Fnv1a64};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    splitmix64(*state)
}

fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32
}

/// A seeded mixture: `clusters` uniform centers in `[-1, 1]^dim`, each
/// point a center plus uniform noise of ±1 — enough structure that IVF
/// cells differ in size and enough noise that true neighbors cross cells,
/// so the IVF graph differs from the exact one and pins the probing.
fn mixture(n: usize, dim: usize, clusters: usize, seed: u64) -> Embeddings {
    let mut s = seed;
    let centers: Vec<f32> = (0..clusters * dim).map(|_| unit(&mut s) * 2.0 - 1.0).collect();
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let c = splitmix(&mut s) as usize % clusters;
        for d in 0..dim {
            flat.push(centers[c * dim + d] + (unit(&mut s) - 0.5) * 2.0);
        }
    }
    Embeddings::from_flat(dim, flat).expect("finite mixture")
}

fn graph_hash(graph: &SimilarityGraph) -> u64 {
    let (offsets, neighbors, weights) = graph.csr_parts();
    let mut h = Fnv1a64::new();
    offsets.iter().for_each(|o| h.update(&o.to_le_bytes()));
    neighbors.iter().for_each(|n| h.update(&n.to_le_bytes()));
    weights.iter().for_each(|w| h.update(&w.to_bits().to_le_bytes()));
    h.finish()
}

fn model_hash(model: &KMeansModel) -> u64 {
    let mut h = Fnv1a64::new();
    model.centroids().as_flat().iter().for_each(|c| h.update(&c.to_bits().to_le_bytes()));
    model.assignments().iter().for_each(|a| h.update(&a.to_le_bytes()));
    h.update(&model.inertia().to_bits().to_le_bytes());
    h.update(&(model.iterations_run() as u64).to_le_bytes());
    h.finish()
}

struct Golden {
    exact: u64,
    ivf: u64,
    kmeans: u64,
}

fn check(n: usize, dim: usize, seed: u64, golden: &Golden) {
    let data = mixture(n, dim, 24, seed);
    let auto = KnnBackend::auto(n);
    assert!(matches!(auto, KnnBackend::Ivf { .. }), "{n} points must be above the crossover");
    let got = Golden {
        exact: graph_hash(&build_knn_graph(&data, 10, &KnnBackend::Exact, seed).unwrap()),
        ivf: graph_hash(&build_knn_graph(&data, 10, &auto, seed).unwrap()),
        kmeans: model_hash(&kmeans(&data, IvfIndex::default_nlist(n), 25, seed).unwrap()),
    };
    let line = |g: &Golden| {
        format!("exact: {:#018x}, ivf: {:#018x}, kmeans: {:#018x}", g.exact, g.ivf, g.kmeans)
    };
    assert_eq!(line(&got), line(golden), "{n} x {dim}-d fingerprints moved");
}

#[test]
fn fingerprints_5000_by_64() {
    check(
        5_000,
        64,
        11,
        &Golden { exact: 0x451725c3c779d165, ivf: 0x09a19d53c52db216, kmeans: 0x088012c0b9778d84 },
    );
}

#[test]
fn fingerprints_3000_by_33_tail_lanes() {
    check(
        3_000,
        33,
        12,
        &Golden { exact: 0x9439294d0e31adfb, ivf: 0xcda7adfa751a9830, kmeans: 0x6e107b0e299b0fd3 },
    );
}
