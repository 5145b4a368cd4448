use crate::{Embeddings, ExactKnn, IvfIndex, KnnError, NearestNeighbors, Neighbor};
use submod_core::SimilarityGraph;

/// Queries per graph-build work item of the exact backend, which has no
/// notion of locality. Each block is one `submod_exec::parallel_map`
/// item and one `search_batch_excluding` call, so the backend's batch
/// kernel streams the row matrix once per block; 64 queries keeps tens
/// of items even at the 2 k-point exact crossover while amortizing the
/// per-item overhead. The IVF build blocks by home cell
/// instead ([`IvfIndex::home_cell_blocks`]).
const QUERY_BLOCK: usize = 64;

/// Which search backend builds the k-NN graph.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum KnnBackend {
    /// Exact brute force — O(n²·d) build, the reference.
    Exact,
    /// Inverted-file index (k-means coarse quantizer + probing).
    Ivf {
        /// Number of k-means cells (0 = `√n` default).
        nlist: usize,
        /// Cells probed per query.
        nprobe: usize,
    },
}

/// The largest dataset `KnnBackend::auto` still builds with the exact
/// backend. Profiled, not guessed: `cargo run --release -p submod-bench
/// --bin knn-crossover` measures exact vs IVF (at `auto`'s own
/// parameters, `nlist = √n`, `nprobe = 8`) build times over a geometric
/// size ladder. On the reference runner IVF breaks even between 1 000
/// and 2 000 points, is 1.2–1.5× faster from 2 000 to 8 000 and ≥ 3×
/// from 16 000 up (the O(n²·d) brute-force gap) — re-profiled after the
/// tile-kernel build made both backends 1.6–2× faster, which left the
/// break-even where it was (table in the README). The crossover sits at
/// the last size where exact's reference-grade graph costs at most a few
/// milliseconds extra.
pub const AUTO_EXACT_MAX_POINTS: usize = 2_000;

impl KnnBackend {
    /// The default backend for a dataset of size `n`: exact up to
    /// [`AUTO_EXACT_MAX_POINTS`] (reference-grade graph, affordable
    /// build), IVF above (profiled faster there, with the gap widening
    /// quadratically).
    pub fn auto(n: usize) -> Self {
        if n <= AUTO_EXACT_MAX_POINTS {
            KnnBackend::Exact
        } else {
            KnnBackend::Ivf { nlist: IvfIndex::default_nlist(n), nprobe: 8 }
        }
    }
}

/// Builds the symmetrized k-nearest-neighbor similarity graph of the paper
/// (§6): directed top-`k` cosine neighbors per point, symmetrized so every
/// point has *at least* `k` neighbors, with edge weights `max(cos, 0)`.
///
/// Cosine similarities are clamped to non-negative values because the
/// pairwise objective requires `s(v, w) ≥ 0` for submodularity (§3);
/// non-positive-similarity edges are dropped entirely.
///
/// # Errors
///
/// Returns an error if `k == 0`, the embeddings are empty, or the backend
/// parameters are invalid.
///
/// ```
/// use submod_knn::{build_knn_graph, Embeddings, KnnBackend};
///
/// # fn main() -> Result<(), submod_knn::KnnError> {
/// let data = Embeddings::from_flat(2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0])?;
/// let graph = build_knn_graph(&data, 1, &KnnBackend::Exact, 0)?;
/// assert!(graph.is_symmetric());
/// assert!(graph.min_degree() >= 1);
/// # Ok(())
/// # }
/// ```
pub fn build_knn_graph(
    embeddings: &Embeddings,
    k: usize,
    backend: &KnnBackend,
    seed: u64,
) -> Result<SimilarityGraph, KnnError> {
    if k == 0 {
        return Err(KnnError::EmptyParameter { name: "k" });
    }
    let n = embeddings.len();
    if n == 0 {
        return Err(KnnError::EmptyParameter { name: "embeddings" });
    }
    let _span = submod_obs::span("knn.build");
    submod_obs::counter!("knn.build.points").add(n as u64);

    // Indexes share the caller's buffers (`Embeddings::clone` bumps two
    // reference counts), so nothing below copies the matrix.
    let neighbor_lists = match backend {
        KnnBackend::Exact => {
            let index = ExactKnn::build(embeddings.clone())?;
            search_all(&index, embeddings, k, id_order_blocks(n))
        }
        KnnBackend::Ivf { nlist, nprobe } => {
            let nlist = if *nlist == 0 { IvfIndex::default_nlist(n) } else { *nlist };
            let index = IvfIndex::build(embeddings.clone(), nlist.min(n), *nprobe, seed)?;
            search_all(&index, embeddings, k, index.home_cell_blocks())
        }
    };

    // The directed CSR straight from the per-node lists: rows are emitted
    // in node order and each is sorted on its own (≤ k entries), so no
    // global edge sort is needed. `from_csr_parts` validates what the
    // edge-stream builder used to (ids in range and distinct per row, no
    // self-loop, finite non-negative weights).
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<u32> = Vec::with_capacity(n * k);
    let mut weights: Vec<f32> = Vec::with_capacity(n * k);
    offsets.push(0);
    for mut list in neighbor_lists {
        list.sort_unstable_by_key(|&(w, _)| w);
        for (w, sim) in list {
            if sim > 0.0 {
                neighbors.push(w);
                weights.push(sim.min(1.0));
            }
        }
        offsets.push(neighbors.len() as u64);
    }
    Ok(SimilarityGraph::from_csr_parts(offsets, neighbors, weights)?.symmetrized())
}

/// Every point once, in ascending [`QUERY_BLOCK`]-sized runs of ids.
fn id_order_blocks(n: usize) -> Vec<Vec<u32>> {
    let ids: Vec<u32> = (0..n as u32).collect();
    ids.chunks(QUERY_BLOCK).map(<[u32]>::to_vec).collect()
}

/// Searches every point's neighbors, one `search_batch_excluding` call
/// per block of point ids (`blocks` must hold every point exactly once):
/// parallel over blocks on the `submod_exec` pool, each block's results
/// scattered back to its points' slots, so the output is in id order and
/// identical at any thread count.
fn search_all<I: NearestNeighbors + Sync>(
    index: &I,
    embeddings: &Embeddings,
    k: usize,
    blocks: Vec<Vec<u32>>,
) -> Vec<Vec<Neighbor>> {
    let searched = submod_exec::parallel_map(blocks, |block| {
        let _span = submod_obs::span("knn.search_block");
        submod_obs::counter!("knn.search.blocks").incr();
        submod_obs::counter!("knn.search.queries").add(block.len() as u64);
        let queries: Vec<&[f32]> = block.iter().map(|&v| embeddings.row(v as usize)).collect();
        let hits = index.search_batch_excluding(&queries, k, &block);
        (block, hits)
    });
    let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); embeddings.len()];
    for (block, hits) in searched {
        for (v, hits) in block.into_iter().zip(hits) {
            lists[v as usize] = hits;
        }
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use submod_core::NodeId;

    fn gaussian_mixture(n: usize, dim: usize, clusters: usize, seed: u64) -> Embeddings {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0f32)).collect())
            .collect();
        let mut flat = Vec::new();
        for i in 0..n {
            let c = &centers[i % clusters];
            for &x in c {
                flat.push(x + rng.gen_range(-0.3f32..0.3));
            }
        }
        Embeddings::from_flat(dim, flat).unwrap()
    }

    #[test]
    fn exact_graph_has_min_degree_k() {
        let data = gaussian_mixture(200, 8, 5, 1);
        let graph = build_knn_graph(&data, 10, &KnnBackend::Exact, 0).unwrap();
        assert_eq!(graph.num_nodes(), 200);
        assert!(graph.is_symmetric());
        // Symmetrization can only add edges: every node keeps ≥ k
        // (a handful may dip below k if some similarities were ≤ 0).
        assert!(graph.min_degree() >= 9, "min degree {}", graph.min_degree());
        // The paper reports ~15/16 average neighbors after symmetrizing 10-NN.
        let avg = graph.avg_degree();
        assert!((10.0..=20.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn weights_are_valid_cosines() {
        let data = gaussian_mixture(100, 4, 3, 2);
        let graph = build_knn_graph(&data, 5, &KnnBackend::Exact, 0).unwrap();
        let (_, _, weights) = graph.csr_parts();
        for &w in weights {
            assert!(w > 0.0 && w <= 1.0, "weight {w} out of (0, 1]");
        }
    }

    #[test]
    fn ivf_graph_close_to_exact() {
        let data = gaussian_mixture(400, 8, 8, 3);
        let exact = build_knn_graph(&data, 5, &KnnBackend::Exact, 0).unwrap();
        let ivf = build_knn_graph(&data, 5, &KnnBackend::Ivf { nlist: 8, nprobe: 3 }, 3).unwrap();
        // Count directed-edge overlap.
        let mut shared = 0usize;
        let mut total = 0usize;
        for v in 0..400u64 {
            let ev: Vec<_> = exact.neighbors(NodeId::new(v)).to_vec();
            for w in ivf.neighbors(NodeId::new(v)) {
                total += 1;
                shared += usize::from(ev.contains(w));
            }
        }
        let overlap = shared as f64 / total as f64;
        assert!(overlap > 0.85, "IVF edge overlap {overlap} too low");
    }

    /// Pins the profiled Exact→IVF decision boundary: exactly at
    /// [`AUTO_EXACT_MAX_POINTS`] the build stays exact, one point above
    /// it switches to IVF with `auto`'s profiled parameters.
    #[test]
    fn auto_backend_picks_by_size() {
        assert_eq!(KnnBackend::auto(100), KnnBackend::Exact);
        assert_eq!(KnnBackend::auto(AUTO_EXACT_MAX_POINTS), KnnBackend::Exact);
        let above = KnnBackend::auto(AUTO_EXACT_MAX_POINTS + 1);
        assert_eq!(
            above,
            KnnBackend::Ivf {
                nlist: IvfIndex::default_nlist(AUTO_EXACT_MAX_POINTS + 1),
                nprobe: 8
            }
        );
        assert!(matches!(KnnBackend::auto(100_000), KnnBackend::Ivf { .. }));
    }

    #[test]
    fn rejects_bad_arguments() {
        let data = gaussian_mixture(10, 4, 2, 5);
        assert!(build_knn_graph(&data, 0, &KnnBackend::Exact, 0).is_err());
        let empty = Embeddings::from_flat(4, vec![]).unwrap();
        assert!(build_knn_graph(&empty, 3, &KnnBackend::Exact, 0).is_err());
    }
}
