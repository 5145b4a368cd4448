//! k-nearest-neighbor graph construction for subset selection.
//!
//! The paper (§6) builds a 10-NN cosine-similarity graph over model
//! embeddings with ScaNN, symmetrizes it, and feeds it to the pairwise
//! submodular objective. This crate is the reproduction's ANN substrate:
//!
//! - [`Embeddings`] — a dense row-major `n × d` matrix of `f32` vectors.
//! - [`ExactKnn`] — brute-force exact search (the small-dataset reference).
//! - [`IvfIndex`] — an inverted-file index over a k-means coarse quantizer
//!   (the same coarse-quantization family ScaNN belongs to).
//! - [`LshIndex`] — random-hyperplane locality-sensitive hashing.
//! - [`build_knn_graph`] — directed top-k search + symmetrization into a
//!   [`submod_core::SimilarityGraph`], with edge weights set to cosine
//!   similarity clamped to `[0, 1]` (the objective requires non-negative
//!   similarities, §3).
//! - [`cache`] — a binary disk cache so experiment sweeps build each graph
//!   once.
//!
//! All distance arithmetic dispatches through `submod_kernels` (AVX2 /
//! scalar, selected at runtime, `SUBMOD_KERNELS=scalar` to force
//! the fallback); the graph build issues query *blocks* across the
//! `submod_exec` pool — for IVF, blocks of points that share a home
//! cell, scored cell by cell as dense tiles — and every backend's
//! batched search is bitwise-identical to its one-query-at-a-time scan.
//!
//! # Example
//!
//! ```
//! use submod_knn::{build_knn_graph, Embeddings, KnnBackend};
//!
//! # fn main() -> Result<(), submod_knn::KnnError> {
//! // Four points in 2-D: two tight pairs.
//! let embeddings = Embeddings::from_rows(2, &[
//!     &[1.0, 0.0], &[0.99, 0.01], &[0.0, 1.0], &[0.01, 0.99],
//! ])?;
//! let graph = build_knn_graph(&embeddings, 1, &KnnBackend::Exact, 0)?;
//! assert_eq!(graph.num_nodes(), 4);
//! assert!(graph.is_symmetric());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod builder;
pub mod cache;
mod distance;
mod embeddings;
mod error;
mod ivf;
mod kmeans;
mod lsh;

pub use brute::ExactKnn;
pub use builder::{build_knn_graph, build_knn_graph_store, KnnBackend, AUTO_EXACT_MAX_POINTS};
pub use distance::{cosine_similarity, dot, l2_distance_squared, norm};
pub use embeddings::Embeddings;
pub use error::KnnError;
pub use ivf::IvfIndex;
pub use kmeans::{kmeans, KMeansModel};
pub use lsh::LshIndex;

/// A scored neighbor: `(point index, cosine similarity)`.
pub type Neighbor = (u32, f32);

/// Common interface over the exact and approximate search backends.
pub trait NearestNeighbors {
    /// Returns up to `k` most-similar points to `query` (excluding the
    /// query itself when it is part of the indexed data), ordered by
    /// decreasing similarity.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Like [`Self::search`], but excludes `exclude` from the results
    /// (used when querying with an indexed point).
    fn search_excluding(&self, query: &[f32], k: usize, exclude: u32) -> Vec<Neighbor> {
        self.search(query, k + 1).into_iter().filter(|&(id, _)| id != exclude).take(k).collect()
    }

    /// Searches a whole block of queries at once, returning one result
    /// list per query in input order.
    ///
    /// Backends with a batched kernel override this — the exact scan
    /// streams the row matrix once per query block, IVF scores each
    /// (query group × probed cell) as dense tiles; the default simply
    /// loops. Results are **always** identical to per-query
    /// [`Self::search`] calls — batching is a throughput contract, never
    /// a semantic one.
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }

    /// Batched [`Self::search_excluding`]: `excludes[i]` is skipped in
    /// query `i`'s results (`u32::MAX` for none).
    ///
    /// # Panics
    ///
    /// Panics if `excludes.len() != queries.len()`.
    fn search_batch_excluding(
        &self,
        queries: &[&[f32]],
        k: usize,
        excludes: &[u32],
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.len(), excludes.len(), "one exclude per query");
        queries.iter().zip(excludes).map(|(q, &e)| self.search_excluding(q, k, e)).collect()
    }
}
