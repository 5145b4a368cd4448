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
//! - [`build_knn_graph`] — directed top-k search + symmetrization into a
//!   [`submod_core::SimilarityGraph`], with edge weights set to cosine
//!   similarity clamped to `[0, 1]` (the objective requires non-negative
//!   similarities, §3).
//!
//! All distance arithmetic dispatches through `submod_kernels` (AVX2 /
//! scalar, selected at runtime, `SUBMOD_KERNELS=scalar` to force
//! the fallback).
//!
//! # The tiled graph build
//!
//! Every backend answers [`NearestNeighbors::search_batch_excluding`],
//! and a single search is a batch of one, so batched and one-query
//! results cannot differ. [`build_knn_graph`] issues query *blocks*
//! across the `submod_exec` pool and scatters the results back to id
//! order. For IVF the blocks are points that share a home cell, so the
//! self-join is about `nlist` items of cache-resident dense work: the
//! index ranks the centroids for a whole block in one tiled pass, groups
//! the queries by probed cell, and scores each (query group × cell rows)
//! as tiles straight off the original matrix, rows addressed by id with
//! no packed per-cell copy. A query whose probed cells hold fewer than
//! `k` candidates leaves the batch for the one-query widening loop.
//!
//! k-means runs on the same kernels: the Lloyd assignment scores blocks
//! of points against the centroid matrix on the `l2` tile, k-means++
//! seeding updates its distance array in parallel blocks (the `f64` total
//! and the draw stay sequential), and the centroid update sums each
//! cluster's members in ascending point order. Centroids, assignments,
//! [`KMeansModel::inertia`] bits and [`KMeansModel::iterations_run`] are
//! therefore identical at any thread count.
//!
//! [`Embeddings`] share their buffers (a clone is two reference-count
//! bumps, so an index reads the caller's bytes). The directed CSR is
//! emitted from the per-node lists without a global sort, and
//! `symmetrized()` is a linear transpose, built one stripe of target
//! nodes at a time, plus a per-row merge. `tests/graph_fingerprint.rs`
//! pins FNV-1a hashes of the exact and IVF graphs and of the k-means
//! model, so any kernel, search or assembly change must keep every
//! graph, and with it every selection, bit for bit.
//!
//! [`KnnBackend::auto`] picks exact search up to
//! [`AUTO_EXACT_MAX_POINTS`] and IVF above; `cargo run --release -p
//! submod-bench --bin knn-crossover` re-profiles that switch. Moving the
//! constant changes which graph a mid-sized instance gets, so it moves
//! only together with the pinned selections.
//!
//! # Example
//!
//! ```
//! use submod_knn::{build_knn_graph, Embeddings, KnnBackend};
//!
//! # fn main() -> Result<(), submod_knn::KnnError> {
//! // Four points in 2-D: two tight pairs.
//! let embeddings = Embeddings::from_flat(2, vec![1.0, 0.0, 0.99, 0.01, 0.0, 1.0, 0.01, 0.99])?;
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
mod distance;
mod embeddings;
mod error;
mod ivf;
mod kmeans;

pub use brute::ExactKnn;
pub use builder::{build_knn_graph, KnnBackend, AUTO_EXACT_MAX_POINTS};
pub use distance::{cosine_similarity, dot, l2_distance_squared, norm};
pub use embeddings::Embeddings;
pub use error::KnnError;
pub use ivf::IvfIndex;
pub use kmeans::{kmeans, KMeansModel};

/// A scored neighbor: `(point index, cosine similarity)`.
pub type Neighbor = (u32, f32);

/// Common interface over the exact and approximate search backends.
///
/// [`Self::search_batch_excluding`] is the one method a backend writes;
/// the other three call it with a batch of one query, or with every
/// exclude set to `u32::MAX`, so a single search and a batched one cannot
/// drift apart. Results are ordered by decreasing similarity, ties toward
/// the smaller id.
pub trait NearestNeighbors {
    /// Searches a whole block of queries at once: up to `k` most-similar
    /// points per query, one list per query in input order, skipping
    /// `excludes[i]` in query `i`'s list (`u32::MAX` for none).
    ///
    /// The exact scan streams the row matrix once per query block; IVF
    /// scores each (query group × probed cell) as dense tiles. Batching
    /// is a throughput contract, never a semantic one: each list is
    /// exactly what a batch of that one query returns.
    ///
    /// # Panics
    ///
    /// Panics if `excludes.len() != queries.len()`.
    fn search_batch_excluding(
        &self,
        queries: &[&[f32]],
        k: usize,
        excludes: &[u32],
    ) -> Vec<Vec<Neighbor>>;

    /// Up to `k` most-similar points to `query`. An indexed point equal
    /// to the query is kept; [`Self::search_excluding`] drops it.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_excluding(query, k, u32::MAX)
    }

    /// Like [`Self::search`], but skips the point `exclude` (used when
    /// querying with an indexed point).
    fn search_excluding(&self, query: &[f32], k: usize, exclude: u32) -> Vec<Neighbor> {
        self.search_batch_excluding(&[query], k, &[exclude]).pop().unwrap_or_default()
    }

    /// [`Self::search_batch_excluding`] with nothing excluded.
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        self.search_batch_excluding(queries, k, &vec![u32::MAX; queries.len()])
    }
}
