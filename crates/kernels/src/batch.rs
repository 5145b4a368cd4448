//! Batch drivers over the per-backend tile micro-kernel.
//!
//! One skeleton serves every driver: queries advance in blocks of
//! [`Q_BLOCK`], and [`for_each_tile`] walks a block over the rows in
//! tiles of 4 — for each row tile the backend's Q×4 micro-kernel scores
//! the whole query block, so a tile's row data is loaded from memory
//! once and reused `Q_BLOCK` times from cache: the row matrix streams
//! once per query *block* instead of once per query. A short last tile repeats its final row (the repeats are
//! scored and dropped), so there is no second, one-row code path. Every
//! tile result is bitwise the single-pair kernel's, and [`TopK`]'s kept
//! set does not depend on offer order, so each driver returns exactly
//! what a one-query, one-row-at-a-time scan would.

use crate::topk::TopK;
use crate::{kernels, Scored, TileFn};

/// Queries per block: large enough to amortize streaming the row matrix,
/// small enough that a block of 2048-d queries still fits in L2.
const Q_BLOCK: usize = 16;

/// Scores one block of at most [`Q_BLOCK`] queries against rows
/// `0..n_rows` (`row_at(i)` yields row `i`), handing `sink` one call per
/// row tile: the tile's first row, how many of its four rows are live,
/// and one result quad per query.
fn for_each_tile<'r>(
    tile: TileFn,
    queries: &[&[f32]],
    n_rows: usize,
    row_at: impl Fn(usize) -> &'r [f32],
    mut sink: impl FnMut(usize, usize, &[[f32; 4]]),
) {
    let mut out = [[0.0f32; 4]; Q_BLOCK];
    let out = &mut out[..queries.len()];
    for first in (0..n_rows).step_by(4) {
        let live = (n_rows - first).min(4);
        let quad = std::array::from_fn(|j| row_at(first + j.min(live - 1)));
        tile(queries, quad, out);
        sink(first, live, out);
    }
}

/// Cosine similarities of one query against a row quad from the tile's
/// dot products: `dot / (row norm · query norm)`, and 0 for a zero-norm
/// pair (the convention every search path shares). Branch-free — the
/// zero-norm case masks the quotient instead of skipping the division —
/// so the four lanes compile to one vector multiply, divide and mask;
/// IEEE division is exact per lane, so the bits match the scalar form.
#[inline]
fn cosines(dots: [f32; 4], row_norms: [f32; 4], query_norm: f32) -> [f32; 4] {
    std::array::from_fn(|j| {
        let denom = row_norms[j] * query_norm;
        // All-ones unless the pair is zero-norm: masks the quotient to +0.
        let keep = u32::from(denom <= f32::MIN_POSITIVE).wrapping_sub(1);
        f32::from_bits((dots[j] / denom).to_bits() & keep)
    })
}

/// A block of queries accumulating their top-`k` rows by cosine
/// similarity, each query owning its [`TopK`].
///
/// The block is scored against row sets piecewise — [`Self::score_rows`]
/// takes any subset of the block's queries (a *group*) and any list of
/// row ids — which is what lets an inverted-file index score each
/// (queries probing a cell × the cell's rows) pair as one dense tile run
/// straight off the original matrix. Because a [`TopK`]'s kept set is
/// independent of offer order, the result per query equals a one-query
/// scan over the union of the rows it was scored against, provided no row
/// is offered to the same query twice.
pub struct TopKBlock<'a> {
    queries: &'a [&'a [f32]],
    excludes: &'a [u32],
    norms: Vec<f32>,
    heaps: Vec<TopK>,
}

impl<'a> TopKBlock<'a> {
    /// A block over `queries` (each of dimension `dim`), keeping `k` rows
    /// per query. `excludes` is either empty or one row id per query to
    /// skip (`u32::MAX` for none).
    ///
    /// # Panics
    ///
    /// Panics if a query's length is not `dim` or `excludes` is non-empty
    /// with the wrong length.
    pub fn new(queries: &'a [&'a [f32]], excludes: &'a [u32], dim: usize, k: usize) -> Self {
        assert!(queries.iter().all(|q| q.len() == dim), "query dimension mismatch");
        assert!(excludes.is_empty() || excludes.len() == queries.len(), "excludes length mismatch");
        let dot = kernels().dot;
        TopKBlock {
            queries,
            excludes,
            norms: queries.iter().map(|q| dot(q, q).sqrt()).collect(),
            heaps: vec![TopK::new(k); queries.len()],
        }
    }

    /// Scores the queries at block positions `group` against the rows
    /// `row_ids` of the `n × dim` matrix `data` (`row_norms[i] ==
    /// norm(row i)`), offering every non-excluded row to each query's
    /// tracker. Charges the `kernels.gather_top_k.*` counters.
    ///
    /// # Panics
    ///
    /// Panics if a group position or row id is out of range, or
    /// `row_norms` disagrees with the row count of `data`.
    pub fn score_rows(
        &mut self,
        data: &[f32],
        row_norms: &[f32],
        dim: usize,
        row_ids: &[u32],
        group: &[u32],
    ) {
        assert_eq!(row_norms.len(), data.len() / dim, "norms length mismatch");
        submod_obs::counter!("kernels.gather_top_k.calls").incr();
        submod_obs::counter!("kernels.gather_top_k.candidates")
            .add((group.len() * row_ids.len()) as u64);
        self.score(data, row_norms, dim, row_ids.len(), |i| row_ids[i], group);
    }

    /// The shared scan: `id_at(i)` names the `i`-th row to score.
    fn score(
        &mut self,
        data: &[f32],
        row_norms: &[f32],
        dim: usize,
        n_rows: usize,
        id_at: impl Fn(usize) -> u32,
        group: &[u32],
    ) {
        let row_at = |i| {
            let row = id_at(i) as usize;
            &data[row * dim..(row + 1) * dim]
        };
        for slots in group.chunks(Q_BLOCK) {
            // Per query block, not per tile: each query's vector, norm and
            // excluded id, gathered through the group once.
            let at = |j: usize| slots[j.min(slots.len() - 1)] as usize;
            let queries: [&[f32]; Q_BLOCK] = std::array::from_fn(|j| self.queries[at(j)]);
            let norms: [f32; Q_BLOCK] = std::array::from_fn(|j| self.norms[at(j)]);
            let excludes: [u32; Q_BLOCK] =
                std::array::from_fn(|j| self.excludes.get(at(j)).copied().unwrap_or(u32::MAX));
            let queries = &queries[..slots.len()];
            for_each_tile(kernels().dot_tile, queries, n_rows, row_at, |first, live, dots| {
                // Per tile, not per query: the four row ids and their norms.
                let ids: [u32; 4] = std::array::from_fn(|j| id_at(first + j.min(live - 1)));
                let row_norms = ids.map(|id| row_norms[id as usize]);
                for (q, dots) in dots.iter().enumerate() {
                    let sims = cosines(*dots, row_norms, norms[q]);
                    let heap = &mut self.heaps[slots[q] as usize];
                    // Nearly every quad dies here, on one test for all four.
                    if sims.iter().all(|&sim| sim < heap.floor()) {
                        continue;
                    }
                    for j in 0..live {
                        if ids[j] != excludes[q] {
                            heap.offer(ids[j], sims[j]);
                        }
                    }
                }
            });
        }
    }

    /// One result list per query, in block order, each sorted by
    /// descending similarity with ties toward the smaller row id.
    pub fn into_sorted(self) -> Vec<Vec<Scored>> {
        self.heaps.into_iter().map(TopK::into_sorted).collect()
    }
}

/// Top-`k` rows by cosine similarity for a whole block of queries.
///
/// `queries` is `nq × dim` row-major, `rows` is `n × dim` row-major with
/// `row_norms[i] == norm(rows[i])` precomputed. `excludes` is either
/// empty (no exclusions) or one row id per query to skip (`u32::MAX` for
/// none). Each returned list is sorted by descending similarity with
/// ties toward the smaller index and is bitwise-identical to the
/// one-query scan over the same data.
///
/// # Panics
///
/// Panics if `dim == 0`, either matrix length is not a multiple of
/// `dim`, `row_norms` disagrees with the row count, or `excludes` is
/// non-empty with the wrong length.
pub fn batch_top_k(
    queries: &[f32],
    rows: &[f32],
    row_norms: &[f32],
    dim: usize,
    k: usize,
    excludes: &[u32],
) -> Vec<Vec<Scored>> {
    assert!(dim > 0, "batch_top_k with dim == 0");
    assert_eq!(queries.len() % dim, 0, "queries not a multiple of dim");
    assert_eq!(rows.len() % dim, 0, "rows not a multiple of dim");
    let nq = queries.len() / dim;
    let n = rows.len() / dim;
    assert_eq!(row_norms.len(), n, "row_norms length mismatch");
    assert!(excludes.is_empty() || excludes.len() == nq, "excludes length mismatch");
    if k == 0 || nq == 0 {
        return vec![Vec::new(); nq];
    }
    // Dispatch tally at batch granularity: one registry touch per call,
    // never per row or per query.
    submod_obs::counter!("kernels.batch_top_k.calls").incr();
    submod_obs::counter!("kernels.batch_top_k.row_scans").add((nq * n) as u64);
    let queries: Vec<&[f32]> = queries.chunks_exact(dim).collect();
    let everyone: Vec<u32> = (0..nq as u32).collect();
    let mut block = TopKBlock::new(&queries, excludes, dim, k);
    block.score(rows, row_norms, dim, n, |i| i as u32, &everyone);
    block.into_sorted()
}

/// Top-`k` of an explicit candidate list by cosine similarity to `query`
/// — the gather variant IVF's widening search ranks with: a one-query
/// [`TopKBlock`] scored against `ids` (each id at most once), with
/// results bitwise-identical to scoring each candidate individually.
///
/// # Panics
///
/// Panics if `query.len() != dim`, any id is out of range for `data`, or
/// `norms` disagrees with the row count of `data`.
pub fn cosine_top_k_gather(
    data: &[f32],
    norms: &[f32],
    dim: usize,
    ids: &[u32],
    query: &[f32],
    k: usize,
    exclude: u32,
) -> Vec<Scored> {
    assert!(dim > 0, "cosine_top_k_gather with dim == 0");
    if k == 0 {
        return Vec::new();
    }
    let mut block =
        TopKBlock::new(std::slice::from_ref(&query), std::slice::from_ref(&exclude), dim, k);
    block.score_rows(data, norms, dim, ids, &[0]);
    block.into_sorted().pop().unwrap_or_default()
}

/// For each query, the index and squared distance of the nearest row
/// (first minimum wins ties) — the tiled centroid scan of the k-means
/// assignment step. `rows` is `n × dim` row-major with `dim` the common
/// query length.
///
/// # Panics
///
/// Panics if `rows` is empty or not a multiple of `dim`, or a query's
/// length is not `dim`.
pub fn l2_argmin(queries: &[&[f32]], rows: &[f32], dim: usize) -> Vec<(u32, f32)> {
    assert!(dim > 0, "l2_argmin with dim == 0");
    assert!(!rows.is_empty(), "l2_argmin over no rows");
    assert_eq!(rows.len() % dim, 0, "rows not a multiple of dim");
    let mut best = vec![(0u32, f32::INFINITY); queries.len()];
    let (n, row_at) = (rows.len() / dim, |r| &rows[r * dim..(r + 1) * dim]);
    for (queries, best) in queries.chunks(Q_BLOCK).zip(best.chunks_mut(Q_BLOCK)) {
        for_each_tile(kernels().l2_tile, queries, n, row_at, |first, live, dists| {
            // Tiles arrive in ascending row order, so strict `<` keeps
            // the first minimum.
            for (best, dists) in best.iter_mut().zip(dists) {
                for j in 0..live {
                    if dists[j] < best.1 {
                        *best = ((first + j) as u32, dists[j]);
                    }
                }
            }
        });
    }
    best
}

/// Dot product of every query against every row, `queries.len() × n`
/// row-major — the hoisted-norm scoring primitive `nearest_centroids`
/// ranks with. Each element is bitwise-identical to the single-pair
/// [`crate::dot`].
///
/// # Panics
///
/// Panics if `dim == 0`, `rows` is not a multiple of `dim`, or a query's
/// length is not `dim`.
pub fn dot_scores(queries: &[&[f32]], rows: &[f32], dim: usize) -> Vec<f32> {
    assert!(dim > 0, "dot_scores with dim == 0");
    assert_eq!(rows.len() % dim, 0, "rows not a multiple of dim");
    let n = rows.len() / dim;
    let mut out = vec![0.0f32; queries.len() * n];
    let row_at = |r| &rows[r * dim..(r + 1) * dim];
    for (queries, out) in queries.chunks(Q_BLOCK).zip(out.chunks_mut(Q_BLOCK * n.max(1))) {
        for_each_tile(kernels().dot_tile, queries, n, row_at, |first, live, dots| {
            for (q, dots) in dots.iter().enumerate() {
                out[q * n + first..][..live].copy_from_slice(&dots[..live]);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;

    /// The scalar form [`cosines`] must match lane for lane.
    fn cosine(dot: f32, denom: f32) -> f32 {
        if denom <= f32::MIN_POSITIVE {
            0.0
        } else {
            dot / denom
        }
    }

    fn matrix(n: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut s = seed;
        let rows: Vec<f32> = (0..n * dim)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        let norms: Vec<f32> = rows.chunks_exact(dim).map(|r| scalar::dot(r, r).sqrt()).collect();
        (rows, norms)
    }

    /// One-query reference scan in the exact order `batch_top_k` promises.
    fn reference_top_k(
        queries: &[f32],
        rows: &[f32],
        norms: &[f32],
        dim: usize,
        k: usize,
        exclude: u32,
        qi: usize,
    ) -> Vec<Scored> {
        let q = &queries[qi * dim..(qi + 1) * dim];
        let qn = scalar::dot(q, q).sqrt();
        let mut heap = TopK::new(k);
        for r in 0..rows.len() / dim {
            if r as u32 == exclude {
                continue;
            }
            let d = scalar::dot(q, &rows[r * dim..(r + 1) * dim]);
            heap.offer(r as u32, cosine(d, norms[r] * qn));
        }
        heap.into_sorted()
    }

    #[test]
    fn batch_matches_one_query_scans() {
        // 37 queries × 53 rows exercises partial query blocks and row tiles.
        let dim = 19;
        let (rows, norms) = matrix(53, dim, 5);
        let (queries, _) = matrix(37, dim, 11);
        let excludes: Vec<u32> = (0..37).map(|q| (q % 60) as u32).collect();
        let batch = batch_top_k(&queries, &rows, &norms, dim, 7, &excludes);
        for qi in 0..37 {
            let expect = reference_top_k(&queries, &rows, &norms, dim, 7, excludes[qi], qi);
            assert_eq!(batch[qi], expect, "query {qi}");
        }
    }

    #[test]
    fn batch_without_excludes_and_k_zero() {
        let dim = 8;
        let (rows, norms) = matrix(10, dim, 3);
        let (queries, _) = matrix(3, dim, 4);
        let res = batch_top_k(&queries, &rows, &norms, dim, 0, &[]);
        assert!(res.iter().all(Vec::is_empty));
        let res = batch_top_k(&queries, &rows, &norms, dim, 4, &[]);
        for qi in 0..3 {
            let expect = reference_top_k(&queries, &rows, &norms, dim, 4, u32::MAX, qi);
            assert_eq!(res[qi], expect);
        }
    }

    #[test]
    fn gather_matches_filtered_scan() {
        let dim = 6;
        let (rows, norms) = matrix(30, dim, 9);
        let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.9).sin()).collect();
        let ids: Vec<u32> = [4u32, 1, 17, 29, 2, 8, 4, 22, 11].to_vec();
        let got = cosine_top_k_gather(&rows, &norms, dim, &ids, &query, 3, 17);
        // Reference: score filtered candidates in order.
        let qn = scalar::dot(&query, &query).sqrt();
        let mut heap = TopK::new(3);
        for &id in ids.iter().filter(|&&id| id != 17) {
            let i = id as usize;
            let d = scalar::dot(&query, &rows[i * dim..(i + 1) * dim]);
            heap.offer(id, cosine(d, norms[i] * qn));
        }
        assert_eq!(got, heap.into_sorted());
    }

    #[test]
    fn l2_argmin_first_minimum_wins() {
        let rows = [1.0f32, 1.0, 5.0, 5.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0];
        let nearest = l2_argmin(&[&[1.0, 1.0], &[0.1, 0.1]], &rows, 2);
        assert_eq!(nearest[0], (0, 0.0));
        assert_eq!(nearest[1].0, 3);
    }

    #[test]
    fn dot_scores_cover_remainders() {
        let dim = 5;
        let (rows, _) = matrix(9, dim, 2);
        let (queries, _) = matrix(3, dim, 8);
        let queries: Vec<&[f32]> = queries.chunks_exact(dim).collect();
        let scores = dot_scores(&queries, &rows, dim);
        assert_eq!(scores.len(), 3 * 9);
        for (i, &s) in scores.iter().enumerate() {
            let (q, r) = (queries[i / 9], &rows[i % 9 * dim..(i % 9 + 1) * dim]);
            assert_eq!(s.to_bits(), scalar::dot(q, r).to_bits());
        }
    }
}
