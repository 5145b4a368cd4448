use crate::{Embeddings, KnnError};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A fitted k-means model: centroids plus per-point assignments.
///
/// Serves two roles in the reproduction: the coarse quantizer of the
/// [`crate::IvfIndex`] (ScaNN's partitioning stage) and the simulated
/// "coarsely-trained classifier" the data crate uses to derive margin
/// utilities (§6 trains a ResNet-56 on a 10 % subset for this).
#[derive(Clone, Debug)]
pub struct KMeansModel {
    centroids: Embeddings,
    /// Squared centroid norms, cached once at model build so nearest-
    /// centroid queries rank by `‖c‖² − 2⟨c, q⟩` (the `‖q‖²` term is
    /// constant per query) instead of re-deriving centroid norms — the
    /// same hoist the search kernels apply to row norms.
    centroid_sq_norms: Vec<f32>,
    assignments: Vec<u32>,
    inertia: f64,
    iterations_run: usize,
}

impl KMeansModel {
    /// The cluster centroids (`k × d`).
    pub fn centroids(&self) -> &Embeddings {
        &self.centroids
    }

    /// Cluster index of each input point.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Final within-cluster sum of squared distances.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations actually run (stops early on
    /// convergence).
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Indices of the `p` centroids nearest to `query`, closest first.
    ///
    /// Centroids are ranked by `‖c‖² − 2⟨c, q⟩` (equivalent to squared
    /// L2 distance up to the per-query constant `‖q‖²`): the dot
    /// products come from the tiled batch kernel and the squared norms
    /// were cached at model build, so nothing about a centroid is
    /// recomputed per query.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong dimension.
    pub fn nearest_centroids(&self, query: &[f32], p: usize) -> Vec<u32> {
        self.nearest_centroids_batch(&[query], p).pop().expect("one ranking per query")
    }

    /// [`Self::nearest_centroids`] for a block of queries: one tiled pass
    /// of the block over the centroid matrix, then a partial selection of
    /// each query's `p` best — only those are sorted, by the same
    /// `(score, id)` total order a full sort would use.
    pub(crate) fn nearest_centroids_batch(&self, queries: &[&[f32]], p: usize) -> Vec<Vec<u32>> {
        let (k, dim) = (self.centroids.len(), self.centroids.dim());
        assert!(queries.iter().all(|q| q.len() == dim), "query dimension mismatch");
        let dots = submod_kernels::dot_scores(queries, self.centroids.as_flat(), dim);
        assert!(dots.iter().all(|d| !d.is_nan()), "centroid scores must not be NaN");
        dots.chunks_exact(k)
            .map(|dots| {
                let score = |c: usize| self.centroid_sq_norms[c] - 2.0 * dots[c];
                if p <= 1 {
                    // Argmin with strict `<`: the first minimum (smallest
                    // index) wins.
                    let mut best = (0usize, f32::INFINITY);
                    for c in 0..k {
                        let s = score(c);
                        if s < best.1 {
                            best = (c, s);
                        }
                    }
                    return vec![best.0 as u32];
                }
                let mut scored: Vec<(f32, u32)> = (0..k).map(|c| (score(c), c as u32)).collect();
                // Workspace convention (cf. dist::bounding): total order on
                // the score with an explicit index tie-break, so equal
                // distances rank deterministically by centroid id.
                let by_score =
                    |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
                if p < k {
                    scored.select_nth_unstable_by(p, by_score);
                    scored.truncate(p);
                }
                scored.sort_unstable_by(by_score);
                scored.into_iter().map(|(_, c)| c).collect()
            })
            .collect()
    }
}

/// Points per `parallel_map` item in the seeding and assignment steps:
/// enough arithmetic to amortize an item even against a single center
/// (seeding), while 30 000 points still make over a hundred items.
const POINT_BLOCK: usize = 256;

/// k-means++ bookkeeping after choosing `center`: lowers each sampled
/// point's squared distance to its nearest chosen center. Blocks of
/// points update disjoint slices of `dist_sq` in parallel; every entry
/// depends only on its own point, so the result is thread-count-free.
fn shrink_to_center(data: &Embeddings, sample: &[usize], center: usize, dist_sq: &mut [f32]) {
    let center = [data.row(center)];
    let blocks = sample.chunks(POINT_BLOCK).zip(dist_sq.chunks_mut(POINT_BLOCK)).collect();
    submod_exec::parallel_map(blocks, |(ids, dist_sq): (&[usize], &mut [f32])| {
        // The tile wants one query against four rows; squared distance is
        // symmetric bit for bit, so the center plays the query.
        for (ids, dist_sq) in ids.chunks(4).zip(dist_sq.chunks_mut(4)) {
            let rows = std::array::from_fn(|j| data.row(ids[j.min(ids.len() - 1)]));
            let mut d = [[0.0f32; 4]];
            submod_kernels::l2_tile(&center, rows, &mut d);
            for (slot, &d) in dist_sq.iter_mut().zip(&d[0]) {
                if d < *slot {
                    *slot = d;
                }
            }
        }
    });
}

/// Fits k-means with k-means++ seeding and Lloyd iterations.
///
/// Deterministic for a fixed `seed`. Empty clusters are re-seeded from the
/// point farthest from its centroid.
///
/// # Errors
///
/// Returns an error if `k == 0`, `iterations == 0`, or there are fewer
/// points than clusters.
///
/// ```
/// use submod_knn::{kmeans, Embeddings};
///
/// # fn main() -> Result<(), submod_knn::KnnError> {
/// let data = Embeddings::from_flat(1, vec![0.0, 0.1, 10.0, 10.1])?;
/// let model = kmeans(&data, 2, 10, 42)?;
/// // The two tight pairs end up in distinct clusters.
/// assert_ne!(model.assignments()[0], model.assignments()[2]);
/// assert_eq!(model.assignments()[0], model.assignments()[1]);
/// # Ok(())
/// # }
/// ```
pub fn kmeans(
    data: &Embeddings,
    k: usize,
    iterations: usize,
    seed: u64,
) -> Result<KMeansModel, KnnError> {
    if k == 0 {
        return Err(KnnError::EmptyParameter { name: "k" });
    }
    if iterations == 0 {
        return Err(KnnError::EmptyParameter { name: "iterations" });
    }
    let n = data.len();
    if n < k {
        return Err(KnnError::EmptyParameter { name: "points (need at least k)" });
    }
    let dim = data.dim();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // --- k-means++ seeding (on a sample for large n). ---
    let sample: Vec<usize> = if n > 20_000 {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        ids.truncate(20_000.max(k));
        ids
    } else {
        (0..n).collect()
    };
    let mut centers: Vec<usize> = Vec::with_capacity(k);
    centers.push(sample[rng.gen_range(0..sample.len())]);
    let mut dist_sq = vec![f32::INFINITY; sample.len()];
    shrink_to_center(data, &sample, centers[0], &mut dist_sq);
    while centers.len() < k {
        let total: f64 = dist_sq.iter().map(|&d| f64::from(d)).sum();
        let next = if total <= f64::MIN_POSITIVE {
            // Degenerate: all mass at the centers; pick any non-center.
            sample[rng.gen_range(0..sample.len())]
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = sample[sample.len() - 1];
            for (pos, &i) in sample.iter().enumerate() {
                target -= f64::from(dist_sq[pos]);
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centers.push(next);
        shrink_to_center(data, &sample, next, &mut dist_sq);
    }
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    for &c in &centers {
        centroids.extend_from_slice(data.row(c));
    }

    // --- Lloyd iterations. ---
    let mut assignments = vec![0u32; n];
    let mut inertia = f64::INFINITY;
    let mut iterations_run = 0;
    for _ in 0..iterations {
        iterations_run += 1;
        // Assignment step: blocks of points against the centroid matrix
        // on the squared-L2 tile, one pool task per block.
        let blocks: Vec<std::ops::Range<usize>> =
            (0..n).step_by(POINT_BLOCK).map(|s| s..(s + POINT_BLOCK).min(n)).collect();
        let new_assignments: Vec<(u32, f32)> = blocks
            .into_par_iter()
            .map(|block| {
                let points: Vec<&[f32]> = block.map(|i| data.row(i)).collect();
                submod_kernels::l2_argmin(&points, &centroids, dim)
            })
            .collect::<Vec<_>>()
            .concat();
        assert!(
            new_assignments.iter().all(|&(_, d)| !d.is_nan()),
            "assignment distances must not be NaN"
        );
        let new_inertia: f64 = new_assignments.iter().map(|&(_, d)| f64::from(d)).sum();
        for (i, &(c, _)) in new_assignments.iter().enumerate() {
            assignments[i] = c;
        }

        // Update step, parallel over clusters: each cluster sums its own
        // members in ascending point order — per coordinate the very
        // additions, in the very order, of one sweep over all points — so
        // the centroids carry the same bits at any thread count.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, &c) in assignments.iter().enumerate() {
            members[c as usize].push(i as u32);
        }
        let means: Vec<Option<Vec<f32>>> = members
            .into_par_iter()
            .map(|members| {
                if members.is_empty() {
                    return None;
                }
                let mut sums = vec![0.0f64; dim];
                for &i in &members {
                    for (sum, &x) in sums.iter_mut().zip(data.row(i as usize)) {
                        *sum += f64::from(x);
                    }
                }
                Some(sums.iter().map(|&sum| (sum / members.len() as f64) as f32).collect())
            })
            .collect();
        for (c, mean) in means.into_iter().enumerate() {
            let centroid = &mut centroids[c * dim..(c + 1) * dim];
            match mean {
                Some(mean) => centroid.copy_from_slice(&mean),
                None => {
                    // Re-seed an empty cluster with the worst-fit point.
                    // Total order plus reversed index tie-break: among
                    // equally bad points the smallest index compares
                    // greatest, so it wins deterministically.
                    let worst = new_assignments
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(b.0.cmp(&a.0)))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    centroid.copy_from_slice(data.row(worst));
                }
            }
        }

        // Convergence: relative inertia improvement below 1e-4.
        if new_inertia >= inertia * (1.0 - 1e-4) {
            inertia = new_inertia.min(inertia);
            break;
        }
        inertia = new_inertia;
    }

    let centroids = Embeddings::from_flat(dim, centroids)?;
    let centroid_sq_norms = (0..centroids.len())
        .map(|c| submod_kernels::dot(centroids.row(c), centroids.row(c)))
        .collect();
    Ok(KMeansModel { centroids, centroid_sq_norms, assignments, inertia, iterations_run })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per_cluster: usize, centers: &[(f32, f32)], seed: u64) -> Embeddings {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut flat = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per_cluster {
                flat.push(cx + rng.gen_range(-0.1f32..0.1));
                flat.push(cy + rng.gen_range(-0.1f32..0.1));
            }
        }
        Embeddings::from_flat(2, flat).unwrap()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = blobs(50, &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 1);
        let model = kmeans(&data, 3, 50, 7).unwrap();
        // All points of one blob share an assignment.
        for blob in 0..3 {
            let first = model.assignments()[blob * 50];
            for i in 0..50 {
                assert_eq!(model.assignments()[blob * 50 + i], first, "blob {blob}");
            }
        }
        assert!(model.inertia() < 50.0 * 3.0 * 0.02 + 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs(30, &[(0.0, 0.0), (5.0, 5.0)], 3);
        let a = kmeans(&data, 2, 20, 99).unwrap();
        let b = kmeans(&data, 2, 20, 99).unwrap();
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn identical_at_any_thread_count() {
        // Enough points for several seeding and assignment blocks, and
        // more clusters than blobs so the update sees uneven members.
        let data = blobs(400, &[(0.0, 0.0), (5.0, 5.0), (9.0, 0.0)], 8);
        let fit = |threads| submod_exec::with_threads(threads, || kmeans(&data, 7, 25, 5).unwrap());
        let reference = fit(1);
        for threads in [2, 8] {
            let model = fit(threads);
            assert_eq!(model.centroids(), reference.centroids(), "{threads} threads");
            assert_eq!(model.assignments(), reference.assignments(), "{threads} threads");
            assert_eq!(model.inertia().to_bits(), reference.inertia().to_bits());
            assert_eq!(model.iterations_run(), reference.iterations_run());
        }
    }

    #[test]
    fn ranks_a_block_like_single_queries() {
        let data = blobs(40, &[(0.0, 0.0), (4.0, 4.0), (8.0, 0.0), (0.0, 8.0)], 6);
        let model = kmeans(&data, 9, 20, 2).unwrap();
        let queries: Vec<&[f32]> = (0..data.len()).step_by(7).map(|i| data.row(i)).collect();
        for p in [1, 2, 5, 9, 30] {
            let ranked = model.nearest_centroids_batch(&queries, p);
            for (q, ranked) in queries.iter().zip(&ranked) {
                assert_eq!(ranked, &model.nearest_centroids(q, p), "p = {p}");
                assert_eq!(ranked.len(), p.clamp(1, 9));
            }
        }
    }

    #[test]
    fn nearest_centroid_queries() {
        let data = blobs(20, &[(0.0, 0.0), (10.0, 10.0)], 5);
        let model = kmeans(&data, 2, 20, 1).unwrap();
        let near_origin = model.nearest_centroids(&[0.2, -0.1], 1);
        let near_far = model.nearest_centroids(&[9.8, 10.1], 1);
        assert_ne!(near_origin, near_far);
        let both = model.nearest_centroids(&[5.0, 5.0], 2);
        assert_eq!(both.len(), 2);
    }

    #[test]
    fn argument_validation() {
        let data = blobs(5, &[(0.0, 0.0)], 1);
        assert!(kmeans(&data, 0, 10, 0).is_err());
        assert!(kmeans(&data, 3, 0, 0).is_err());
        assert!(kmeans(&data, 100, 10, 0).is_err());
    }

    #[test]
    fn k_equals_n_converges() {
        let data = blobs(1, &[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], 2);
        let model = kmeans(&data, 3, 10, 4).unwrap();
        let mut assigned: Vec<u32> = model.assignments().to_vec();
        assigned.sort_unstable();
        assigned.dedup();
        assert_eq!(assigned.len(), 3, "each point its own cluster");
        assert!(model.inertia() < 1e-6);
    }
}
