use crate::kmeans::{kmeans, KMeansModel};
use crate::{Embeddings, KnnError, NearestNeighbors, Neighbor};
use submod_kernels::TopKBlock;

/// Most queries one self-join block carries: a cell larger than this is
/// searched in several blocks, so one oversized cell cannot serialize the
/// graph build behind a single task.
const MAX_HOME_BLOCK: usize = 256;

/// An inverted-file (IVF) approximate nearest-neighbor index.
///
/// Points are partitioned by a k-means coarse quantizer into `nlist`
/// cells; a query scans only the `nprobe` nearest cells. This is the same
/// partition-then-scan architecture the paper's similarity search
/// (ScaNN, Guo et al. 2020) uses for its coarse stage, and it is the
/// backend the experiments use for the ImageNet-scale graphs.
///
/// # The cell-blocked batch path
///
/// [`NearestNeighbors::search_batch_excluding`] does not loop over
/// queries. It ranks the centroids for the whole block in one tiled
/// kernel pass, groups the block's queries by probed cell, and scores
/// each (query group × cell rows) pair as dense Q×4 tiles straight off
/// the original matrix — rows are addressed by id, so there is no packed
/// per-cell copy and no extra resident byte — with every query owning its
/// own top-k tracker. A tracker's kept set does not depend on the order
/// rows are offered in, and each tile result is bitwise the single-pair
/// kernel's, so the batch returns exactly what the one-query widening
/// loop returns for each query: same ids, same order, same similarity
/// bits. Blocks whose queries share a home cell
/// (what the graph build issues, see `home_cell_blocks`) also
/// share most probed cells, which is what makes the groups large and the
/// work cache-resident.
///
/// A query whose `nprobe` cells hold fewer than `k` candidates leaves the
/// batch and takes the **widening fallback** — the one-query loop that
/// doubles the probe count and re-gathers until `k` hits or every cell is
/// probed — resuming at the doubling the batch pass stands for.
///
/// ```
/// use submod_knn::{Embeddings, IvfIndex, NearestNeighbors};
/// use rand::{Rng, SeedableRng};
///
/// # fn main() -> Result<(), submod_knn::KnnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let flat: Vec<f32> = (0..512).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
/// let data = Embeddings::from_flat(2, flat)?;
/// let index = IvfIndex::build(data, 8, 3, 9)?;
/// assert_eq!(index.search(&[0.5, 0.5], 5).len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IvfIndex {
    data: Embeddings,
    quantizer: KMeansModel,
    lists: Vec<Vec<u32>>,
    nprobe: usize,
}

impl IvfIndex {
    /// Builds an IVF index with `nlist` cells, probing `nprobe` cells per
    /// query.
    ///
    /// # Errors
    ///
    /// Returns an error if the embeddings are empty, `nlist == 0`,
    /// `nprobe == 0`, or there are fewer points than cells.
    pub fn build(
        data: Embeddings,
        nlist: usize,
        nprobe: usize,
        seed: u64,
    ) -> Result<Self, KnnError> {
        if data.is_empty() {
            return Err(KnnError::EmptyParameter { name: "embeddings" });
        }
        if nlist == 0 {
            return Err(KnnError::EmptyParameter { name: "nlist" });
        }
        if nprobe == 0 {
            return Err(KnnError::EmptyParameter { name: "nprobe" });
        }
        let quantizer = kmeans(&data, nlist, 25, seed)?;
        let mut lists = vec![Vec::new(); nlist];
        for (i, &cell) in quantizer.assignments().iter().enumerate() {
            lists[cell as usize].push(i as u32);
        }
        Ok(IvfIndex { data, quantizer, lists, nprobe: nprobe.min(nlist) })
    }

    /// A sensible default cell count: `√n` clamped to `[1, 4096]`.
    pub fn default_nlist(n: usize) -> usize {
        ((n as f64).sqrt().round() as usize).clamp(1, 4096)
    }

    /// The indexed embeddings.
    pub fn embeddings(&self) -> &Embeddings {
        &self.data
    }

    /// Number of inverted lists.
    fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Every indexed point exactly once, in blocks that share a home
    /// cell (ascending ids within a block, at most [`MAX_HOME_BLOCK`]
    /// each) — the query blocks of the all-points self-join.
    pub(crate) fn home_cell_blocks(&self) -> Vec<Vec<u32>> {
        self.lists
            .iter()
            .flat_map(|cell| cell.chunks(MAX_HOME_BLOCK))
            .map(<[u32]>::to_vec)
            .collect()
    }

    /// Results a search must reach before it stops widening.
    fn enough(&self, k: usize) -> usize {
        k.min(self.data.len().saturating_sub(1))
    }

    /// The one-query search from `probes` cells on: gathers the probed
    /// cells' candidates, ranks them, and doubles the probe count until
    /// `k` hits are found or every cell has been probed.
    fn search_widening(
        &self,
        query: &[f32],
        k: usize,
        exclude: u32,
        mut probes: usize,
    ) -> Vec<Neighbor> {
        let mut candidates: Vec<u32> = Vec::new();
        loop {
            let cells = self.quantizer.nearest_centroids(query, probes);
            candidates.clear();
            for &c in &cells {
                candidates.extend_from_slice(&self.lists[c as usize]);
            }
            let hits = crate::brute::rank_candidates(&self.data, query, &candidates, k, exclude);
            if hits.len() >= self.enough(k) || probes >= self.nlist() {
                return hits;
            }
            probes = (probes * 2).min(self.nlist());
        }
    }
}

impl NearestNeighbors for IvfIndex {
    fn search_batch_excluding(
        &self,
        queries: &[&[f32]],
        k: usize,
        excludes: &[u32],
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.len(), excludes.len(), "one exclude per query");
        if k == 0 {
            return vec![Vec::new(); queries.len()];
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); self.nlist()];
        let probed = self.quantizer.nearest_centroids_batch(queries, self.nprobe);
        for (slot, cells) in probed.iter().enumerate() {
            for &c in cells {
                groups[c as usize].push(slot as u32);
            }
        }
        let (data, dim) = (&self.data, self.data.dim());
        let mut block = TopKBlock::new(queries, excludes, dim, k);
        // Most-probed cells first: a block that shares a home cell meets
        // it — where most true neighbors live — before the fringe cells,
        // so every tracker's floor is tight early and later offers die on
        // the one-comparison reject. Any order yields the same results.
        let mut cells: Vec<usize> = (0..groups.len()).filter(|&c| !groups[c].is_empty()).collect();
        cells.sort_by_key(|&c| std::cmp::Reverse(groups[c].len()));
        for c in cells {
            block.score_rows(data.as_flat(), data.norms(), dim, &self.lists[c], &groups[c]);
        }
        // The pass above is the fallback loop's first iteration for every
        // query at once; a query it left short resumes at the second.
        let widen = (self.nprobe < self.nlist()).then(|| (self.nprobe * 2).min(self.nlist()));
        let mut hits = block.into_sorted();
        if let Some(probes) = widen {
            for (slot, hits) in hits.iter_mut().enumerate() {
                if hits.len() < self.enough(k) {
                    *hits = self.search_widening(queries[slot], k, excludes[slot], probes);
                }
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactKnn;
    use proptest::strategy::Strategy;
    use rand::{Rng, SeedableRng};

    fn clustered(n_clusters: usize, per_cluster: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..n_clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0..5.0f32)).collect())
            .collect();
        let mut flat = Vec::new();
        for c in &centers {
            for _ in 0..per_cluster {
                for &x in c {
                    flat.push(x + rng.gen_range(-0.2f32..0.2));
                }
            }
        }
        Embeddings::from_flat(dim, flat).unwrap()
    }

    #[test]
    fn recall_against_exact_on_clustered_data() {
        let data = clustered(10, 100, 8, 3);
        let exact = ExactKnn::build(data.clone()).unwrap();
        let ivf = IvfIndex::build(data.clone(), 10, 3, 3).unwrap();
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in (0..data.len()).step_by(17) {
            let truth: Vec<u32> = exact
                .search_excluding(data.row(q), 10, q as u32)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let approx: Vec<u32> = ivf
                .search_excluding(data.row(q), 10, q as u32)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            total += truth.len();
            hits += truth.iter().filter(|t| approx.contains(t)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.9, "IVF recall {recall} too low on clustered data");
    }

    #[test]
    fn widens_probes_when_cells_are_small() {
        let data = clustered(5, 3, 4, 9);
        let ivf = IvfIndex::build(data.clone(), 5, 1, 9).unwrap();
        // k close to n forces probing beyond the first cell.
        let hits = ivf.search(data.row(0), 12);
        assert!(hits.len() >= 12.min(data.len() - 1) - 2);
    }

    #[test]
    fn batch_takes_the_widening_fallback_like_single_queries() {
        // Five 3-point cells, one probe, k = 12: no probed cell holds k
        // candidates, so every query of the batch must widen.
        let data = clustered(5, 3, 4, 9);
        let ivf = IvfIndex::build(data.clone(), 5, 1, 9).unwrap();
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let queries: Vec<&[f32]> = ids.iter().map(|&v| data.row(v as usize)).collect();
        let batched = ivf.search_batch_excluding(&queries, 12, &ids);
        for (v, hits) in batched.iter().enumerate() {
            assert!(hits.len() > 3, "query {v} kept {} hits: it never widened", hits.len());
            assert_eq!(
                hits,
                &ivf.search_widening(queries[v], 12, v as u32, ivf.nprobe),
                "query {v}"
            );
        }
    }

    /// Ids and similarity bits of a result list.
    fn bits(hits: &[Neighbor]) -> Vec<(u32, u32)> {
        hits.iter().map(|&(id, sim)| (id, sim.to_bits())).collect()
    }

    /// Every list of `search_batch_excluding` over `block` equals, bit for
    /// bit, what `search_widening` from `nprobe` probes returns for that
    /// query alone — the gather-kernel loop, which shares neither the
    /// cell grouping nor the tiled scoring with the batch. Checked with
    /// each query excluding its own id and with nothing excluded.
    fn assert_batch_equals_widening(ivf: &IvfIndex, block: &[u32], k: usize) {
        let queries: Vec<&[f32]> = block.iter().map(|&v| ivf.data.row(v as usize)).collect();
        let none = vec![u32::MAX; block.len()];
        for excludes in [block, &none[..]] {
            let batched = ivf.search_batch_excluding(&queries, k, excludes);
            assert_eq!(batched.len(), block.len());
            for (slot, (q, &e)) in queries.iter().zip(excludes).enumerate() {
                let want = ivf.search_widening(q, k, e, ivf.nprobe);
                assert_eq!(
                    bits(&batched[slot]),
                    bits(&want),
                    "point {} at block slot {slot}, exclude {e}",
                    block[slot]
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The tiled batch equals the one-query widening loop for random
        /// blocks with repeated queries and for the home-cell blocks the
        /// graph build issues, with `nprobe` below, at and above `nlist`,
        /// and with `k` from 1 to far more than the probed cells hold
        /// (which sends queries through the widening fallback mid-batch).
        #[test]
        fn batch_equals_the_widening_loop(
            flat in (2usize..=120).prop_flat_map(|n| proptest::collection::vec(-1.0f32..1.0, n * 5)),
            nlist in 1usize..10,
            nprobe in 1usize..12,
            k in 1usize..40,
            picks in proptest::collection::vec(0usize..120, 1..50),
            seed in 0u64..64,
        ) {
            let data = Embeddings::from_flat(5, flat).unwrap();
            let ivf = IvfIndex::build(data.clone(), nlist.min(data.len()), nprobe, seed).unwrap();
            let random: Vec<u32> = picks.iter().map(|&p| (p % data.len()) as u32).collect();
            assert_batch_equals_widening(&ivf, &random, k);
            for home in ivf.home_cell_blocks() {
                assert_batch_equals_widening(&ivf, &home, k);
            }
        }
    }

    #[test]
    fn home_cell_blocks_hold_every_point_once() {
        // One tight blob and few cells: some cell exceeds the block cap.
        let data = clustered(1, 3 * MAX_HOME_BLOCK, 4, 5);
        let ivf = IvfIndex::build(data.clone(), 2, 1, 5).unwrap();
        let blocks = ivf.home_cell_blocks();
        assert!(blocks.len() > ivf.nlist(), "an oversized cell must split");
        assert!(blocks.iter().all(|b| !b.is_empty() && b.len() <= MAX_HOME_BLOCK));
        let mut seen: Vec<u32> = blocks.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..data.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn index_shares_the_callers_buffers() {
        let data = clustered(3, 10, 4, 2);
        let ivf = IvfIndex::build(data.clone(), 3, 1, 2).unwrap();
        assert_eq!(ivf.embeddings().as_flat().as_ptr(), data.as_flat().as_ptr());
        assert_eq!(ivf.embeddings().norms().as_ptr(), data.norms().as_ptr());
        let exact = ExactKnn::build(data.clone()).unwrap();
        assert_eq!(exact.embeddings().as_flat().as_ptr(), data.as_flat().as_ptr());
    }

    #[test]
    fn parameter_validation() {
        let data = clustered(2, 5, 4, 1);
        assert!(IvfIndex::build(data.clone(), 0, 1, 0).is_err());
        assert!(IvfIndex::build(data.clone(), 2, 0, 0).is_err());
        assert!(IvfIndex::build(Embeddings::from_flat(4, vec![]).unwrap(), 2, 1, 0).is_err());
    }

    #[test]
    fn default_nlist_scales() {
        assert_eq!(IvfIndex::default_nlist(100), 10);
        assert_eq!(IvfIndex::default_nlist(1), 1);
        assert_eq!(IvfIndex::default_nlist(100_000_000), 4096);
    }
}
