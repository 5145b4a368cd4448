use crate::{Embeddings, KnnError, NearestNeighbors, Neighbor};

/// Exact brute-force nearest-neighbor search by cosine similarity.
///
/// O(n·d) per query; the reference backend for recall measurements and the
/// default for small datasets (CIFAR-100-scale) where exactness is cheap.
/// Every search is one `submod_kernels::batch_top_k` scan, which
/// streams the row matrix once per query block.
///
/// ```
/// use submod_knn::{Embeddings, ExactKnn, NearestNeighbors};
///
/// # fn main() -> Result<(), submod_knn::KnnError> {
/// let data = Embeddings::from_flat(2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0])?;
/// let index = ExactKnn::build(data)?;
/// let hits = index.search(&[1.0, 0.05], 2);
/// assert_eq!(hits[0].0, 0);
/// assert_eq!(hits[1].0, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ExactKnn {
    data: Embeddings,
}

impl ExactKnn {
    /// Builds the (trivial) index by taking ownership of the embeddings.
    ///
    /// # Errors
    ///
    /// Returns an error if the embeddings are empty.
    pub fn build(data: Embeddings) -> Result<Self, KnnError> {
        if data.is_empty() {
            return Err(KnnError::EmptyParameter { name: "embeddings" });
        }
        Ok(ExactKnn { data })
    }

    /// The indexed embeddings.
    pub fn embeddings(&self) -> &Embeddings {
        &self.data
    }

    /// Flattens borrowed query rows into one row-major buffer for the
    /// batch kernel, validating dimensions.
    fn flatten_queries(&self, queries: &[&[f32]]) -> Vec<f32> {
        let dim = self.data.dim();
        let mut flat = Vec::with_capacity(queries.len() * dim);
        for q in queries {
            assert_eq!(q.len(), dim, "query dimension mismatch");
            flat.extend_from_slice(q);
        }
        flat
    }
}

impl NearestNeighbors for ExactKnn {
    fn search_batch_excluding(
        &self,
        queries: &[&[f32]],
        k: usize,
        excludes: &[u32],
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.len(), excludes.len(), "one exclude per query");
        submod_kernels::batch_top_k(
            &self.flatten_queries(queries),
            self.data.as_flat(),
            self.data.norms(),
            self.data.dim(),
            k,
            excludes,
        )
    }
}

/// Ranks an explicit candidate list (each id at most once) by cosine
/// similarity to `query`, keeping the top `k`. Used by the IVF widening
/// fallback; the scan is tiled four candidates per micro-kernel pass with
/// the query norm hoisted out of the loop.
pub(crate) fn rank_candidates(
    data: &Embeddings,
    query: &[f32],
    candidates: &[u32],
    k: usize,
    exclude: u32,
) -> Vec<Neighbor> {
    submod_kernels::cosine_top_k_gather(
        data.as_flat(),
        data.norms(),
        data.dim(),
        candidates,
        query,
        k,
        exclude,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(n: usize) -> Embeddings {
        // Points on the unit circle at increasing angles: neighbors in
        // index order.
        let flat: Vec<f32> = (0..n)
            .flat_map(|i| {
                let theta = i as f32 * 0.1;
                [theta.cos(), theta.sin()]
            })
            .collect();
        Embeddings::from_flat(2, flat).unwrap()
    }

    #[test]
    fn search_finds_angular_neighbors() {
        let data = line_data(20);
        let index = ExactKnn::build(data).unwrap();
        let hits = index.search_excluding(index.embeddings().row(10).to_vec().as_slice(), 2, 10);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&9) && ids.contains(&11), "got {ids:?}");
    }

    #[test]
    fn results_are_sorted_descending() {
        let data = line_data(30);
        let index = ExactKnn::build(data).unwrap();
        let hits = index.search(&[1.0, 0.0], 10);
        for pair in hits.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let data = line_data(5);
        let index = ExactKnn::build(data).unwrap();
        assert_eq!(index.search(&[1.0, 0.0], 50).len(), 5);
        assert_eq!(index.search_excluding(&[1.0, 0.0], 50, 0).len(), 4);
    }

    #[test]
    fn k_zero_returns_empty() {
        let data = line_data(5);
        let index = ExactKnn::build(data).unwrap();
        assert!(index.search(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_embeddings_rejected() {
        let data = Embeddings::from_flat(3, vec![]).unwrap();
        assert!(ExactKnn::build(data).is_err());
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        // Identical points: smaller indices must win the top-k slots.
        let data = Embeddings::from_flat(2, [1.0, 0.0].repeat(4)).unwrap();
        let index = ExactKnn::build(data).unwrap();
        let hits = index.search(&[1.0, 0.0], 2);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn rank_candidates_filters_and_ranks() {
        let data = line_data(10);
        let hits = rank_candidates(&data, data.row(0).to_vec().as_slice(), &[2u32, 5, 8], 2, 5);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![2, 8]);
    }

    #[test]
    fn batch_search_is_bitwise_identical_to_single() {
        let data = line_data(33);
        let index = ExactKnn::build(data.clone()).unwrap();
        let queries: Vec<&[f32]> = (0..data.len()).map(|i| data.row(i)).collect();
        let excludes: Vec<u32> = (0..data.len() as u32).collect();
        let batched = index.search_batch_excluding(&queries, 5, &excludes);
        let plain = index.search_batch(&queries, 5);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], index.search_excluding(q, 5, i as u32), "query {i}");
            assert_eq!(plain[i], index.search(q, 5), "query {i}");
        }
    }
}
