use crate::{Embeddings, KnnError, NearestNeighbors, Neighbor};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Random-hyperplane locality-sensitive hashing for cosine similarity.
///
/// Each of `tables` hash tables assigns a point the sign pattern of `bits`
/// random projections; near-duplicate vectors collide with high
/// probability. Queries union the buckets across tables (with single-bit
/// multiprobe when candidates run short) and rank candidates exactly.
///
/// LSH trades recall for index-build speed — useful for the perturbed
/// billion-scale simulation where near-duplicates dominate (§6.3).
///
/// ```
/// use submod_knn::{Embeddings, LshIndex, NearestNeighbors};
///
/// # fn main() -> Result<(), submod_knn::KnnError> {
/// let data = Embeddings::from_rows(2, &[&[1.0, 0.0], &[0.99, 0.01], &[-1.0, 0.0]])?;
/// let index = LshIndex::build(data, 4, 6, 7)?;
/// let hits = index.search_excluding(&[1.0, 0.0], 1, 0);
/// assert_eq!(hits[0].0, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LshIndex {
    data: Embeddings,
    /// `tables × bits` hyperplane normals, row-major.
    planes: Vec<f32>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
    bits: usize,
}

impl LshIndex {
    /// Builds an LSH index with `tables` tables of `bits`-bit signatures.
    ///
    /// # Errors
    ///
    /// Returns an error if the embeddings are empty, `tables == 0`,
    /// `bits == 0`, or `bits > 63`.
    pub fn build(
        data: Embeddings,
        tables: usize,
        bits: usize,
        seed: u64,
    ) -> Result<Self, KnnError> {
        if data.is_empty() {
            return Err(KnnError::EmptyParameter { name: "embeddings" });
        }
        if tables == 0 {
            return Err(KnnError::EmptyParameter { name: "tables" });
        }
        if bits == 0 || bits > 63 {
            return Err(KnnError::EmptyParameter { name: "bits (1..=63)" });
        }
        let dim = data.dim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let planes: Vec<f32> =
            (0..tables * bits * dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let mut built = LshIndex { data, planes, tables: Vec::new(), bits };
        let mut table_maps = vec![HashMap::new(); tables];
        for i in 0..built.data.len() {
            let row = built.data.row(i);
            for (t, map) in table_maps.iter_mut().enumerate() {
                let sig = built.signature(t, row);
                map.entry(sig).or_insert_with(Vec::new).push(i as u32);
            }
        }
        built.tables = table_maps;
        Ok(built)
    }

    /// The indexed embeddings.
    pub fn embeddings(&self) -> &Embeddings {
        &self.data
    }

    /// Number of hash tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Signature of `row` under table `t`'s hyperplanes.
    fn signature(&self, t: usize, row: &[f32]) -> u64 {
        let dim = self.data.dim();
        let mut sig = 0u64;
        for b in 0..self.bits {
            let plane_base = (t * self.bits + b) * dim;
            let plane = &self.planes[plane_base..plane_base + dim];
            if crate::distance::dot(plane, row) >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    /// Gathers candidates from every table's bucket (plus 1-bit multiprobe
    /// neighbors when `widen` is set).
    fn candidates(&self, query: &[f32], widen: bool) -> Vec<u32> {
        let mut seen = Vec::new();
        for (t, map) in self.tables.iter().enumerate() {
            let sig = self.signature(t, query);
            if let Some(bucket) = map.get(&sig) {
                seen.extend_from_slice(bucket);
            }
            if widen {
                for b in 0..self.bits {
                    if let Some(bucket) = map.get(&(sig ^ (1 << b))) {
                        seen.extend_from_slice(bucket);
                    }
                }
            }
        }
        seen.sort_unstable();
        seen.dedup();
        seen
    }
}

impl NearestNeighbors for LshIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_excluding(query, k, u32::MAX)
    }

    fn search_excluding(&self, query: &[f32], k: usize, exclude: u32) -> Vec<Neighbor> {
        let mut candidates = self.candidates(query, false);
        if candidates.len() < k.saturating_mul(2) {
            candidates = self.candidates(query, true);
        }
        let hits = crate::brute::rank_candidates(&self.data, query, &candidates, k, exclude);
        if hits.len() >= k.min(self.data.len().saturating_sub(1)) {
            return hits;
        }
        // Last resort: exact scan (rare; tiny buckets on adversarial data).
        crate::brute::top_k_by_cosine(&self.data, query, k, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactKnn;
    use rand::{Rng, SeedableRng};

    fn noisy_duplicates(base: usize, copies: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bases: Vec<Vec<f32>> =
            (0..base).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect();
        let mut flat = Vec::new();
        for b in &bases {
            for _ in 0..copies {
                for &x in b {
                    flat.push(x + rng.gen_range(-0.01f32..0.01));
                }
            }
        }
        Embeddings::from_flat(dim, flat).unwrap()
    }

    #[test]
    fn finds_near_duplicates() {
        let data = noisy_duplicates(20, 10, 16, 5);
        let index = LshIndex::build(data.clone(), 6, 10, 5).unwrap();
        // Query with point 0; its 9 siblings (1..10) are the true neighbors.
        let hits = index.search_excluding(data.row(0), 9, 0);
        let in_family = hits.iter().filter(|&&(id, _)| id < 10).count();
        assert!(in_family >= 7, "only {in_family}/9 family members found");
    }

    #[test]
    fn recall_against_exact() {
        let data = noisy_duplicates(10, 20, 8, 11);
        let exact = ExactKnn::build(data.clone()).unwrap();
        let lsh = LshIndex::build(data.clone(), 8, 8, 11).unwrap();
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in (0..data.len()).step_by(13) {
            let truth: Vec<u32> = exact
                .search_excluding(data.row(q), 5, q as u32)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            let approx: Vec<u32> = lsh
                .search_excluding(data.row(q), 5, q as u32)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            total += truth.len();
            hits += truth.iter().filter(|t| approx.contains(t)).count();
        }
        assert!(hits as f64 / total as f64 > 0.8);
    }

    #[test]
    fn falls_back_to_exact_when_buckets_are_thin() {
        let data = noisy_duplicates(4, 1, 4, 3);
        let index = LshIndex::build(data.clone(), 1, 12, 3).unwrap();
        // 12-bit signatures over 4 points: buckets are almost surely
        // singletons, so the fallback path must still return k results.
        let hits = index.search_excluding(data.row(0), 3, 0);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn parameter_validation() {
        let data = noisy_duplicates(2, 2, 4, 1);
        assert!(LshIndex::build(data.clone(), 0, 8, 0).is_err());
        assert!(LshIndex::build(data.clone(), 2, 0, 0).is_err());
        assert!(LshIndex::build(data.clone(), 2, 64, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let data = noisy_duplicates(5, 5, 8, 2);
        let a = LshIndex::build(data.clone(), 4, 8, 77).unwrap();
        let b = LshIndex::build(data.clone(), 4, 8, 77).unwrap();
        assert_eq!(a.search(data.row(3), 4), b.search(data.row(3), 4));
    }
}
