use crate::{DataError, SelectionInstance};
use submod_core::{GraphBuilder, NodeId, SimilarityGraph};
use submod_knn::Embeddings;

/// A *virtual* perturbed dataset: every base point expands into `factor`
/// noisy copies whose embeddings, utilities, and neighbor lists are
/// computed on demand from a deterministic per-index RNG.
///
/// This reproduces the paper's Perturbed-ImageNet construction (§6:
/// *"We obtain Perturbed-ImageNet by perturbing each point of ImageNet in
/// embedding space into 10 k vectors, leading to 13 B embedding vectors"*)
/// without materializing the blowup: a `PerturbedDataset` over 1.2 M base
/// points with `factor = 10_000` *is* a 12 B-point dataset, accessed one
/// point at a time.
///
/// The virtual neighbor structure substitutes for a global ANN search
/// (which would itself need a cluster): each copy links to (a) a ring of
/// `sibling_degree` copies of the same base point with lazily-computed
/// cosine weights, and (b) the same-variant copies of the base point's
/// graph neighbors with the base edge weight. Both rules are symmetric by
/// construction, preserving the bounded-degree symmetric-graph contract
/// the algorithms require (§5).
#[derive(Clone, Debug)]
pub struct PerturbedDataset {
    base_embeddings: Embeddings,
    base_graph: SimilarityGraph,
    base_utilities: Vec<f32>,
    factor: u64,
    sigma: f32,
    utility_sigma: f32,
    sibling_degree: u64,
    seed: u64,
}

impl PerturbedDataset {
    /// Wraps a base instance, expanding each point into `factor` virtual
    /// copies with embedding noise `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error if `factor == 0` or the base instance is empty.
    pub fn new(
        base: &SelectionInstance,
        factor: u64,
        sigma: f32,
        seed: u64,
    ) -> Result<Self, DataError> {
        if factor == 0 {
            return Err(DataError::config("perturbation factor must be at least 1"));
        }
        if base.is_empty() {
            return Err(DataError::config("base instance must be non-empty"));
        }
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(DataError::config("sigma must be a finite non-negative number"));
        }
        Ok(PerturbedDataset {
            base_embeddings: base.embeddings.clone(),
            base_graph: base.graph.clone(),
            base_utilities: base.utilities.clone(),
            factor,
            sigma,
            utility_sigma: 0.01,
            sibling_degree: 4.min(factor.saturating_sub(1)),
            seed,
        })
    }

    /// Total number of virtual points (`base × factor`).
    pub fn total_points(&self) -> u64 {
        self.base_embeddings.len() as u64 * self.factor
    }

    /// Number of base points.
    pub fn base_len(&self) -> usize {
        self.base_embeddings.len()
    }

    /// The expansion factor.
    pub fn factor(&self) -> u64 {
        self.factor
    }

    /// Base point index of virtual point `i`.
    #[inline]
    pub fn base_of(&self, i: u64) -> u64 {
        i / self.factor
    }

    /// Variant index (`0..factor`) of virtual point `i`.
    #[inline]
    pub fn variant_of(&self, i: u64) -> u64 {
        i % self.factor
    }

    /// The embedding of virtual point `i`, generated deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `i >= total_points()`.
    pub fn embedding(&self, i: u64) -> Vec<f32> {
        assert!(i < self.total_points(), "virtual index {i} out of range");
        let base = self.base_embeddings.row(self.base_of(i) as usize);
        let mut rng = DetRng::for_index(self.seed, i);
        base.iter().map(|&x| x + self.sigma * rng.normal()).collect()
    }

    /// The utility of virtual point `i`: the base utility plus small
    /// deterministic noise, clamped non-negative (utilities stay centered).
    pub fn utility(&self, i: u64) -> f32 {
        assert!(i < self.total_points(), "virtual index {i} out of range");
        let base = self.base_utilities[self.base_of(i) as usize];
        let mut rng = DetRng::for_index(self.seed ^ 0x5EED_CAFE, i);
        (base + self.utility_sigma * rng.normal()).max(0.0)
    }

    /// The virtual neighbor list of point `i`: `(neighbor id, similarity)`.
    ///
    /// Symmetric by construction: sibling-ring edges use offsets `±d`
    /// within the family, cross-family edges mirror the (symmetric) base
    /// graph.
    pub fn neighbors(&self, i: u64) -> Vec<(u64, f32)> {
        assert!(i < self.total_points(), "virtual index {i} out of range");
        let b = self.base_of(i);
        let j = self.variant_of(i);
        let mut out = Vec::new();

        // Sibling ring within the family.
        let half = self.sibling_degree / 2;
        let emb_i = self.embedding(i);
        for d in 1..=half.max(if self.sibling_degree > 0 { 1 } else { 0 }) {
            if d > half && self.sibling_degree.is_multiple_of(2) {
                break;
            }
            for dir in [1i64, -1i64] {
                let sibling_variant =
                    (j as i64 + dir * d as i64).rem_euclid(self.factor as i64) as u64;
                if sibling_variant == j {
                    continue;
                }
                let sibling = b * self.factor + sibling_variant;
                let emb_s = self.embedding(sibling);
                let sim = submod_knn::cosine_similarity(&emb_i, &emb_s).max(0.0);
                if sim > 0.0 {
                    out.push((sibling, sim));
                }
            }
        }

        // Cross-family edges: same variant of each base neighbor.
        for (nb, w) in self.base_graph.edges(NodeId::new(b)) {
            out.push((nb.raw() * self.factor + j, w));
        }
        out.sort_by_key(|&(id, _)| id);
        out.dedup_by_key(|e| e.0);
        out
    }

    /// Materializes the first `factor_limit` variants of every base point
    /// into a concrete [`SelectionInstance`]-style graph + utilities, for
    /// running the in-memory algorithms at a scaled-down size.
    ///
    /// # Errors
    ///
    /// Returns an error if `factor_limit` is 0 or exceeds the factor.
    pub fn materialize(&self, factor_limit: u64) -> Result<(SimilarityGraph, Vec<f32>), DataError> {
        if factor_limit == 0 || factor_limit > self.factor {
            return Err(DataError::config(format!(
                "factor_limit must be in 1..={}, got {factor_limit}",
                self.factor
            )));
        }
        let scaled = PerturbedDataset {
            base_embeddings: self.base_embeddings.clone(),
            base_graph: self.base_graph.clone(),
            base_utilities: self.base_utilities.clone(),
            factor: factor_limit,
            sigma: self.sigma,
            utility_sigma: self.utility_sigma,
            sibling_degree: self.sibling_degree.min(factor_limit.saturating_sub(1)),
            seed: self.seed,
        };
        let n = scaled.total_points();
        let mut builder = GraphBuilder::new(n as usize);
        let mut utilities = Vec::with_capacity(n as usize);
        for i in 0..n {
            utilities.push(scaled.utility(i));
            for (nb, w) in scaled.neighbors(i) {
                if w > 0.0 {
                    builder.add_directed(i, nb, w)?;
                }
            }
        }
        Ok((builder.build().symmetrized(), utilities))
    }
}

/// A tiny deterministic per-index RNG (splitmix64-seeded xorshift with
/// Box–Muller normals) — every virtual point regenerates identically on
/// every machine and every pass, which is what makes the dataset virtual.
struct DetRng {
    state: u64,
}

impl DetRng {
    fn for_index(seed: u64, index: u64) -> Self {
        // splitmix64 of (seed ⊕ index) gives well-mixed nonzero state.
        let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng { state: z | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn uniform(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn normal(&mut self) -> f32 {
        let u1 = self.uniform().max(f32::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_instance, DatasetConfig};

    fn base() -> SelectionInstance {
        build_instance(&DatasetConfig::tiny().with_points_per_class(10).with_seed(3)).unwrap()
    }

    fn perturbed(factor: u64) -> PerturbedDataset {
        PerturbedDataset::new(&base(), factor, 0.02, 99).unwrap()
    }

    #[test]
    fn virtual_size_is_base_times_factor() {
        let p = perturbed(100);
        assert_eq!(p.total_points(), 200 * 100);
        assert_eq!(p.base_len(), 200);
        assert_eq!(p.factor(), 100);
        assert_eq!(p.base_of(250), 2);
        assert_eq!(p.variant_of(250), 50);
    }

    #[test]
    fn embeddings_are_deterministic_and_near_base() {
        let p = perturbed(50);
        let a = p.embedding(777);
        let b = p.embedding(777);
        assert_eq!(a, b);
        let base_row = p.base_embeddings.row(p.base_of(777) as usize);
        let d = submod_knn::l2_distance_squared(&a, base_row).sqrt();
        assert!(d < 0.02 * 10.0 * (a.len() as f32).sqrt(), "perturbation too large: {d}");
    }

    #[test]
    fn utilities_are_deterministic_and_nonnegative() {
        let p = perturbed(50);
        assert_eq!(p.utility(123), p.utility(123));
        for i in (0..p.total_points()).step_by(997) {
            assert!(p.utility(i) >= 0.0);
        }
    }

    #[test]
    fn virtual_neighbors_are_symmetric() {
        let p = perturbed(20);
        for i in (0..p.total_points()).step_by(271) {
            for (nb, w) in p.neighbors(i) {
                let back = p.neighbors(nb);
                let found = back.iter().find(|&&(id, _)| id == i);
                assert!(found.is_some(), "edge {i} -> {nb} missing reverse");
                let (_, bw) = *found.unwrap();
                assert!((bw - w).abs() < 1e-6, "asymmetric weight {w} vs {bw}");
            }
        }
    }

    #[test]
    fn neighbors_respect_family_structure() {
        let p = perturbed(20);
        let i = 5 * 20 + 7; // base 5, variant 7
        let nbs = p.neighbors(i);
        assert!(!nbs.is_empty());
        // Each neighbor is either a sibling (same base) or the same variant
        // of a base-graph neighbor.
        for (nb, _) in nbs {
            let same_family = p.base_of(nb) == 5;
            let same_variant = p.variant_of(nb) == 7;
            assert!(same_family || same_variant, "neighbor {nb} violates structure");
        }
    }

    #[test]
    fn materialize_builds_consistent_graph() {
        let p = perturbed(50);
        let (graph, utilities) = p.materialize(3).unwrap();
        assert_eq!(graph.num_nodes(), 200 * 3);
        assert_eq!(utilities.len(), 200 * 3);
        assert!(graph.is_symmetric());
        assert!(graph.min_degree() >= 2);
    }

    #[test]
    fn factor_one_has_no_siblings() {
        let p = perturbed(1);
        let nbs = p.neighbors(0);
        for (nb, _) in nbs {
            assert_ne!(p.base_of(nb), 0, "factor-1 dataset cannot have siblings");
        }
    }

    #[test]
    fn validation_errors() {
        let b = base();
        assert!(PerturbedDataset::new(&b, 0, 0.1, 0).is_err());
        assert!(PerturbedDataset::new(&b, 2, f32::NAN, 0).is_err());
        let p = perturbed(10);
        assert!(p.materialize(0).is_err());
        assert!(p.materialize(11).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let p = perturbed(2);
        p.embedding(p.total_points());
    }
}
