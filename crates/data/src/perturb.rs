use crate::{DataError, SelectionInstance};
use rayon::prelude::*;
use submod_core::{NodeId, SimilarityGraph};
use submod_knn::Embeddings;

/// Points per [`PerturbedDataset::materialize`] fill task: the unit the
/// pool balances, and (plus the ring's reach either side) the most
/// embeddings one task holds at a time.
const FILL_CHUNK_POINTS: u64 = 4096;

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
///
/// # Cost model
///
/// An embedding costs `dim` Box–Muller normals. [`Self::neighbors`]
/// regenerates its point's embedding and one per distinct ring sibling
/// (1 + at most 4) on every call, so a virtual pass costs up to five
/// embeddings per point. [`Self::materialize`] generates each point's
/// embedding once (again only for the families a pool task's run of
/// points splits), in parallel over contiguous runs of families on the
/// `submod_exec` pool, and shares it with the rows of its ring siblings.
/// Both paths build their rows with the same routine, so a materialized
/// row is the virtual row with its zero-weight entries dropped, bit for
/// bit.
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
    fn base_len(&self) -> usize {
        self.base_embeddings.len()
    }

    /// The expansion factor.
    pub fn factor(&self) -> u64 {
        self.factor
    }

    /// Base point index of virtual point `i`.
    #[inline]
    fn base_of(&self, i: u64) -> u64 {
        i / self.factor
    }

    /// Variant index (`0..factor`) of virtual point `i`.
    #[inline]
    fn variant_of(&self, i: u64) -> u64 {
        i % self.factor
    }

    /// The embedding of virtual point `i`, generated deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `i >= total_points()`.
    pub fn embedding(&self, i: u64) -> Vec<f32> {
        assert!(i < self.total_points(), "virtual index {i} out of range");
        let mut out = vec![0.0; self.base_embeddings.dim()];
        self.embed_into(i, &mut out);
        out
    }

    /// Writes the embedding of virtual point `i` into `out` (`dim` long).
    fn embed_into(&self, i: u64, out: &mut [f32]) {
        let base = self.base_embeddings.row(self.base_of(i) as usize);
        let mut rng = DetRng::for_index(self.seed, i);
        for (o, &x) in out.iter_mut().zip(base) {
            *o = x + self.sigma * rng.normal();
        }
    }

    /// The utility of virtual point `i`: the base utility plus small
    /// deterministic noise, clamped non-negative (utilities stay centered).
    pub fn utility(&self, i: u64) -> f32 {
        assert!(i < self.total_points(), "virtual index {i} out of range");
        let base = self.base_utilities[self.base_of(i) as usize];
        let mut rng = DetRng::for_index(self.seed ^ 0x5EED_CAFE, i);
        (base + self.utility_sigma * rng.normal()).max(0.0)
    }

    /// The largest ring offset `d`: each point links to the variants `±d`
    /// of its family for `d` in `1..=reach`, so `2 × reach` ring slots.
    fn ring_reach(&self) -> u64 {
        (self.sibling_degree / 2).max(self.sibling_degree.min(1))
    }

    /// The virtual neighbor list of point `i`: `(neighbor id, similarity)`.
    ///
    /// Symmetric by construction: sibling-ring edges use offsets `±d`
    /// within the family, cross-family edges mirror the (symmetric) base
    /// graph.
    pub fn neighbors(&self, i: u64) -> Vec<(u64, f32)> {
        assert!(i < self.total_points(), "virtual index {i} out of range");
        let family = i - self.variant_of(i);
        let emb_i = self.embedding(i);
        let mut out = Vec::new();
        self.for_each_neighbor(
            i,
            |s| submod_knn::cosine_similarity(&emb_i, &self.embedding(family + s)),
            |id, w| out.push((id, w)),
        );
        out
    }

    /// The one neighbor-row routine behind [`Self::neighbors`] and
    /// [`Self::materialize`]: hands `emit` every `(id, weight)` of point
    /// `i`'s row in ascending id order, each id once. `sibling_cosine(s)`
    /// is the cosine of `i` to variant `s` of its own family; a ring edge
    /// is kept only when it is positive.
    ///
    /// The row is sorted without a sort: the base graph's rows are, and a
    /// family's ids lie between those of the base neighbors below and
    /// above it, so the ring (sorted and deduplicated, as `±d` collide
    /// once it wraps) goes between the two halves of the base row.
    fn for_each_neighbor(
        &self,
        i: u64,
        sibling_cosine: impl Fn(u64) -> f32,
        mut emit: impl FnMut(u64, f32),
    ) {
        let (b, j, f) = (self.base_of(i), self.variant_of(i), self.factor);
        // `d <= reach <= 2` (`sibling_degree <= 4`) and `reach < f`, so
        // the ring has at most 4 entries and `j ± d` never lands on `j`.
        let mut ring = [0u64; 4];
        let mut len = 0;
        for d in 1..=self.ring_reach() {
            for s in [(j + d) % f, (j + f - d) % f] {
                ring[len] = s;
                len += 1;
            }
        }
        let ring = &mut ring[..len];
        ring.sort_unstable();

        let base = NodeId::new(b);
        let (nbrs, weights) = (self.base_graph.neighbors(base), self.base_graph.weights(base));
        let below = nbrs.partition_point(|&nb| u64::from(nb) < b);
        let cross = |k: usize| (u64::from(nbrs[k]) * f + j, weights[k]);
        for k in 0..below {
            let (id, w) = cross(k);
            emit(id, w);
        }
        for (k, &s) in ring.iter().enumerate() {
            if k > 0 && ring[k - 1] == s {
                continue;
            }
            let sim = sibling_cosine(s).max(0.0);
            if sim > 0.0 {
                emit(b * f + s, sim);
            }
        }
        for k in below..nbrs.len() {
            let (id, w) = cross(k);
            emit(id, w);
        }
    }

    /// Materializes the first `factor_limit` variants of every base point
    /// into a concrete [`SelectionInstance`]-style graph + utilities, for
    /// running the in-memory algorithms at a scaled-down size.
    ///
    /// There is no edge list. Rows go straight into CSR arrays allocated
    /// once, on the calling thread, at an upper bound of
    /// `2 × reach + base degree` slots per point (`reach` is 2 from
    /// `factor_limit = 5` up, 1 below, 0 at 1): `n · 2·reach + factor_limit
    /// · E_base` slots of 8 B (a `u32` id and an `f32` weight) for
    /// `n = base_len × factor_limit` points over a base graph of `E_base`
    /// directed edges, plus `8 (n + 1)` B of offsets and `4 n` B of
    /// utilities. Pool tasks fill disjoint runs of
    /// `FILL_CHUNK_POINTS` points and hold only that run's embeddings
    /// (at most `(FILL_CHUNK_POINTS + 4) × dim × 4` B). The rows are then
    /// compacted in place, validated, and symmetrized, which allocates
    /// the returned graph's arrays next to the upper-bound ones.
    ///
    /// # Errors
    ///
    /// Returns an error if `factor_limit` is 0 or exceeds the factor, or
    /// [`DataError::TooManyPoints`] — before allocating anything — if the
    /// slice has more points than a graph's `u32` neighbor ids address.
    pub fn materialize(&self, factor_limit: u64) -> Result<(SimilarityGraph, Vec<f32>), DataError> {
        if factor_limit == 0 || factor_limit > self.factor {
            return Err(DataError::config(format!(
                "factor_limit must be in 1..={}, got {factor_limit}",
                self.factor
            )));
        }
        let n = (self.base_len() as u64).saturating_mul(factor_limit);
        let cap = u64::from(u32::MAX);
        if n > cap {
            return Err(DataError::TooManyPoints { points: n, cap });
        }
        let scaled = PerturbedDataset {
            factor: factor_limit,
            sibling_degree: self.sibling_degree.min(factor_limit - 1),
            ..self.clone()
        };
        let f = factor_limit;
        let ring_slots = 2 * scaled.ring_reach();
        let base_offsets = self.base_graph.csr_parts().0;
        // First upper-bound slot of point `i` (`i = n` gives the total):
        // every earlier point reserves `ring_slots` plus its base degree.
        let slot = |i: u64| {
            let (b, j) = ((i / f) as usize, i % f);
            let degree = base_offsets.get(b + 1).map_or(0, |&end| end - base_offsets[b]);
            (i * ring_slots + f * base_offsets[b] + j * degree) as usize
        };

        let mut offsets = vec![0u64; n as usize + 1];
        let mut neighbors = vec![0u32; slot(n)];
        let mut weights = vec![0f32; slot(n)];
        let mut utilities = vec![0f32; n as usize];
        let chunk = FILL_CHUNK_POINTS as usize;
        let mut tasks = Vec::new();
        let (mut ids, mut ws) = (&mut neighbors[..], &mut weights[..]);
        let point_chunks = offsets[1..].chunks_mut(chunk).zip(utilities.chunks_mut(chunk));
        for (first, (lens, utilities)) in (0..n).step_by(chunk).zip(point_chunks) {
            let slots = slot(first + lens.len() as u64) - slot(first);
            let (task_ids, rest) = std::mem::take(&mut ids).split_at_mut(slots);
            ids = rest;
            let (task_weights, rest) = std::mem::take(&mut ws).split_at_mut(slots);
            ws = rest;
            tasks.push(FillTask { first, lens, ids: task_ids, weights: task_weights, utilities });
        }
        let _: Vec<()> = tasks.into_par_iter().map(|task| scaled.fill(task)).collect();

        // Compact: slide every row down to the end of the previous one.
        let mut end = 0;
        for i in 0..n {
            let (start, len) = (slot(i), offsets[i as usize + 1] as usize);
            neighbors.copy_within(start..start + len, end);
            weights.copy_within(start..start + len, end);
            end += len;
            offsets[i as usize + 1] = end as u64;
        }
        neighbors.truncate(end);
        weights.truncate(end);
        let graph = SimilarityGraph::from_csr_parts(offsets, neighbors, weights)?;
        Ok((graph.symmetrized(), utilities))
    }

    /// Fills one run of points of a materialized slice (`self` is the
    /// slice's own dataset): each point's utility, and its positive-weight
    /// row at the start of its upper-bound slots with the length in
    /// `lens`. One family segment at a time, it generates the embeddings
    /// of the segment plus `reach` ring neighbors on either side — the
    /// whole family, once, when that wraps — and reads every sibling
    /// cosine from them.
    fn fill(&self, task: FillTask<'_>) {
        let FillTask { first, lens, ids, weights, utilities } = task;
        let (f, dim, reach) = (self.factor, self.base_embeddings.dim(), self.ring_reach());
        let ring_slots = 2 * reach as usize;
        let end = first + lens.len() as u64;
        let mut window: Vec<f32> = Vec::new();
        let mut cursor = 0;
        let mut i = first;
        while i < end {
            let family = i - i % f;
            let segment_end = (family + f).min(end);
            // Variants `start, start + 1, …` (mod f) of the family, in order.
            let start = (i % f + f - reach) % f;
            let span = (segment_end - i + 2 * reach).min(f) as usize;
            window.resize(span * dim, 0.0);
            for (k, row) in window.chunks_exact_mut(dim).enumerate() {
                self.embed_into(family + (start + k as u64) % f, row);
            }
            let at = |s: u64| {
                let k = ((s + f - start) % f) as usize;
                &window[k * dim..(k + 1) * dim]
            };
            let degree = self.base_graph.degree(NodeId::new(self.base_of(i)));
            for p in i..segment_end {
                let emb_p = at(p - family);
                let local = (p - first) as usize;
                let mut len = 0;
                self.for_each_neighbor(
                    p,
                    |s| submod_knn::cosine_similarity(emb_p, at(s)),
                    |id, w| {
                        if w > 0.0 {
                            ids[cursor + len] = id as u32;
                            weights[cursor + len] = w;
                            len += 1;
                        }
                    },
                );
                lens[local] = len as u64;
                utilities[local] = self.utility(p);
                cursor += ring_slots + degree;
            }
            i = segment_end;
        }
    }
}

/// One pool task of [`PerturbedDataset::materialize`]: the points
/// `first..first + lens.len()` and their disjoint shares of the slice's
/// arrays.
struct FillTask<'a> {
    first: u64,
    /// Row lengths, one per point (the `offsets[1..]` the compaction
    /// turns into prefix sums).
    lens: &'a mut [u64],
    /// Upper-bound row slots, from the run's first slot.
    ids: &'a mut [u32],
    weights: &'a mut [f32],
    utilities: &'a mut [f32],
}

/// A tiny deterministic per-index RNG (splitmix64-seeded xorshift with
/// Box–Muller normals) — every virtual point regenerates identically on
/// every machine and every pass, which is what makes the dataset virtual.
struct DetRng {
    state: u64,
}

impl DetRng {
    fn for_index(seed: u64, index: u64) -> Self {
        // splitmix64 of (seed ⊕ index·γ) gives well-mixed nonzero state.
        let z = submod_obs::format::splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
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
                assert_eq!(bw.to_bits(), w.to_bits(), "asymmetric weight {w} vs {bw}");
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
    fn materialize_rejects_more_points_than_u32_ids() {
        // 200 base points × (u32::MAX / 200 + 1) = 4 294 967 400 points.
        let factor = u64::from(u32::MAX) / 200 + 1;
        let p = perturbed(factor);
        match p.materialize(factor) {
            Err(DataError::TooManyPoints { points, cap }) => {
                assert_eq!(points, 4_294_967_400);
                assert_eq!(cap, u64::from(u32::MAX));
            }
            other => panic!("expected TooManyPoints, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let p = perturbed(2);
        p.embedding(p.total_points());
    }
}
