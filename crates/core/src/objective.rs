use crate::{CoreError, NodeId, NodeSet, SimilarityGraph};
use std::sync::Arc;

/// The pairwise submodular objective of the paper (§3):
///
/// ```text
/// f(S) = α · Σ_{v∈S} u(v)  −  β · Σ_{{v,w}∈E, v,w∈S} s(v,w)
/// ```
///
/// with balancing parameters `α, β ≥ 0` and per-node utilities `u(v)`.
/// Each *undirected* edge inside `S` is penalized once; the similarity graph
/// stores both directions, so [`Self::evaluate`] halves the directed sum.
///
/// Such functions are always submodular for non-negative `β` and
/// similarities (§3). They are monotone when `α·u(v) ≥ β·Σ_j s(v,j)` for all
/// nodes; when that fails, [`Self::monotonicity_offset`] produces the
/// constant δ of Appendix A that restores monotonicity.
///
/// The utilities sit behind an `Arc`, so a clone is O(1): it bumps one
/// reference count and shares them (a dataflow closure owns such a
/// clone).
///
/// ```
/// use submod_core::{GraphBuilder, PairwiseObjective, NodeId};
///
/// # fn main() -> Result<(), submod_core::CoreError> {
/// let mut builder = GraphBuilder::new(2);
/// builder.add_undirected(0, 1, 0.5)?;
/// let graph = builder.build();
/// let objective = PairwiseObjective::from_alpha(0.9, vec![1.0, 2.0])?;
///
/// let both = [NodeId::new(0), NodeId::new(1)];
/// // f({0,1}) = 0.9·(1+2) − 0.1·0.5 = 2.65
/// assert!((objective.evaluate(&graph, &both) - 2.65).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PairwiseObjective {
    alpha: f64,
    beta: f64,
    utilities: Arc<[f32]>,
}

impl PairwiseObjective {
    /// Creates an objective with explicit `α`, `β`, and utilities.
    ///
    /// # Errors
    ///
    /// Returns an error if `α ≤ 0`, `β < 0`, either is non-finite, or any
    /// utility is non-finite.
    pub fn new(alpha: f64, beta: f64, utilities: Vec<f32>) -> Result<Self, CoreError> {
        if !(alpha.is_finite() && beta.is_finite() && alpha > 0.0 && beta >= 0.0) {
            return Err(CoreError::InvalidBalance { alpha, beta });
        }
        for (i, &u) in utilities.iter().enumerate() {
            if !u.is_finite() {
                return Err(CoreError::InvalidUtility { node: i as u64, utility: u });
            }
        }
        Ok(PairwiseObjective { alpha, beta, utilities: utilities.into() })
    }

    /// Creates an objective with the paper's convention `β = 1 − α` (§6).
    ///
    /// # Errors
    ///
    /// Returns an error if `α ∉ (0, 1]` or any utility is non-finite.
    pub fn from_alpha(alpha: f64, utilities: Vec<f32>) -> Result<Self, CoreError> {
        if !(alpha.is_finite() && alpha > 0.0 && alpha <= 1.0) {
            return Err(CoreError::InvalidBalance { alpha, beta: 1.0 - alpha });
        }
        Self::new(alpha, 1.0 - alpha, utilities)
    }

    /// The utility coefficient α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The diversity coefficient β.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The ratio `β / α` that scales similarity sums into utility units.
    ///
    /// Priorities in Algorithm 2, as well as U_min / U_max / U_exp
    /// (Defs. 4.1, 4.2, 4.5), are expressed as `u(v) − (β/α)·Σ s`.
    #[inline]
    pub fn ratio(&self) -> f64 {
        self.beta / self.alpha
    }

    /// Number of nodes the objective is defined over.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.utilities.len()
    }

    /// Utility `u(v)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn utility(&self, v: NodeId) -> f64 {
        f64::from(self.utilities[v.index()])
    }

    /// All utilities, aligned with node indices.
    #[inline]
    pub fn utilities(&self) -> &[f32] {
        &self.utilities
    }

    /// Evaluates `f(S)` for the subset `subset` on `graph`.
    ///
    /// Nodes may appear in any order; duplicates are ignored. The pair term
    /// counts each undirected edge with both endpoints in `S` exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the graph size differs from the utility vector or a node is
    /// out of bounds.
    pub fn evaluate(&self, graph: &SimilarityGraph, subset: &[NodeId]) -> f64 {
        assert_eq!(
            graph.num_nodes(),
            self.utilities.len(),
            "graph and objective must cover the same ground set"
        );
        let members = NodeSet::from_members(graph.num_nodes(), subset.iter().copied());
        self.evaluate_members(graph, &members)
    }

    /// Evaluates `f(S)` given a membership bitset.
    fn evaluate_members(&self, graph: &SimilarityGraph, members: &NodeSet) -> f64 {
        let mut unary = 0.0f64;
        let mut pair_directed = 0.0f64;
        for v in members.iter() {
            unary += self.utility(v);
            for (w, s) in graph.edges(v) {
                if members.contains(w) {
                    pair_directed += f64::from(s);
                }
            }
        }
        self.alpha * unary - self.beta * pair_directed / 2.0
    }

    /// Marginal gain `f(S ∪ {v}) − f(S)` for `v ∉ S`.
    ///
    /// Equals `α·u(v) − β·Σ_{w∈S, (v,w)∈E} s(v,w)`; linear in the already-
    /// selected neighbors, which is what makes Algorithm 2's priority-queue
    /// updates cheap.
    pub fn marginal_gain(&self, graph: &SimilarityGraph, members: &NodeSet, v: NodeId) -> f64 {
        let mut sim = 0.0f64;
        for (w, s) in graph.edges(v) {
            if members.contains(w) {
                sim += f64::from(s);
            }
        }
        self.alpha * self.utility(v) - self.beta * sim
    }

    /// The constant offset `δ = (β/α)·max_l Σ_j s(l,j)` of Appendix A.
    ///
    /// Adding δ to every utility makes the objective monotone while leaving
    /// the greedy selection order unchanged; the approximation guarantee
    /// shifts to `f(S) + kδ ≥ (1 − 1/e)(f(S_OPT) + kδ)`.
    pub fn monotonicity_offset(&self, graph: &SimilarityGraph) -> f64 {
        self.ratio() * graph.max_weighted_degree()
    }

    /// Returns a copy with `offset` added to every utility (Appendix A).
    ///
    /// # Errors
    ///
    /// Returns an error if the shifted utilities are non-finite.
    pub fn with_utility_offset(&self, offset: f64) -> Result<Self, CoreError> {
        let utilities =
            self.utilities.iter().map(|&u| (f64::from(u) + offset) as f32).collect::<Vec<_>>();
        Self::new(self.alpha, self.beta, utilities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> SimilarityGraph {
        let mut b = GraphBuilder::new(3);
        b.add_undirected(0, 1, 0.6).unwrap();
        b.add_undirected(1, 2, 0.4).unwrap();
        b.add_undirected(0, 2, 0.2).unwrap();
        b.build()
    }

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId::new).collect()
    }

    /// The monotonicity condition of §3: for every node,
    /// `α·u(v) ≥ β·Σ_j s(v,j)`.
    fn is_monotone_on(f: &PairwiseObjective, graph: &SimilarityGraph) -> bool {
        (0..graph.num_nodes()).all(|i| {
            let v = NodeId::from_index(i);
            f.alpha * f.utility(v) >= f.beta * graph.weighted_degree(v) - 1e-12
        })
    }

    #[test]
    fn evaluate_counts_each_undirected_edge_once() {
        let g = triangle();
        let f = PairwiseObjective::new(1.0, 1.0, vec![1.0, 1.0, 1.0]).unwrap();
        assert!((f.evaluate(&g, &ids(&[0])) - 1.0).abs() < 1e-9);
        assert!((f.evaluate(&g, &ids(&[0, 1])) - (2.0 - 0.6)).abs() < 1e-6);
        assert!((f.evaluate(&g, &ids(&[0, 1, 2])) - (3.0 - 1.2)).abs() < 1e-6);
        assert_eq!(f.evaluate(&g, &[]), 0.0);
    }

    /// Dataflow closures own clones of the graph and the objective, which
    /// is affordable only while a clone shares the storage.
    #[test]
    fn clones_share_graph_and_utility_storage() {
        let g = triangle();
        let f = PairwiseObjective::from_alpha(0.7, vec![0.9, 0.5, 0.3]).unwrap();
        let (g2, f2) = (g.clone(), f.clone());
        assert_eq!(g2.csr_parts().1.as_ptr(), g.csr_parts().1.as_ptr());
        assert_eq!(f2.utilities().as_ptr(), f.utilities().as_ptr());
    }

    #[test]
    fn duplicates_in_subset_are_ignored() {
        let g = triangle();
        let f = PairwiseObjective::new(1.0, 1.0, vec![1.0, 1.0, 1.0]).unwrap();
        assert_eq!(f.evaluate(&g, &ids(&[0, 0, 1])), f.evaluate(&g, &ids(&[0, 1])));
    }

    #[test]
    fn marginal_gain_matches_evaluate_difference() {
        let g = triangle();
        let f = PairwiseObjective::from_alpha(0.7, vec![0.9, 0.5, 0.3]).unwrap();
        let members = NodeSet::from_members(3, ids(&[0]));
        let direct = f.marginal_gain(&g, &members, NodeId::new(1));
        let via_eval = f.evaluate(&g, &ids(&[0, 1])) - f.evaluate(&g, &ids(&[0]));
        assert!((direct - via_eval).abs() < 1e-9);
    }

    #[test]
    fn submodularity_diminishing_returns() {
        // For pairwise objectives the gain of adding e to A ⊇ B never
        // exceeds the gain of adding e to B (paper §3 derivation).
        let g = triangle();
        let f = PairwiseObjective::from_alpha(0.5, vec![1.0, 1.0, 1.0]).unwrap();
        let small = NodeSet::from_members(3, ids(&[0]));
        let large = NodeSet::from_members(3, ids(&[0, 1]));
        let gain_small = f.marginal_gain(&g, &small, NodeId::new(2));
        let gain_large = f.marginal_gain(&g, &large, NodeId::new(2));
        assert!(gain_large <= gain_small + 1e-12);
    }

    #[test]
    fn monotonicity_check_and_offset() {
        let g = triangle();
        // Low α makes the pair term dominate: non-monotone.
        let f = PairwiseObjective::from_alpha(0.1, vec![0.1, 0.1, 0.1]).unwrap();
        assert!(!is_monotone_on(&f, &g));
        let delta = f.monotonicity_offset(&g);
        let fixed = f.with_utility_offset(delta).unwrap();
        assert!(is_monotone_on(&fixed, &g));
        // The offset is (β/α)·max weighted degree = 9 · 1.0.
        assert!((delta - 9.0 * 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            PairwiseObjective::new(0.0, 0.5, vec![]),
            Err(CoreError::InvalidBalance { .. })
        ));
        assert!(matches!(
            PairwiseObjective::new(0.5, -0.1, vec![]),
            Err(CoreError::InvalidBalance { .. })
        ));
        assert!(matches!(
            PairwiseObjective::from_alpha(1.5, vec![]),
            Err(CoreError::InvalidBalance { .. })
        ));
        assert!(matches!(
            PairwiseObjective::new(0.5, 0.5, vec![f32::NAN]),
            Err(CoreError::InvalidUtility { .. })
        ));
    }

    #[test]
    fn ratio_is_beta_over_alpha() {
        let f = PairwiseObjective::from_alpha(0.8, vec![]).unwrap();
        assert!((f.ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn beta_zero_reduces_to_modular_sum() {
        let g = triangle();
        let f = PairwiseObjective::new(2.0, 0.0, vec![1.0, 2.0, 3.0]).unwrap();
        assert!((f.evaluate(&g, &ids(&[0, 1, 2])) - 12.0).abs() < 1e-9);
        assert!(is_monotone_on(&f, &g));
    }
}
