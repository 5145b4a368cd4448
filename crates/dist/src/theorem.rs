//! The paper's Theorem 4.6: a probabilistic quality guarantee for the
//! approximate-bounding pipeline as a function of the sampling
//! probability `p` and the instance's bound spread γ.

use crate::config::check_probability;
use crate::DistError;
use submod_core::{validate_instance, NodeId, PairwiseObjective, SimilarityGraph};

/// The instantiated Theorem 4.6 guarantee for one instance and one `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Theorem46Guarantee {
    /// The sampling probability the guarantee was instantiated for.
    pub p: f64,
    /// Bound spread `γ = max_v U_max(v) / min_v U_min(v)`; infinite when
    /// some minimum utility is non-positive (the "vacuous bound" regime —
    /// Appendix A's offset restores a finite γ).
    pub gamma: f64,
    /// Guaranteed fraction of the optimal objective:
    /// `(1 − 1/e) / (1 + (1 − p)·γ)`. Equals the classic `1 − 1/e` at
    /// `p = 1` (exact bounding) and degrades toward 0 as sampling thins
    /// or the spread grows.
    pub approximation_factor: f64,
    /// Probability the sampled thresholds were conservative everywhere:
    /// `1 − (1 − p)^(k_g + 1)` with `k_g` the minimum graph degree.
    pub success_probability: f64,
    /// The minimum degree `k_g` (the theorem's exponent).
    pub min_degree: usize,
}

impl Theorem46Guarantee {
    /// Checks the bound against an observed run: `achieved` must reach
    /// `approximation_factor · reference` (up to floating-point slack).
    /// Returns `false` when the observed quality violates the guarantee —
    /// which for `p < 1` is a legitimate low-probability event, and for
    /// exact bounding (`p = 1`) indicates a broken implementation.
    pub fn holds(&self, achieved: f64, reference: f64) -> bool {
        if reference <= 0.0 {
            // Non-positive references make the multiplicative bound
            // vacuous; treat it as satisfied.
            return true;
        }
        achieved + 1e-9 * reference.abs() >= self.approximation_factor * reference
    }
}

/// Instantiates Theorem 4.6 for `graph`/`objective` at sampling
/// probability `p`.
///
/// # Errors
///
/// Returns an error unless `p ∈ (0, 1]` or if the objective does not
/// match the graph.
pub fn theorem_4_6(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    p: f64,
) -> Result<Theorem46Guarantee, DistError> {
    check_probability(p)?;
    validate_instance(graph, objective, 0)?;

    let ratio = objective.ratio();
    let mut umax_max = f64::NEG_INFINITY;
    let mut umin_min = f64::INFINITY;
    for i in 0..graph.num_nodes() {
        let v = NodeId::from_index(i);
        let u = objective.utility(v);
        umax_max = umax_max.max(u);
        umin_min = umin_min.min(u - ratio * graph.weighted_degree(v));
    }
    let gamma = if graph.num_nodes() == 0 {
        1.0
    } else if umin_min > 0.0 {
        (umax_max / umin_min).max(1.0)
    } else {
        f64::INFINITY
    };

    let min_degree = graph.min_degree();
    let approximation_factor = if p >= 1.0 {
        1.0 - std::f64::consts::E.recip()
    } else if gamma.is_finite() {
        (1.0 - std::f64::consts::E.recip()) / (1.0 + (1.0 - p) * gamma)
    } else {
        0.0
    };
    let success_probability = 1.0 - (1.0 - p).powi(min_degree as i32 + 1);

    Ok(Theorem46Guarantee { p, gamma, approximation_factor, success_probability, min_degree })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{select_subset, BoundingConfig, DistGreedyConfig, PipelineConfig};
    use submod_core::{greedy_select, GraphBuilder};

    /// A monotone instance with strictly positive minimum utilities, so γ
    /// is finite.
    fn monotone_instance() -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(24);
        for v in 0..24u64 {
            b.add_undirected(v, (v + 1) % 24, 0.3).unwrap();
            b.add_undirected(v, (v + 6) % 24, 0.2).unwrap();
        }
        let graph = b.build();
        // α = 0.9 ⇒ ratio = 1/9; weighted degree = 1.0 ⇒ penalty ≈ 0.11,
        // so utilities ≥ 0.5 keep U_min > 0.
        let utilities: Vec<f32> = (0..24).map(|i| 0.5 + (i % 5) as f32 * 0.2).collect();
        (graph, PairwiseObjective::from_alpha(0.9, utilities).unwrap())
    }

    #[test]
    fn exact_bounding_factor_is_one_minus_inv_e() {
        let (graph, objective) = monotone_instance();
        let guarantee = theorem_4_6(&graph, &objective, 1.0).unwrap();
        assert!((guarantee.approximation_factor - (1.0 - 1.0 / std::f64::consts::E)).abs() < 1e-12);
        assert_eq!(guarantee.success_probability, 1.0);
        assert!(guarantee.gamma.is_finite() && guarantee.gamma >= 1.0);
        assert_eq!(guarantee.min_degree, graph.min_degree());
    }

    /// The ISSUE's contract: the bound must hold for the exact-bounding
    /// pipeline end to end.
    #[test]
    fn bound_holds_for_exact_bounding() {
        let (graph, objective) = monotone_instance();
        let k = 6;
        let central = greedy_select(&graph, &objective, k).unwrap().objective_value();
        let config = PipelineConfig::with_bounding(
            BoundingConfig::exact(),
            DistGreedyConfig::new(1, 1).unwrap().seed(1),
        );
        let achieved =
            select_subset(&graph, &objective, k, &config).unwrap().selection.objective_value();
        let guarantee = theorem_4_6(&graph, &objective, 1.0).unwrap();
        assert!(
            guarantee.holds(achieved, central),
            "exact bounding violated its own guarantee: {achieved} < {} × {central}",
            guarantee.approximation_factor
        );
    }

    /// The ISSUE's contract: a forced-bad run must be *reported* as a
    /// violation.
    #[test]
    fn violations_are_reported() {
        let (graph, objective) = monotone_instance();
        let k = 6;
        let central = greedy_select(&graph, &objective, k).unwrap().objective_value();
        let guarantee = theorem_4_6(&graph, &objective, 1.0).unwrap();
        assert!(guarantee.approximation_factor > 0.1);
        let forced_bad = central * 0.01;
        assert!(
            !guarantee.holds(forced_bad, central),
            "a 1 % score must violate a {:.2} guarantee",
            guarantee.approximation_factor
        );
    }

    #[test]
    fn factor_degrades_with_sparser_sampling() {
        let (graph, objective) = monotone_instance();
        let mut previous = f64::INFINITY;
        for p in [1.0, 0.9, 0.5, 0.1] {
            let g = theorem_4_6(&graph, &objective, p).unwrap();
            assert!(g.approximation_factor <= previous + 1e-12);
            assert!(g.approximation_factor > 0.0);
            assert!((0.0..=1.0).contains(&g.success_probability));
            previous = g.approximation_factor;
        }
    }

    #[test]
    fn vacuous_regime_reports_infinite_gamma() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 1.0).unwrap();
        let graph = b.build();
        // Low α makes U_min negative: the vacuous regime.
        let objective = PairwiseObjective::from_alpha(0.1, vec![0.1; 4]).unwrap();
        let g = theorem_4_6(&graph, &objective, 0.5).unwrap();
        assert!(g.gamma.is_infinite());
        assert_eq!(g.approximation_factor, 0.0);
        // Everything satisfies a vacuous factor-0 bound.
        assert!(g.holds(0.0, 1.0));
    }

    #[test]
    fn validation_errors() {
        let (graph, objective) = monotone_instance();
        assert!(theorem_4_6(&graph, &objective, 0.0).is_err());
        assert!(theorem_4_6(&graph, &objective, 1.1).is_err());
        assert!(theorem_4_6(&graph, &objective, f64::NAN).is_err());
    }
}
