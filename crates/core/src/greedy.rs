//! Centralized greedy maximization of pairwise submodular objectives.
//!
//! Two variants are provided:
//!
//! - [`greedy_select`] — the paper's Algorithm 2: a priority queue seeded
//!   with utilities, with neighbor priorities decreased on every pop. This
//!   is the gold-standard reference every distributed experiment is
//!   normalized against (§6).
//! - [`naive_greedy_select`] — Algorithm 1 verbatim: recomputes every
//!   marginal gain per step, O(n·k). Used as a test oracle.
//!
//! Both return the same selection, which the test-suite verifies.

use crate::{
    AddressablePq, CoreError, NodeId, NodeSet, PairwiseObjective, Selection, SimilarityGraph,
};

/// The instance check every selection algorithm starts with: one utility
/// per graph node, and a budget `k` no larger than the graph.
///
/// # Errors
///
/// [`CoreError::UtilityLengthMismatch`] if the objective does not match
/// the graph, [`CoreError::BudgetTooLarge`] if `k` exceeds its nodes.
pub fn validate_instance(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
) -> Result<(), CoreError> {
    if objective.num_nodes() != graph.num_nodes() {
        return Err(CoreError::UtilityLengthMismatch {
            utilities: objective.num_nodes(),
            num_nodes: graph.num_nodes(),
        });
    }
    if k > graph.num_nodes() {
        return Err(CoreError::BudgetTooLarge { budget: k, available: graph.num_nodes() });
    }
    Ok(())
}

/// Selects `k` points with the paper's Algorithm 2 (priority-queue greedy).
///
/// All points enter an [`AddressablePq`] with priority `u(v)`. Repeatedly
/// the maximum is popped and added to `S`, and each still-enqueued neighbor
/// `w` has its priority decreased by `(β/α)·s(v, w)`. The popped priority
/// times α is exactly the marginal gain, so the accumulated objective equals
/// `f(S)` without any re-evaluation.
///
/// # Errors
///
/// Returns an error if the objective does not match the graph or `k`
/// exceeds the ground set.
///
/// ```
/// use submod_core::{GraphBuilder, PairwiseObjective, greedy_select};
///
/// # fn main() -> Result<(), submod_core::CoreError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_undirected(0, 1, 1.0)?;
/// let graph = b.build();
/// let obj = PairwiseObjective::from_alpha(0.5, vec![1.0, 0.95, 0.2])?;
/// let sel = greedy_select(&graph, &obj, 2)?;
/// // 0 is picked first; then 2 beats 1 because 1 is similar to 0.
/// assert_eq!(sel.selected().iter().map(|n| n.raw()).collect::<Vec<_>>(), vec![0, 2]);
/// # Ok(())
/// # }
/// ```
pub fn greedy_select(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
) -> Result<Selection, CoreError> {
    validate_instance(graph, objective, k)?;
    let ratio = objective.ratio();
    let priorities: Vec<f64> = objective.utilities().iter().map(|&u| f64::from(u)).collect();
    let mut pq = AddressablePq::with_priorities(priorities);

    let mut selected = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    let mut value = 0.0f64;

    while selected.len() < k {
        let Some((v, priority)) = pq.pop_max() else { break };
        let gain = objective.alpha() * priority;
        let vid = NodeId::new(u64::from(v));
        for (w, s) in graph.edges(vid) {
            let w = w.index() as u32;
            if pq.contains(w) {
                pq.decrease_by(w, ratio * f64::from(s));
            }
        }
        selected.push(vid);
        gains.push(gain);
        value += gain;
    }
    Ok(Selection::new(selected, gains, value))
}

/// Selects `k` points with Algorithm 1 verbatim: each step evaluates the
/// marginal gain of every remaining point. O(n·k·deg) — test oracle only.
///
/// # Errors
///
/// Same conditions as [`greedy_select`].
pub fn naive_greedy_select(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
) -> Result<Selection, CoreError> {
    validate_instance(graph, objective, k)?;
    let n = graph.num_nodes();
    let mut members = NodeSet::new(n);
    let mut selected = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    let mut value = 0.0;

    for _ in 0..k {
        let mut best: Option<(NodeId, f64)> = None;
        for i in 0..n {
            let v = NodeId::from_index(i);
            if members.contains(v) {
                continue;
            }
            let gain = objective.marginal_gain(graph, &members, v);
            // Strict > keeps the smallest index on ties, matching the
            // deterministic tie-break of the priority-queue variant.
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((v, gain));
            }
        }
        let Some((v, gain)) = best else { break };
        members.insert(v);
        selected.push(v);
        gains.push(gain);
        value += gain;
    }
    Ok(Selection::new(selected, gains, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::{Rng, SeedableRng};

    fn random_instance(
        n: usize,
        degree: usize,
        alpha: f64,
        seed: u64,
    ) -> (SimilarityGraph, PairwiseObjective) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u64 {
            for _ in 0..degree {
                let w = rng.gen_range(0..n as u64);
                if w != v {
                    b.add_undirected(v, w, rng.gen_range(0.0..1.0)).unwrap();
                }
            }
        }
        let graph = b.build();
        let utilities: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let objective = PairwiseObjective::from_alpha(alpha, utilities).unwrap();
        (graph, objective)
    }

    #[test]
    fn pq_greedy_matches_naive_oracle() {
        for seed in 0..5 {
            let (graph, obj) = random_instance(40, 3, 0.8, seed);
            let fast = greedy_select(&graph, &obj, 15).unwrap();
            let slow = naive_greedy_select(&graph, &obj, 15).unwrap();
            assert_eq!(fast.selected(), slow.selected(), "seed {seed}");
            assert!((fast.objective_value() - slow.objective_value()).abs() < 1e-9);
        }
    }

    #[test]
    fn accumulated_value_matches_reevaluation() {
        let (graph, obj) = random_instance(60, 4, 0.6, 9);
        let sel = greedy_select(&graph, &obj, 30).unwrap();
        let reeval = obj.evaluate(&graph, sel.selected());
        assert!(
            (sel.objective_value() - reeval).abs() < 1e-6,
            "telescoped {} vs re-evaluated {reeval}",
            sel.objective_value()
        );
    }

    #[test]
    fn greedy_respects_budget_and_uniqueness() {
        let (graph, obj) = random_instance(50, 3, 0.9, 3);
        let sel = greedy_select(&graph, &obj, 20).unwrap();
        assert_eq!(sel.len(), 20);
        let mut ids: Vec<u64> = sel.selected().iter().map(|n| n.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20, "no duplicates");
    }

    #[test]
    fn k_zero_and_k_full() {
        let (graph, obj) = random_instance(10, 2, 0.9, 1);
        assert!(greedy_select(&graph, &obj, 0).unwrap().is_empty());
        let all = greedy_select(&graph, &obj, 10).unwrap();
        assert_eq!(all.len(), 10);
        let total = obj.evaluate(&graph, all.selected());
        assert!((all.objective_value() - total).abs() < 1e-6);
    }

    #[test]
    fn budget_too_large_is_an_error() {
        let (graph, obj) = random_instance(10, 2, 0.9, 1);
        assert!(matches!(
            greedy_select(&graph, &obj, 11),
            Err(CoreError::BudgetTooLarge { budget: 11, available: 10 })
        ));
    }

    #[test]
    fn mismatched_objective_is_an_error() {
        let (graph, _) = random_instance(10, 2, 0.9, 1);
        let obj = PairwiseObjective::from_alpha(0.9, vec![1.0; 9]).unwrap();
        assert!(matches!(
            greedy_select(&graph, &obj, 2),
            Err(CoreError::UtilityLengthMismatch { .. })
        ));
    }

    #[test]
    fn gains_are_nonincreasing_for_monotone_instances() {
        // Submodularity ⇒ greedy marginal gains never increase.
        let (graph, obj) = random_instance(50, 3, 0.9, 11);
        let sel = greedy_select(&graph, &obj, 25).unwrap();
        for pair in sel.gains.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "gains must be non-increasing: {pair:?}");
        }
    }

    #[test]
    fn isolated_points_selected_by_utility_order() {
        let graph = GraphBuilder::new(5).build();
        let obj = PairwiseObjective::from_alpha(0.9, vec![0.1, 0.5, 0.3, 0.9, 0.7]).unwrap();
        let sel = greedy_select(&graph, &obj, 3).unwrap();
        let ids: Vec<u64> = sel.selected().iter().map(|n| n.raw()).collect();
        assert_eq!(ids, vec![3, 4, 1]);
    }
}
