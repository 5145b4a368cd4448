//! Centralized greedy maximization of pairwise submodular objectives.
//!
//! Four variants are provided:
//!
//! - [`greedy_select`] — the paper's Algorithm 2: a priority queue seeded
//!   with utilities, with neighbor priorities decreased on every pop. This
//!   is the gold-standard reference every distributed experiment is
//!   normalized against (§6).
//! - [`naive_greedy_select`] — Algorithm 1 verbatim: recomputes every
//!   marginal gain per step, O(n·k). Used as a test oracle.
//! - [`lazy_greedy_select`] — Minoux's lazy greedy, discussed in §3
//!   "Related optimizations": pops a stale candidate, recomputes its true
//!   marginal gain against the current subset, and reinserts unless it still
//!   tops the queue.
//! - [`stochastic_greedy_select`] — stochastic greedy (Mirzasoleiman et
//!   al., 2015): each step scans a random sample of `⌈(n/k)·ln(1/ε)⌉`
//!   remaining candidates.
//!
//! All variants return identical results to Algorithm 1 where their
//! guarantees promise so (the lazy variant exactly, the queue variant
//! exactly, stochastic in expectation), which the test-suite verifies.

use crate::{
    AddressablePq, CoreError, NodeId, NodeSet, PairwiseObjective, Selection, SimilarityGraph,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn validate_instance(
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

/// Selects `k` points with Minoux's lazy greedy.
///
/// Priorities start at the utilities but are *not* updated when neighbors
/// are selected; instead the top candidate's true marginal gain is
/// recomputed on demand and the candidate is reinserted if it no longer
/// tops the queue. Submodularity guarantees upper bounds only decrease, so
/// the output matches the eager greedy exactly (up to ties).
///
/// The paper (§3) notes this variant can be *slower* for pairwise
/// objectives because deferred updates make later recomputations touch the
/// whole current subset. It is kept as a §3 baseline and a test oracle;
/// no selection path runs it.
///
/// # Errors
///
/// Same conditions as [`greedy_select`].
pub fn lazy_greedy_select(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
) -> Result<Selection, CoreError> {
    validate_instance(graph, objective, k)?;
    let priorities: Vec<f64> = objective.utilities().iter().map(|&u| f64::from(u)).collect();
    let mut pq = AddressablePq::with_priorities(priorities);
    let n = graph.num_nodes();
    let mut members = NodeSet::new(n);
    // Step counter at which each node's cached priority was last refreshed.
    let mut fresh_at = vec![0u32; n];
    let mut step = 0u32;

    let mut selected = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    let mut value = 0.0;

    while selected.len() < k {
        let Some((v, cached)) = pq.pop_max() else { break };
        if fresh_at[v as usize] == step {
            // Cached value is current: select it.
            let vid = NodeId::new(u64::from(v));
            members.insert(vid);
            selected.push(vid);
            let gain = objective.alpha() * cached;
            gains.push(gain);
            value += gain;
            step += 1;
            continue;
        }
        // Stale: recompute the true marginal gain (in priority units) and
        // reinsert. If it still tops the queue it is selected next pop.
        let vid = NodeId::new(u64::from(v));
        let gain = objective.marginal_gain(graph, &members, vid);
        let priority = gain / objective.alpha();
        fresh_at[v as usize] = step;
        // Reinsert by pushing back with the updated priority.
        // `remove`+`update` is emulated via a fresh insert: AddressablePq has
        // fixed membership, so instead lower/raise the stored priority and
        // re-add through `update` after re-registering the slot.
        pq.reinsert(v, priority);
    }
    Ok(Selection::new(selected, gains, value))
}

/// Selects up to `k` points with threshold greedy (Badanidiyuru &
/// Vondrák, 2014), the third "related optimization" §3 discusses.
///
/// Thresholds sweep down geometrically from the maximum utility by factors
/// of `(1 − ε)`; each pass adds every remaining point whose current
/// marginal gain meets the threshold. Gives a `(1 − 1/e − ε)` guarantee
/// for monotone objectives in `O((n/ε)·log(n/ε))` gain evaluations.
///
/// # Errors
///
/// Returns an error under the same conditions as [`greedy_select`], or if
/// `epsilon ∉ (0, 1)`.
pub fn threshold_greedy_select(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    epsilon: f64,
) -> Result<Selection, CoreError> {
    validate_instance(graph, objective, k)?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CoreError::EmptyParameter { name: "epsilon" });
    }
    let n = graph.num_nodes();
    if k == 0 || n == 0 {
        return Ok(Selection::empty());
    }
    let max_utility = objective
        .utilities()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
        .max(f32::MIN_POSITIVE) as f64;
    let stop = epsilon / n as f64 * max_utility;

    let mut members = NodeSet::new(n);
    let mut selected = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    let mut value = 0.0;
    let mut threshold = objective.alpha() * max_utility;
    while selected.len() < k && threshold >= stop {
        for i in 0..n {
            if selected.len() >= k {
                break;
            }
            let v = NodeId::from_index(i);
            if members.contains(v) {
                continue;
            }
            let gain = objective.marginal_gain(graph, &members, v);
            if gain >= threshold {
                members.insert(v);
                selected.push(v);
                gains.push(gain);
                value += gain;
            }
        }
        threshold *= 1.0 - epsilon;
    }
    Ok(Selection::new(selected, gains, value))
}

/// Selects `k` points with stochastic greedy (Mirzasoleiman et al., 2015).
///
/// Each step draws `⌈(n/k)·ln(1/ε)⌉` uniformly random remaining candidates
/// and picks the best of the sample, giving a `(1 − 1/e − ε)` guarantee in
/// expectation for monotone objectives.
///
/// # Errors
///
/// Returns an error under the same conditions as [`greedy_select`], or if
/// `epsilon ∉ (0, 1)`.
pub fn stochastic_greedy_select(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    epsilon: f64,
    seed: u64,
) -> Result<Selection, CoreError> {
    validate_instance(graph, objective, k)?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CoreError::EmptyParameter { name: "epsilon" });
    }
    let n = graph.num_nodes();
    if k == 0 || n == 0 {
        return Ok(Selection::empty());
    }
    let sample_size = (((n as f64 / k as f64) * (1.0 / epsilon).ln()).ceil() as usize).clamp(1, n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut remaining: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let mut members = NodeSet::new(n);
    let mut selected = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    let mut value = 0.0;

    while selected.len() < k && !remaining.is_empty() {
        let take = sample_size.min(remaining.len());
        // Partial Fisher–Yates: move `take` random candidates to the front.
        for i in 0..take {
            let j = i + (rand::Rng::gen_range(&mut rng, 0..remaining.len() - i));
            remaining.swap(i, j);
        }
        let mut best: Option<(usize, f64)> = None;
        for (idx, &v) in remaining[..take].iter().enumerate() {
            let gain = objective.marginal_gain(graph, &members, v);
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((idx, gain));
            }
        }
        let (idx, gain) = best.expect("sample is non-empty");
        let v = remaining.swap_remove(idx);
        members.insert(v);
        selected.push(v);
        gains.push(gain);
        value += gain;
    }
    let _ = remaining.choose(&mut rng); // keep RNG stream length stable across k
    Ok(Selection::new(selected, gains, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::Rng;

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
    fn lazy_greedy_matches_naive_oracle() {
        for seed in 0..5 {
            let (graph, obj) = random_instance(40, 3, 0.8, seed);
            let lazy = lazy_greedy_select(&graph, &obj, 15).unwrap();
            let slow = naive_greedy_select(&graph, &obj, 15).unwrap();
            assert_eq!(lazy.selected(), slow.selected(), "seed {seed}");
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
        for pair in sel.gains().windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "gains must be non-increasing: {pair:?}");
        }
    }

    #[test]
    fn stochastic_greedy_close_to_greedy() {
        let (graph, obj) = random_instance(200, 4, 0.9, 21);
        let exact = greedy_select(&graph, &obj, 20).unwrap();
        let stochastic = stochastic_greedy_select(&graph, &obj, 20, 0.05, 77).unwrap();
        assert_eq!(stochastic.len(), 20);
        let ratio = obj.evaluate(&graph, stochastic.selected()) / exact.objective_value();
        assert!(ratio > 0.85, "stochastic greedy quality ratio {ratio} too low");
    }

    #[test]
    fn stochastic_greedy_is_seed_deterministic() {
        let (graph, obj) = random_instance(100, 3, 0.9, 5);
        let a = stochastic_greedy_select(&graph, &obj, 10, 0.1, 3).unwrap();
        let b = stochastic_greedy_select(&graph, &obj, 10, 0.1, 3).unwrap();
        assert_eq!(a.selected(), b.selected());
    }

    #[test]
    fn stochastic_greedy_rejects_bad_epsilon() {
        let (graph, obj) = random_instance(10, 2, 0.9, 5);
        assert!(stochastic_greedy_select(&graph, &obj, 2, 0.0, 0).is_err());
        assert!(stochastic_greedy_select(&graph, &obj, 2, 1.0, 0).is_err());
    }

    #[test]
    fn threshold_greedy_close_to_greedy() {
        let (graph, obj) = random_instance(200, 4, 0.9, 31);
        let exact = greedy_select(&graph, &obj, 20).unwrap();
        let thresh = threshold_greedy_select(&graph, &obj, 20, 0.05).unwrap();
        assert!(!thresh.is_empty());
        let ratio = obj.evaluate(&graph, thresh.selected()) / exact.objective_value();
        assert!(ratio > 0.85, "threshold greedy quality ratio {ratio} too low");
    }

    #[test]
    fn threshold_greedy_rejects_bad_epsilon() {
        let (graph, obj) = random_instance(10, 2, 0.9, 5);
        assert!(threshold_greedy_select(&graph, &obj, 2, 0.0).is_err());
        assert!(threshold_greedy_select(&graph, &obj, 2, 1.0).is_err());
    }

    #[test]
    fn threshold_greedy_respects_budget() {
        let (graph, obj) = random_instance(50, 3, 0.9, 8);
        let sel = threshold_greedy_select(&graph, &obj, 10, 0.1).unwrap();
        assert!(sel.len() <= 10);
        let mut ids: Vec<u64> = sel.selected().iter().map(|n| n.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sel.len());
    }

    #[test]
    fn isolated_points_selected_by_utility_order() {
        let graph = SimilarityGraph::empty(5);
        let obj = PairwiseObjective::from_alpha(0.9, vec![0.1, 0.5, 0.3, 0.9, 0.7]).unwrap();
        let sel = greedy_select(&graph, &obj, 3).unwrap();
        let ids: Vec<u64> = sel.selected().iter().map(|n| n.raw()).collect();
        assert_eq!(ids, vec![3, 4, 1]);
    }
}
