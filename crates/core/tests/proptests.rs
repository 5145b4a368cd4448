//! Property-based tests for the core data structures and algorithms.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use submod_core::{
    greedy_select, naive_greedy_select, AddressablePq, GraphBuilder, NodeId, NodeSet,
    PairwiseObjective, ScoreNormalizer, SimilarityGraph,
};

/// An arbitrary small weighted instance: edge list + utilities.
fn arb_instance(max_nodes: usize) -> impl Strategy<Value = (SimilarityGraph, PairwiseObjective)> {
    (2usize..=max_nodes)
        .prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as u64, 0..n as u64, 0.01f32..1.0), 0..n * 3);
            let utilities = proptest::collection::vec(0.0f32..1.0, n);
            let alpha = 0.1f64..=0.99;
            (Just(n), edges, utilities, alpha)
        })
        .prop_map(|(n, edges, utilities, alpha)| {
            let mut b = GraphBuilder::new(n);
            for (v, w, s) in edges {
                if v != w {
                    b.add_undirected(v, w, s).expect("valid edge");
                }
            }
            let graph = b.build();
            let objective = PairwiseObjective::from_alpha(alpha, utilities).expect("objective");
            (graph, objective)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The priority queue always pops in non-increasing priority order,
    /// regardless of the interleaved decrease/pop operations.
    #[test]
    fn pq_pops_sorted_under_mutation(
        priorities in proptest::collection::vec(-100.0f64..100.0, 1..120),
        ops in proptest::collection::vec((0usize..120, 0.0f64..10.0, any::<bool>()), 0..200),
    ) {
        let n = priorities.len();
        let mut pq = AddressablePq::with_priorities(priorities);
        for (idx, amount, pop) in ops {
            let v = (idx % n) as u32;
            if pop {
                pq.pop_max();
            } else if pq.contains(v) {
                pq.decrease_by(v, amount);
            }
        }
        let mut last = f64::INFINITY;
        while let Some((_, p)) = pq.pop_max() {
            prop_assert!(p <= last + 1e-12, "{p} after {last}");
            last = p;
        }
    }

    /// The queue agrees with a sorted-model reference when only popping.
    #[test]
    fn pq_matches_sorted_model(priorities in proptest::collection::vec(-50.0f64..50.0, 1..100)) {
        let mut expected: Vec<(f64, usize)> =
            priorities.iter().copied().zip(0..).collect();
        // Max priority first; ties by smaller index.
        expected.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut pq = AddressablePq::with_priorities(priorities);
        for (p, i) in expected {
            let (v, got) = pq.pop_max().expect("same length");
            prop_assert_eq!(v as usize, i);
            prop_assert_eq!(got, p);
        }
        prop_assert!(pq.is_empty());
    }

    /// NodeSet behaves like a HashSet under arbitrary insert/remove mixes.
    #[test]
    fn nodeset_matches_hashset(ops in proptest::collection::vec((0u64..256, any::<bool>()), 0..300)) {
        let mut ours = NodeSet::new(256);
        let mut reference: HashSet<u64> = HashSet::new();
        for (id, insert) in ops {
            if insert {
                prop_assert_eq!(ours.insert(NodeId::new(id)), reference.insert(id));
            } else {
                prop_assert_eq!(ours.remove(NodeId::new(id)), reference.remove(&id));
            }
        }
        prop_assert_eq!(ours.len(), reference.len());
        let collected: BTreeSet<u64> = ours.iter().map(|n| n.raw()).collect();
        let expected: BTreeSet<u64> = reference.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }

    /// The pairwise objective is submodular: marginal gains never increase
    /// as the base set grows (the §3 derivation, checked numerically).
    #[test]
    fn objective_has_diminishing_returns((graph, objective) in arb_instance(12)) {
        let n = graph.num_nodes();
        // B ⊂ A: B = {0}, A = {0, 1}; e = n-1 (outside both when n ≥ 3).
        prop_assume!(n >= 3);
        let e = NodeId::from_index(n - 1);
        let small = NodeSet::from_members(n, [NodeId::new(0)]);
        let large = NodeSet::from_members(n, [NodeId::new(0), NodeId::new(1)]);
        let gain_small = objective.marginal_gain(&graph, &small, e);
        let gain_large = objective.marginal_gain(&graph, &large, e);
        prop_assert!(gain_large <= gain_small + 1e-9);
    }

    /// Marginal gains telescope exactly into evaluate().
    #[test]
    fn gains_telescope_to_objective((graph, objective) in arb_instance(14)) {
        let n = graph.num_nodes();
        let k = (n / 2).max(1);
        let selection = greedy_select(&graph, &objective, k).expect("greedy");
        let evaluated = objective.evaluate(&graph, selection.selected());
        prop_assert!(
            (selection.objective_value() - evaluated).abs() < 1e-6,
            "telescoped {} vs evaluated {}", selection.objective_value(), evaluated
        );
    }

    /// The priority-queue greedy equals Algorithm 1 on arbitrary instances.
    #[test]
    fn pq_greedy_equals_naive((graph, objective) in arb_instance(14)) {
        let n = graph.num_nodes();
        for k in [1, n / 2, n] {
            let fast = greedy_select(&graph, &objective, k).expect("pq greedy");
            let slow = naive_greedy_select(&graph, &objective, k).expect("naive greedy");
            prop_assert_eq!(fast.selected(), slow.selected());
        }
    }

    /// Symmetrization is idempotent and only adds edges.
    #[test]
    fn symmetrize_idempotent((graph, _) in arb_instance(12)) {
        let sym = graph.symmetrized();
        prop_assert!(sym.is_symmetric());
        prop_assert_eq!(sym.symmetrized(), sym.clone());
        prop_assert!(sym.num_directed_edges() >= graph.num_directed_edges());
    }

    /// The linear-time `symmetrized()` (transpose + per-row merge) emits
    /// CSR arrays byte-identical to the edge-stream closure it replaced —
    /// every edge added in both directions to a `GraphBuilder`, globally
    /// sorted and deduplicated keeping the larger weight — on directed
    /// graphs with conflicting back-edge weights (±0 and exact ties
    /// included), repeated edges, and empty rows.
    #[test]
    fn symmetrize_matches_the_edge_stream_closure(
        (n, edges) in (2usize..=24).prop_flat_map(|n| {
            // Only the lower half of the ids ever has out-edges, so the
            // upper rows are empty before the closure.
            let weight = (0u8..6, 0.01f32..1.0).prop_map(|(pick, w)| match pick {
                0 => 0.0,
                1 => -0.0,
                2 => 0.5,
                _ => w,
            });
            let edge = (0..(n as u64).div_ceil(2), 0..n as u64, weight);
            (Just(n), proptest::collection::vec(edge, 0..n * 4))
        })
    ) {
        let mut directed = GraphBuilder::new(n);
        let mut closure = GraphBuilder::new(n);
        for (v, w, s) in edges {
            if v != w {
                directed.add_directed(v, w, s).expect("valid edge");
                closure.add_undirected(v, w, s).expect("valid edge");
            }
        }
        let symmetric = directed.build().symmetrized();
        let reference = closure.build();
        prop_assert_eq!(symmetric.csr_parts(), reference.csr_parts());
        prop_assert!(symmetric.is_symmetric());
    }

    /// Induced subgraphs never contain foreign nodes and preserve symmetry.
    #[test]
    fn induced_subgraph_is_consistent(
        (graph, _) in arb_instance(12),
        picks in proptest::collection::btree_set(0usize..12, 1..8),
    ) {
        let nodes: Vec<NodeId> = picks
            .into_iter()
            .filter(|&i| i < graph.num_nodes())
            .map(NodeId::from_index)
            .collect();
        prop_assume!(!nodes.is_empty());
        let sub = graph.induced_subgraph(&nodes);
        prop_assert_eq!(sub.num_nodes(), nodes.len());
        prop_assert!(sub.is_symmetric());
        // Every local edge maps to a global edge with the same weight.
        for li in 0..sub.num_nodes() {
            for (lw, s) in sub.edges(NodeId::from_index(li)) {
                let (gv, gw) = (nodes[li], nodes[lw.index()]);
                let global = graph.edges(gv).find(|&(w, _)| w == gw).map(|(_, s)| s);
                prop_assert_eq!(global, Some(s));
            }
        }
    }

    /// Normalization is affine: order-preserving and anchored.
    #[test]
    fn normalizer_is_monotone(
        centralized in -100.0f64..100.0,
        scores in proptest::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        let norm = ScoreNormalizer::new(centralized, &scores);
        prop_assert_eq!(norm.normalize(centralized), 100.0);
        let mut sorted = scores.clone();
        sorted.sort_by(f64::total_cmp);
        for pair in sorted.windows(2) {
            prop_assert!(norm.normalize(pair[0]) <= norm.normalize(pair[1]) + 1e-9);
        }
        for &s in &scores {
            prop_assert!(norm.normalize(s) >= -1e-9);
        }
    }
}
