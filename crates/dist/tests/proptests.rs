//! Property-based tests for the distributed layer: degenerate-parameter
//! equivalence with the centralized reference, pipeline output
//! invariants across random instances, seeds, and configurations, and
//! random configurations selecting the same bits on both drivers at 1,
//! 2 and 8 pool threads.

use proptest::prelude::*;
use submod_core::{greedy_select, GraphBuilder, NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::Pipeline;
use submod_dist::{
    bound_dataflow, bound_in_memory, distributed_greedy, distributed_greedy_dataflow,
    select_subset, BoundingConfig, BoundingOutcome, DistGreedyConfig, DistGreedyReport,
    PipelineConfig, RoundStats, SamplingStrategy,
};
use submod_exec::with_threads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// An arbitrary small weighted instance: edge list + utilities.
fn arb_instance(max_nodes: usize) -> impl Strategy<Value = (SimilarityGraph, PairwiseObjective)> {
    (4usize..=max_nodes)
        .prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as u64, 0..n as u64, 0.01f32..1.0), 0..n * 3);
            let utilities = proptest::collection::vec(0.0f32..1.0, n);
            let alpha = 0.5f64..=0.95;
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ISSUE's degenerate-equivalence contract: one partition and one
    /// round *is* the centralized greedy — identical selection order and
    /// matching objective value on every instance.
    #[test]
    fn one_partition_one_round_equals_centralized(
        (graph, objective) in arb_instance(24),
        seed in 0u64..1000,
    ) {
        let n = graph.num_nodes();
        let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        for k in [1, n / 3, n / 2, n] {
            prop_assume!(k >= 1);
            let config = DistGreedyConfig::new(1, 1).expect("config").seed(seed);
            let distributed =
                distributed_greedy(&graph, &objective, &ground, k, &config).expect("distributed");
            let central = greedy_select(&graph, &objective, k).expect("centralized");
            prop_assert_eq!(distributed.selection.selected(), central.selected());
            let gap = (distributed.selection.objective_value()
                - central.objective_value())
            .abs();
            prop_assert!(
                gap < 1e-6 * central.objective_value().abs().max(1.0),
                "objective gap {} on n = {}, k = {}", gap, n, k
            );
        }
    }

    /// The ISSUE's pipeline contract: `select_subset` always returns
    /// exactly `k` unique in-bounds nodes, for every configuration shape.
    #[test]
    fn select_subset_always_returns_k_unique_nodes(
        (graph, objective) in arb_instance(24),
        machines in 1usize..6,
        rounds in 1usize..5,
        seed in 0u64..1000,
        with_bounding in any::<bool>(),
        sampling_p in 0.2f64..=1.0,
        adaptive in any::<bool>(),
    ) {
        let n = graph.num_nodes();
        let k = (n / 3).max(1);
        let greedy = DistGreedyConfig::new(machines, rounds)
            .expect("config")
            .adaptive(adaptive)
            .seed(seed);
        let config = if with_bounding {
            PipelineConfig::with_bounding(
                BoundingConfig::approximate(sampling_p, SamplingStrategy::Uniform, seed)
                    .expect("bounding config"),
                greedy,
            )
        } else {
            PipelineConfig::greedy_only(greedy)
        };
        let outcome = select_subset(&graph, &objective, k, &config).expect("pipeline");
        prop_assert_eq!(outcome.selection.len(), k);
        let mut ids: Vec<u64> =
            outcome.selection.selected().iter().map(|v| v.raw()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicate nodes in the subset");
        prop_assert!(ids.iter().all(|&id| (id as usize) < n), "out-of-bounds node");
        prop_assert_eq!(outcome.bounding.is_some(), with_bounding);
    }

    /// Multi-round pool shrinkage: round statistics are coherent and the
    /// pool never grows.
    #[test]
    fn round_stats_shrink_toward_k(
        (graph, objective) in arb_instance(30),
        machines in 1usize..5,
        rounds in 1usize..6,
        seed in 0u64..100,
    ) {
        let n = graph.num_nodes();
        let k = (n / 4).max(1);
        let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let config = DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        let report =
            distributed_greedy(&graph, &objective, &ground, k, &config).expect("distributed");
        prop_assert_eq!(report.rounds.len(), rounds);
        prop_assert_eq!(report.rounds[0].input_size, n);
        let mut previous_target = usize::MAX;
        for stats in &report.rounds {
            prop_assert!(stats.output_size <= stats.input_size);
            prop_assert!(stats.target <= previous_target, "Δ targets must not grow");
            prop_assert!(stats.partitions >= 1 && stats.partitions <= machines);
            previous_target = stats.target;
        }
        prop_assert_eq!(report.rounds[rounds - 1].target, k);
        prop_assert_eq!(report.selection.len(), k);
    }

    /// Bounding bookkeeping holds on arbitrary instances: partition of the
    /// ground set, sorted outputs, and a pool that can still fill `k`.
    #[test]
    fn bounding_partitions_the_ground_set(
        (graph, objective) in arb_instance(24),
        exact in any::<bool>(),
        p in 0.2f64..=1.0,
        seed in 0u64..1000,
    ) {
        let n = graph.num_nodes();
        let k = (n / 3).max(1);
        let config = if exact {
            BoundingConfig::exact()
        } else {
            BoundingConfig::approximate(p, SamplingStrategy::Uniform, seed).expect("config")
        };
        let outcome =
            submod_dist::bound_in_memory(&graph, &objective, k, &config).expect("bounding");
        prop_assert_eq!(
            outcome.included.len() + outcome.excluded_count + outcome.remaining.len(),
            n
        );
        prop_assert!(outcome.included.len() <= k);
        prop_assert_eq!(outcome.k_remaining, k - outcome.included.len());
        prop_assert!(outcome.remaining.len() >= outcome.k_remaining);
        prop_assert!(outcome.remaining.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(outcome.included.windows(2).all(|w| w[0] < w[1]));
    }
}

/// What a greedy run selected: ids in order, objective bits, round stats.
fn greedy_bits(report: &DistGreedyReport) -> (Vec<NodeId>, u64, Vec<RoundStats>) {
    let selection = &report.selection;
    (selection.selected().to_vec(), selection.objective_value().to_bits(), report.rounds.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random machines/rounds/k: the multi-round greedy selects the same
    /// bits on both drivers at every pool thread count, on every
    /// configuration, not just the invariance harness's fixed ones.
    #[test]
    fn random_configs_are_thread_count_invariant(
        (graph, objective) in arb_instance(40),
        seed in 0u64..500,
        machines in 1usize..8,
        rounds in 1usize..5,
        k_draw in 0usize..40,
    ) {
        let n = graph.num_nodes();
        let k = 1 + k_draw % n;
        let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let config = DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        let runs: Vec<_> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                with_threads(threads, || {
                    let mem = distributed_greedy(&graph, &objective, &ground, k, &config)
                        .expect("in-memory run");
                    let pipeline = Pipeline::new(3).expect("pipeline");
                    let df = distributed_greedy_dataflow(
                        &pipeline, &graph, &objective, &ground, k, &config,
                    )
                    .expect("dataflow run");
                    (greedy_bits(&mem), greedy_bits(&df))
                })
            })
            .collect();
        prop_assert_eq!(&runs[0].0, &runs[0].1, "the drivers diverged");
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }

    /// Random approximate bounding configurations: one outcome on both
    /// drivers at every pool thread count (stats are compared per driver,
    /// since the two drivers meter different state).
    #[test]
    fn random_bounding_is_thread_count_invariant(
        (graph, objective) in arb_instance(40),
        seed in 0u64..500,
        k_draw in 0usize..40,
        p in 0.2f64..0.9,
    ) {
        let k = 1 + k_draw % graph.num_nodes();
        let config = BoundingConfig::approximate(p, SamplingStrategy::Uniform, seed)
            .expect("config");
        let runs: Vec<(BoundingOutcome, BoundingOutcome)> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                with_threads(threads, || {
                    let mem = bound_in_memory(&graph, &objective, k, &config).expect("in-memory");
                    let pipeline = Pipeline::new(3).expect("pipeline");
                    let df = bound_dataflow(&pipeline, &graph, &objective, k, &config)
                        .expect("dataflow");
                    (mem, df)
                })
            })
            .collect();
        let (mem, df) = &runs[0];
        prop_assert_eq!(
            BoundingOutcome { stats: Default::default(), ..mem.clone() },
            BoundingOutcome { stats: Default::default(), ..df.clone() },
            "the drivers diverged"
        );
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }
}
