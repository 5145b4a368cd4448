//! The GreeDi / RandGreeDi baseline (Mirzasoleiman et al., *Distributed
//! Submodular Maximization*), the paper's §2 systems foil: every machine
//! solves its partition for the full budget `k`, and a single merge
//! machine re-runs greedy on the union of all `m` local solutions — so
//! the merge machine must hold `m·k` points, growing linearly with the
//! cluster size. The multi-round algorithm exists to avoid exactly that.
//!
//! GreeDi is one round of the multi-round loop under its own round plan:
//! target `m·k` over `m` partitions, so each machine's quota is `k`,
//! keyed by contiguous chunks (the original "arbitrary" analysis) or a
//! seeded hash (RandGreeDi). The loop's final trim of the `m·k`-point
//! union on the driver is the merge — holding that union on one machine
//! *is* the baseline's memory story the paper argues against.

use crate::{DistError, DistGreedyConfig, Driver, PartitionStyle};
use submod_core::{NodeId, PairwiseObjective, Selection, SimilarityGraph};

/// Memory footprint of the centralized merge step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeStats {
    /// Points the merge machine must hold (the union of local solutions).
    pub union_size: usize,
    /// Estimated merge-machine bytes, using the paper's §3 arithmetic:
    /// 16 B of priority-queue state plus ten 16 B neighbor entries per
    /// point. It prices the paper's merge machine, which holds the union
    /// alone; the dense node index (4 B per graph node) this driver runs
    /// the merge over is not part of that model and is not counted.
    pub merge_memory_bytes: u64,
}

/// The result of a GreeDi run.
#[derive(Clone, Debug)]
pub struct GreediReport {
    /// The final `k`-point selection, scored on the full graph.
    pub selection: Selection,
    /// The merge-step footprint the §2 argument is about.
    pub merge: MergeStats,
}

/// Bytes per point of merge-machine state (§3: priority-queue key/value
/// plus a 10-neighbor adjacency list at 16 B per entry).
const MERGE_BYTES_PER_POINT: u64 = 16 + 10 * 16;

/// Runs GreeDi with `machines` partitions.
///
/// `style` picks the partitioning of the original analysis
/// ([`PartitionStyle::Arbitrary`], contiguous id chunks) or the
/// randomized variant ([`PartitionStyle::Random`], a seeded hash).
///
/// # Errors
///
/// Returns an error if the objective does not match the graph, `k`
/// exceeds the ground set, or `machines` is zero.
pub fn greedi(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    style: PartitionStyle,
    seed: u64,
) -> Result<GreediReport, DistError> {
    let plan =
        DistGreedyConfig { greedi: Some(style), ..DistGreedyConfig::new(machines, 1)?.seed(seed) };
    let ground: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();
    let report =
        crate::multiround::run(Driver::InMemory, graph, objective, &ground, k, &plan, None)?;
    let union_size = report.rounds[0].output_size;
    let merge_memory_bytes = union_size as u64 * MERGE_BYTES_PER_POINT;
    Ok(GreediReport {
        selection: report.selection,
        merge: MergeStats { union_size, merge_memory_bytes },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        machine_select, InMemoryGreedyBackend, MachineGreedyBackend, MachineKeying,
    };
    use proptest::prelude::*;
    use submod_core::{greedy_select, GraphBuilder};
    use submod_dataflow::{MemoryBudget, Pipeline};

    fn instance(n: usize) -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u64 {
            b.add_undirected(v, (v + 3) % n as u64, 0.5).unwrap();
            b.add_undirected(v, (v + 7) % n as u64, 0.3).unwrap();
        }
        let graph = b.build();
        let utilities: Vec<f32> = (0..n).map(|i| 0.3 + ((i * 37) % 100) as f32 / 100.0).collect();
        (graph, PairwiseObjective::from_alpha(0.9, utilities).unwrap())
    }

    #[test]
    fn produces_k_points_and_merge_stats() {
        let (graph, objective) = instance(90);
        for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
            let report = greedi(&graph, &objective, 9, 3, style, 1).unwrap();
            assert_eq!(report.selection.len(), 9);
            // 3 machines × k = 27 points on the merge machine.
            assert_eq!(report.merge.union_size, 27);
            assert_eq!(report.merge.merge_memory_bytes, 27 * MERGE_BYTES_PER_POINT);
        }
    }

    #[test]
    fn union_grows_with_machines() {
        let (graph, objective) = instance(120);
        let small = greedi(&graph, &objective, 10, 2, PartitionStyle::Random, 1).unwrap();
        let large = greedi(&graph, &objective, 10, 8, PartitionStyle::Random, 1).unwrap();
        assert!(large.merge.union_size > small.merge.union_size);
    }

    #[test]
    fn partition_smaller_than_k_returns_whole_partition() {
        let (graph, objective) = instance(40);
        // 8 machines × 5 points; k = 10 > partition size, so every machine
        // returns its whole partition and the union is the ground set.
        let report = greedi(&graph, &objective, 10, 8, PartitionStyle::Arbitrary, 1).unwrap();
        assert_eq!(report.merge.union_size, 40);
        assert_eq!(report.selection.len(), 10);
    }

    #[test]
    fn quality_tracks_centralized() {
        let (graph, objective) = instance(100);
        let central = greedy_select(&graph, &objective, 10).unwrap().objective_value();
        let report = greedi(&graph, &objective, 10, 4, PartitionStyle::Random, 3).unwrap();
        assert!(
            report.selection.objective_value() > central * 0.8,
            "GreeDi quality too low: {} vs {central}",
            report.selection.objective_value()
        );
    }

    #[test]
    fn validation_errors() {
        let (graph, objective) = instance(10);
        assert!(greedi(&graph, &objective, 11, 2, PartitionStyle::Random, 0).is_err());
        assert!(greedi(&graph, &objective, 2, 0, PartitionStyle::Random, 0).is_err());
    }

    /// GreeDi before it became a plan of the round loop: one in-memory
    /// phase at quota `k`, then `machine_select` over the union. Returns
    /// the merge's picks and the union in the phase's step-major order.
    fn separate_merge(
        graph: &SimilarityGraph,
        objective: &PairwiseObjective,
        k: usize,
        machines: usize,
        style: PartitionStyle,
        seed: u64,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let n = graph.num_nodes();
        let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let mut backend = InMemoryGreedyBackend::new(graph, objective, &ground);
        let keying = match style {
            PartitionStyle::Arbitrary => {
                MachineKeying::Contiguous { chunk: (n as u64).div_ceil(machines as u64).max(1) }
            }
            PartitionStyle::Random => {
                MachineKeying::Hash { seed: seed ^ 0x0006_EED1, machines: machines as u64 }
            }
        };
        let union = backend.phase(keying, machines, n, k).unwrap().selected;
        (machine_select(graph, objective, &mut union.clone(), k), union)
    }

    /// An arbitrary small weighted instance, as `tests/proptests.rs` draws
    /// them.
    fn arb_instance(
        max_nodes: usize,
    ) -> impl Strategy<Value = (SimilarityGraph, PairwiseObjective)> {
        (4usize..=max_nodes)
            .prop_flat_map(|n| {
                let edges =
                    proptest::collection::vec((0..n as u64, 0..n as u64, 0.01f32..1.0), 0..n * 3);
                (Just(n), edges, proptest::collection::vec(0.0f32..1.0, n), 0.5f64..=0.95)
            })
            .prop_map(|(n, edges, utilities, alpha)| {
                let mut b = GraphBuilder::new(n);
                for (v, w, s) in edges.into_iter().filter(|(v, w, _)| v != w) {
                    b.add_undirected(v, w, s).unwrap();
                }
                (b.build(), PairwiseObjective::from_alpha(alpha, utilities).unwrap())
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `greedi` selects what the separate merge selected, bit for bit,
        /// in both styles — with more machines than nodes too, where the
        /// plan keeps all `m` partitions (the hash reduced mod `m`, not
        /// mod `n`). One machine makes the union exactly `k` points: the
        /// final trim then keeps the union in step-major order where the
        /// separate merge re-ordered it through `machine_select`; the set
        /// and the value bits are the same.
        #[test]
        fn greedi_equals_the_separate_merge(
            (graph, objective) in arb_instance(24),
            k_pick in 0usize..=24,
            machines in 2usize..=48,
            seed in any::<u64>(),
        ) {
            let k = k_pick % (graph.num_nodes() + 1);
            for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
                for m in [1, machines] {
                    let (merged, union) = separate_merge(&graph, &objective, k, m, style, seed);
                    let report = greedi(&graph, &objective, k, m, style, seed).unwrap();
                    let selected = report.selection.selected();
                    prop_assert_eq!(report.merge.union_size, union.len());
                    prop_assert!(union.len() >= k, "a union never under-fills");
                    if union.len() > k {
                        prop_assert_eq!(selected, &merged[..]);
                    } else {
                        prop_assert_eq!(selected, &union[..]);
                        let (mut set, mut reference) = (selected.to_vec(), merged.clone());
                        set.sort_unstable();
                        reference.sort_unstable();
                        prop_assert_eq!(set, reference);
                    }
                    let value = objective.evaluate(&graph, &merged);
                    prop_assert_eq!(report.selection.objective_value().to_bits(), value.to_bits());
                }
            }
        }
    }

    /// GreeDi's plan runs on the dataflow driver unchanged — resident at
    /// an unlimited budget, batched at 47 B — and selects what the
    /// in-memory run selects, with more machines than nodes too.
    #[test]
    fn greedis_plan_selects_the_same_bits_on_the_dataflow_driver() {
        let _lock = crate::engine::tests::batched_lock();
        let (graph, objective) = instance(40);
        let ground: Vec<NodeId> = (0..40).map(NodeId::from_index).collect();
        let pipelines = [
            Pipeline::new(3).unwrap(),
            Pipeline::builder().workers(3).memory_budget(MemoryBudget::bytes(47)).build().unwrap(),
        ];
        for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
            for (k, machines) in [(6, 3), (5, 1), (8, 8), (4, 50)] {
                let plan = DistGreedyConfig::new(machines, 1).unwrap().seed(7);
                let config = DistGreedyConfig { greedi: Some(style), ..plan };
                let run = |driver| {
                    crate::multiround::run(driver, &graph, &objective, &ground, k, &config, None)
                        .unwrap()
                };
                let mem = run(Driver::InMemory);
                let greedi = greedi(&graph, &objective, k, machines, style, 7).unwrap();
                assert_eq!(mem.selection.selected(), greedi.selection.selected());
                for pipeline in &pipelines {
                    let at = format!("{style:?}, k {k}, {machines} machines");
                    let df = run(Driver::Dataflow(pipeline));
                    assert_eq!(df.selection.selected(), mem.selection.selected(), "{at}");
                    let bits =
                        |r: &crate::DistGreedyReport| r.selection.objective_value().to_bits();
                    assert_eq!(bits(&df), bits(&mem), "{at}");
                    assert_eq!(df.rounds, mem.rounds, "{at}");
                }
            }
        }
    }
}
