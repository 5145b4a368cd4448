//! The GreeDi / RandGreeDi baseline (Mirzasoleiman et al., *Distributed
//! Submodular Maximization*), the paper's §2 systems foil: every machine
//! solves its partition for the full budget `k`, and a single merge
//! machine re-runs greedy on the union of all `m` local solutions — so
//! the merge machine must hold `m·k` points, growing linearly with the
//! cluster size. The multi-round algorithm exists to avoid exactly that.
//!
//! The **map phase** runs through the same shared backend as the
//! multi-round algorithm (`MachineGreedyBackend`): partitions are a
//! deterministic keyed transform (contiguous chunks for the original
//! "arbitrary" analysis, a seeded hash for RandGreeDi), every machine
//! runs Algorithm 2 on its partition in one backend phase, and on the
//! dataflow driver ([`greedi_dataflow`]) the scored pool stays inside
//! the engine — partition-resident when a partition fits a worker,
//! τ-batched passes when not — with only winner rows collected.
//! The **merge phase** is deliberately driver-side on both drivers —
//! holding the `m·k`-point union on one machine *is* the baseline's
//! memory story the paper argues against.

use crate::engine::{
    machine_select, DataflowGreedyBackend, InMemoryGreedyBackend, MachineGreedyBackend,
    MachineKeying,
};
use crate::{DistError, PartitionStyle};
use submod_core::{NodeId, PairwiseObjective, Selection, SimilarityGraph};
use submod_dataflow::Pipeline;

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

fn validate(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
) -> Result<(), DistError> {
    if machines == 0 {
        return Err(DistError::config("machine count must be at least 1"));
    }
    if objective.num_nodes() != graph.num_nodes() {
        return Err(submod_core::CoreError::UtilityLengthMismatch {
            utilities: objective.num_nodes(),
            num_nodes: graph.num_nodes(),
        }
        .into());
    }
    if k > graph.num_nodes() {
        return Err(submod_core::CoreError::BudgetTooLarge {
            budget: k,
            available: graph.num_nodes(),
        }
        .into());
    }
    Ok(())
}

/// The keyed partition assignment of a GreeDi run.
fn keying_for(style: PartitionStyle, n: usize, machines: usize, seed: u64) -> MachineKeying {
    match style {
        PartitionStyle::Arbitrary => {
            MachineKeying::Contiguous { chunk: (n as u64).div_ceil(machines as u64).max(1) }
        }
        PartitionStyle::Random => {
            MachineKeying::Hash { seed: seed ^ 0x0006_EED1, machines: machines as u64 }
        }
    }
}

/// The shared map + merge driver: identical on both backends, which is
/// what makes the in-memory and dataflow runs bitwise-identical.
///
/// With a journal, the completed map phase is committed as a single
/// round-1 record; a resume replays it and jumps straight to the
/// driver-side merge, which is recomputed deterministically.
#[allow(clippy::too_many_arguments)]
fn run_greedi(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    style: PartitionStyle,
    seed: u64,
    backend: &mut dyn MachineGreedyBackend,
    mut journal: Option<&mut crate::journal::RunJournal>,
) -> Result<GreediReport, DistError> {
    let n = graph.num_nodes();
    let replayed_union = journal.as_deref_mut().and_then(|j| j.take_greedy_round(1));
    let union: Vec<NodeId> =
        if let Some(submod_journal::Record::GreedyRound { selected, .. }) = replayed_union {
            selected.iter().map(|&v| NodeId::new(v)).collect()
        } else {
            // Map phase: every machine solves its partition for the full
            // budget `k` in one backend phase. The phase also narrows the
            // backend's pool to the winners; nothing reads it afterwards.
            let keying = keying_for(style, n, machines, seed);
            let outcome = backend.phase(keying, machines, n, k)?;
            if let Some(j) = journal.as_mut() {
                j.append_sync(&submod_journal::Record::GreedyRound {
                    round: 1,
                    input_size: n as u64,
                    target: k as u64,
                    partitions: machines as u64,
                    seed,
                    stats: submod_journal::GreedySnapshot {
                        rounds: 1,
                        steps: outcome.steps as u64,
                        peak_step_winners: outcome.peak_step_winners as u64,
                        winners_collected: outcome.selected.len() as u64,
                        ..Default::default()
                    },
                    selected: outcome.selected.iter().map(|v| v.raw()).collect(),
                })?;
                submod_obs::faults::maybe_crash_after_round(1);
            }
            outcome.selected
        };

    // Merge phase: one machine holds the whole union and re-runs greedy.
    let union_size = union.len();
    let mut merge_pool = union;
    let chosen = machine_select(graph, objective, &mut merge_pool, k);
    let value = objective.evaluate(graph, &chosen);

    Ok(GreediReport {
        selection: Selection::new(chosen, Vec::new(), value),
        merge: MergeStats {
            union_size,
            merge_memory_bytes: union_size as u64 * MERGE_BYTES_PER_POINT,
        },
    })
}

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
    greedi_with_journal(graph, objective, k, machines, style, seed, None)
}

/// [`greedi`] with an optional run journal — the crate-internal seam the
/// journaled entry points thread through.
pub(crate) fn greedi_with_journal(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    style: PartitionStyle,
    seed: u64,
    journal: Option<&mut crate::journal::RunJournal>,
) -> Result<GreediReport, DistError> {
    validate(graph, objective, k, machines)?;
    let ground: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();
    let mut backend = InMemoryGreedyBackend::new(graph, objective, &ground);
    run_greedi(graph, objective, k, machines, style, seed, &mut backend, journal)
}

/// [`greedi`] with the map phase on the dataflow engine: the keyed pool
/// is grouped by machine and every machine solved inside its worker
/// (or, when a partition exceeds the per-worker budget, by τ-batched
/// engine passes), and the driver collects only the winner rows that
/// make up the `m·k`-point union for the (deliberately driver-side)
/// merge.
///
/// The outcome is **identical** to [`greedi`] by construction.
///
/// # Errors
///
/// Same conditions as [`greedi`], plus spill I/O failures.
pub fn greedi_dataflow(
    pipeline: &Pipeline,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    style: PartitionStyle,
    seed: u64,
) -> Result<GreediReport, DistError> {
    greedi_dataflow_with_journal(pipeline, graph, objective, k, machines, style, seed, None)
}

/// [`greedi_dataflow`] with an optional run journal — the crate-internal
/// seam the journaled entry points thread through.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedi_dataflow_with_journal(
    pipeline: &Pipeline,
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
    machines: usize,
    style: PartitionStyle,
    seed: u64,
    journal: Option<&mut crate::journal::RunJournal>,
) -> Result<GreediReport, DistError> {
    validate(graph, objective, k, machines)?;
    let ground: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();
    let batch = crate::DistGreedyConfig::DEFAULT_WINNER_BATCH;
    let mut backend = DataflowGreedyBackend::new(pipeline, graph, objective, &ground, batch);
    run_greedi(graph, objective, k, machines, style, seed, &mut backend, journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use submod_core::{greedy_select, GraphBuilder};

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
    fn dataflow_map_phase_is_bitwise_identical() {
        let (graph, objective) = instance(80);
        for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
            let mem = greedi(&graph, &objective, 8, 4, style, 5).unwrap();
            let pipeline = Pipeline::new(3).unwrap();
            let df = greedi_dataflow(&pipeline, &graph, &objective, 8, 4, style, 5).unwrap();
            assert_eq!(df.selection.selected(), mem.selection.selected(), "{style:?}");
            assert_eq!(
                df.selection.objective_value().to_bits(),
                mem.selection.objective_value().to_bits()
            );
            assert_eq!(df.merge, mem.merge);
        }
    }

    #[test]
    fn validation_errors() {
        let (graph, objective) = instance(10);
        assert!(greedi(&graph, &objective, 11, 2, PartitionStyle::Random, 0).is_err());
        assert!(greedi(&graph, &objective, 2, 0, PartitionStyle::Random, 0).is_err());
    }
}
