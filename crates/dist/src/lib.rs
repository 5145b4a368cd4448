//! Distributed larger-than-memory subset selection (paper §4–§5).
//!
//! This crate implements the distributed half of the MLSys 2025 paper
//! *"On Distributed Larger-Than-Memory Subset Selection With Pairwise
//! Submodular Functions"* (Böther et al.) on top of [`submod_core`]'s
//! centralized primitives and [`submod_dataflow`]'s Beam-style engine.
//! Its ten driver functions are:
//!
//! - [`bound_in_memory`] / [`bound_dataflow`] — approximate α-bounding
//!   over the k-NN graph (§4.1–§4.3): decide as much of the subset as
//!   possible before any greedy work, exactly or from a `p`-fraction
//!   sample. The two drivers share their decision logic and make
//!   identical decisions; the dataflow driver never exceeds the
//!   pipeline's per-worker memory budget. The outcome carries the run's
//!   [`BoundingStats`].
//! - [`distributed_greedy`] / [`distributed_greedy_dataflow`] — the
//!   multi-round partitioned greedy (§4.4) with [`DeltaSchedule`] pool
//!   targets and optional adaptive partitioning. Both drivers share one
//!   backend-parameterized round loop (partition assignment is a
//!   deterministic keyed transform, each backend runs a round's
//!   per-machine Algorithm 2 in one phase call), so their selections are
//!   bitwise-identical; the dataflow driver keeps the scored pool
//!   engine-resident — grouped by machine and run inside the workers
//!   when a partition fits the per-worker budget, τ-batched passes
//!   otherwise — and only collects winner rows, metered by the report's
//!   [`GreedyStats`].
//! - [`greedi`] — the GreeDi / RandGreeDi baseline whose merge machine
//!   must hold `m·k` points (§2's systems motivation), in memory.
//! - [`select_subset`] / [`complete_selection`] — the end-to-end
//!   pipeline: bounding → distributed greedy over the undecided points →
//!   completion, always returning exactly `k` distinct points.
//! - [`distributed_greedy_journaled`] /
//!   [`distributed_greedy_dataflow_journaled`] /
//!   [`select_subset_journaled`] — the same algorithms run with a
//!   checksummed write-ahead journal ([`submod_journal`]): every round
//!   boundary is committed, and a rerun against the same journal path
//!   resumes from the last complete boundary with a **bitwise-identical**
//!   result.
//!
//! Each algorithm has one crate-internal run function, and each driver
//! function is a call into it. Alongside the drivers:
//!
//! - [`score_in_memory`] / [`score_dataflow`] — subset scoring, including
//!   the §5 dataflow pipeline that joins the fanned-out neighbor graph
//!   against the subset.
//! - [`theorem_4_6`] — the paper's probabilistic quality guarantee for
//!   approximate bounding, with a [`Theorem46Guarantee::holds`] check.
//!
//! # Example
//!
//! ```
//! use submod_core::{greedy_select, GraphBuilder, PairwiseObjective};
//! use submod_dist::{select_subset, DistGreedyConfig, PipelineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = GraphBuilder::new(8);
//! for v in 0..8u64 {
//!     builder.add_undirected(v, (v + 1) % 8, 0.5)?;
//! }
//! let graph = builder.build();
//! let objective =
//!     PairwiseObjective::from_alpha(0.9, (0..8).map(|i| 1.0 - i as f32 * 0.1).collect())?;
//!
//! let config = PipelineConfig::greedy_only(DistGreedyConfig::new(2, 2)?.seed(1));
//! let outcome = select_subset(&graph, &objective, 3, &config)?;
//! assert_eq!(outcome.selection.len(), 3);
//!
//! let central = greedy_select(&graph, &objective, 3)?;
//! assert!(outcome.selection.objective_value() >= 0.9 * central.objective_value());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounding;
mod config;
mod engine;
mod error;
mod greedi;
mod journal;
mod multiround;
mod pipeline;
mod score;
mod theorem;

pub use bounding::{bound_dataflow, bound_in_memory, BoundingOutcome, BoundingStats};
pub use config::{
    BoundingConfig, DeltaSchedule, DistGreedyConfig, PartitionStyle, SamplingStrategy,
};
pub use error::DistError;
pub use greedi::{greedi, GreediReport, MergeStats};
pub use journal::{
    distributed_greedy_dataflow_journaled, distributed_greedy_journaled, select_subset_journaled,
};
pub use multiround::{
    distributed_greedy, distributed_greedy_dataflow, DistGreedyReport, GreedyStats, RoundStats,
};
pub use pipeline::{complete_selection, select_subset, PipelineConfig, PipelineOutcome};
pub use score::{score_dataflow, score_in_memory};
pub use theorem::{theorem_4_6, Theorem46Guarantee};

use submod_core::{CoreError, PairwiseObjective, SimilarityGraph};
use submod_dataflow::Pipeline;

/// Where an algorithm runs: each algorithm has one crate-internal run
/// function that builds its backend from this, and every public driver
/// function is a one-line call into it.
#[derive(Clone, Copy)]
pub(crate) enum Driver<'a> {
    /// Everything on the driver process.
    InMemory,
    /// Engine-resident on this pipeline.
    Dataflow(&'a Pipeline),
}

/// The instance check every algorithm starts with: one utility per graph
/// node, and a budget `k` no larger than the graph.
pub(crate) fn check_instance(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    k: usize,
) -> Result<(), DistError> {
    if objective.num_nodes() != graph.num_nodes() {
        return Err(CoreError::UtilityLengthMismatch {
            utilities: objective.num_nodes(),
            num_nodes: graph.num_nodes(),
        }
        .into());
    }
    if k > graph.num_nodes() {
        return Err(CoreError::BudgetTooLarge { budget: k, available: graph.num_nodes() }.into());
    }
    Ok(())
}
