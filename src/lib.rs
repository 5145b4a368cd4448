//! # submod-select
//!
//! A Rust reproduction of the MLSys 2025 paper *"On Distributed
//! Larger-Than-Memory Subset Selection With Pairwise Submodular
//! Functions"* (Böther, Sebastian, Awasthi, Klimovic, Ramalingam).
//!
//! The facade crate re-exports the whole stack:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`submod_core`] | objective, similarity graph, priority queue, centralized greedy |
//! | [`submod_exec`] | thread pool behind every parallel path: one order-preserving `parallel_map` (`EXEC_NUM_THREADS`) |
//! | [`submod_kernels`] | runtime-dispatched SIMD distance kernels (`SUBMOD_KERNELS`) |
//! | [`submod_dataflow`] | Beam-style engine with memory budgets & spill-to-disk |
//! | [`submod_knn`] | exact / IVF k-NN graph construction |
//! | [`submod_data`] | synthetic datasets, margin utilities, virtual perturbed data |
//! | [`submod_dist`] | bounding + multi-round distributed greedy + baselines |
//! | [`submod_obs`] | tracing + metrics: spans, counters, chrome-trace export (`SUBMOD_TRACE`) |
//!
//! # Quickstart
//!
//! ```
//! use submod_select::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A synthetic clustered dataset with margin utilities and a 10-NN graph.
//! let instance = build_instance(&DatasetConfig::tiny())?;
//! let objective = instance.objective(0.9)?;
//! let k = instance.len() / 10;
//!
//! // 2. The centralized reference (paper Algorithm 2).
//! let central = greedy_select(&instance.graph, &objective, k)?;
//!
//! // 3. The distributed pipeline: approximate bounding + multi-round greedy.
//! let config = PipelineConfig::with_bounding(
//!     BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 1)?,
//!     DistGreedyConfig::new(4, 4)?.adaptive(true),
//! );
//! let outcome = select_subset(&instance.graph, &objective, k, &config)?;
//!
//! // 4. Distributed quality tracks the centralized reference.
//! let ratio = outcome.selection.objective_value() / central.objective_value();
//! assert!(ratio > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use submod_core;
pub use submod_data;
pub use submod_dataflow;
pub use submod_dist;
pub use submod_exec;
pub use submod_kernels;
pub use submod_knn;
pub use submod_obs;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use submod_core::{
        greedy_select, naive_greedy_select, CoreError, GraphBuilder, NodeId, NodeSet,
        PairwiseObjective, ScoreNormalizer, Selection, SimilarityGraph,
    };
    pub use submod_data::{
        build_instance, ClusteredDataset, CoarseClassifier, DataError, DatasetConfig,
        PerturbedDataset, SelectionInstance,
    };
    pub use submod_dataflow::{DataflowError, MemoryBudget, PCollection, Pipeline};
    pub use submod_dist::{
        bound_dataflow, bound_in_memory, complete_selection, distributed_greedy,
        distributed_greedy_dataflow, greedi, select_subset, theorem_4_6, BoundingConfig,
        BoundingOutcome, BoundingStats, DeltaSchedule, DistError, DistGreedyConfig, GreedyStats,
        PartitionStyle, PipelineConfig, SamplingStrategy,
    };
    pub use submod_knn::{build_knn_graph, Embeddings, KnnBackend, NearestNeighbors};
}
