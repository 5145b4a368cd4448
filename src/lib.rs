#![doc = include_str!("../README.md")]
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
