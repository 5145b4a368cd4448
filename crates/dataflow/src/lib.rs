//! A Beam-style mini dataflow engine with per-worker memory budgets and
//! spill-to-disk, built for the distributed subset-selection pipelines of
//! the MLSys 2025 paper *"On Distributed Larger-Than-Memory Subset
//! Selection With Pairwise Submodular Functions"* (Böther et al., §5).
//!
//! The paper implements its bounding and scoring algorithms on Apache Beam
//! so that *no machine ever holds the target subset in DRAM*. This crate
//! reproduces that substrate from scratch:
//!
//! - [`PCollection`] — an immutable, sharded, possibly disk-resident
//!   collection (Beam's `PCollection`).
//! - Transforms: [`PCollection::map`], [`PCollection::flat_map`],
//!   [`PCollection::filter`], [`PCollection::group_by_key`], the two-way
//!   join [`PCollection::co_group_2`], the budget-aware keyed combiner
//!   [`PCollection::aggregate_per_key`], and aggregations including the
//!   distributed [`PCollection::kth_largest`] selection that powers the
//!   bounding thresholds and the per-key top-1 selection
//!   [`PCollection::argmax_per_key`] behind the engine-resident
//!   distributed greedy.
//! - [`SideInput`] / [`BroadcastSet`] — broadcast side-inputs for small
//!   driver-side values (solution sets, status bitsets), metered by
//!   [`PipelineMetrics::bytes_broadcast`], and the deterministic sampling
//!   coin [`sample_coin`], which depends only on `(seed, key)` — never on
//!   sharding or scheduling.
//! - [`MemoryBudget`] — a byte limit per simulated worker. Buffers that
//!   would exceed it are spilled to disk; shuffles fall back to external
//!   sort-merge. [`PipelineMetrics`] exposes spill counters so tests can
//!   prove the budget held.
//!
//! Workers execute on the workspace's work-stealing pool
//! (`submod_exec`, reached through the vendored `rayon` facade): shard
//! transforms, the map and reduce sides of the shuffle, and spill/codec
//! work all run concurrently, while all data movement stays mediated by
//! the [`Record`] codec exactly as it would be across machines. Shuffle
//! runs are sequence-tagged so every result — group contents included —
//! is **bitwise-identical at any thread count** (`EXEC_NUM_THREADS`
//! selects the pool size).
//!
//! # Example
//!
//! ```
//! use submod_dataflow::{MemoryBudget, Pipeline};
//!
//! # fn main() -> Result<(), submod_dataflow::DataflowError> {
//! // 4 workers, 1 MiB each: big shuffles spill transparently.
//! let pipeline = Pipeline::builder()
//!     .workers(4)
//!     .memory_budget(MemoryBudget::mib(1))
//!     .build()?;
//!
//! let edges = pipeline.from_vec(vec![(1u64, 2u64), (1, 3), (2, 3)]);
//! let degrees =
//!     edges.map(|(v, _)| (v, 1u64))?.aggregate_per_key(0u64, |a, c| a + c, |a, b| a + b)?;
//! let mut out = degrees.collect()?;
//! out.sort_unstable();
//! assert_eq!(out, vec![(1, 2), (2, 1)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod codec;
mod error;
mod memory;
mod pcollection;
mod pipeline;
mod sample;
mod shuffle;
mod side;
mod spill;

pub use agg::argmax_prefers;
pub use codec::{ColKind, Column, Either2, FixedWidth, Record};
pub use error::DataflowError;
pub use memory::{MemoryBudget, PipelineMetrics};
pub use pcollection::PCollection;
pub use pipeline::{set_fusion_default, Pipeline, PipelineBuilder};
pub use sample::{mix_seed_key, sample_coin, splitmix64};
pub use side::{BroadcastSet, SideInput};
