//! A Beam-style mini dataflow engine with per-worker memory budgets and
//! spill-to-disk, built for the distributed subset-selection pipelines of
//! the MLSys 2025 paper *"On Distributed Larger-Than-Memory Subset
//! Selection With Pairwise Submodular Functions"* (Böther et al., §5).
//!
//! The paper implements its bounding and greedy algorithms on Apache Beam
//! so that *no machine ever holds the target subset in DRAM*. This crate
//! reproduces that substrate from scratch:
//!
//! - [`PCollection`] — an immutable, sharded, possibly disk-resident
//!   collection (Beam's `PCollection`).
//! - Transforms: [`PCollection::map`], [`PCollection::flat_map`],
//!   [`PCollection::filter`], [`PCollection::group_by_key`], the
//!   budget-aware keyed combiner [`PCollection::aggregate_per_key`], and
//!   aggregations including the
//!   distributed [`PCollection::kth_largest`] selection that powers the
//!   bounding thresholds, and [`argmax_prefers`], the one tie order of the
//!   engine-resident distributed greedy.
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
//! Workers execute on the workspace's thread pool
//! (`submod_exec`, reached through the vendored `rayon` facade): shard
//! transforms, the map and reduce sides of the shuffle, and spill/codec
//! work all run concurrently, while all data movement stays mediated by
//! the [`Record`] codec exactly as it would be across machines. Shuffle
//! runs are sequence-tagged so every result — group contents included —
//! is **bitwise-identical at any thread count** (`EXEC_NUM_THREADS`
//! selects the pool size).
//!
//! # One executor, fused and lazy
//!
//! `map`, `filter` and `flat_map` return at once, as a deferred operator
//! chained onto the source's fused unit. The chain runs as one pass over
//! each shard (one closure per record, no intermediate `Vec` per stage)
//! the first time a barrier needs the data: `collect`, `count`,
//! [`PCollection::materialize`], a shuffle or an aggregation. Executing
//! swaps the unit's chain for its output shards, so a chain never re-runs
//! and **an executed stage releases its input**: its closures and every
//! upstream unit they held are dropped, and a chain built on it starts
//! over its shards. A loop that keeps deriving a table from the last
//! executed one therefore holds one table, not its history, whatever the
//! number of steps.
//!
//! `materialize()` is the explicit barrier: when it returns, every output
//! shard exists in memory or as a spill file. A table read more than once
//! (bounding's per-pass bound table, greedy's per-phase scored pool) ends
//! in one, so it is derived once. A fused closure owns its captures
//! (`'static`); what it needs from the driver it takes as a shared
//! handle: a side input, an `Arc`, or the graph and objective themselves,
//! which keep their arrays behind an `Arc` and clone in O(1).
//! [`PipelineMetrics::stages_fused`] counts the stages that rode along a
//! fused pass, and `tests/proptests.rs` checks that random fused chains
//! give the same records, bit for bit and in order, as the same chain
//! with a `materialize()` after every operator and as a plain iterator
//! chain.
//!
//! Every spill file, from any operator and of any record type, has the
//! one block layout of the `spill` module. The in-memory `kth_largest` is
//! a single quickselect under `total_cmp`, which orders exactly like the
//! spilled path's ordered-bits bisection, so both return the same bits.
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
pub use codec::Record;
pub use error::DataflowError;
pub use memory::{MemoryBudget, PipelineMetrics};
pub use pcollection::PCollection;
pub use pipeline::{Pipeline, PipelineBuilder};
pub use sample::{mix_seed_key, sample_coin};
pub use side::{BroadcastSet, SideInput};
