//! Distributed larger-than-memory subset selection (paper §4–§5).
//!
//! This crate implements the distributed half of the MLSys 2025 paper
//! *"On Distributed Larger-Than-Memory Subset Selection With Pairwise
//! Submodular Functions"* (Böther et al.) on top of [`submod_core`]'s
//! centralized primitives and [`submod_dataflow`]'s Beam-style engine.
//! Its ten driver functions are:
//!
//! - [`bound_in_memory`] / [`bound_dataflow`] — α-bounding over the k-NN
//!   graph (§4.1–§4.3): decide as much of the subset as possible before
//!   any greedy work, exactly or from a `p`-fraction sample. The outcome
//!   carries the run's [`BoundingStats`].
//! - [`distributed_greedy`] / [`distributed_greedy_dataflow`] — the
//!   multi-round partitioned greedy (§4.4) with [`DeltaSchedule`] pool
//!   targets and optional adaptive partitioning; the report carries its
//!   [`GreedyStats`].
//! - [`greedi()`] — the GreeDi / RandGreeDi baseline, whose merge machine
//!   must hold `m·k` points (§2's systems motivation): one round of the
//!   same loop with a quota of `k` per machine, whose final trim is the
//!   merge.
//! - [`select_subset`] / [`complete_selection`] — the end-to-end
//!   pipeline: bounding → distributed greedy over the undecided points →
//!   completion, always returning exactly `k` distinct points.
//! - [`distributed_greedy_journaled`] /
//!   [`distributed_greedy_dataflow_journaled`] /
//!   [`select_subset_journaled`] — the same algorithms with a `submod_journal`
//!   write-ahead log: every round boundary is committed, and a rerun
//!   against the same journal resumes from the last complete boundary to
//!   a **bitwise-identical** result, on either driver.
//!
//! Each algorithm has one crate-internal run function, and each driver
//! function is a call into it. [`theorem_4_6`] states the paper's
//! probabilistic guarantee for approximate bounding, with a
//! [`Theorem46Guarantee::holds`] check.
//!
//! Both drivers share the keying, the priority arithmetic and the
//! addressable queue's pop order (smaller id on priority ties), and
//! bounding's drivers flip the same sampling coins, so in-memory and
//! dataflow runs select **bitwise-identical** subsets at any thread
//! count. `tests/differential.rs` pins that over clustered,
//! duplicate-saturated and adversarially partitioned instances, with `k`
//! near 0 and near `n`.
//!
//! # Greedy on the dataflow driver: resident, or batched
//!
//! Within a round machines never interact, so when it can, a round runs
//! the way the paper's Beam deployment does: `group_by_key` the scored
//! pool by machine, then one parallel map in which each worker builds a
//! partition's **local shard** (its domestic adjacency as a local CSR,
//! read once from the shared graph) and its addressable queue, and runs
//! the same pop-and-decrease loop as the in-memory driver, emitting
//! `(machine, (t, node))` for the machine's `t`-th pop. Whether it can is
//! **computed per round, never set**: the largest partition's footprint,
//! 48 B per row plus 8 B per shard entry, must fit
//! `pipeline.budget().per_worker_bytes()`. The largest partition holds at
//! least the mean, so an unlimited budget or a mean already over it
//! decides at once; otherwise one `aggregate_per_key` pass sums the
//! partitions exactly. Adaptive rounds change the partition count, so a
//! run may mix paths.
//!
//! When a partition does not fit, each **engine scan** certifies a batch
//! of Algorithm-2 steps instead. The scored table stays materialized; the
//! winners so far ride to every worker in an **overlay**, a hashed table
//! of each touched node's events in pop order (a discount per
//! same-machine winner neighbour, or its own removal), plus the machines
//! at quota. One `aggregate` pass reads every row through the overlay
//! (the very subtractions a rewrite would make, in the same order) and
//! returns the live rows per machine, per shard the rows at or above a
//! running floor (at least its B largest), and the **proof floor**, the
//! largest final floor: no live row at or above it stayed in the engine
//! (−∞ when every live row came back). The driver replays each machine's
//! shipped rows from an addressable queue, certifying a pop while its
//! corrected priority stays ≥ the proof floor: rows left in the engine
//! started below it and only decrease. Sweep 1 pops, over every machine,
//! the rows ≥ τ, the B-th largest shipped priority; sweep 2 goes on down
//! to the proof floor while the scan's overlay events still fit one fresh
//! overlay within the per-worker budget. So B is the width each shard
//! ships and sweep 1's rank, not a cap on a scan's winners. A live
//! machine's first pop is always certified, so every scan advances. One
//! fused `flat_map` and a `materialize()` fold the overlay into the table
//! before it would outgrow the per-worker budget, or once dead rows
//! outnumber live ones. B is [`DistGreedyConfig::winner_batch`], default
//! [`DistGreedyConfig::DEFAULT_WINNER_BATCH`].
//!
//! `tests/differential.rs` runs every configuration unlimited, below a
//! one-row partition and in between (where the overlay spans several
//! batches between rewrites), including instances built to invalidate
//! mid-batch pops. The `greedy.phases_resident|batched`,
//! `greedy.batch_scans` and `greedy.overlay_rewrites` counters and the
//! `greedy.partition_footprint_peak`, `greedy.overlay_bytes_peak` and
//! `greedy.scan_bytes_peak` gauges say which path ran, why, and what it
//! held.
//!
//! The in-memory driver does only the work its subset depends on. Each
//! machine pops from its local shard, which keeps, in adjacency order,
//! only the same-bucket neighbours of each row, so every decrease hits
//! the same node in the same order by the same bits while the pop loop
//! reads no global adjacency (`greedy.edges_walked` counts global entries
//! read to build shards, `greedy.edges_local` those kept). The final trim
//! and GreeDi's merge run the same loop over the pool's shard.
//! [`bound_in_memory`] caches each node's penalty sums and re-derives
//! only nodes with a neighbour whose status changed.
//!
//! # The driver memory model
//!
//! The §5 claim is that no single process holds the per-point bound
//! table or a machine partition of the greedy pool. Per pass, bounding
//! allocates:
//!
//! | Allocation | In-memory driver | Dataflow driver |
//! |---|---|---|
//! | Bound table (`U_min`/`U_max`/`U_exp`) | O(undecided), from cached penalty sums | engine-resident, sharded, spills on budget |
//! | Threshold sample | O(sample) | engine-side filter + distributed `kth_largest` |
//! | Driver collections | — | O(candidates): points that beat a threshold |
//! | Persistent state | status bitsets, undecided ids, 16 B/node penalty cache | status bitsets + undecided ids: O(k + undecided) |
//!
//! Per round, the multi-round greedy allocates:
//!
//! | Allocation | In memory (the oracle) | Dataflow, resident | Dataflow, batched |
//! |---|---|---|---|
//! | Scored pool `(machine, (node, priority))` | O(pool) on the driver | engine-resident, grouped by machine | engine-resident, never grouped |
//! | What a worker holds | — | one partition: 40 B/row plus its shard (8 B/row, 8 B/entry) | one budget of rows plus the overlay (12 B slots, at most half full) |
//! | Driver collections | O(pool) | O(winners): 24 B per `(machine, (t, node))` row | fewer than 2B rows of 24 B per table shard, per scan |
//! | Broadcasts | — | the survivor bitset (`n/8` B) | 12 B per overlay event, 8 B per machine at quota, plus the survivor bitset |
//! | Final trim (GreeDi's merge) | the pool's shard (8 B/node + 8 B/edge), pool and queue (24 B/node); a 4 B/node index dropped before popping | same | same |
//!
//! Worker bytes are charged to the pipeline's `peak_worker_bytes`.
//! [`GreedyStats`] is the same on all three paths except
//! `peak_round_bytes`: `24 · round_output` resident, plus `24 · pool` in
//! memory, and what the scans ship when batched. The Δ-schedule
//! bookkeeping (winner bitset and ordered ids) is the only persistent
//! state. Status sets reach workers as broadcast bitsets
//! (`Pipeline::broadcast_set`, metered by `bytes_broadcast`), and
//! bounding's sample flips a splitmix64 coin of `(seed, key)`, never of
//! shard, thread or visit order. The facade's
//! `tests/larger_than_memory.rs` asserts the O(candidates) and
//! O(machines + candidates) claims at 1, 2 and 8 threads, and the
//! figures are mirrored into the `bounding.*` and `greedy.*` metrics.
//! A graph opened from a store
//! ([`submod_core::store`]) is served from a read-only mapping, so the
//! adjacency leaves the driver heap as well (`heap_bytes()` is 0).
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
pub use theorem::{theorem_4_6, Theorem46Guarantee};

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
