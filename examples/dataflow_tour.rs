//! A tour of the Beam-style dataflow engine on its own: transforms,
//! shuffles, joins, memory budgets, and spill accounting.
//!
//! The paper's §5 pipelines are built from exactly these pieces; this
//! example exercises them on a toy co-occurrence workload so the engine's
//! behaviour is visible without the selection machinery on top.
//!
//! ```text
//! cargo run --release --example dataflow_tour
//! ```

use submod_select::prelude::*;
use submod_select::submod_dataflow::sample_coin;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A pipeline of 4 simulated workers with a deliberately small 256 KiB
    // budget so the shuffle's spill path is observable.
    let pipeline =
        Pipeline::builder().workers(4).memory_budget(MemoryBudget::bytes(256 * 1024)).build()?;

    // Source: 200k synthetic "edge" records (node, neighbor).
    let edges = pipeline.generate(200_000, |i| (i % 5_000, (i * 7 + 1) % 5_000))?;
    println!("source: {} edge records across {} shards", edges.count()?, edges.num_shards());

    // Transform chain: filter self-loops, then count degrees per node with
    // the keyed combiner (map-side partial sums collapse duplicated keys
    // before the shuffle).
    let ones = edges.filter(|(a, b)| a != b)?.map(|(a, _)| (a, 1u64))?;
    let degrees = ones.aggregate_per_key(0u64, |a, c| a + c, |a, b| a + b)?;
    let max_degree = degrees.aggregate(0u64, |acc, (_, d)| acc.max(d), |a, b| a.max(b))?;
    println!("distinct nodes: {}, max degree: {max_degree}", degrees.count()?);

    // A two-way co-group, the join `score_dataflow` runs: degrees × a
    // "solution" set.
    let solution = pipeline.from_vec((0u64..500).map(|v| (v * 10, ())).collect::<Vec<_>>());
    let joined = degrees.co_group_2(&solution)?;
    let in_solution =
        joined.filter(|(_, (deg, sol))| !deg.is_empty() && !sol.is_empty())?.count()?;
    println!("nodes with degree info that are in the solution: {in_solution}");

    // Broadcast side-input: the same membership question answered without
    // a shuffle — the solution set rides to every worker as a bitset.
    let members = pipeline.broadcast_set(5_000, (0u64..500).map(|v| v * 10));
    let via_broadcast = degrees.filter(move |(v, _)| members.contains(*v))?.count()?;
    println!("same count via a broadcast side-input join: {via_broadcast}");

    // The same combiner keyed by degree: a degree histogram.
    let histogram =
        degrees.map(|(_, d)| (d, 1u64))?.aggregate_per_key(0u64, |a, c| a + c, |a, b| a + b)?;
    println!("distinct degree values: {}", histogram.count()?);

    // Deterministic seeded sampling, as bounding draws its threshold
    // sample: a filter on a coin of (seed, node), so the sample is
    // identical at any shard or thread count.
    let sample = degrees.filter(|&(v, _)| sample_coin(42, v) < 0.01)?;
    println!("sample at p = 1 % drew {} nodes", sample.count()?);

    // Distributed order statistics without materializing the data.
    let utilities = pipeline.generate(5_000, |v| (v, v as f64 / 5_000.0))?;
    let utility_values = utilities.map(|(_, u)| u)?;
    let median = utility_values.kth_largest(2_500)?;
    let p99 = utility_values.kth_largest(50)?;
    println!("median utility: {median:.4}, p99: {p99:.4}");

    // The engine's resource story.
    let m = pipeline.metrics();
    println!("\npipeline metrics:");
    println!("  records processed : {}", m.records_processed);
    println!("  records shuffled  : {}", m.records_shuffled);
    println!("  spill files       : {}", m.spill_files);
    println!("  bytes spilled     : {} KiB", m.bytes_spilled / 1024);
    println!("  peak worker bytes : {} KiB (budget: 256 KiB)", m.peak_worker_bytes / 1024);
    println!("  external merges   : {}", m.external_merges);
    println!("  combiner flushes  : {}", m.combiner_flushes);
    println!("  bytes broadcast   : {}", m.bytes_broadcast);
    Ok(())
}
