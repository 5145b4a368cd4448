//! Distributed greedy cost as partitions and rounds scale (the runtime
//! behind Figures 3/4), plus the GreeDi baseline for comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use submod_core::{GraphBuilder, NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    distributed_greedy, distributed_greedy_dataflow, greedi, DistGreedyConfig, PartitionStyle,
};

fn instance(n: usize, seed: u64) -> (SimilarityGraph, PairwiseObjective) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u64 {
        for _ in 0..5 {
            let w = rng.gen_range(0..n as u64);
            if w != v {
                b.add_undirected(v, w, rng.gen_range(0.01..1.0)).unwrap();
            }
        }
    }
    let graph = b.build();
    let utilities: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    (graph, PairwiseObjective::from_alpha(0.9, utilities).unwrap())
}

fn bench_partitions_and_rounds(c: &mut Criterion) {
    let (graph, objective) = instance(20_000, 1);
    let ground: Vec<NodeId> = (0..20_000).map(NodeId::from_index).collect();
    let k = 2_000;
    let mut group = c.benchmark_group("distributed_greedy_20k");
    group.sample_size(10);
    for (partitions, rounds) in [(4usize, 1usize), (16, 1), (4, 8), (16, 8)] {
        for adaptive in [false, true] {
            let name =
                format!("p{partitions}_r{rounds}{}", if adaptive { "_adaptive" } else { "" });
            group.bench_function(name, |b| {
                let config =
                    DistGreedyConfig::new(partitions, rounds).unwrap().adaptive(adaptive).seed(7);
                b.iter(|| distributed_greedy(&graph, &objective, &ground, k, &config).unwrap())
            });
        }
    }
    group.finish();
}

/// Same-runner executor comparison at 2k points: the in-memory driver vs
/// the dataflow driver on both sides of its computed path choice.
/// `dataflow` is the driver as constructed (unlimited budget, so every
/// round is partition-resident). `dataflow_batched` is the over-budget
/// fallback: its 12 KiB budget is below a partition of rounds 1 and 2
/// (≥ 313 rows × 40 B resident) yet above every 500-row × 24 B table
/// shard, so those rounds run τ-batched passes without spill I/O — the
/// executor overhead this entry has always measured. The last round's
/// ≈155-row partitions fit and run resident.
/// `bench-diff --dataflow-ratio` gates the dataflow/in_memory ratios of
/// this group (and of `bounding_executor_2k`) against the checked-in
/// baseline.
fn bench_greedy_executor(c: &mut Criterion) {
    let (graph, objective) = instance(2_000, 3);
    let ground: Vec<NodeId> = (0..2_000).map(NodeId::from_index).collect();
    let k = 200;
    let config = DistGreedyConfig::new(4, 3).unwrap().seed(7);
    let mut group = c.benchmark_group("greedy_executor_2k");
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        b.iter(|| distributed_greedy(&graph, &objective, &ground, k, &config).unwrap())
    });
    let mut dataflow = |name: &str, pipeline: Pipeline| {
        group.bench_function(name, |b| {
            b.iter(|| {
                distributed_greedy_dataflow(&pipeline, &graph, &objective, &ground, k, &config)
                    .unwrap()
            })
        });
    };
    dataflow("dataflow", Pipeline::new(4).unwrap());
    let starved = Pipeline::builder().workers(4).memory_budget(MemoryBudget::bytes(12 * 1024));
    dataflow("dataflow_batched", starved.build().unwrap());
    group.finish();
}

fn bench_greedi_baseline(c: &mut Criterion) {
    let (graph, objective) = instance(20_000, 2);
    let k = 2_000;
    let mut group = c.benchmark_group("greedi_20k");
    group.sample_size(10);
    for machines in [4usize, 16] {
        group.bench_function(format!("m{machines}"), |b| {
            b.iter(|| greedi(&graph, &objective, k, machines, PartitionStyle::Random, 3).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partitions_and_rounds,
    bench_greedy_executor,
    bench_greedi_baseline
);
criterion_main!(benches);
