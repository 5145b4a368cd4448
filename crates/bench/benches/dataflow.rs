//! Dataflow engine throughput: shuffles in memory vs through the spill
//! path, and the distributed k-th-largest selection.

use criterion::{criterion_group, criterion_main, Criterion};
use submod_dataflow::{MemoryBudget, Pipeline};

fn bench_group_by_key(c: &mut Criterion) {
    let records: Vec<(u64, u64)> = (0..200_000u64).map(|i| (i % 5_000, i)).collect();
    let mut group = c.benchmark_group("dataflow_group_by_key_200k");
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        let pipeline = Pipeline::new(8).unwrap();
        let pc = pipeline.from_vec(records.clone());
        b.iter(|| pc.group_by_key().unwrap().count().unwrap())
    });
    group.bench_function("spilling_256KiB", |b| {
        let pipeline = Pipeline::builder()
            .workers(8)
            .memory_budget(MemoryBudget::bytes(256 * 1024))
            .build()
            .unwrap();
        let pc = pipeline.from_vec(records.clone());
        b.iter(|| pc.group_by_key().unwrap().count().unwrap())
    });
    group.finish();
}

fn bench_kth_largest(c: &mut Criterion) {
    let pipeline = Pipeline::new(8).unwrap();
    let values: Vec<f64> = (0..500_000).map(|i| ((i * 31) % 499_979) as f64).collect();
    let pc = pipeline.from_vec(values);
    let mut group = c.benchmark_group("dataflow_kth_largest_500k");
    group.sample_size(10);
    group.bench_function("k_mid", |b| b.iter(|| pc.kth_largest(250_000).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_group_by_key, bench_kth_largest);
criterion_main!(benches);
