//! k-NN graph construction backends: exact vs IVF vs LSH build cost (the
//! §6 graph-construction stage).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use submod_knn::{build_knn_graph, kmeans, Embeddings, IvfIndex, KnnBackend};

fn embeddings(n: usize, dim: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let flat: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Embeddings::from_flat(dim, flat).unwrap()
}

fn bench_backends(c: &mut Criterion) {
    let data = embeddings(3_000, 32, 1);
    let mut group = c.benchmark_group("knn_build_3k_32d");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| build_knn_graph(&data, 10, &KnnBackend::Exact, 0).unwrap())
    });
    group.bench_function("ivf_55x4", |b| {
        b.iter(|| build_knn_graph(&data, 10, &KnnBackend::Ivf { nlist: 55, nprobe: 4 }, 0).unwrap())
    });
    group.bench_function("lsh_8x10", |b| {
        b.iter(|| build_knn_graph(&data, 10, &KnnBackend::Lsh { tables: 8, bits: 10 }, 0).unwrap())
    });
    group.finish();
}

fn bench_exact_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_exact_scaling");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let data = embeddings(n, 32, 2);
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| build_knn_graph(&data, 10, &KnnBackend::Exact, 0).unwrap())
        });
    }
    group.finish();
}

/// The PR 4 headline: the 10-NN graph over 10 k CIFAR-width (64-d)
/// embeddings, exact backend — the scan the blocked SIMD kernels were
/// built for. The acceptance gate compares this against the pre-kernel
/// baseline measured on the same runner (≥ 2× single-thread).
fn bench_build_10k_64d(c: &mut Criterion) {
    let data = embeddings(10_000, 64, 7);
    let mut group = c.benchmark_group("knn_build_10k_64d");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| build_knn_graph(&data, 10, &KnnBackend::Exact, 0).unwrap())
    });
    group.finish();
}

/// The repo benchmark's `embed-knn` shape: the 10-NN graph over 30 000 ×
/// 64-d embeddings with the backend `auto` picks (IVF, 173 cells, 8
/// probes), and on its own the k-means quantizer fit that is half of it.
fn bench_build_30k_64d(c: &mut Criterion) {
    let data = embeddings(30_000, 64, 11);
    let mut group = c.benchmark_group("knn_build_30k_64d");
    group.sample_size(10);
    group.bench_function("ivf_auto", |b| {
        b.iter(|| build_knn_graph(&data, 10, &KnnBackend::auto(data.len()), 0).unwrap())
    });
    group.finish();
    let mut group = c.benchmark_group("kmeans_30k_173");
    group.sample_size(10);
    group.bench_function("fit_25_iterations", |b| {
        b.iter(|| kmeans(&data, IvfIndex::default_nlist(data.len()), 25, 0).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_backends,
    bench_exact_scaling,
    bench_build_10k_64d,
    bench_build_30k_64d
);
criterion_main!(benches);
