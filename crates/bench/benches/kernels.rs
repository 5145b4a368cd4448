//! Compute-kernel microbenches: runtime-dispatched SIMD vs the scalar
//! reference, the Q×4 tile micro-kernel against the single-pair kernel it
//! must match bitwise, the blocked batch scan vs a per-query loop, and
//! the cell-shaped gathered scoring of the IVF self-join. The graph-build
//! macro numbers these feed are in `benches/knn.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use submod_kernels::{backend, batch_top_k, dot, dot_tile, scalar, TopKBlock};

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..n * dim)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Single-pair dot products at the paper's two embedding widths (64-d
/// CIFAR, 2048-d ImageNet): the dispatched backend against the scalar
/// reference it must match bitwise.
fn bench_dot(c: &mut Criterion) {
    for dim in [64usize, 2048] {
        let a = vectors(1, dim, 1);
        let b = vectors(1, dim, 2);
        let mut group = c.benchmark_group(format!("kernel_dot_{dim}d"));
        group.bench_function(backend().name(), |bench| bench.iter(|| dot(&a, &b)));
        group.bench_function("scalar_ref", |bench| bench.iter(|| scalar::dot(&a, &b)));
        group.finish();
    }
}

/// The batch primitive the graph build rides: 256 queries × 10 k rows ×
/// 64-d, blocked scan vs issuing the same queries one at a time (both on
/// the dispatched backend — the delta isolates the blocking win).
fn bench_batch_top_k(c: &mut Criterion) {
    let dim = 64;
    let rows = vectors(10_000, dim, 3);
    let norms: Vec<f32> = rows.chunks_exact(dim).map(|r| scalar::dot(r, r).sqrt()).collect();
    let queries = vectors(256, dim, 4);
    let mut group = c.benchmark_group("kernel_batch_top_k_10k_rows_64d");
    group.sample_size(10);
    group.bench_function("blocked_256q", |bench| {
        bench.iter(|| batch_top_k(&queries, &rows, &norms, dim, 10, &[]))
    });
    group.bench_function("per_query_256q", |bench| {
        bench.iter(|| {
            (0..256)
                .map(|qi| {
                    batch_top_k(&queries[qi * dim..(qi + 1) * dim], &rows, &norms, dim, 10, &[])
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// The micro-kernel alone at the CIFAR width: 16 resident queries × 4 096
/// rows per iteration (8.4 MFLOP), as 2×4 tiles against the same pairs
/// through the single-pair kernel. The gap is the register blocking plus
/// the transposed ordered reduction replacing spill-and-scalar-reduce.
fn bench_tile(c: &mut Criterion) {
    let dim = 64;
    let rows = vectors(4_096, dim, 5);
    let queries = vectors(16, dim, 6);
    let queries: Vec<&[f32]> = queries.chunks_exact(dim).collect();
    let mut group = c.benchmark_group("kernel_tile_16q_4096_rows_64d");
    group.bench_function("tile_dot_2x4", |bench| {
        bench.iter(|| {
            let mut out = [[0.0f32; 4]; 16];
            let mut sum = 0.0f32;
            for quad in rows.chunks_exact(4 * dim) {
                let quad = std::array::from_fn(|j| &quad[j * dim..(j + 1) * dim]);
                dot_tile(&queries, quad, &mut out);
                sum += out[15][3];
            }
            sum
        })
    });
    group.bench_function("single_pair_dot", |bench| {
        bench.iter(|| {
            let mut sum = 0.0f32;
            for row in rows.chunks_exact(dim) {
                for q in &queries {
                    sum += dot(q, row);
                }
            }
            sum
        })
    });
    group.finish();
}

/// The shape the IVF self-join scores: a home-cell block of 173 queries
/// against the 8 cells it probes (173 rows each, addressed by scattered
/// ids in a 30 000 × 64-d matrix), cosine and top-10 included — 30.6
/// MFLOP per iteration.
fn bench_cell_block(c: &mut Criterion) {
    let (n, dim, cell) = (30_000usize, 64usize, 173usize);
    let data = vectors(n, dim, 7);
    let norms: Vec<f32> = data.chunks_exact(dim).map(|r| scalar::dot(r, r).sqrt()).collect();
    // A fixed odd stride scatters each cell's ids over the whole matrix.
    let ids: Vec<u32> = (0..9 * cell).map(|i| (i * 7_919 % n) as u32).collect();
    let (home, probed) = ids.split_at(cell);
    let queries: Vec<&[f32]> =
        home.iter().map(|&v| &data[v as usize * dim..(v as usize + 1) * dim]).collect();
    let everyone: Vec<u32> = (0..cell as u32).collect();
    let mut group = c.benchmark_group("kernel_cell_block_173q_8x173_rows_64d");
    group.bench_function("top_k_block", |bench| {
        bench.iter(|| {
            let mut block = TopKBlock::new(&queries, home, dim, 10);
            for rows in probed.chunks_exact(cell) {
                block.score_rows(&data, &norms, dim, rows, &everyone);
            }
            block.into_sorted()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dot, bench_tile, bench_batch_top_k, bench_cell_block);
criterion_main!(benches);
