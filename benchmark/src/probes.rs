//! Direct probes of single layers through their public API, on data of
//! the workload's own shape, and the two machine peaks the kernel probe
//! is held against. A probe runs after the timed repetitions, so it can
//! never disturb `select_s` or `rss_peak_mib`.

use crate::adapter::{self, Embeddings, Engine, PairwiseObjective, Res, SimilarityGraph};
use crate::stats::median;
use crate::workloads::{splitmix64, LTM_WORKER_BUDGET};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Size divisor of every probe under `--smoke`.
const SMOKE_DIVISOR: usize = 20;

fn scaled(full: usize, smoke: bool) -> usize {
    if smoke {
        full / SMOKE_DIVISOR
    } else {
        full
    }
}

// --------------------------------------------------------------------------
// Machine peaks
// --------------------------------------------------------------------------

/// Single-thread peaks of this machine, measured in this process.
#[derive(Clone, Copy, Debug)]
pub struct MachinePeaks {
    /// Sustained `memcpy` bandwidth, read plus write bytes, in GB/s.
    pub copy_gbps: f64,
    /// Sustained separate multiply + add throughput in GFLOP/s (the
    /// kernels are FMA-free by contract, so this is their ceiling).
    pub mul_add_gflops: f64,
}

const CHAINS: usize = 12;
const LANES: usize = 8;

/// `iters` rounds of `x = x * a + b` over [`CHAINS`] independent 8-lane
/// accumulators — enough chains to hide the latency of one, few enough
/// to stay in registers. Rust never contracts `*` and `+` into an FMA.
#[inline(always)]
fn mul_add_rounds(iters: u64) -> f32 {
    let a = black_box(1.000_000_1f32);
    let b = black_box(1.0e-7f32);
    let mut acc = [[1.0f32; LANES]; CHAINS];
    for _ in 0..iters {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = *x * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mul_add_rounds_avx2(iters: u64) -> f32 {
    mul_add_rounds(iters)
}

fn mul_add_dispatch(iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the function's only requirement is that the CPU supports
        // AVX2, which the line above has just checked.
        return unsafe { mul_add_rounds_avx2(iters) };
    }
    mul_add_rounds(iters)
}

pub fn measure_peaks() -> MachinePeaks {
    const COPY_BYTES: usize = 64 << 20;
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        rates.push(2.0 * COPY_BYTES as f64 / start.elapsed().as_secs_f64() / 1e9);
    }

    const ITERS: u64 = 2_000_000;
    let mut flops = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        black_box(mul_add_dispatch(black_box(ITERS)));
        let per_round = (2 * CHAINS * LANES) as f64;
        flops.push(ITERS as f64 * per_round / start.elapsed().as_secs_f64() / 1e9);
    }
    // The first copy pays the page faults of `dst`; medians drop it.
    MachinePeaks { copy_gbps: median(&rates), mul_add_gflops: median(&flops) }
}

// --------------------------------------------------------------------------
// kernels
// --------------------------------------------------------------------------

pub struct KernelProbe {
    pub gflops: f64,
    pub gbps: f64,
    pub roofline_frac: f64,
}

/// `batch_top_k` in the 64-query blocks the k-NN build issues, over the
/// workload's own embeddings. Flops and bytes are computed from the
/// shapes: one multiply and one add per dimension per (query, row) pair;
/// each block streams the row matrix and its norms once.
pub fn kernels(
    embeddings: &Embeddings,
    peaks: MachinePeaks,
    seed: u64,
    smoke: bool,
) -> KernelProbe {
    const BLOCK: usize = 64;
    let dim = embeddings.dim();
    let rows = embeddings.len().min(scaled(16_384, smoke));
    let blocks = if smoke { 2 } else { 16 };
    let queries: Vec<Vec<f32>> = (0..blocks)
        .map(|b| {
            (0..BLOCK)
                .flat_map(|q| {
                    let row = splitmix64(seed ^ (b * BLOCK + q) as u64) as usize % rows;
                    embeddings.row(row).iter().copied()
                })
                .collect()
        })
        .collect();
    let start = Instant::now();
    for block in &queries {
        black_box(adapter::batch_top_k(block, embeddings, rows, adapter::KNN_K));
    }
    let secs = start.elapsed().as_secs_f64();
    let flops = (blocks * BLOCK * rows * 2 * dim) as f64;
    let bytes = (blocks * (rows * dim * 4 + rows * 4 + BLOCK * dim * 4)) as f64;
    let gflops = flops / secs / 1e9;
    let ceiling = peaks.mul_add_gflops.min(peaks.copy_gbps * flops / bytes);
    KernelProbe { gflops, gbps: bytes / secs / 1e9, roofline_frac: gflops / ceiling }
}

// --------------------------------------------------------------------------
// knn
// --------------------------------------------------------------------------

/// Share of the exact 10 nearest neighbours of 1 000 seeded query points
/// that the workload's (symmetrised) k-NN graph holds as neighbours.
pub fn knn_recall(
    embeddings: &Embeddings,
    graph: &SimilarityGraph,
    seed: u64,
    smoke: bool,
) -> Res<f64> {
    let n = embeddings.len();
    let queries: Vec<usize> =
        (0..scaled(1000, smoke).min(n) as u64).map(|i| splitmix64(seed ^ i) as usize % n).collect();
    let exact = adapter::exact_neighbors(embeddings, &queries, adapter::KNN_K)?;
    let (mut found, mut wanted) = (0usize, 0usize);
    for (&q, truth) in queries.iter().zip(&exact) {
        let have = adapter::neighbors(graph, q);
        found += truth.iter().filter(|id| have.binary_search(id).is_ok()).count();
        wanted += truth.len();
    }
    Ok(found as f64 / wanted as f64)
}

// --------------------------------------------------------------------------
// exec
// --------------------------------------------------------------------------

/// Nanoseconds per empty task through `parallel_map`.
pub fn exec_task_overhead_ns(smoke: bool) -> f64 {
    let tasks = scaled(100_000, smoke);
    let start = Instant::now();
    black_box(adapter::empty_parallel_tasks(tasks));
    start.elapsed().as_secs_f64() * 1e9 / tasks as f64
}

// --------------------------------------------------------------------------
// dataflow
// --------------------------------------------------------------------------

pub struct DataflowProbe {
    pub fused_mrec_s: f64,
    pub gbk_spill_mrec_s: f64,
    pub kth_ms: f64,
}

/// The engine's two regimes in isolation, on 250 000 `(u64, f64)` rows:
/// a fused `map → filter → collect` with no budget, and a `group_by_key`
/// under the larger-than-memory workload's 32 KiB worker budget.
pub fn dataflow(spill_dir: &Path, seed: u64, smoke: bool) -> Res<DataflowProbe> {
    let n = scaled(250_000, smoke);
    let rows: Vec<(u64, f64)> = (0..n as u64)
        .map(|i| {
            let h = splitmix64(seed ^ i);
            (h % (n as u64 / 8), (h >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect();
    let values: Vec<f64> = rows.iter().map(|&(_, x)| x).collect();

    let unlimited = Engine::new(None, spill_dir)?;
    let input = rows.clone();
    let start = Instant::now();
    black_box(unlimited.probe_fused(input)?);
    let fused_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    black_box(unlimited.probe_kth_largest(values, n as u64 / 10)?);
    let kth_s = start.elapsed().as_secs_f64();

    let budgeted = Engine::new(Some(LTM_WORKER_BUDGET), spill_dir)?;
    let start = Instant::now();
    black_box(budgeted.probe_group_by_key(rows)?);
    let gbk_s = start.elapsed().as_secs_f64();

    Ok(DataflowProbe {
        fused_mrec_s: n as f64 / fused_s / 1e6,
        gbk_spill_mrec_s: n as f64 / gbk_s / 1e6,
        kth_ms: kth_s * 1e3,
    })
}

// --------------------------------------------------------------------------
// dist
// --------------------------------------------------------------------------

/// Dataflow over in-memory greedy wall clock on the first `cap` nodes of
/// the workload's instance, for workloads whose timed region runs only
/// one of the two drivers at full size.
pub fn df_over_mem(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    machines: usize,
    rounds: usize,
    seed: u64,
    spill_dir: &Path,
    smoke: bool,
) -> Res<f64> {
    let n = adapter::num_nodes(graph).min(scaled(4000, smoke).max(100));
    let (graph, objective) = adapter::prefix_instance(graph, objective, n)?;
    let k = n / 10;
    let start = Instant::now();
    let in_memory = adapter::greedy_in_memory(&graph, &objective, k, machines, rounds, seed)?;
    let mem_s = start.elapsed().as_secs_f64();
    let engine = Engine::new(None, spill_dir)?;
    let start = Instant::now();
    let dataflow = engine.greedy_default(&graph, &objective, k, machines, rounds, seed)?;
    let df_s = start.elapsed().as_secs_f64();
    if dataflow != in_memory {
        return Err("probe: the two greedy drivers disagree on the prefix instance".into());
    }
    Ok(df_s / mem_s)
}

// --------------------------------------------------------------------------
// journal
// --------------------------------------------------------------------------

pub struct JournalProbe {
    pub append_us: f64,
    pub replay_ms: f64,
}

/// Median of 200 `Journal::append` calls of a record carrying `winners`
/// ids, on the scratch disk, and the time to replay that file.
pub fn journal(path: &Path, winners: usize) -> Res<JournalProbe> {
    let mut probe = adapter::JournalProbe::create(path, winners)?;
    let mut micros = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        probe.append()?;
        micros.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(probe);
    let start = Instant::now();
    let replayed = adapter::replay_journal(path)?;
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    if replayed.records != 200 || replayed.torn_bytes != 0 {
        return Err("probe: the journal did not replay the 200 records appended".into());
    }
    std::fs::remove_file(path)?;
    Ok(JournalProbe { append_us: median(&micros), replay_ms })
}

// --------------------------------------------------------------------------
// core store + mman
// --------------------------------------------------------------------------

pub struct StoreProbe {
    pub write_s: f64,
    pub open_s: f64,
}

/// Writes `graph` to a store file and opens it back as a mapping.
pub fn store(graph: &SimilarityGraph, path: &Path) -> Res<StoreProbe> {
    let start = Instant::now();
    adapter::write_store(graph, path)?;
    let write_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mapped = adapter::open_store(path)?;
    let open_s = start.elapsed().as_secs_f64();
    if adapter::num_edges(&mapped) != adapter::num_edges(graph) {
        return Err("probe: the reopened store has a different edge count".into());
    }
    Ok(StoreProbe { write_s, open_s })
}
