//! Selection-pinning harness for perf work on the hot paths.
//!
//! Prints a one-shot timing of the 10 k × 64-d exact graph build plus
//! FNV hashes of deterministic end-to-end outputs (centralized greedy,
//! bounding + multi-round pipeline, k-means assignments; then a
//! half-size multi-round greedy whose final pool is trimmed, and GreeDi
//! with both partition styles; then that half-size greedy on the dataflow
//! driver, partition-resident and over budget, with its `GreedyStats`) on
//! exact and IVF graphs — three lines per graph. Run it **before** touching a kernel or scheduler, save
//! the lines, run it after at several thread counts and under
//! `SUBMOD_KERNELS=scalar` — every hash must be unchanged. PR 4 used
//! exactly this to prove the SIMD rewrite left selections
//! bitwise-identical.
//!
//! ```text
//! for t in 1 2 8; do EXEC_NUM_THREADS=$t \
//!   cargo run --release --example pin_selections; done
//! SKIP_TIMING=1 SUBMOD_KERNELS=scalar cargo run --release --example pin_selections
//! ```

use std::time::Instant;
use submod_core::{greedy_select, NodeId, PairwiseObjective};
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    distributed_greedy, distributed_greedy_dataflow, greedi, select_subset, BoundingConfig,
    DistGreedyConfig, PartitionStyle, PipelineConfig, SamplingStrategy,
};
use submod_knn::{build_knn_graph, kmeans, Embeddings, KnnBackend};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32
}

fn embeddings(n: usize, dim: usize, seed: u64) -> Embeddings {
    let mut s = seed;
    let flat: Vec<f32> = (0..n * dim).map(|_| unit(&mut s) * 2.0 - 1.0).collect();
    Embeddings::from_flat(dim, flat).unwrap()
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn main() {
    let threads: usize =
        std::env::var("EXEC_NUM_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    submod_exec::set_num_threads(threads);

    // Headline timing: 10k x 64d exact graph build.
    if std::env::var("SKIP_TIMING").is_err() {
        let data = embeddings(10_000, 64, 7);
        let t0 = Instant::now();
        let g = build_knn_graph(&data, 10, &KnnBackend::Exact, 0).unwrap();
        let dt = t0.elapsed();
        println!(
            "build_10k_64d_exact_ms {:.1} edges {}",
            dt.as_secs_f64() * 1e3,
            g.num_undirected_edges()
        );
    }

    // Deterministic selections: exact and IVF graphs -> greedy + distributed.
    for (tag, n, backend) in [
        ("exact", 1_500usize, KnnBackend::Exact),
        ("ivf", 3_000, KnnBackend::Ivf { nlist: 55, nprobe: 4 }),
    ] {
        let data = embeddings(n, 16, 42);
        let graph = build_knn_graph(&data, 10, &backend, 3).unwrap();
        let utilities: Vec<f32> = {
            let mut s = 9u64;
            (0..n).map(|_| unit(&mut s)).collect()
        };
        let objective = PairwiseObjective::new(0.9, 0.1, utilities).unwrap();
        let k = n / 10;
        let central = greedy_select(&graph, &objective, k).unwrap();
        let sel_hash = hash_ids(central.selected());
        let config = PipelineConfig::with_bounding(
            BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 1).unwrap(),
            DistGreedyConfig::new(4, 4).unwrap().adaptive(true),
        );
        let outcome = select_subset(&graph, &objective, k, &config).unwrap();
        let dist_hash = hash_ids(outcome.selection.selected());
        // k-means assignments hash (IVF quantizer determinism).
        let km = kmeans(&data, 32, 25, 3).unwrap();
        let km_hash = fnv(km.assignments().iter().flat_map(|a| a.to_le_bytes()));
        println!(
            "threads {threads} {tag} central {sel_hash:016x} dist {dist_hash:016x} kmeans {km_hash:016x}"
        );

        // The driver-side trim and merge: a half-size budget whose last
        // adaptive round leaves more than k points, then GreeDi's merge in
        // both partition styles. α = 0.5 weighs diversity enough that the
        // merge does not just reproduce the centralized picks.
        let objective = PairwiseObjective::from_alpha(0.5, objective.utilities().to_vec()).unwrap();
        let half = n / 2;
        let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let config = DistGreedyConfig::new(9, 2).unwrap().adaptive(true).seed(5);
        let report = distributed_greedy(&graph, &objective, &ground, half, &config).unwrap();
        let last = report.rounds.last().expect("at least one round");
        assert!(last.output_size > half, "the last pool must need a trim");
        let trim_hash = hash_ids(report.selection.selected());
        let [arbitrary, random] =
            [PartitionStyle::Arbitrary, PartitionStyle::Random].map(|style| {
                hash_ids(greedi(&graph, &objective, k, 3, style, 5).unwrap().selection.selected())
            });
        println!(
            "threads {threads} {tag} trim {trim_hash:016x} greedi {arbitrary:016x} {random:016x}"
        );

        // The same greedy on the dataflow driver: an unlimited budget runs
        // every phase partition-resident, a budget below one partition row
        // (48 B) the batched fallback at the default width.
        let [resident, batched] = [
            Pipeline::new(4).unwrap(),
            Pipeline::builder().workers(4).memory_budget(MemoryBudget::bytes(47)).build().unwrap(),
        ]
        .map(|pipeline| {
            let report =
                distributed_greedy_dataflow(&pipeline, &graph, &objective, &ground, half, &config)
                    .unwrap();
            let stats = report.stats;
            format!(
                "{:016x} {} {} {} {}",
                hash_ids(report.selection.selected()),
                stats.steps,
                stats.peak_step_winners,
                stats.winners_collected,
                stats.peak_round_bytes
            )
        });
        println!("threads {threads} {tag} df-resident {resident} df-batched {batched}");
    }
}

fn hash_ids(ids: &[NodeId]) -> u64 {
    fnv(ids.iter().flat_map(|id| format!("{id:?},").into_bytes()))
}
