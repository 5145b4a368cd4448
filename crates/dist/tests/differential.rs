//! Cross-driver differential suite: the in-memory and dataflow drivers
//! of the multi-round greedy must select **bitwise identical** subsets — same ids, same order, same objective-value bits,
//! same round statistics — on proptest-generated datasets (clustered,
//! degenerate/duplicate, adversarially partitioned, `k` near 0 and near
//! `n`), and on **both sides of the dataflow driver's computed path
//! choice**: under an unlimited budget (every round partition-resident)
//! and under a budget below a one-row partition (every round on the
//! over-budget fallback), with the path that ran read back from the
//! `greedy.phases_*` counters.
//!
//! Thread counts, trace modes, fault plans and graph backings are the
//! axes of the facade's invariance harness (`tests/invariance.rs`); this
//! suite owns the adversarial instances and the batched path's edge cases.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use submod_core::{GraphBuilder, NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    distributed_greedy, distributed_greedy_dataflow, DistGreedyConfig, DistGreedyReport,
};

/// Worker bytes one resident partition row costs before its shard
/// entries (`submod_dist`'s crate docs, "The driver memory model"): 40 B
/// of row, bucket and queue plus the shard's 8 B row offset. A budget one
/// byte lower fits no partition at all.
const RESIDENT_BYTES_PER_ROW: u64 = 48;

/// Worker bytes of one shard entry (a 4 B local target and a 4 B weight).
const SHARD_BYTES_PER_ENTRY: u64 = 8;

/// The fallback width `DistGreedyConfig::new` starts with.
const DEFAULT_BATCH: usize = DistGreedyConfig::DEFAULT_WINNER_BATCH;

/// Phases the dataflow driver ran since `before`, as
/// `[resident, batched]`, from the process-wide registry
/// (`phases_since([0; 2])` is the running total).
fn phases_since(before: [u64; 2]) -> [u64; 2] {
    let names = ["greedy.phases_resident", "greedy.phases_batched"];
    std::array::from_fn(|i| submod_obs::counter(names[i]).value() - before[i])
}

/// The registry is process-wide and tests run on parallel threads: every
/// test that runs a dataflow greedy holds this lock, so a counter delta
/// belongs to the run between its two reads.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A dataflow pipeline on one side of the fit line: unlimited, or starved
/// below a one-row partition.
fn pipeline(workers: usize, starved: bool) -> Pipeline {
    let budget = if starved {
        MemoryBudget::bytes(RESIDENT_BYTES_PER_ROW - 1)
    } else {
        MemoryBudget::unlimited()
    };
    Pipeline::builder().workers(workers).memory_budget(budget).build().expect("pipeline")
}

/// Asserts the phases one dataflow run added to the counters: resident
/// for every phase on the unlimited side; on the starved side batched for
/// every phase with a non-empty pool (an empty pool fits any budget).
fn assert_phases(before: [u64; 2], starved: bool, pool_sizes: &[usize]) {
    let total = pool_sizes.len() as u64;
    let fell_back =
        if starved { pool_sizes.iter().filter(|&&len| len > 0).count() as u64 } else { 0 };
    let expected = [total - fell_back, fell_back];
    assert_eq!(phases_since(before), expected, "[resident, batched] phases (starved: {starved})");
}

/// A clustered instance: `clusters` tight groups with strong
/// intra-cluster similarities, weak ring links between clusters, and
/// per-cluster utility bands.
fn clustered_instance(
    clusters: usize,
    per_cluster: usize,
    seed: u64,
) -> (SimilarityGraph, PairwiseObjective) {
    let n = clusters * per_cluster;
    let mut b = GraphBuilder::new(n);
    let mut state = seed ^ 0x005E_EDC1u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    for c in 0..clusters {
        let base = (c * per_cluster) as u64;
        for i in 0..per_cluster as u64 {
            for j in i + 1..per_cluster as u64 {
                if next() % 3 != 0 {
                    let s = 0.5 + (next() % 400) as f32 / 1000.0;
                    b.add_undirected(base + i, base + j, s).expect("edge");
                }
            }
        }
        // A weak link to the next cluster.
        let other = (((c + 1) % clusters) * per_cluster) as u64;
        if other != base {
            b.add_undirected(base, other, 0.05).expect("bridge");
        }
    }
    let graph = b.build();
    let utilities: Vec<f32> = (0..n)
        .map(|i| {
            let cluster_band = (i / per_cluster) as f32 * 0.1;
            0.2 + cluster_band + (next() % 500) as f32 / 1000.0
        })
        .collect();
    (graph, PairwiseObjective::from_alpha(0.8, utilities).expect("objective"))
}

/// A degenerate instance: heavy duplication — every point appears as a
/// clone group with identical utility and identical neighborhoods, so
/// ties are everywhere and only the deterministic id tie-break decides.
fn degenerate_instance(groups: usize, clones: usize) -> (SimilarityGraph, PairwiseObjective) {
    let n = groups * clones;
    let mut b = GraphBuilder::new(n);
    for g in 0..groups {
        let base = (g * clones) as u64;
        // Clones of a group are mutually near-identical.
        for i in 0..clones as u64 {
            for j in i + 1..clones as u64 {
                b.add_undirected(base + i, base + j, 0.75).expect("edge");
            }
        }
        // Every clone links identically to the next group's clones.
        let other = (((g + 1) % groups) * clones) as u64;
        if other != base {
            for i in 0..clones as u64 {
                for j in 0..clones as u64 {
                    b.add_undirected(base + i, other + j, 0.25).expect("edge");
                }
            }
        }
    }
    let graph = b.build();
    // Identical utilities within a group (and across half the groups).
    let utilities: Vec<f32> = (0..n).map(|i| 0.4 + ((i / clones) % 2) as f32 * 0.3).collect();
    (graph, PairwiseObjective::from_alpha(0.7, utilities).expect("objective"))
}

fn ground(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::from_index).collect()
}

/// Everything observable about a run, bit-exact: selected ids in order,
/// the objective value's bits, and the per-round statistics.
type Fingerprint = (Vec<u64>, u64, Vec<(usize, usize, usize, usize)>);

fn fingerprint(report: &DistGreedyReport) -> Fingerprint {
    (
        report.selection.selected().iter().map(|v| v.raw()).collect(),
        report.selection.objective_value().to_bits(),
        report
            .rounds
            .iter()
            .map(|r| (r.input_size, r.target, r.partitions, r.output_size))
            .collect(),
    )
}

/// Runs the in-memory driver and the dataflow driver on both sides of the
/// fit line, asserts one bit-exact outcome and the path each dataflow run
/// took, and returns the outcome.
fn assert_drivers_identical(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
    workers: usize,
    winner_batch: usize,
) -> Fingerprint {
    let _registry = registry_lock();
    let config = config.clone().winner_batch(winner_batch);
    let mem = distributed_greedy(graph, objective, ground, k, &config).expect("in-memory");
    for starved in [false, true] {
        let before = phases_since([0; 2]);
        let pipeline = pipeline(workers, starved);
        let df = distributed_greedy_dataflow(&pipeline, graph, objective, ground, k, &config)
            .expect("dataflow");
        assert_eq!(
            fingerprint(&mem),
            fingerprint(&df),
            "drivers diverged (machines {}, rounds {}, k {k}, starved {starved})",
            config.machines(),
            config.rounds()
        );
        let pool_sizes: Vec<usize> = df.rounds.iter().map(|r| r.input_size).collect();
        assert_phases(before, starved, &pool_sizes);
        if starved {
            assert!(pipeline.metrics().bytes_spilled > 0, "the budget must force spills");
        }
    }
    fingerprint(&mem)
}

#[test]
fn degenerate_duplicate_points_tie_break_identically() {
    // All-equal gains everywhere: only the shared id tie-break decides,
    // so any divergence between the argmax order and the queue order
    // shows up immediately.
    let (graph, objective) = degenerate_instance(6, 5);
    let n = graph.num_nodes();
    for (machines, rounds) in [(1usize, 1usize), (3, 2), (5, 4)] {
        let config = DistGreedyConfig::new(machines, rounds).unwrap().seed(13);
        assert_drivers_identical(&graph, &objective, &ground(n), n / 3, &config, 3, DEFAULT_BATCH);
    }
}

#[test]
fn k_near_zero_and_near_n_are_identical() {
    let (graph, objective) = clustered_instance(4, 8, 21);
    let n = graph.num_nodes();
    for k in [0usize, 1, 2, n - 2, n - 1, n] {
        let config = DistGreedyConfig::new(4, 3).unwrap().seed(2).adaptive(true);
        let out =
            assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 4, DEFAULT_BATCH);
        assert_eq!(out.0.len(), k, "selection size at k = {k}");
    }
}

#[test]
fn adversarial_partitions_are_identical() {
    // The §6.4 worst case: the whole reference solution forced onto
    // machine 0 in round 1, on both drivers.
    let (graph, objective) = clustered_instance(3, 10, 5);
    let n = graph.num_nodes();
    let reference = submod_core::greedy_select(&graph, &objective, 6).unwrap();
    let config = DistGreedyConfig::new(5, 4)
        .unwrap()
        .seed(3)
        .adversarial_first_round(reference.selected().to_vec());
    assert_drivers_identical(&graph, &objective, &ground(n), 6, &config, 3, DEFAULT_BATCH);
}

#[test]
fn batched_winner_passes_are_identical_to_in_memory() {
    // The multi-winner engine passes must select the identical subset as
    // the in-memory driver, at every batch size.
    let (graph, objective) = clustered_instance(4, 8, 33);
    let n = graph.num_nodes();
    let config = DistGreedyConfig::new(3, 2).unwrap().seed(19).adaptive(true);
    for batch in [1usize, 2, 3, 8, 64] {
        assert_drivers_identical(&graph, &objective, &ground(n), n / 4, &config, 3, batch);
    }
}

#[test]
fn batched_winner_invalidation_falls_back_identically() {
    // Forced invalidation: the degenerate clone groups have 0.75-weight
    // intra-group edges and identical utilities, so the moment a clone is
    // popped every other candidate in its group drops far below the batch
    // threshold τ. With small batches nearly every replay certifies one
    // pop and invalidates the rest, exercising the fallback passes — and
    // the selection still must not move by a bit.
    let (graph, objective) = degenerate_instance(5, 6);
    let n = graph.num_nodes();
    let config = DistGreedyConfig::new(2, 2).unwrap().seed(7);
    for batch in [1usize, 2, 4, 16] {
        assert_drivers_identical(&graph, &objective, &ground(n), n / 2, &config, 3, batch);
    }
}

/// Between the two sides of the fit line: a budget below every round-1
/// partition (the rows alone of a mean one, 48 × 48 B, before its shard
/// entries) that still holds many batches' worth of overlay events, so
/// the batched fallback scans several times per rewrite — where the
/// one-row budget above rewrites after every batch.
/// Bit-identical to the in-memory driver, with the rewrite count and the
/// overlay's peak read back from the registry.
#[test]
fn overlay_spans_several_batches_between_rewrites() {
    let _registry = registry_lock();
    let (graph, objective) = clustered_instance(12, 8, 5);
    let n = graph.num_nodes();
    let config = DistGreedyConfig::new(2, 2).unwrap().seed(4);
    let budget = RESIDENT_BYTES_PER_ROW * (n as u64 / 2);
    let counters = || {
        ["greedy.batch_scans", "greedy.overlay_rewrites"].map(|c| submod_obs::counter(c).value())
    };
    let mem =
        distributed_greedy(&graph, &objective, &ground(n), n / 4, &config).expect("in-memory");
    let pipeline = Pipeline::builder()
        .workers(3)
        .memory_budget(MemoryBudget::bytes(budget))
        .build()
        .expect("pipeline");
    let config = config.clone().winner_batch(1);
    // Zero the overlay's peak gauge (a running maximum).
    submod_obs::reset_metrics();
    let batched =
        distributed_greedy_dataflow(&pipeline, &graph, &objective, &ground(n), n / 4, &config)
            .expect("dataflow");
    let [scans, rewrites] = counters();
    assert_eq!(phases_since([0; 2])[1], 1, "round 1 alone must take the batched path");
    assert!(0 < rewrites && rewrites * 3 < scans, "{rewrites} rewrites over {scans} scans");
    let overlay = submod_obs::gauge("greedy.overlay_bytes_peak").value();
    assert!(0 < overlay && overlay <= budget, "overlay peak {overlay} over {budget}");
    assert_eq!(fingerprint(&batched), fingerprint(&mem), "batched");
}

/// The fit predicate at its boundary: a finite budget exactly at (or one
/// byte above) the largest partition's footprint runs the round resident,
/// one byte below takes the fallback, and the selection never moves. The
/// footprint comes from the decision's own gauge, on a hash partition
/// uneven enough that only the exact per-machine count — not the mean —
/// can have produced it.
#[test]
fn fit_predicate_flips_at_the_largest_partition_footprint() {
    let _registry = registry_lock();
    let (graph, objective) = clustered_instance(6, 12, 9);
    let n = graph.num_nodes();
    let machines = 4;
    let config = DistGreedyConfig::new(machines, 1).unwrap().seed(11);
    let mem = distributed_greedy(&graph, &objective, &ground(n), 10, &config).unwrap();
    let run = |budget: u64| {
        let before = phases_since([0; 2]);
        let pipeline =
            Pipeline::builder().workers(3).memory_budget(MemoryBudget::bytes(budget)).build();
        let df = distributed_greedy_dataflow(
            &pipeline.unwrap(),
            &graph,
            &objective,
            &ground(n),
            10,
            &config,
        )
        .unwrap();
        assert_eq!(fingerprint(&mem), fingerprint(&df), "budget {budget}");
        phases_since(before)
    };

    // The gauge is a running maximum: zero it, then let a roomy finite
    // budget count the partitions.
    submod_obs::reset_metrics();
    assert_eq!(run(1 << 20), [1, 0]);
    let footprint = submod_obs::gauge("greedy.partition_footprint_peak").value();
    // Rows and shard entries are charged in whole 8 B words, and the
    // rows of a mean partition plus the entries of a mean shard (a hash
    // keying keeps about one directed edge in `machines`, split over
    // `machines` shards) fall short of the gauge: only the exact
    // per-machine sum can have produced it.
    assert_eq!(footprint % SHARD_BYTES_PER_ENTRY, 0);
    let mean_entries = graph.num_directed_edges().div_ceil(machines * machines) as u64;
    assert!(
        footprint
            > (n.div_ceil(machines) as u64) * RESIDENT_BYTES_PER_ROW
                + mean_entries * SHARD_BYTES_PER_ENTRY,
        "the partition must be uneven for the exact count to matter"
    );
    assert_eq!(run(footprint + 1), [1, 0]);
    assert_eq!(run(footprint), [1, 0]);
    assert_eq!(run(footprint - 1), [0, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Clustered datasets, random shapes: both drivers, one bit-exact
    /// outcome.
    #[test]
    fn clustered_instances_are_identical(
        clusters in 2usize..5,
        per_cluster in 4usize..9,
        seed in 0u64..200,
        machines in 1usize..6,
        rounds in 1usize..4,
        adaptive in any::<bool>(),
    ) {
        let (graph, objective) = clustered_instance(clusters, per_cluster, seed);
        let n = graph.num_nodes();
        let k = (n / 4).max(1);
        let config = DistGreedyConfig::new(machines, rounds)
            .expect("config")
            .seed(seed)
            .adaptive(adaptive);
        assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 3, DEFAULT_BATCH);
    }

    /// Degenerate shapes: duplicate-heavy clone groups with random clone
    /// widths — the tie-break stress test, under random configurations.
    #[test]
    fn degenerate_instances_are_identical(
        groups in 2usize..6,
        clones in 2usize..6,
        machines in 1usize..5,
        rounds in 1usize..4,
        seed in 0u64..200,
    ) {
        let (graph, objective) = degenerate_instance(groups, clones);
        let n = graph.num_nodes();
        let k = (n / 3).max(1);
        let config = DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 3, DEFAULT_BATCH);
    }

    /// Batched-winner passes under random shapes, batch sizes, and
    /// configurations: bit-exact against the in-memory driver.
    #[test]
    fn batched_instances_are_identical(
        clusters in 2usize..5,
        per_cluster in 4usize..8,
        seed in 0u64..200,
        machines in 1usize..5,
        rounds in 1usize..4,
        batch in 1usize..24,
    ) {
        let (graph, objective) = clustered_instance(clusters, per_cluster, seed);
        let n = graph.num_nodes();
        let k = (n / 4).max(1);
        let config = DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 3, batch);
    }
}
