//! The larger-than-memory demonstration: run the §5 dataflow bounding
//! and the engine-resident multi-round greedy under progressively
//! tighter per-worker memory budgets and show that (a) the outcome never
//! changes and (b) the engine trades memory for spill I/O exactly as a
//! Beam runner would.
//!
//! Every memory figure here — driver bytes per pass/round, broadcast
//! volume, steady-state RSS growth — is read back from the
//! `submod_obs` metrics registry (`submod_obs::reset_metrics` before
//! each measured run, `submod_obs::snapshot` after), so the printed
//! tables are the same numbers any trace consumer sees.
//!
//! The adjacency itself is off the driver heap too: the instance graph
//! is written to a temporary store file and reopened memory-mapped (the
//! file is removed at the end), and the experiment asserts
//! the graph's bytes exceed the measured peak RSS growth of one
//! steady-state selection pass (the budget sweeps double as warmup, so
//! one-time thread/allocator costs are excluded). Open-time validation
//! pages the whole file sequentially, so the RSS baseline — marked
//! after the store is opened — charges none of the adjacency to the
//! selections.

use crate::common::BenchCtx;
use crate::output::{print_table, write_artifact};
use std::time::Instant;
use submod_core::{NodeId, SimilarityGraph};
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    bound_dataflow, bound_in_memory, distributed_greedy, distributed_greedy_dataflow,
    BoundingConfig, BoundingOutcome, DistGreedyConfig, SamplingStrategy,
};
use submod_obs::MetricsSnapshot;

/// Reads a gauge out of a registry snapshot (0 when never set).
fn gauge(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.gauges.get(name).copied().unwrap_or(0)
}

/// Reads a counter out of a registry snapshot (0 when never touched).
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Runs the budget sweep on the CIFAR-like dataset.
pub fn ltm(ctx: &BenchCtx) {
    let mut instance = ctx.cifar();
    let store = std::env::temp_dir().join(format!("submod-ltm-{}.graph", std::process::id()));
    instance.graph.write_store(&store).expect("write graph store");
    instance.graph = SimilarityGraph::open_store(&store).expect("open graph store");
    let graph = &instance.graph;
    println!(
        "graph: {} KiB adjacency, mapped: {}, {} B of it on the driver heap",
        graph.memory_bytes() / 1024,
        graph.is_mapped(),
        graph.heap_bytes()
    );

    // The budget sweeps double as warmup: they pre-create worker
    // threads, allocator arenas, and spill buffers, so the metered
    // region below charges only the *selections* — not one-time
    // process-runtime costs — against the graph's size.
    bounding_sweep(ctx, &instance, graph);
    greedy_sweep(ctx, &instance, graph);

    let baseline_kib = submod_obs::mark_rss_baseline();
    steady_state_pass(&instance, graph);
    let snap = submod_obs::snapshot();
    let delta_kib =
        baseline_kib.map(|base| gauge(&snap, "process.rss_peak_kib").saturating_sub(base));

    let graph_kib = (graph.memory_bytes() / 1024) as u64;
    let delta_label = delta_kib.map_or_else(|| "n/a".to_string(), |d| format!("{d} KiB"));
    println!(
        "\ngraph bytes {} KiB vs steady-state selection-pass peak RSS growth {} \
         (graph heap: {} B)",
        graph_kib,
        delta_label,
        graph.heap_bytes()
    );
    if let Some(delta) = delta_kib {
        assert!(
            graph_kib > delta,
            "the adjacency should dwarf a steady-state selection pass's RSS growth \
             (graph {graph_kib} KiB, growth {delta} KiB)"
        );
    }
    write_artifact(
        &ctx.out_dir,
        "ltm_graph_store.csv",
        &format!(
            "mapped,graph_kib,graph_heap_bytes,steady_state_rss_growth_kib\n{},{graph_kib},{},{}\n",
            graph.is_mapped(),
            graph.heap_bytes(),
            delta_kib.map_or_else(|| "n/a".to_string(), |d| d.to_string()),
        ),
    );
    let _ = std::fs::remove_file(&store);
}

/// One more full selection of each kind against a warm process: the
/// RSS growth this adds (tracked by the `process.rss_peak_kib` gauge
/// relative to the marked baseline) is what the selections themselves
/// cost in driver memory, graph backing included.
fn steady_state_pass(instance: &submod_data::SelectionInstance, graph: &SimilarityGraph) {
    let objective = instance.objective(0.9).expect("objective");
    let n = instance.len();
    let k = n / 10;
    let config = BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 17).expect("config");
    let pipeline = Pipeline::new(8).expect("pipeline");
    bound_dataflow(&pipeline, graph, &objective, k, &config).expect("steady-state bounding");
    submod_obs::sample_rss();
    let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let greedy = DistGreedyConfig::new(8, 4).expect("config").seed(17).adaptive(true);
    distributed_greedy_dataflow(&pipeline, graph, &objective, &ground, k, &greedy)
        .expect("steady-state greedy");
    submod_obs::sample_rss();
}

/// The bounding half of the sweep.
fn bounding_sweep(
    ctx: &BenchCtx,
    instance: &submod_data::SelectionInstance,
    graph: &SimilarityGraph,
) {
    println!("larger-than-memory: dataflow bounding under shrinking worker budgets");
    let objective = instance.objective(0.9).expect("objective");
    let k = instance.len() / 10;
    let config = BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 17).expect("config");

    submod_obs::reset_metrics();
    let reference = bound_in_memory(graph, &objective, k, &config).expect("reference bounding");
    let reference_snap = submod_obs::snapshot();
    println!(
        "reference (unbounded memory): included {}, excluded {}",
        reference.included.len(),
        reference.excluded_count
    );

    let mut rows = Vec::new();
    let mut memory_rows = Vec::new();
    let mut csv =
        String::from("budget_kib,identical,seconds,spill_files,bytes_spilled,peak_worker_kib\n");
    for budget_kib in [u64::MAX, 4096, 512, 64, 16] {
        let budget = if budget_kib == u64::MAX {
            MemoryBudget::unlimited()
        } else {
            MemoryBudget::bytes(budget_kib * 1024)
        };
        let pipeline =
            Pipeline::builder().workers(8).memory_budget(budget).build().expect("pipeline");
        submod_obs::reset_metrics();
        let start = Instant::now();
        let outcome =
            bound_dataflow(&pipeline, graph, &objective, k, &config).expect("dataflow bounding");
        let secs = start.elapsed().as_secs_f64();
        let snap = submod_obs::snapshot();
        // Every decision field; the stats differ between the drivers.
        let identical = BoundingOutcome { stats: reference.stats, ..outcome } == reference;
        let metrics = pipeline.metrics();
        let label = if budget_kib == u64::MAX {
            "unlimited".to_string()
        } else {
            format!("{budget_kib} KiB")
        };
        rows.push(vec![
            label.clone(),
            if identical { "yes".into() } else { "NO".into() },
            format!("{secs:.2} s"),
            metrics.spill_files.to_string(),
            format!("{} KiB", metrics.bytes_spilled / 1024),
            format!("{} KiB", metrics.peak_worker_bytes / 1024),
        ]);
        csv.push_str(&format!(
            "{budget_kib},{identical},{secs:.4},{},{},{}\n",
            metrics.spill_files,
            metrics.bytes_spilled,
            metrics.peak_worker_bytes / 1024
        ));
        // Two status bitsets ride to the workers every pass.
        let per_pass =
            counter(&snap, "dataflow.broadcast.bytes") / counter(&snap, "bounding.passes").max(1);
        memory_rows.push(vec![
            label,
            format!("{} B", gauge(&snap, "bounding.peak_pass_bytes")),
            gauge(&snap, "bounding.peak_candidates").to_string(),
            format!("{} B", gauge(&snap, "bounding.peak_state_bytes")),
            format!("{per_pass} B"),
        ]);
        assert!(identical, "memory budget changed the bounding outcome");
    }
    print_table(
        "identical outcomes at every budget (8 workers, 30 % uniform bounding, 10 % subset)",
        &["budget/worker", "identical", "wall clock", "spill files", "spilled", "peak worker"],
        &rows,
    );
    println!(
        "\nreference in-memory driver: peak pass bytes {} (full bound table), \
         peak state bytes {}",
        gauge(&reference_snap, "bounding.peak_pass_bytes"),
        gauge(&reference_snap, "bounding.peak_state_bytes")
    );
    print_table(
        "engine-resident driver memory: per-pass collections are candidates only",
        &["budget/worker", "peak pass", "peak candidates", "driver state", "broadcast/pass"],
        &memory_rows,
    );
    write_artifact(&ctx.out_dir, "ltm_budget_sweep.csv", &csv);
}

/// The greedy half of the sweep: the engine-resident multi-round driver
/// under shrinking budgets, identical to the in-memory reference at
/// every budget, with the `greedy.*` registry gauges proving the driver
/// only ever collected winner rows.
fn greedy_sweep(
    ctx: &BenchCtx,
    instance: &submod_data::SelectionInstance,
    graph: &SimilarityGraph,
) {
    println!("\nlarger-than-memory: engine-resident multi-round greedy under shrinking budgets");
    let objective = instance.objective(0.9).expect("objective");
    let n = instance.len();
    let k = n / 10;
    let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let config = DistGreedyConfig::new(8, 4).expect("config").seed(17).adaptive(true);

    submod_obs::reset_metrics();
    let reference =
        distributed_greedy(graph, &objective, &ground, k, &config).expect("reference greedy");
    let reference_snap = submod_obs::snapshot();

    let mut rows = Vec::new();
    let mut memory_rows = Vec::new();
    let mut csv = String::from("budget_kib,identical,seconds,spill_files,bytes_spilled\n");
    for budget_kib in [u64::MAX, 512, 64, 8] {
        let budget = if budget_kib == u64::MAX {
            MemoryBudget::unlimited()
        } else {
            MemoryBudget::bytes(budget_kib * 1024)
        };
        let pipeline =
            Pipeline::builder().workers(8).memory_budget(budget).build().expect("pipeline");
        submod_obs::reset_metrics();
        let start = Instant::now();
        let report = distributed_greedy_dataflow(&pipeline, graph, &objective, &ground, k, &config)
            .expect("dataflow greedy");
        let secs = start.elapsed().as_secs_f64();
        let snap = submod_obs::snapshot();
        let identical = report.selection.selected() == reference.selection.selected()
            && report.selection.objective_value().to_bits()
                == reference.selection.objective_value().to_bits();
        let metrics = pipeline.metrics();
        let label = if budget_kib == u64::MAX {
            "unlimited".to_string()
        } else {
            format!("{budget_kib} KiB")
        };
        rows.push(vec![
            label.clone(),
            if identical { "yes".into() } else { "NO".into() },
            format!("{secs:.2} s"),
            metrics.spill_files.to_string(),
            format!("{} KiB", metrics.bytes_spilled / 1024),
        ]);
        csv.push_str(&format!(
            "{budget_kib},{identical},{secs:.4},{},{}\n",
            metrics.spill_files, metrics.bytes_spilled
        ));
        memory_rows.push(vec![
            label,
            format!("{} B", gauge(&snap, "greedy.peak_round_bytes")),
            counter(&snap, "greedy.winners_collected").to_string(),
            format!("{} B", gauge(&snap, "greedy.peak_state_bytes")),
            format!("{} B", gauge(&snap, "greedy.bytes_broadcast")),
        ]);
        assert!(identical, "memory budget changed the greedy selection");
    }
    print_table(
        "identical selections at every budget (8 workers, 8 machines × 4 rounds, 10 % subset)",
        &["budget/worker", "identical", "wall clock", "spill files", "spilled"],
        &rows,
    );
    println!(
        "\nreference in-memory driver: peak round bytes {} (keyed pool + queues), \
         peak state bytes {}",
        gauge(&reference_snap, "greedy.peak_round_bytes"),
        gauge(&reference_snap, "greedy.peak_state_bytes")
    );
    print_table(
        "engine-resident greedy driver memory: per-round collections are winner rows only",
        &["budget/worker", "peak round", "winners", "driver state", "broadcast"],
        &memory_rows,
    );
    write_artifact(&ctx.out_dir, "ltm_greedy_budget_sweep.csv", &csv);
}
