//! `experiments profile`: one traced end-to-end pass over every major
//! stage — k-NN build, bounding (both drivers), multi-round greedy
//! (both drivers) — with `SUBMOD_TRACE=spans` forced on. Exports the
//! chrome-trace (`profile_trace.json`, loadable in Perfetto or
//! `chrome://tracing`) and the flat metrics (`profile_metrics.json`),
//! and writes the phase-breakdown markdown: `scale1_profile.md` at
//! `--scale 1.0`, `profile_scale<F>.md` otherwise.

use crate::common::BenchCtx;
use crate::output::write_artifact;
use std::time::Instant;
use submod_core::{NodeId, SimilarityGraph};
use submod_data::DatasetConfig;
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    bound_dataflow, bound_in_memory, distributed_greedy, distributed_greedy_dataflow,
    BoundingConfig, DistGreedyConfig, SamplingStrategy,
};
use submod_knn::{build_knn_graph, KnnBackend};
use submod_obs::{MetricsSnapshot, TraceMode};

/// The work counters of the selection loops, printed per phase. The
/// greedy pair counts the global adjacency entries read while building
/// the per-machine local shards, and the entries those shards keep.
const WORK_COUNTERS: [&str; 4] =
    ["bounding.dirty_nodes", "bounding.edges_walked", "greedy.edges_walked", "greedy.edges_local"];

/// Runs one named phase, folding the process RSS into the registry
/// afterwards and recording the phase's wall clock. Prints the phase's
/// share of every non-zero [`WORK_COUNTERS`] entry.
fn run_phase(phases: &mut Vec<(&'static str, f64)>, name: &'static str, f: impl FnOnce()) {
    let work = || WORK_COUNTERS.map(|c| submod_obs::counter(c).value());
    let before = work();
    let start = Instant::now();
    f();
    submod_obs::sample_rss();
    let secs = start.elapsed().as_secs_f64();
    let done: Vec<String> = WORK_COUNTERS
        .iter()
        .zip(work().iter().zip(before))
        .filter(|(_, (after, before))| *after > before)
        .map(|(c, (after, before))| format!("{c} {}", after - before))
        .collect();
    println!("  {name}: {secs:.2} s  {}", done.join(", "));
    phases.push((name, secs));
}

/// Runs the traced end-to-end profile on the CIFAR-like dataset.
pub fn profile(ctx: &BenchCtx) {
    // Forced programmatically: a profile without spans is meaningless,
    // and forcing it here keeps the subcommand self-contained.
    submod_obs::set_mode(TraceMode::Spans);

    let config = DatasetConfig::cifar100_like().scaled(ctx.scale);
    let instance = ctx.cifar();
    let graph = &instance.graph;
    let objective = instance.objective(0.9).expect("objective");
    let n = instance.len();
    let k = n / 10;
    let ground: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let bounding = BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 17).expect("config");
    let greedy = DistGreedyConfig::new(8, 4).expect("config").seed(17).adaptive(true);
    let pipeline = Pipeline::new(8).expect("pipeline");
    let backend = KnnBackend::auto(n);

    // Everything above (dataset generation, the instance's own k-NN
    // build) is setup; the measured phases start clean. The k-NN build
    // below runs again inside them so the trace carries the `knn.build`
    // subtree.
    println!(
        "profile: {n} points, {} undirected edges, graph mapped: {}, tracing spans",
        graph.num_undirected_edges(),
        graph.is_mapped()
    );
    submod_obs::reset_metrics();
    let _ = submod_obs::take_spans();
    submod_obs::mark_rss_baseline();

    let wall = Instant::now();
    let mut phases: Vec<(&'static str, f64)> = Vec::new();
    run_phase(&mut phases, "knn build", || {
        build_knn_graph(&instance.embeddings, config.knn_k(), &backend, config.seed())
            .map(drop)
            .expect("knn build");
    });
    run_phase(&mut phases, "bounding (in-memory driver)", || {
        bound_in_memory(graph, &objective, k, &bounding).map(drop).expect("bounding");
    });
    run_phase(&mut phases, "bounding (dataflow driver)", || {
        bound_dataflow(&pipeline, graph, &objective, k, &bounding)
            .map(drop)
            .expect("dataflow bounding");
    });
    run_phase(&mut phases, "greedy (in-memory driver)", || {
        distributed_greedy(graph, &objective, &ground, k, &greedy).map(drop).expect("greedy");
    });
    run_phase(&mut phases, "greedy (dataflow driver)", || {
        distributed_greedy_dataflow(&pipeline, graph, &objective, &ground, k, &greedy)
            .map(drop)
            .expect("dataflow greedy");
    });
    // Same instance, same selection (the differential suite pins
    // bit-identity), on the other side of the driver's computed choice:
    // the phase above ran partition-resident (unlimited budget); this one
    // runs the over-budget fallback, up to 64 certified pops per engine
    // pass. Adaptive rounds keep every partition at n/16 rows or more
    // (40 B each resident), so a budget of n bytes is below all of them
    // at any `--scale`.
    let starved = Pipeline::builder()
        .workers(8)
        .memory_budget(MemoryBudget::bytes(n as u64))
        .build()
        .expect("pipeline");
    run_phase(&mut phases, "greedy (dataflow driver, over budget: winner_batch 64)", || {
        distributed_greedy_dataflow(&starved, graph, &objective, &ground, k, &greedy)
            .map(drop)
            .expect("batched dataflow greedy");
    });
    let total_secs = wall.elapsed().as_secs_f64();

    let events = submod_obs::take_spans();
    assert!(
        events.iter().any(|e| e.parent != 0),
        "profile trace should contain nested spans (knn build / bounding passes / greedy rounds)"
    );
    let snap = submod_obs::snapshot();
    write_artifact(&ctx.out_dir, "profile_trace.json", &submod_obs::chrome_trace_json(&events));
    write_artifact(&ctx.out_dir, "profile_metrics.json", &submod_obs::metrics_json(&snap));

    let md = render_markdown(ctx, graph, total_secs, &phases, &snap);
    let md_name = if (ctx.scale - 1.0).abs() < 1e-9 {
        "scale1_profile.md".to_string()
    } else {
        format!("profile_scale{}.md", ctx.scale)
    };
    write_artifact(&ctx.out_dir, &md_name, &md);
}

/// Renders the phase-breakdown markdown from the measured wall clocks
/// and the registry snapshot.
fn render_markdown(
    ctx: &BenchCtx,
    graph: &SimilarityGraph,
    total_secs: f64,
    phases: &[(&'static str, f64)],
    snap: &MetricsSnapshot,
) -> String {
    let (n, edges) = (graph.num_nodes(), graph.num_undirected_edges());
    let backing = if graph.is_mapped() { "mapped" } else { "owned" };
    let mut md = format!(
        "# `--scale {}` end-to-end profile\n\n\
         Generated by `experiments profile --scale {}`. The chrome-trace\n\
         is `profile_trace.json` (load it in\n\
         [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`); the\n\
         flat metrics registry is `profile_metrics.json`. The subcommand\n\
         forces `SUBMOD_TRACE=spans`, so the trace nests k-NN search\n\
         blocks under the build, bounding passes under `bound.run`, and\n\
         greedy rounds under `greedy.run`, across worker-pool\n\
         boundaries.\n\n\
         **Instance:** {n} points × 64-d CIFAR-like, {edges} undirected\n\
         edges, α = 0.9, k = n/10.\n\
         **Runner:** {} worker thread(s), `{}` kernel dispatch, {backing}\n\
         graph, 8 dataflow workers / 8 machines × 4 rounds.\n\n\
         ## Phase wall-clock\n\n\
         | Phase | Wall clock |\n|---|---|\n",
        ctx.scale,
        ctx.scale,
        submod_exec::current_num_threads(),
        submod_kernels::backend().name(),
    );
    for (name, secs) in phases {
        md.push_str(&format!("| {name} | {secs:.2} s |\n"));
    }
    md.push_str(&format!("| **total** | **{total_secs:.2} s** |\n"));

    md.push_str("\n## Registry highlights\n\n| Metric | Value |\n|---|---|\n");
    let highlights = [
        "knn.build.points",
        "knn.search.blocks",
        "kernels.batch_top_k.calls",
        "kernels.batch_top_k.row_scans",
        "bounding.passes",
        "bounding.peak_pass_bytes",
        WORK_COUNTERS[0],
        WORK_COUNTERS[1],
        "greedy.rounds",
        "greedy.steps",
        "greedy.winners_collected",
        WORK_COUNTERS[2],
        WORK_COUNTERS[3],
        "greedy.phases_resident",
        "greedy.phases_batched",
        "greedy.partition_footprint_peak",
        "greedy.batch_scans",
        "greedy.overlay_rewrites",
        "greedy.overlay_bytes_peak",
        "greedy.scan_bytes_peak",
        "dataflow.records_shuffled",
        "dataflow.stages_fused",
        "dataflow.spill.bytes_written",
        "dataflow.broadcast.bytes",
        "process.rss_baseline_kib",
        "process.rss_peak_kib",
    ];
    for name in highlights {
        let value = snap.counters.get(name).or_else(|| snap.gauges.get(name));
        if let Some(v) = value {
            md.push_str(&format!("| `{name}` | {v} |\n"));
        }
    }
    md
}
