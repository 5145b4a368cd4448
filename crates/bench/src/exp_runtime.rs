//! Table 4 and §6.3: runtime and scalability on the perturbed dataset.
//!
//! The paper's 13 B-point runs took hours on an internal cluster; we run
//! the same algorithm matrix on a materialized slice of the virtual
//! perturbed dataset (scaled by `--scale`) and report wall-clock plus raw
//! scores, and stream a larger virtual slice through the dataflow engine
//! to demonstrate the larger-than-memory path.

use crate::common::BenchCtx;
use crate::output::{print_table, write_artifact};
use std::time::Instant;
use submod_core::{NodeId, PairwiseObjective};
use submod_data::{build_instance, DatasetConfig, PerturbedDataset};
use submod_dist::{
    distributed_greedy, select_subset, BoundingConfig, DistGreedyConfig, PipelineConfig,
    SamplingStrategy,
};

/// Table 4: runtimes of bounding / greedy combinations on the perturbed
/// dataset, 16 partitions.
pub fn table4(ctx: &BenchCtx) {
    println!("table 4: runtimes on the perturbed dataset (16 partitions)");
    let (graph, utilities, virtual_points) = perturbed_slice(ctx);
    println!(
        "materialized slice: {} points ({} virtual), {} edges",
        graph.num_nodes(),
        virtual_points,
        graph.num_undirected_edges()
    );
    let objective = PairwiseObjective::from_alpha(0.9, utilities).expect("objective");
    let ground: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();

    let mut rows = Vec::new();
    let mut csv = String::from("algorithm,subset,seconds,score\n");
    let mut timed = |name: &str, frac: f64, f: &dyn Fn(usize) -> f64| {
        let k = ((graph.num_nodes() as f64 * frac) as usize).max(1);
        let start = Instant::now();
        let score = f(k);
        let secs = start.elapsed().as_secs_f64();
        rows.push(vec![
            name.to_string(),
            format!("{:.0} %", frac * 100.0),
            format!("{secs:.2} s"),
            format!("{score:.1}"),
        ]);
        csv.push_str(&format!("{name},{frac},{secs:.4},{score:.4}\n"));
    };

    // Bounding-only rows (10 % subset, as in the paper).
    for (name, strategy) in [
        ("approx bounding, uniform", SamplingStrategy::Uniform),
        ("approx bounding, weighted", SamplingStrategy::Weighted),
    ] {
        timed(name, 0.1, &|k| {
            let config = BoundingConfig::approximate(0.3, strategy, 5).expect("config");
            let outcome =
                submod_dist::bound_in_memory(&graph, &objective, k, &config).expect("bounding");
            (outcome.included.len() + outcome.excluded_count) as f64
        });
    }

    // Greedy after bounding (8 rounds).
    for (name, strategy) in [
        ("8-round greedy after uniform bounding", SamplingStrategy::Uniform),
        ("8-round greedy after weighted bounding", SamplingStrategy::Weighted),
    ] {
        timed(name, 0.1, &|k| {
            let config = PipelineConfig::with_bounding(
                BoundingConfig::approximate(0.3, strategy, 5).expect("config"),
                DistGreedyConfig::new(16, 8).expect("config").adaptive(true).seed(2),
            );
            select_subset(&graph, &objective, k, &config)
                .expect("pipeline")
                .selection
                .objective_value()
        });
    }

    // Greedy without bounding: 1 / 2 / 8 rounds for 10 % and 50 % subsets.
    for rounds in [8usize, 2, 1] {
        for frac in [0.1, 0.5] {
            timed(&format!("{rounds}-round greedy, no bounding"), frac, &|k| {
                let config =
                    DistGreedyConfig::new(16, rounds).expect("config").adaptive(true).seed(2);
                distributed_greedy(&graph, &objective, &ground, k, &config)
                    .expect("distributed")
                    .selection
                    .objective_value()
            });
        }
    }

    print_table(
        "runtimes (score column: objective, or decided points for bounding-only rows)",
        &["algorithm", "subset", "wall clock", "score"],
        &rows,
    );
    write_artifact(&ctx.out_dir, "table4_runtime.csv", &csv);
}

/// §6.3: scores vs rounds at scale, plus bounding decisions.
pub fn sec63(ctx: &BenchCtx) {
    println!("§6.3: perturbed-dataset scalability (16 partitions, α = 0.9)");
    let (graph, utilities, virtual_points) = perturbed_slice(ctx);
    println!(
        "materialized slice: {} points standing in for a {}-point virtual dataset",
        graph.num_nodes(),
        virtual_points
    );
    let objective = PairwiseObjective::from_alpha(0.9, utilities).expect("objective");
    let ground: Vec<NodeId> = (0..graph.num_nodes()).map(NodeId::from_index).collect();

    let mut rows = Vec::new();
    let mut csv = String::from("subset,rounds,score\n");
    for frac in [0.1, 0.5] {
        let k = ((graph.num_nodes() as f64 * frac) as usize).max(1);
        let mut last = f64::NEG_INFINITY;
        let mut monotone = true;
        for rounds in [1usize, 2, 8] {
            let config = DistGreedyConfig::new(16, rounds).expect("config").adaptive(false).seed(3);
            let score = distributed_greedy(&graph, &objective, &ground, k, &config)
                .expect("distributed")
                .selection
                .objective_value();
            monotone &= score >= last;
            last = score;
            rows.push(vec![
                format!("{:.0} %", frac * 100.0),
                rounds.to_string(),
                format!("{score:.2}"),
            ]);
            csv.push_str(&format!("{frac},{rounds},{score:.4}\n"));
        }
        println!(
            "{:.0} % subset: scores increase with rounds: {}",
            frac * 100.0,
            if monotone { "yes (matches §6.3)" } else { "no" }
        );
    }
    print_table(
        "raw scores (no centralized reference at scale)",
        &["subset", "rounds", "score"],
        &rows,
    );

    // Bounding at scale (10 % subset): the paper reports exact bounding
    // excluding 10 % and approximate ~60 %.
    let k = graph.num_nodes() / 10;
    for (name, config) in [
        ("exact", BoundingConfig::exact()),
        (
            "uniform-30%",
            BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 7).expect("config"),
        ),
        (
            "weighted-30%",
            BoundingConfig::approximate(0.3, SamplingStrategy::Weighted, 7).expect("config"),
        ),
    ] {
        let outcome =
            submod_dist::bound_in_memory(&graph, &objective, k, &config).expect("bounding");
        println!(
            "bounding {name}: included {:.3} %, excluded {:.1} % of the slice",
            outcome.included.len() as f64 / graph.num_nodes() as f64 * 100.0,
            outcome.excluded_count as f64 / graph.num_nodes() as f64 * 100.0
        );
        csv.push_str(&format!(
            "bounding-{name},{},{}\n",
            outcome.included.len(),
            outcome.excluded_count
        ));
    }
    write_artifact(&ctx.out_dir, "sec63_scalability.csv", &csv);
}

/// Builds the perturbed-dataset slice: an ImageNet-like base expanded by a
/// virtual factor of 10 000 (the paper's blowup), materialized at factor
/// `5 × scale` for in-memory execution.
fn perturbed_slice(ctx: &BenchCtx) -> (submod_core::SimilarityGraph, Vec<f32>, u64) {
    let per_class = ((100.0 * ctx.scale).round() as usize).max(2);
    let base = build_instance(
        &DatasetConfig::imagenet_like().with_points_per_class(per_class).with_seed(0x5CA1E),
    )
    .expect("base instance");
    let perturbed = PerturbedDataset::new(&base, 10_000, 0.02, 31).expect("perturbed");
    let factor = if ctx.quick { 2 } else { 5 };
    let (graph, utilities) = perturbed.materialize(factor).expect("materialize");
    (graph, utilities, perturbed.total_points())
}
