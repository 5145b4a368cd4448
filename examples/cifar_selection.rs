//! End-to-end CIFAR-100-like selection: the paper's §6.1/§6.2 workflow at
//! configurable scale.
//!
//! Builds a 100-class clustered dataset, a 10-NN cosine graph, and margin
//! utilities; then compares centralized greedy, GreeDi, single-round and
//! multi-round distributed greedy, and the bounding pipeline.
//!
//! ```text
//! cargo run --release --example cifar_selection           # 5 k points
//! cargo run --release --example cifar_selection -- full   # 50 k points
//! ```

use std::time::Instant;
use submod_select::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "full");
    let config = if full {
        DatasetConfig::cifar100_like()
    } else {
        DatasetConfig::cifar100_like().scaled(0.1)
    };
    println!(
        "building {} ({} points, {} classes, {}-d embeddings, 10-NN graph)...",
        config.name(),
        config.total_points(),
        config.num_classes(),
        config.dim()
    );
    let t0 = Instant::now();
    let instance = build_instance(&config)?;
    println!("built in {:.1?}\n", t0.elapsed());

    let k = instance.len() / 10;
    let objective = instance.objective(0.9)?;

    let t = Instant::now();
    let central = greedy_select(&instance.graph, &objective, k)?;
    println!(
        "{:<34} f(S) = {:>12.2}  [100.00 %]  {:?}",
        "centralized greedy",
        central.objective_value(),
        t.elapsed()
    );
    let reference = central.objective_value();
    let pct = |v: f64| v / reference * 100.0;

    // GreeDi baseline: needs a machine holding the union of all partitions.
    let t = Instant::now();
    let gd = greedi(&instance.graph, &objective, k, 8, PartitionStyle::Random, 1)?;
    println!(
        "{:<34} f(S) = {:>12.2}  [{:>6.2} %]  {:?}  (merge holds {} points ≈ {} KiB)",
        "GreeDi (8 machines)",
        gd.selection.objective_value(),
        pct(gd.selection.objective_value()),
        t.elapsed(),
        gd.merge.union_size,
        gd.merge.merge_memory_bytes / 1024
    );

    for (name, machines, rounds, adaptive) in [
        ("distributed 8p / 1 round", 8, 1, false),
        ("distributed 8p / 8 rounds", 8, 8, false),
        ("distributed 8p / 8 rounds adaptive", 8, 8, true),
    ] {
        let t = Instant::now();
        let cfg = PipelineConfig::greedy_only(
            DistGreedyConfig::new(machines, rounds)?.adaptive(adaptive).seed(2),
        );
        let outcome = select_subset(&instance.graph, &objective, k, &cfg)?;
        println!(
            "{:<34} f(S) = {:>12.2}  [{:>6.2} %]  {:?}",
            name,
            outcome.selection.objective_value(),
            pct(outcome.selection.objective_value()),
            t.elapsed()
        );
    }

    // The full pipeline with approximate bounding.
    let t = Instant::now();
    let cfg = PipelineConfig::with_bounding(
        BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, 3)?,
        DistGreedyConfig::new(8, 8)?.adaptive(true).seed(2),
    );
    let outcome = select_subset(&instance.graph, &objective, k, &cfg)?;
    let bounding = outcome.bounding.as_ref().expect("bounding ran");
    println!(
        "{:<34} f(S) = {:>12.2}  [{:>6.2} %]  {:?}",
        "bounding(0.3) + distributed",
        outcome.selection.objective_value(),
        pct(outcome.selection.objective_value()),
        t.elapsed()
    );
    println!(
        "  bounding decided {:.1} % of the ground set up front ({} included / {} excluded, {} grow / {} shrink passes)",
        bounding.decision_fraction(instance.len()) * 100.0,
        bounding.included.len(),
        bounding.excluded_count,
        bounding.grow_rounds,
        bounding.shrink_rounds
    );

    Ok(())
}
