//! Figure 5: rasterized visualization of the chosen subset under 1 / 4 /
//! 16 partitions (PCA substitutes for t-SNE; see [`pca_2d`]).

use crate::common::BenchCtx;
use crate::output::{print_table, write_artifact};
use submod_core::NodeId;
use submod_data::{pca_2d, rasterize};
use submod_dist::{distributed_greedy, DistGreedyConfig};

/// Runs the Figure 5 reproduction on the CIFAR-like dataset.
pub fn fig5(ctx: &BenchCtx) {
    println!("figure 5: subset spread vs partition count (10 % subset, α = 0.9)");
    let instance = ctx.cifar();
    let objective = instance.objective(0.9).expect("objective");
    let k = instance.len() / 10;
    let ground: Vec<NodeId> = (0..instance.len()).map(NodeId::from_index).collect();

    let projected = pca_2d(&instance.embeddings).expect("pca");
    let grid_size = 48usize;

    let mut rows = Vec::new();
    let mut coverages = Vec::new();
    for partitions in [1usize, 4, 16] {
        let config = DistGreedyConfig::new(partitions, 1).expect("config").seed(5);
        let report = distributed_greedy(&instance.graph, &objective, &ground, k, &config)
            .expect("distributed");
        let mut mask = vec![false; instance.len()];
        for v in report.selection.selected() {
            mask[v.index()] = true;
        }
        let grid = rasterize(&projected, &mask, grid_size, grid_size).expect("rasterize");
        let coverage = grid.selected_cell_coverage();
        coverages.push(coverage);
        rows.push(vec![
            partitions.to_string(),
            format!("{:.2}", report.selection.objective_value()),
            format!("{:.1} %", coverage * 100.0),
        ]);
        let _ = write_artifact(
            &ctx.out_dir,
            &format!("fig5_raster_{partitions}partitions.csv"),
            &grid.to_csv(),
        );
    }
    print_table(
        "selected-cell coverage of the occupied 2-D plane (higher = more even spread)",
        &["partitions", "objective", "coverage"],
        &rows,
    );
    println!(
        "shape check: centralized spreads at least as widely as 16 partitions: {}",
        if coverages[0] >= coverages[2] { "yes (matches Figure 5)" } else { "no" }
    );
}
