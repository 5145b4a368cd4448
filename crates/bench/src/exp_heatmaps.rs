//! Figures 3, 4, 12, 13, 14, 15: normalized-score heatmaps over
//! partitions × rounds × α × subset size, with and without adaptive
//! partitioning, on the CIFAR-like and ImageNet-like datasets.

use crate::common::{run_heatmap, BenchCtx};
use crate::output::{write_artifact, Matrix};
use submod_data::SelectionInstance;

/// Figure 3 / Figure 12: CIFAR-like, fixed partitioning.
pub fn fig3(ctx: &BenchCtx) {
    println!("figure 3 / 12: CIFAR-like, non-adaptive (γ = 0.75)");
    heatmap_figure(ctx, &ctx.cifar(), "cifar", false, "fig3_cifar_nonadaptive");
}

/// Figure 13: ImageNet-like, fixed partitioning.
pub fn fig13(ctx: &BenchCtx) {
    println!("figure 13: ImageNet-like, non-adaptive (γ = 0.75)");
    heatmap_figure(ctx, &ctx.imagenet(), "imagenet", false, "fig13_imagenet_nonadaptive");
}

/// Figure 4 / Figure 14: CIFAR-like, adaptive partitioning.
pub fn fig4(ctx: &BenchCtx) {
    println!("figure 4 / 14: CIFAR-like, adaptive partitioning (γ = 0.75)");
    heatmap_figure(ctx, &ctx.cifar(), "cifar", true, "fig4_cifar_adaptive");
}

/// Figure 15: ImageNet-like, adaptive partitioning.
pub fn fig15(ctx: &BenchCtx) {
    println!("figure 15: ImageNet-like, adaptive partitioning (γ = 0.75)");
    heatmap_figure(ctx, &ctx.imagenet(), "imagenet", true, "fig15_imagenet_adaptive");
}

fn heatmap_figure(
    ctx: &BenchCtx,
    instance: &SelectionInstance,
    dataset: &str,
    adaptive: bool,
    artifact: &str,
) {
    println!(
        "dataset: {} points, {} undirected edges, avg degree {:.1}",
        instance.len(),
        instance.graph.num_undirected_edges(),
        instance.graph.avg_degree()
    );
    let axis = ctx.grid_axis();
    let groups =
        run_heatmap(instance, &ctx.alphas(), &ctx.subset_fractions(), &axis, adaptive, 0.75);

    let mut csv =
        String::from("dataset,adaptive,alpha,subset,partitions,rounds,score,normalized\n");
    for group in &groups {
        let normalizer = group.normalizer();
        let mut matrix = Matrix {
            title: format!(
                "{dataset} {:.0} % subset (k = {}), α = {} ({}, 100 = centralized {:.2})",
                group.subset_fraction * 100.0,
                group.k,
                group.alpha,
                if adaptive { "adaptive" } else { "non-adaptive" },
                group.centralized,
            ),
            row_label: "parts",
            col_label: "rounds",
            rows: axis.clone(),
            cols: axis.clone(),
            values: Vec::new(),
        };
        for &p in &axis {
            for &r in &axis {
                let cell = group
                    .cells
                    .iter()
                    .find(|c| c.partitions == p && c.rounds == r)
                    .expect("cell exists");
                matrix.values.push(normalizer.normalize(cell.score));
                csv.push_str(&format!(
                    "{dataset},{adaptive},{},{},{p},{r},{:.4},{:.2}\n",
                    group.alpha,
                    group.subset_fraction,
                    cell.score,
                    normalizer.normalize(cell.score)
                ));
            }
        }
        matrix.print();
    }
    write_artifact(&ctx.out_dir, &format!("{artifact}.csv"), &csv);

    // Shape assertions mirrored from the paper's prose, printed as a
    // verdict line so EXPERIMENTS.md can cite them.
    let verdicts = shape_verdicts(&groups, &axis);
    for v in &verdicts {
        println!("  {v}");
    }
}

/// Checks the paper's qualitative claims on the sweep results.
fn shape_verdicts(groups: &[crate::common::HeatmapGroup], axis: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    let last = *axis.last().expect("axis non-empty");
    let first = axis[0];
    let mut rounds_help = 0usize;
    let mut parts_hurt = 0usize;
    let mut total = 0usize;
    for group in groups {
        let score = |p: usize, r: usize| {
            group
                .cells
                .iter()
                .find(|c| c.partitions == p && c.rounds == r)
                .map(|c| c.score)
                .unwrap_or(f64::NAN)
        };
        total += 1;
        if score(last, last) >= score(last, first) {
            rounds_help += 1;
        }
        if score(first, first) >= score(last, first) {
            parts_hurt += 1;
        }
    }
    out.push(format!(
        "shape check: more rounds helped in {rounds_help}/{total} groups; \
         fewer partitions scored higher in {parts_hurt}/{total} groups"
    ));
    out
}
