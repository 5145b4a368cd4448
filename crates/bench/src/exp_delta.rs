//! Figures 6–11 (Appendix E): ablation of the Δ interpolation factor γ —
//! difference heatmaps of γ ∈ {1.0, 0.5, 0.25} against the default 0.75.

use crate::common::{run_heatmap, BenchCtx, HeatmapGroup};
use crate::output::{write_artifact, Matrix};
use submod_data::SelectionInstance;

/// Runs the γ ablation on the CIFAR-like dataset (pass `--scale` to grow
/// it; the ImageNet variant runs when `quick` is off).
pub fn delta_ablation(ctx: &BenchCtx) {
    delta_for(ctx, &ctx.cifar(), "cifar");
    if !ctx.quick {
        delta_for(ctx, &ctx.imagenet(), "imagenet");
    }
}

fn delta_for(ctx: &BenchCtx, instance: &SelectionInstance, dataset: &str) {
    println!("figures 6–11 ({dataset}): Δ-schedule γ ablation (non-adaptive)");
    let axis = ctx.grid_axis();
    // The paper evaluates 10 % and 50 % subsets for the ablation.
    let fractions: Vec<f64> = ctx.subset_fractions().into_iter().filter(|&f| f < 0.8).collect();
    let alphas = ctx.alphas();

    let baseline = run_heatmap(instance, &alphas, &fractions, &axis, false, 0.75);
    let mut csv = String::from("dataset,gamma,alpha,subset,partitions,rounds,normalized_diff\n");
    for gamma in [1.0, 0.5, 0.25] {
        let variant = run_heatmap(instance, &alphas, &fractions, &axis, false, gamma);
        for (base_group, var_group) in baseline.iter().zip(&variant) {
            let matrix = diff_matrix(base_group, var_group, &axis, dataset, gamma);
            matrix.print();
            for (ri, &p) in axis.iter().enumerate() {
                for (ci, &r) in axis.iter().enumerate() {
                    csv.push_str(&format!(
                        "{dataset},{gamma},{},{},{p},{r},{:.2}\n",
                        base_group.alpha,
                        base_group.subset_fraction,
                        matrix.value(ri, ci)
                    ));
                }
            }
        }
    }
    write_artifact(&ctx.out_dir, &format!("fig6_11_delta_{dataset}.csv"), &csv);
}

/// Difference of normalized scores: positive = γ variant better than 0.75.
fn diff_matrix(
    base: &HeatmapGroup,
    variant: &HeatmapGroup,
    axis: &[usize],
    dataset: &str,
    gamma: f64,
) -> Matrix {
    // Both runs are normalized against the *baseline* group, matching the
    // paper's "difference of the normalized score to the base case".
    let normalizer = base.normalizer();
    let mut values = Vec::new();
    for &p in axis {
        for &r in axis {
            let b = base
                .cells
                .iter()
                .find(|c| c.partitions == p && c.rounds == r)
                .map(|c| normalizer.normalize(c.score))
                .unwrap_or(f64::NAN);
            let v = variant
                .cells
                .iter()
                .find(|c| c.partitions == p && c.rounds == r)
                .map(|c| normalizer.normalize(c.score))
                .unwrap_or(f64::NAN);
            values.push(v - b);
        }
    }
    Matrix {
        title: format!(
            "{dataset} γ = {gamma} vs 0.75: {:.0} % subset, α = {} (positive = better)",
            base.subset_fraction * 100.0,
            base.alpha
        ),
        row_label: "parts",
        col_label: "rounds",
        rows: axis.to_vec(),
        cols: axis.to_vec(),
        values,
    }
}
