//! Shared experiment infrastructure: dataset construction, sweep grids,
//! and the heatmap runner behind Figures 3/4/12–17.

use std::path::PathBuf;
use submod_core::{greedy_select, PairwiseObjective, ScoreNormalizer};
use submod_data::{build_instance, DatasetConfig, SelectionInstance};
use submod_dist::{distributed_greedy, DeltaSchedule, DistGreedyConfig};

/// Global harness context parsed from the command line.
#[derive(Clone, Debug)]
pub struct BenchCtx {
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Dataset scale factor (1.0 = the paper's sizes).
    pub scale: f64,
    /// Quick mode: coarser grids for smoke runs.
    pub quick: bool,
}

impl BenchCtx {
    /// CIFAR-100-like instance at the configured scale (default scale 0.1
    /// ⇒ 5 000 points; `--scale 1.0` ⇒ the paper's 50 000).
    pub fn cifar(&self) -> SelectionInstance {
        build_instance(&DatasetConfig::cifar100_like().scaled(self.scale))
            .expect("cifar-like instance")
    }

    /// ImageNet-like instance: 1 000 classes at the configured scale
    /// (default ⇒ 20 points per class = 20 000 points).
    pub fn imagenet(&self) -> SelectionInstance {
        let per_class = ((200.0 * self.scale).round() as usize).max(2);
        build_instance(&DatasetConfig::imagenet_like().with_points_per_class(per_class))
            .expect("imagenet-like instance")
    }

    /// The paper's partition/round axis {1, 2, 4, 8, 16, 32}.
    pub fn grid_axis(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 4, 16]
        } else {
            vec![1, 2, 4, 8, 16, 32]
        }
    }

    /// The paper's α axis {0.9, 0.5, 0.1}.
    pub fn alphas(&self) -> Vec<f64> {
        if self.quick {
            vec![0.9]
        } else {
            vec![0.9, 0.5, 0.1]
        }
    }

    /// The paper's subset-size axis {10 %, 50 %, 80 %}.
    pub fn subset_fractions(&self) -> Vec<f64> {
        if self.quick {
            vec![0.1]
        } else {
            vec![0.1, 0.5, 0.8]
        }
    }
}

/// Deterministic per-cell seed so experiments are reproducible without
/// cells sharing RNG streams.
pub fn cell_seed(partitions: usize, rounds: usize, alpha: f64, k: usize) -> u64 {
    let mut z = partitions as u64
        ^ ((rounds as u64) << 16)
        ^ ((k as u64) << 32)
        ^ ((alpha * 1000.0) as u64) << 48;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// One heatmap cell: raw objective score.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub partitions: usize,
    pub rounds: usize,
    pub score: f64,
}

/// One normalization group (fixed dataset, α, k): the centralized
/// reference plus every sweep cell.
#[derive(Clone, Debug)]
pub struct HeatmapGroup {
    pub alpha: f64,
    pub subset_fraction: f64,
    pub k: usize,
    pub centralized: f64,
    pub cells: Vec<Cell>,
}

impl HeatmapGroup {
    /// Normalizes a raw score with the paper's §6 convention.
    pub fn normalizer(&self) -> ScoreNormalizer {
        let observed: Vec<f64> = self.cells.iter().map(|c| c.score).collect();
        ScoreNormalizer::new(self.centralized, &observed)
    }
}

/// Runs the partitions × rounds sweep of Figures 3/4/12–15 for one
/// instance.
pub fn run_heatmap(
    instance: &SelectionInstance,
    alphas: &[f64],
    subset_fractions: &[f64],
    axis: &[usize],
    adaptive: bool,
    gamma: f64,
) -> Vec<HeatmapGroup> {
    let ground: Vec<submod_core::NodeId> =
        (0..instance.len()).map(submod_core::NodeId::from_index).collect();
    let mut groups = Vec::new();
    for &alpha in alphas {
        let objective = instance.objective(alpha).expect("objective");
        for &frac in subset_fractions {
            let k = ((instance.len() as f64 * frac).round() as usize).max(1);
            let centralized = greedy_select(&instance.graph, &objective, k)
                .expect("centralized")
                .objective_value();
            let mut cells = Vec::new();
            for &partitions in axis {
                for &rounds in axis {
                    let score = run_cell(
                        instance, &objective, &ground, k, partitions, rounds, adaptive, gamma,
                    );
                    cells.push(Cell { partitions, rounds, score });
                }
            }
            groups.push(HeatmapGroup { alpha, subset_fraction: frac, k, centralized, cells });
        }
    }
    groups
}

/// One distributed-greedy sweep cell.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    instance: &SelectionInstance,
    objective: &PairwiseObjective,
    ground: &[submod_core::NodeId],
    k: usize,
    partitions: usize,
    rounds: usize,
    adaptive: bool,
    gamma: f64,
) -> f64 {
    let config = DistGreedyConfig::new(partitions, rounds)
        .expect("config")
        .adaptive(adaptive)
        .schedule(DeltaSchedule::Linear { gamma })
        .seed(cell_seed(partitions, rounds, objective.alpha(), k));
    distributed_greedy(&instance.graph, objective, ground, k, &config)
        .expect("distributed greedy")
        .selection
        .objective_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_deterministic_and_distinguishing() {
        assert_eq!(cell_seed(4, 8, 0.9, 100), cell_seed(4, 8, 0.9, 100));
        assert_ne!(cell_seed(4, 8, 0.9, 100), cell_seed(8, 8, 0.9, 100));
        assert_ne!(cell_seed(4, 8, 0.9, 100), cell_seed(4, 16, 0.9, 100));
        assert_ne!(cell_seed(4, 8, 0.9, 100), cell_seed(4, 8, 0.5, 100));
        assert_ne!(cell_seed(4, 8, 0.9, 100), cell_seed(4, 8, 0.9, 500));
    }

    #[test]
    fn quick_mode_shrinks_grids() {
        let full = BenchCtx { out_dir: "r".into(), scale: 0.1, quick: false };
        let quick = BenchCtx { out_dir: "r".into(), scale: 0.1, quick: true };
        assert!(quick.grid_axis().len() < full.grid_axis().len());
        assert!(quick.alphas().len() < full.alphas().len());
        assert!(quick.subset_fractions().len() < full.subset_fractions().len());
    }

    #[test]
    fn heatmap_group_normalizer_anchors() {
        let group = HeatmapGroup {
            alpha: 0.9,
            subset_fraction: 0.1,
            k: 10,
            centralized: 100.0,
            cells: vec![
                Cell { partitions: 1, rounds: 1, score: 100.0 },
                Cell { partitions: 2, rounds: 1, score: 40.0 },
            ],
        };
        let norm = group.normalizer();
        assert_eq!(norm.normalize(100.0), 100.0);
        assert_eq!(norm.normalize(40.0), 0.0);
    }
}
