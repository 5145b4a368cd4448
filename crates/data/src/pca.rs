//! 2-D projection and rasterization for the subset visualization
//! (paper Appendix C / Figure 5).
//!
//! The paper projects CIFAR-100 embeddings with t-SNE and rasterizes the
//! chosen subset; the figure's claim is that *fewer partitions spread the
//! selected points more uniformly across the plane*. PCA preserves exactly
//! that spread-vs-clumping contrast at a fraction of the cost, so the
//! reproduction substitutes it.

use crate::DataError;
use rayon::prelude::*;
use submod_knn::Embeddings;

/// Projects embeddings onto their top two principal components via power
/// iteration with deflation.
///
/// This stands in for the paper's t-SNE projection (Figure 5): PCA keeps
/// the contrast the figure shows, selected points spread evenly versus
/// clumped, at a fraction of t-SNE's cost.
///
/// Deterministic (fixed internal start vectors). Returns one `(x, y)` pair
/// per row.
///
/// # Errors
///
/// Returns an error if the matrix has fewer than 2 rows or dimensions.
pub fn pca_2d(embeddings: &Embeddings) -> Result<Vec<(f32, f32)>, DataError> {
    let n = embeddings.len();
    let d = embeddings.dim();
    if n < 2 || d < 2 {
        return Err(DataError::config("PCA needs at least 2 points and 2 dimensions"));
    }

    // Column means.
    let mut mean = vec![0.0f64; d];
    for (_, row) in embeddings.iter() {
        for (j, &x) in row.iter().enumerate() {
            mean[j] += f64::from(x);
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }

    let component = |deflate: Option<&[f64]>, start_phase: f64| -> Vec<f64> {
        // Deterministic pseudo-random start vector.
        let mut v: Vec<f64> = (0..d).map(|j| ((j as f64 + start_phase) * 12.9898).sin()).collect();
        normalize(&mut v);
        for _ in 0..60 {
            // w = Cov · v, computed as Σ (x−μ)((x−μ)·v) / n without forming Cov.
            let w: Vec<f64> = embeddings
                .as_flat()
                .par_chunks(d)
                .fold(
                    || vec![0.0f64; d],
                    |mut acc, row| {
                        let mut proj = 0.0f64;
                        for j in 0..d {
                            proj += (f64::from(row[j]) - mean[j]) * v[j];
                        }
                        for j in 0..d {
                            acc[j] += (f64::from(row[j]) - mean[j]) * proj;
                        }
                        acc
                    },
                )
                .reduce(
                    || vec![0.0f64; d],
                    |mut a, b| {
                        for j in 0..d {
                            a[j] += b[j];
                        }
                        a
                    },
                );
            let mut w: Vec<f64> = w.into_iter().map(|x| x / n as f64).collect();
            if let Some(first) = deflate {
                let dot: f64 = w.iter().zip(first).map(|(a, b)| a * b).sum();
                for (wj, fj) in w.iter_mut().zip(first) {
                    *wj -= dot * fj;
                }
            }
            normalize(&mut w);
            v = w;
        }
        v
    };

    let pc1 = component(None, 0.5);
    let pc2 = component(Some(&pc1), 1.7);

    Ok(embeddings
        .iter()
        .map(|(_, row)| {
            let mut x = 0.0f64;
            let mut y = 0.0f64;
            for (j, &val) in row.iter().enumerate() {
                let centered = f64::from(val) - mean[j];
                x += centered * pc1[j];
                y += centered * pc2[j];
            }
            (x as f32, y as f32)
        })
        .collect())
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    for x in v {
        *x /= norm;
    }
}

/// An occupancy grid over a 2-D projection: how many points (and how many
/// *selected* points) land in each cell — the quantitative form of the
/// paper's Figure 5 rasterization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RasterGrid {
    width: usize,
    height: usize,
    counts: Vec<u32>,
    selected: Vec<u32>,
}

impl RasterGrid {
    /// Grid width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total points in cell `(x, y)`.
    pub fn count(&self, x: usize, y: usize) -> u32 {
        self.counts[y * self.width + x]
    }

    /// Selected points in cell `(x, y)`.
    pub fn selected(&self, x: usize, y: usize) -> u32 {
        self.selected[y * self.width + x]
    }

    /// Fraction of *occupied* cells that contain at least one selected
    /// point — the "spread" statistic behind Figure 5: centralized
    /// selection covers more of the occupied plane than heavily
    /// partitioned selection, which clumps.
    pub fn selected_cell_coverage(&self) -> f64 {
        let mut occupied = 0usize;
        let mut covered = 0usize;
        for i in 0..self.counts.len() {
            if self.counts[i] > 0 {
                occupied += 1;
                covered += usize::from(self.selected[i] > 0);
            }
        }
        if occupied == 0 {
            return 0.0;
        }
        covered as f64 / occupied as f64
    }

    /// Renders the grid as CSV rows `x,y,count,selected` (occupied cells
    /// only), for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,y,count,selected\n");
        for y in 0..self.height {
            for x in 0..self.width {
                let c = self.count(x, y);
                if c > 0 {
                    out.push_str(&format!("{x},{y},{c},{}\n", self.selected(x, y)));
                }
            }
        }
        out
    }
}

/// Rasterizes projected points into a `width × height` occupancy grid.
/// `selected_mask[i]` marks whether point `i` is in the chosen subset.
///
/// # Errors
///
/// Returns an error if the grid is degenerate or the mask length differs
/// from the point count.
pub fn rasterize(
    points: &[(f32, f32)],
    selected_mask: &[bool],
    width: usize,
    height: usize,
) -> Result<RasterGrid, DataError> {
    if width == 0 || height == 0 {
        return Err(DataError::config("raster grid must have positive dimensions"));
    }
    if points.len() != selected_mask.len() {
        return Err(DataError::config("selected mask must align with points"));
    }
    let (mut min_x, mut max_x) = (f32::INFINITY, f32::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f32::INFINITY, f32::NEG_INFINITY);
    for &(x, y) in points {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let span_x = (max_x - min_x).max(f32::MIN_POSITIVE);
    let span_y = (max_y - min_y).max(f32::MIN_POSITIVE);

    let mut grid = RasterGrid {
        width,
        height,
        counts: vec![0; width * height],
        selected: vec![0; width * height],
    };
    for (i, &(x, y)) in points.iter().enumerate() {
        let cx = (((x - min_x) / span_x) * (width as f32 - 1.0)).round() as usize;
        let cy = (((y - min_y) / span_y) * (height as f32 - 1.0)).round() as usize;
        let cell = cy.min(height - 1) * width + cx.min(width - 1);
        grid.counts[cell] += 1;
        grid.selected[cell] += u32::from(selected_mask[i]);
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusteredDataset;

    #[test]
    fn pca_separates_clusters() {
        let data = ClusteredDataset::generate(2, 100, 16, 0.05, 8).unwrap();
        let projected = pca_2d(data.embeddings()).unwrap();
        // The two classes must separate along some direction in the plane.
        let class0: Vec<(f32, f32)> = (0..100).map(|i| projected[i]).collect();
        let class1: Vec<(f32, f32)> = (100..200).map(|i| projected[i]).collect();
        let mean = |pts: &[(f32, f32)]| {
            let n = pts.len() as f32;
            (pts.iter().map(|p| p.0).sum::<f32>() / n, pts.iter().map(|p| p.1).sum::<f32>() / n)
        };
        let (m0x, m0y) = mean(&class0);
        let (m1x, m1y) = mean(&class1);
        let centroid_dist = ((m0x - m1x).powi(2) + (m0y - m1y).powi(2)).sqrt();
        assert!(centroid_dist > 0.5, "PCA failed to separate clusters: {centroid_dist}");
    }

    #[test]
    fn pca_is_deterministic() {
        let data = ClusteredDataset::generate(3, 30, 8, 0.2, 1).unwrap();
        assert_eq!(pca_2d(data.embeddings()).unwrap(), pca_2d(data.embeddings()).unwrap());
    }

    #[test]
    fn pca_rejects_degenerate_input() {
        let single = submod_knn::Embeddings::from_rows(4, &[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        assert!(pca_2d(&single).is_err());
    }

    #[test]
    fn rasterize_counts_points_and_selection() {
        let points = vec![(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (0.5, 0.5)];
        let mask = vec![true, false, true, false];
        let grid = rasterize(&points, &mask, 3, 3).unwrap();
        assert_eq!(grid.count(0, 0), 1);
        assert_eq!(grid.selected(0, 0), 1);
        assert_eq!(grid.count(2, 2), 2);
        assert_eq!(grid.selected(2, 2), 1);
        assert_eq!(grid.count(1, 1), 1);
        let grid_ref = &grid;
        let total: u32 = (0..3).flat_map(|y| (0..3).map(move |x| grid_ref.count(x, y))).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn coverage_statistic() {
        let points = vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)];
        let grid = rasterize(&points, &[true, false, false, false], 2, 2).unwrap();
        assert!((grid.selected_cell_coverage() - 0.25).abs() < 1e-9);
        let all = rasterize(&points, &[true; 4], 2, 2).unwrap();
        assert_eq!(all.selected_cell_coverage(), 1.0);
    }

    #[test]
    fn csv_lists_occupied_cells() {
        let points = vec![(0.0, 0.0), (1.0, 1.0)];
        let grid = rasterize(&points, &[true, false], 2, 2).unwrap();
        let csv = grid.to_csv();
        assert!(csv.starts_with("x,y,count,selected\n"));
        assert_eq!(csv.lines().count(), 3, "header + 2 occupied cells");
    }

    #[test]
    fn rasterize_validation() {
        assert!(rasterize(&[(0.0, 0.0)], &[true], 0, 2).is_err());
        assert!(rasterize(&[(0.0, 0.0)], &[true, false], 2, 2).is_err());
    }
}
