use crate::DataError;
use rand::{Rng, SeedableRng};
use submod_knn::Embeddings;

/// A labeled Gaussian-mixture embedding dataset.
///
/// Class centers are drawn uniformly on a hypersphere shell and points are
/// scattered around their center with isotropic Gaussian noise — the
/// standard synthetic stand-in for penultimate-layer features of an image
/// classifier (tight per-class clusters with inter-class separation).
#[derive(Clone, Debug)]
pub struct ClusteredDataset {
    embeddings: Embeddings,
    labels: Vec<u32>,
    /// The true class centers (the coarse classifier deliberately does
    /// *not* see these).
    pub(crate) class_centers: Embeddings,
}

impl ClusteredDataset {
    /// Generates a dataset with `num_classes` classes of
    /// `points_per_class` points each in `dim` dimensions.
    ///
    /// `cluster_std` controls intra-class spread relative to the unit
    /// inter-class scale. Deterministic for a fixed `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if any size parameter is zero.
    ///
    /// ```
    /// use submod_data::ClusteredDataset;
    ///
    /// # fn main() -> Result<(), submod_data::DataError> {
    /// let data = ClusteredDataset::generate(10, 50, 16, 0.15, 42)?;
    /// assert_eq!(data.len(), 500);
    /// assert_eq!(data.embeddings().dim(), 16);
    /// assert_eq!(data.labels().iter().filter(|&&l| l == 3).count(), 50);
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate(
        num_classes: usize,
        points_per_class: usize,
        dim: usize,
        cluster_std: f32,
        seed: u64,
    ) -> Result<Self, DataError> {
        if num_classes == 0 || points_per_class == 0 || dim == 0 {
            return Err(DataError::config(
                "num_classes, points_per_class, and dim must all be positive",
            ));
        }
        if !(cluster_std.is_finite() && cluster_std >= 0.0) {
            return Err(DataError::config("cluster_std must be a finite non-negative number"));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let normal = StandardNormalish::new();

        // Class centers: Gaussian directions normalized onto a radius-1 shell
        // (keeps inter-class distances comparable across dimensions).
        let mut centers = Vec::with_capacity(num_classes * dim);
        for _ in 0..num_classes {
            let raw: Vec<f32> = (0..dim).map(|_| normal.sample(&mut rng)).collect();
            let norm = raw.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            centers.extend(raw.iter().map(|x| x / norm));
        }

        let mut flat = Vec::with_capacity(num_classes * points_per_class * dim);
        let mut labels = Vec::with_capacity(num_classes * points_per_class);
        for c in 0..num_classes {
            let center = &centers[c * dim..(c + 1) * dim];
            for _ in 0..points_per_class {
                for &cx in center {
                    flat.push(cx + cluster_std * normal.sample(&mut rng));
                }
                labels.push(c as u32);
            }
        }
        Ok(ClusteredDataset {
            embeddings: Embeddings::from_flat(dim, flat)?,
            labels,
            class_centers: Embeddings::from_flat(dim, centers)?,
        })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset has no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The embedding matrix.
    pub fn embeddings(&self) -> &Embeddings {
        &self.embeddings
    }

    /// Per-point class labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.class_centers.len()
    }
}

/// A tiny internal standard-normal sampler (Box–Muller) so the crate does
/// not need `rand_distr`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StandardNormalish;

impl StandardNormalish {
    pub(crate) fn new() -> Self {
        StandardNormalish
    }

    /// One standard-normal sample via Box–Muller.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f32 {
        let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let data = ClusteredDataset::generate(7, 13, 8, 0.1, 1).unwrap();
        assert_eq!(data.len(), 91);
        assert_eq!(data.embeddings().len(), 91);
        assert_eq!(data.num_classes(), 7);
        assert!(!data.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ClusteredDataset::generate(3, 10, 4, 0.2, 9).unwrap();
        let b = ClusteredDataset::generate(3, 10, 4, 0.2, 9).unwrap();
        assert_eq!(a.embeddings(), b.embeddings());
        let c = ClusteredDataset::generate(3, 10, 4, 0.2, 10).unwrap();
        assert_ne!(a.embeddings(), c.embeddings());
    }

    #[test]
    fn clusters_are_tighter_than_class_separation() {
        let data = ClusteredDataset::generate(5, 40, 16, 0.1, 3).unwrap();
        // Average distance to own center vs to other centers.
        let mut own = 0.0f64;
        let mut other = 0.0f64;
        let mut other_count = 0u64;
        for i in 0..data.len() {
            let label = data.labels()[i] as usize;
            for c in 0..data.num_classes() {
                let d = submod_knn::l2_distance_squared(
                    data.embeddings().row(i),
                    data.class_centers.row(c),
                ) as f64;
                if c == label {
                    own += d;
                } else {
                    other += d;
                    other_count += 1;
                }
            }
        }
        let own_avg = own / data.len() as f64;
        let other_avg = other / other_count as f64;
        assert!(own_avg * 4.0 < other_avg, "clusters not separated: {own_avg} vs {other_avg}");
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ClusteredDataset::generate(0, 10, 4, 0.1, 0).is_err());
        assert!(ClusteredDataset::generate(3, 0, 4, 0.1, 0).is_err());
        assert!(ClusteredDataset::generate(3, 10, 0, 0.1, 0).is_err());
        assert!(ClusteredDataset::generate(3, 10, 4, f32::NAN, 0).is_err());
        assert!(ClusteredDataset::generate(3, 10, 4, -1.0, 0).is_err());
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let normal = StandardNormalish::new();
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
