use crate::DataError;

/// Configuration of a synthetic selection dataset.
///
/// The presets mirror the paper's evaluation datasets (§6) at configurable
/// scale: CIFAR-100-like (100 classes × 500 points, 64-d embeddings) and
/// ImageNet-like (1000 classes, 64-d here for tractability — the paper
/// uses 2048-d ResNet features, but graph topology, not raw
/// dimensionality, is what the selection algorithms consume).
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetConfig {
    name: String,
    num_classes: usize,
    points_per_class: usize,
    dim: usize,
    cluster_std: f32,
    knn_k: usize,
    seed: u64,
}

impl DatasetConfig {
    /// A custom configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any size parameter is zero.
    pub fn new(
        name: impl Into<String>,
        num_classes: usize,
        points_per_class: usize,
        dim: usize,
    ) -> Result<Self, DataError> {
        if num_classes == 0 || points_per_class == 0 || dim == 0 {
            return Err(DataError::config("all size parameters must be positive"));
        }
        Ok(DatasetConfig {
            name: name.into(),
            num_classes,
            points_per_class,
            dim,
            cluster_std: 0.25,
            knn_k: 10,
            seed: 0x5EED,
        })
    }

    /// CIFAR-100-like: 100 classes × 500 points, 64-d (the paper's 50 k
    /// dataset).
    pub fn cifar100_like() -> Self {
        DatasetConfig {
            name: "cifar100-like".into(),
            num_classes: 100,
            points_per_class: 500,
            dim: 64,
            cluster_std: 0.25,
            knn_k: 10,
            seed: 0xC1FA,
        }
    }

    /// ImageNet-like: 1000 classes, scaled-down default of 200 points per
    /// class (200 k total); use [`Self::with_points_per_class`] to grow it
    /// toward the paper's 1.2 M.
    pub fn imagenet_like() -> Self {
        DatasetConfig {
            name: "imagenet-like".into(),
            num_classes: 1000,
            points_per_class: 200,
            dim: 64,
            cluster_std: 0.25,
            knn_k: 10,
            seed: 0x11A6,
        }
    }

    /// A tiny instance for unit tests and examples (20 classes × 50).
    pub fn tiny() -> Self {
        DatasetConfig {
            name: "tiny".into(),
            num_classes: 20,
            points_per_class: 50,
            dim: 16,
            cluster_std: 0.2,
            knn_k: 5,
            seed: 0x717,
        }
    }

    /// Overrides the points per class (scaling the dataset).
    pub fn with_points_per_class(mut self, points: usize) -> Self {
        self.points_per_class = points.max(1);
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales the per-class point count by `factor` (at least 1 point).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.points_per_class = ((self.points_per_class as f64 * factor).round() as usize).max(1);
        self
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Points generated per class.
    pub fn points_per_class(&self) -> usize {
        self.points_per_class
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Intra-class standard deviation.
    pub fn cluster_std(&self) -> f32 {
        self.cluster_std
    }

    /// Nearest neighbors per point in the similarity graph.
    pub fn knn_k(&self) -> usize {
        self.knn_k
    }

    /// RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of points.
    pub fn total_points(&self) -> usize {
        self.num_classes * self.points_per_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_shapes() {
        let cifar = DatasetConfig::cifar100_like();
        assert_eq!(cifar.total_points(), 50_000);
        assert_eq!(cifar.dim(), 64);
        assert_eq!(cifar.knn_k(), 10);
        let imagenet = DatasetConfig::imagenet_like();
        assert_eq!(imagenet.num_classes(), 1000);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = DatasetConfig::tiny().with_points_per_class(7).with_seed(1);
        assert_eq!(cfg.points_per_class(), 7);
        assert_eq!(cfg.seed(), 1);
    }

    #[test]
    fn scaling_rounds_points_per_class() {
        let b = DatasetConfig::cifar100_like().scaled(0.1);
        assert_eq!(b.points_per_class(), 50);
    }

    #[test]
    fn custom_config_validation() {
        assert!(DatasetConfig::new("x", 0, 1, 1).is_err());
        assert!(DatasetConfig::new("x", 1, 0, 1).is_err());
        assert!(DatasetConfig::new("x", 1, 1, 0).is_err());
        assert!(DatasetConfig::new("x", 2, 3, 4).is_ok());
    }

    #[test]
    fn scaled_never_hits_zero() {
        let cfg = DatasetConfig::tiny().scaled(0.0001);
        assert_eq!(cfg.points_per_class(), 1);
    }
}
