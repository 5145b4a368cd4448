use crate::{margin_utilities, ClusteredDataset, CoarseClassifier, DataError, DatasetConfig};
use submod_core::{PairwiseObjective, SimilarityGraph};
use submod_knn::{build_knn_graph, Embeddings, KnnBackend};

/// A ready-to-optimize subset-selection instance: the symmetrized k-NN
/// similarity graph, centered margin utilities, and the raw embeddings /
/// labels they came from.
///
/// Built by [`build_instance`], which runs the paper's full §6 data
/// pipeline: generate embeddings → fit a coarse classifier on a 10 %
/// sample → margin utilities (centered) → 10-NN cosine graph
/// (symmetrized).
#[derive(Clone, Debug)]
pub struct SelectionInstance {
    /// The symmetrized similarity graph.
    pub graph: SimilarityGraph,
    /// Centered margin utilities, aligned with graph nodes.
    pub utilities: Vec<f32>,
    /// The embedding matrix the graph was built from.
    pub embeddings: Embeddings,
    /// Ground-truth class labels (diagnostics only).
    pub labels: Vec<u32>,
}

impl SelectionInstance {
    /// Number of points in the ground set.
    pub fn len(&self) -> usize {
        self.utilities.len()
    }

    /// Returns `true` if the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.utilities.is_empty()
    }

    /// The pairwise objective with the paper's convention `β = 1 − α`.
    ///
    /// # Errors
    ///
    /// Returns an error if `α ∉ (0, 1]`.
    pub fn objective(&self, alpha: f64) -> Result<PairwiseObjective, DataError> {
        Ok(PairwiseObjective::from_alpha(alpha, self.utilities.clone())?)
    }
}

/// Builds a [`SelectionInstance`] from a [`DatasetConfig`].
///
/// # Errors
///
/// Returns an error if generation, classification, or graph construction
/// fails.
///
/// ```
/// use submod_data::{build_instance, DatasetConfig};
///
/// # fn main() -> Result<(), submod_data::DataError> {
/// let instance = build_instance(&DatasetConfig::tiny().with_points_per_class(10))?;
/// assert_eq!(instance.len(), 200);
/// assert!(instance.graph.is_symmetric());
/// # Ok(())
/// # }
/// ```
pub fn build_instance(config: &DatasetConfig) -> Result<SelectionInstance, DataError> {
    let _span = submod_obs::span("data.build_instance");
    let dataset = ClusteredDataset::generate(
        config.num_classes(),
        config.points_per_class(),
        config.dim(),
        config.cluster_std(),
        config.seed(),
    )?;
    let classifier = CoarseClassifier::fit(&dataset, 0.10, 0.05, 0.5, config.seed() ^ 0xA11CE)?;
    let utilities = margin_utilities(&classifier, dataset.embeddings())?;
    let backend = KnnBackend::auto(dataset.len());
    let graph = build_knn_graph(dataset.embeddings(), config.knn_k(), &backend, config.seed())?;

    Ok(SelectionInstance {
        graph,
        utilities,
        embeddings: dataset.embeddings().clone(),
        labels: dataset.labels().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_instance() -> SelectionInstance {
        build_instance(&DatasetConfig::tiny().with_points_per_class(20).with_seed(42)).unwrap()
    }

    #[test]
    fn instance_is_internally_consistent() {
        let inst = tiny_instance();
        assert_eq!(inst.len(), 400);
        assert_eq!(inst.graph.num_nodes(), 400);
        assert_eq!(inst.labels.len(), 400);
        assert_eq!(inst.embeddings.len(), 400);
        assert!(inst.graph.is_symmetric());
        assert!(inst.graph.min_degree() >= 4, "min degree {}", inst.graph.min_degree());
    }

    #[test]
    fn utilities_are_centered_and_finite() {
        let inst = tiny_instance();
        let min = inst.utilities.iter().copied().fold(f32::INFINITY, f32::min);
        assert_eq!(min, 0.0);
        assert!(inst.utilities.iter().all(|u| u.is_finite()));
    }

    #[test]
    fn objective_uses_alpha_convention() {
        let inst = tiny_instance();
        let obj = inst.objective(0.9).unwrap();
        assert!((obj.alpha() - 0.9).abs() < 1e-12);
        assert!((obj.beta() - 0.1).abs() < 1e-12);
        assert!(inst.objective(1.5).is_err());
    }

    #[test]
    fn rebuilds_are_identical() {
        let cfg = DatasetConfig::tiny().with_points_per_class(15).with_seed(77);
        let a = build_instance(&cfg).unwrap();
        let b = build_instance(&cfg).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.utilities, b.utilities);
    }
}
