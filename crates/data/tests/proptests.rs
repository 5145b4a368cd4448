//! Property-based tests for the data layer: generator determinism and
//! virtual perturbed-dataset invariants under arbitrary parameters.

use proptest::prelude::*;
use submod_data::{build_instance, ClusteredDataset, DatasetConfig, PerturbedDataset};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generation is deterministic per seed and produces the configured
    /// shape with class-balanced labels.
    #[test]
    fn clustered_dataset_shape_and_determinism(
        classes in 2usize..8,
        per_class in 2usize..20,
        dim in 2usize..12,
        seed in any::<u64>(),
    ) {
        let a = ClusteredDataset::generate(classes, per_class, dim, 0.2, seed).unwrap();
        let b = ClusteredDataset::generate(classes, per_class, dim, 0.2, seed).unwrap();
        prop_assert_eq!(a.embeddings(), b.embeddings());
        prop_assert_eq!(a.len(), classes * per_class);
        for c in 0..classes as u32 {
            prop_assert_eq!(a.labels().iter().filter(|&&l| l == c).count(), per_class);
        }
    }

    /// Virtual perturbed points are deterministic, stay near their base
    /// point, and have symmetric neighbor lists.
    #[test]
    fn perturbed_dataset_invariants(factor in 2u64..30, probe in any::<u64>(), sigma in 0.001f32..0.05) {
        let base = build_instance(
            &DatasetConfig::tiny().with_points_per_class(5).with_seed(3),
        )
        .unwrap();
        let perturbed = PerturbedDataset::new(&base, factor, sigma, 9).unwrap();
        let i = probe % perturbed.total_points();
        // Determinism.
        prop_assert_eq!(perturbed.embedding(i), perturbed.embedding(i));
        prop_assert_eq!(perturbed.utility(i), perturbed.utility(i));
        // Non-negative utility.
        prop_assert!(perturbed.utility(i) >= 0.0);
        // Symmetric neighbors.
        for (nb, w) in perturbed.neighbors(i) {
            let back = perturbed.neighbors(nb);
            let found = back.iter().find(|&&(id, _)| id == i);
            prop_assert!(found.is_some(), "missing reverse edge {} -> {}", nb, i);
            prop_assert!((found.unwrap().1 - w).abs() < 1e-6);
        }
    }

    /// Instances built from any tiny config are internally consistent.
    #[test]
    fn instances_are_consistent(per_class in 3usize..12, seed in 0u64..1000) {
        let config = DatasetConfig::tiny().with_points_per_class(per_class).with_seed(seed);
        let instance = build_instance(&config).unwrap();
        prop_assert_eq!(instance.len(), 20 * per_class);
        prop_assert_eq!(instance.graph.num_nodes(), instance.len());
        prop_assert!(instance.graph.is_symmetric());
        prop_assert!(instance.utilities.iter().all(|u| u.is_finite() && *u >= 0.0));
        let min = instance.utilities.iter().copied().fold(f32::INFINITY, f32::min);
        prop_assert!(min.abs() < 1e-6, "utilities must be centered, min = {}", min);
    }
}
