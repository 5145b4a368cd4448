//! Utility-vector helpers.

use crate::{CoarseClassifier, DataError};
use submod_knn::Embeddings;

/// Computes margin-based uncertainty utilities for every embedding row and
/// centers them (paper §6: *"We center the utilities by subtracting the
/// minimum utility from all values"*).
///
/// # Errors
///
/// Returns an error if the embedding dimension does not match the
/// classifier.
pub fn margin_utilities(
    classifier: &CoarseClassifier,
    embeddings: &Embeddings,
) -> Result<Vec<f32>, DataError> {
    if embeddings.is_empty() {
        return Ok(Vec::new());
    }
    let raw = classifier.margin_utilities(embeddings);
    Ok(center_utilities(raw))
}

/// Shifts utilities so the minimum becomes exactly 0.
fn center_utilities(mut utilities: Vec<f32>) -> Vec<f32> {
    let min = utilities.iter().copied().fold(f32::INFINITY, f32::min);
    if min.is_finite() {
        for u in &mut utilities {
            *u -= min;
        }
    }
    utilities
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusteredDataset;

    #[test]
    fn centering_zeroes_the_minimum() {
        let centered = center_utilities(vec![2.0, 5.0, 3.5]);
        assert_eq!(centered[0], 0.0);
        assert_eq!(centered[1], 3.0);
        assert!(center_utilities(vec![]).is_empty());
    }

    #[test]
    fn centering_is_idempotent() {
        let once = center_utilities(vec![1.0, 2.0]);
        let twice = center_utilities(once.clone());
        assert_eq!(once, twice);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Centering always zeroes the minimum and preserves differences.
        #[test]
        fn centering_is_a_shift(values in proptest::collection::vec(-100.0f32..100.0, 1..50)) {
            let centered = center_utilities(values.clone());
            let min = values.iter().copied().fold(f32::INFINITY, f32::min);
            proptest::prop_assert_eq!(centered.len(), values.len());
            let new_min = centered.iter().copied().fold(f32::INFINITY, f32::min);
            proptest::prop_assert!(new_min.abs() < 1e-4);
            for (c, v) in centered.iter().zip(&values) {
                proptest::prop_assert!((c - (v - min)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn pipeline_produces_centered_utilities() {
        let data = ClusteredDataset::generate(5, 30, 8, 0.1, 7).unwrap();
        let clf = CoarseClassifier::fit(&data, 0.1, 0.02, 0.5, 7).unwrap();
        let utils = margin_utilities(&clf, data.embeddings()).unwrap();
        assert_eq!(utils.len(), data.len());
        let min = utils.iter().copied().fold(f32::INFINITY, f32::min);
        assert_eq!(min, 0.0);
    }
}
