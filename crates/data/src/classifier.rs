use crate::synthetic::StandardNormalish;
use crate::{ClusteredDataset, DataError};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use submod_knn::Embeddings;

/// A simulated *coarsely-trained* classifier.
///
/// The paper (§6) trains a ResNet-56 on a random 10 % subset and uses its
/// softmax probabilities to compute margin-based uncertainty utilities.
/// This stand-in fits per-class centroids on a random sample of the data
/// (adding estimation noise to mimic the undertrained model) and predicts
/// class probabilities with a temperature-scaled softmax over negative
/// squared distances — points near decision boundaries get nearly-tied
/// top-2 probabilities, exactly the uncertainty structure margin utility
/// rewards.
#[derive(Clone, Debug)]
pub struct CoarseClassifier {
    centroids: Embeddings,
    temperature: f32,
}

impl CoarseClassifier {
    /// Fits the classifier on a random `sample_fraction` of `data` (the
    /// paper uses 10 %). `noise` perturbs the fitted centroids to simulate
    /// coarseness; `temperature` scales the softmax sharpness.
    ///
    /// # Errors
    ///
    /// Returns an error if `sample_fraction ∉ (0, 1]`, `temperature ≤ 0`,
    /// or a class has no sampled points *and* no fallback (empty dataset).
    pub fn fit(
        data: &ClusteredDataset,
        sample_fraction: f64,
        noise: f32,
        temperature: f32,
        seed: u64,
    ) -> Result<Self, DataError> {
        if !(sample_fraction > 0.0 && sample_fraction <= 1.0) {
            return Err(DataError::config("sample_fraction must be in (0, 1]"));
        }
        if !(temperature > 0.0 && temperature.is_finite()) {
            return Err(DataError::config("temperature must be positive"));
        }
        if data.is_empty() {
            return Err(DataError::config("cannot fit a classifier on an empty dataset"));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = data.len();
        let dim = data.embeddings().dim();
        let classes = data.num_classes();

        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let sample_len = ((n as f64 * sample_fraction).ceil() as usize).clamp(1, n);
        let sample = &ids[..sample_len];

        let mut sums = vec![0.0f64; classes * dim];
        let mut counts = vec![0u64; classes];
        for &i in sample {
            let label = data.labels()[i] as usize;
            counts[label] += 1;
            let row = data.embeddings().row(i);
            for (d, &x) in row.iter().enumerate() {
                sums[label * dim + d] += f64::from(x);
            }
        }

        let normal = StandardNormalish::new();
        let mut centroids = vec![0.0f32; classes * dim];
        for c in 0..classes {
            if counts[c] == 0 {
                // Unseen class (tiny samples): noisy global mean fallback.
                for d in 0..dim {
                    let global: f64 =
                        (0..classes).map(|k| sums[k * dim + d]).sum::<f64>() / sample_len as f64;
                    centroids[c * dim + d] = global as f32 + noise * normal.sample(&mut rng);
                }
            } else {
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32
                        + noise * normal.sample(&mut rng);
                }
            }
        }
        Ok(CoarseClassifier { centroids: Embeddings::from_flat(dim, centroids)?, temperature })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Class-probability vector for one embedding (softmax over negative
    /// squared centroid distances / temperature).
    ///
    /// # Panics
    ///
    /// Panics if `embedding` has the wrong dimension.
    fn predict_proba(&self, embedding: &[f32]) -> Vec<f32> {
        let classes = self.num_classes();
        let mut logits = Vec::with_capacity(classes);
        for c in 0..classes {
            let d = submod_knn::l2_distance_squared(self.centroids.row(c), embedding);
            logits.push(-d / self.temperature);
        }
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for l in &mut logits {
            *l = (*l - max).exp();
            sum += *l;
        }
        for l in &mut logits {
            *l /= sum;
        }
        logits
    }

    /// The top-2 probabilities `(P(top | x), P(second | x))`.
    ///
    /// # Panics
    ///
    /// Panics if `embedding` has the wrong dimension or there are fewer
    /// than two classes.
    fn top2(&self, embedding: &[f32]) -> (f32, f32) {
        let probs = self.predict_proba(embedding);
        assert!(probs.len() >= 2, "margin needs at least two classes");
        let mut top = f32::NEG_INFINITY;
        let mut second = f32::NEG_INFINITY;
        for &p in &probs {
            if p > top {
                second = top;
                top = p;
            } else if p > second {
                second = p;
            }
        }
        (top, second)
    }

    /// Margin uncertainty `u(x) = 1 − (P(top|x) − P(second|x))` for every
    /// row of `embeddings` (Scheffer et al., as used in §6).
    pub fn margin_utilities(&self, embeddings: &Embeddings) -> Vec<f32> {
        (0..embeddings.len())
            .into_par_iter()
            .map(|i| {
                let (top, second) = self.top2(embeddings.row(i));
                1.0 - (top - second)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> ClusteredDataset {
        ClusteredDataset::generate(8, 60, 16, 0.12, 5).unwrap()
    }

    /// Fraction of points whose predicted class matches the label —
    /// deliberately mediocre for a *coarse* model.
    fn accuracy(clf: &CoarseClassifier, data: &ClusteredDataset) -> f64 {
        let correct = (0..data.len())
            .filter(|&i| {
                let probs = clf.predict_proba(data.embeddings().row(i));
                assert!(probs.iter().all(|p| !p.is_nan()), "class probabilities must not be NaN");
                // Total order plus reversed index tie-break: equal
                // probabilities predict the smallest class id.
                let pred = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(c, _)| c as u32)
                    .unwrap_or(0);
                pred == data.labels()[i]
            })
            .count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let data = dataset();
        let clf = CoarseClassifier::fit(&data, 0.1, 0.02, 0.5, 1).unwrap();
        let probs = clf.predict_proba(data.embeddings().row(0));
        assert_eq!(probs.len(), 8);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn coarse_model_beats_chance_but_not_perfect() {
        let data = dataset();
        let clf = CoarseClassifier::fit(&data, 0.1, 0.05, 0.5, 1).unwrap();
        let acc = accuracy(&clf, &data);
        assert!(acc > 0.5, "accuracy {acc} worse than heavily-noised chance");
    }

    #[test]
    fn margin_utilities_lie_in_unit_interval() {
        let data = dataset();
        let clf = CoarseClassifier::fit(&data, 0.1, 0.02, 0.5, 2).unwrap();
        let utils = clf.margin_utilities(data.embeddings());
        assert_eq!(utils.len(), data.len());
        assert!(utils.iter().all(|&u| (0.0..=1.0).contains(&u)));
        // Utilities must have spread — identical values would make the
        // selection degenerate.
        let min = utils.iter().copied().fold(f32::INFINITY, f32::min);
        let max = utils.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(max - min > 0.05, "margin utilities have no spread: [{min}, {max}]");
    }

    #[test]
    fn boundary_points_have_higher_utility_than_centers() {
        let data = dataset();
        let clf = CoarseClassifier::fit(&data, 0.2, 0.0, 0.5, 3).unwrap();
        // A point exactly at a class center is confident (low utility);
        // the midpoint between two centers is uncertain (high utility).
        let c0 = data.class_centers.row(0);
        let c1 = data.class_centers.row(1);
        let mid: Vec<f32> = c0.iter().zip(c1).map(|(a, b)| (a + b) / 2.0).collect();
        let (t_mid, s_mid) = clf.top2(&mid);
        let (t_c, s_c) = clf.top2(c0);
        let u_mid = 1.0 - (t_mid - s_mid);
        let u_center = 1.0 - (t_c - s_c);
        assert!(u_mid > u_center, "midpoint utility {u_mid} <= center utility {u_center}");
    }

    #[test]
    fn fit_validates_arguments() {
        let data = dataset();
        assert!(CoarseClassifier::fit(&data, 0.0, 0.1, 0.5, 0).is_err());
        assert!(CoarseClassifier::fit(&data, 1.5, 0.1, 0.5, 0).is_err());
        assert!(CoarseClassifier::fit(&data, 0.1, 0.1, 0.0, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let data = dataset();
        let a = CoarseClassifier::fit(&data, 0.1, 0.05, 0.5, 11).unwrap();
        let b = CoarseClassifier::fit(&data, 0.1, 0.05, 0.5, 11).unwrap();
        assert_eq!(a.margin_utilities(data.embeddings()), b.margin_utilities(data.embeddings()));
    }
}
