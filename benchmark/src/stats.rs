//! Order statistics of the handful of samples a run takes.

/// Median, extremes and count of one metric's samples. Five to a dozen
/// repetitions are too few for any higher percentile, so the extremes
/// are printed beside the median instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub reps: usize,
}

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        median: median(samples),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        reps: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 2.0, 9.0, 2.0, 1.0]), 2.0);
    }

    #[test]
    fn summary_keeps_extremes_and_count() {
        let s = summarize(&[0.5, 0.25, 4.0, 1.0, 2.0]);
        assert_eq!(s, Summary { median: 1.0, min: 0.25, max: 4.0, reps: 5 });
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        median(&[]);
    }
}
