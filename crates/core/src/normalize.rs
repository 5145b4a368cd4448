/// Score normalization used throughout the paper's evaluation (§6):
/// within a parameter group (dataset, α/β, target size k), the centralized
/// greedy objective maps to **100 %** and the lowest observed objective to
/// **0 %**. Scores above the centralized reference exceed 100 % (e.g.
/// Table 2's `100.55 %`).
///
/// ```
/// use submod_core::ScoreNormalizer;
///
/// let norm = ScoreNormalizer::new(200.0, &[120.0, 160.0, 200.0]);
/// assert_eq!(norm.normalize(120.0), 0.0);
/// assert_eq!(norm.normalize(160.0), 50.0);
/// assert_eq!(norm.normalize(200.0), 100.0);
/// assert_eq!(norm.normalize(204.0), 105.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreNormalizer {
    centralized: f64,
    worst: f64,
}

impl ScoreNormalizer {
    /// Creates a normalizer from the centralized-greedy score and every
    /// observed score in the parameter group (the centralized score itself
    /// is always included as an observation).
    pub fn new(centralized: f64, observed: &[f64]) -> Self {
        let worst = observed.iter().copied().fold(centralized, f64::min);
        ScoreNormalizer { centralized, worst }
    }

    /// The raw worst observed score (the 0 % anchor).
    pub fn worst(&self) -> f64 {
        self.worst
    }

    /// Maps a raw objective value to the normalized percentage scale.
    ///
    /// When the group is degenerate (all scores equal), every score maps to
    /// 100 % — interpreting "no spread" as "everything matched centralized".
    pub fn normalize(&self, score: f64) -> f64 {
        let span = self.centralized - self.worst;
        if span.abs() < f64::EPSILON * self.centralized.abs().max(1.0) {
            return 100.0;
        }
        (score - self.worst) / span * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_anchors() {
        let n = ScoreNormalizer::new(10.0, &[4.0, 7.0, 10.0]);
        assert_eq!(n.normalize(4.0), 0.0);
        assert_eq!(n.normalize(10.0), 100.0);
        assert!((n.normalize(7.0) - 50.0).abs() < 1e-9);
        assert_eq!(n.worst(), 4.0);
    }

    #[test]
    fn scores_above_centralized_exceed_100() {
        let n = ScoreNormalizer::new(10.0, &[5.0]);
        assert!((n.normalize(10.5) - 110.0).abs() < 1e-9);
    }

    #[test]
    fn centralized_is_always_an_observation() {
        // Worst observed above centralized: centralized itself anchors 0 %.
        let n = ScoreNormalizer::new(10.0, &[12.0]);
        assert_eq!(n.worst(), 10.0);
        assert_eq!(n.normalize(10.0), 100.0);
    }

    #[test]
    fn degenerate_group_maps_to_100() {
        let n = ScoreNormalizer::new(10.0, &[10.0, 10.0]);
        assert_eq!(n.normalize(10.0), 100.0);
    }

    #[test]
    fn negative_scores_are_supported() {
        let n = ScoreNormalizer::new(-1.0, &[-5.0, -3.0]);
        assert_eq!(n.normalize(-5.0), 0.0);
        assert_eq!(n.normalize(-1.0), 100.0);
        assert!((n.normalize(-3.0) - 50.0).abs() < 1e-9);
    }
}
