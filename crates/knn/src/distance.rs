//! Vector distance kernels — thin façade over [`submod_kernels`].
//!
//! The arithmetic lives in the kernels crate: explicit AVX2 SIMD
//! with runtime dispatch and a scalar fallback in the same fixed 8-lane
//! reduction order, so every path returns bitwise-identical `f32`s (see
//! the `submod_kernels` crate docs for the determinism contract). These
//! re-exports keep the historical `submod_knn::{dot, norm, …}` API.

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// ```
/// assert_eq!(submod_knn::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    submod_kernels::dot(a, b)
}

/// Euclidean norm of a vector.
///
/// ```
/// assert_eq!(submod_knn::norm(&[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    submod_kernels::norm(a)
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn l2_distance_squared(a: &[f32], b: &[f32]) -> f32 {
    submod_kernels::l2_distance_squared(a, b)
}

/// Cosine similarity in `[-1, 1]`; 0 when either vector has zero norm.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// ```
/// let sim = submod_knn::cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]);
/// assert!((sim - 1.0).abs() < 1e-6);
/// ```
#[inline]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let denom = norm(a) * norm(b);
    if denom <= f32::MIN_POSITIVE {
        return 0.0;
    }
    (dot(a, b) / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_remainders() {
        // Length 7 stays entirely in the reduction tail.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let b = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 84.0);
        // Length 11 exercises the 8-lane body plus the tail.
        let c = [1.0f32; 11];
        assert_eq!(dot(&c, &c), 11.0);
    }

    #[test]
    fn norm_of_pythagorean_triple() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn l2_matches_expansion() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 2.0, 2.0, 2.0, 2.0];
        // (1)²+(0)²+(1)²+(2)²+(3)² = 15
        assert!((l2_distance_squared(&a, &b) - 15.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_extremes() {
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
