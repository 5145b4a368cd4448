use crate::KnnError;
use std::sync::Arc;

/// A dense row-major matrix of `n` embedding vectors of dimension `d`.
///
/// The paper's pipelines extract penultimate-layer features (64-d for
/// CIFAR-100, 2048-d for ImageNet, §6); this type is their in-memory form.
/// Row norms are precomputed once so cosine similarities cost one dot
/// product.
///
/// The matrix and its norms are immutable shared buffers: `clone` is two
/// reference-count bumps, so an index built from a clone reads the very
/// bytes its caller holds — nothing is copied into a k-NN build.
///
/// ```
/// use submod_knn::Embeddings;
///
/// # fn main() -> Result<(), submod_knn::KnnError> {
/// let e = Embeddings::from_flat(3, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0])?;
/// assert_eq!(e.len(), 2);
/// assert_eq!(e.dim(), 3);
/// assert_eq!(e.row(1), &[0.0, 2.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Embeddings {
    dim: usize,
    data: Arc<[f32]>,
    norms: Arc<[f32]>,
}

impl Embeddings {
    /// Creates embeddings from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim == 0`, the buffer length is not a multiple
    /// of `dim`, or any value is non-finite.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self, KnnError> {
        if dim == 0 {
            return Err(KnnError::EmptyParameter { name: "dim" });
        }
        if !data.len().is_multiple_of(dim) {
            return Err(KnnError::DimensionMismatch { expected: dim, got: data.len() % dim });
        }
        for (row, chunk) in data.chunks_exact(dim).enumerate() {
            if chunk.iter().any(|v| !v.is_finite()) {
                return Err(KnnError::NonFiniteValue { row });
            }
        }
        let norms = data.chunks_exact(dim).map(crate::distance::norm).collect();
        Ok(Embeddings { dim, data: data.into(), norms })
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Returns `true` if the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// All precomputed row norms (`len()` entries) — the hoisted-norm
    /// input the batch kernels take alongside [`Self::as_flat`].
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Iterates over `(index, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> + '_ {
        self.data.chunks_exact(self.dim).enumerate()
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_and_accessors() {
        let e = Embeddings::from_flat(2, vec![3.0, 4.0, 1.0, 0.0]).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.row(0), &[3.0, 4.0]);
        assert!((e.norms()[0] - 5.0).abs() < 1e-6);
        assert_eq!(e.iter().count(), 2);
        assert_eq!(e.as_flat(), &[3.0, 4.0, 1.0, 0.0]);
    }

    #[test]
    fn validation_failures() {
        assert!(matches!(Embeddings::from_flat(0, vec![]), Err(KnnError::EmptyParameter { .. })));
        assert!(matches!(
            Embeddings::from_flat(3, vec![1.0, 2.0]),
            Err(KnnError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Embeddings::from_flat(1, vec![f32::NAN]),
            Err(KnnError::NonFiniteValue { row: 0 })
        ));
    }

    #[test]
    fn clones_share_the_buffers() {
        let e = Embeddings::from_flat(2, vec![3.0, 4.0, 1.0, 0.0]).unwrap();
        let c = e.clone();
        assert_eq!(c, e);
        assert_eq!(c.as_flat().as_ptr(), e.as_flat().as_ptr());
        assert_eq!(c.norms().as_ptr(), e.norms().as_ptr());
    }

    #[test]
    fn empty_embeddings() {
        let e = Embeddings::from_flat(4, vec![]).unwrap();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
