use std::error::Error;
use std::fmt;

/// Errors produced while building k-NN indexes and graphs.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum KnnError {
    /// A vector's length did not match the embedding dimension.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Observed vector length.
        got: usize,
    },
    /// A parameter that must be positive was zero (e.g. `dim`, `k`).
    EmptyParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// An embedding contained NaN or infinity.
    NonFiniteValue {
        /// Row of the offending value.
        row: usize,
    },
    /// Graph assembly failed in the core layer.
    Graph(submod_core::CoreError),
    /// The graph store rejected the assembled CSR arrays.
    Store(submod_core::GraphError),
}

impl fmt::Display for KnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnnError::DimensionMismatch { expected, got } => {
                write!(f, "vector of length {got} does not match dimension {expected}")
            }
            KnnError::EmptyParameter { name } => {
                write!(f, "parameter `{name}` must be positive")
            }
            KnnError::NonFiniteValue { row } => {
                write!(f, "embedding row {row} contains a non-finite value")
            }
            KnnError::Graph(inner) => write!(f, "graph assembly failure: {inner}"),
            KnnError::Store(inner) => write!(f, "graph store failure: {inner}"),
        }
    }
}

impl Error for KnnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KnnError::Graph(inner) => Some(inner),
            KnnError::Store(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<submod_core::CoreError> for KnnError {
    fn from(err: submod_core::CoreError) -> Self {
        KnnError::Graph(err)
    }
}

impl From<submod_core::GraphError> for KnnError {
    fn from(err: submod_core::GraphError) -> Self {
        KnnError::Store(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = KnnError::DimensionMismatch { expected: 64, got: 32 };
        assert!(err.to_string().contains("64") && err.to_string().contains("32"));
    }

    #[test]
    fn core_errors_convert() {
        let core = submod_core::CoreError::SelfLoop { node: 3 };
        let knn: KnnError = core.into();
        assert!(knn.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<KnnError>();
    }
}
