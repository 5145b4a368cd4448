use std::error::Error;
use std::fmt;

/// Errors produced while generating datasets and utilities.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum DataError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Description of the violated constraint.
        detail: String,
    },
    /// Embedding or index construction failed in the k-NN layer.
    Knn(submod_knn::KnnError),
    /// Objective construction failed in the core layer.
    Core(submod_core::CoreError),
    /// Assembling a graph's CSR arrays failed validation.
    Graph(submod_core::GraphError),
    /// A materialized slice would have more points than a graph's `u32`
    /// neighbor ids can address.
    TooManyPoints {
        /// Points the slice would have.
        points: u64,
        /// The most nodes a graph holds.
        cap: u64,
    },
}

impl DataError {
    pub(crate) fn config(detail: impl Into<String>) -> Self {
        DataError::InvalidConfig { detail: detail.into() }
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidConfig { detail } => write!(f, "invalid dataset config: {detail}"),
            DataError::Knn(inner) => write!(f, "k-nn failure: {inner}"),
            DataError::Core(inner) => write!(f, "core failure: {inner}"),
            DataError::Graph(inner) => write!(f, "graph failure: {inner}"),
            DataError::TooManyPoints { points, cap } => {
                write!(f, "{points} points exceed the {cap}-node cap of a graph's u32 neighbor ids")
            }
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Knn(inner) => Some(inner),
            DataError::Core(inner) => Some(inner),
            DataError::Graph(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<submod_knn::KnnError> for DataError {
    fn from(err: submod_knn::KnnError) -> Self {
        DataError::Knn(err)
    }
}

impl From<submod_core::CoreError> for DataError {
    fn from(err: submod_core::CoreError) -> Self {
        DataError::Core(err)
    }
}

impl From<submod_core::GraphError> for DataError {
    fn from(err: submod_core::GraphError) -> Self {
        DataError::Graph(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let err: DataError = submod_core::CoreError::SelfLoop { node: 1 }.into();
        assert!(err.source().is_some());
        let err: DataError = submod_knn::KnnError::EmptyParameter { name: "k" }.into();
        assert!(err.source().is_some());
        let err: DataError = submod_core::GraphError::SelfLoop { node: 1 }.into();
        assert!(err.source().is_some());
        assert!(DataError::config("bad").source().is_none());
    }

    #[test]
    fn display_is_informative() {
        assert!(DataError::config("zero classes").to_string().contains("zero classes"));
    }
}
