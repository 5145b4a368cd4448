//! Core building blocks for pairwise submodular subset selection.
//!
//! This crate implements the centralized half of the MLSys 2025 paper
//! *"On Distributed Larger-Than-Memory Subset Selection With Pairwise
//! Submodular Functions"* (Böther et al.):
//!
//! - [`SimilarityGraph`]: a compact CSR similarity graph over data points,
//!   typically a symmetrized k-nearest-neighbor graph in embedding space.
//!   Backed either by owned vectors or by a read-only `mmap` of an
//!   on-disk [`store`] file, so the ground set can be larger than memory.
//! - [`PairwiseObjective`]: the function class
//!   `f(S) = α·Σ_{v∈S} u(v) − β·Σ_{{v,w}∈E, v,w∈S} s(v,w)` (paper §3),
//!   including the monotonicity offset of Appendix A.
//! - [`AddressablePq`]: an addressable max-priority queue with
//!   `decrease_by`, the substrate of the paper's Algorithm 2.
//! - [`greedy`]: the centralized greedy (Algorithms 1/2) and the instance
//!   check every selection algorithm starts with.
//!
//! # Example
//!
//! ```
//! use submod_core::{GraphBuilder, PairwiseObjective, greedy_select};
//!
//! # fn main() -> Result<(), submod_core::CoreError> {
//! // A 4-point instance: two similar pairs.
//! let mut builder = GraphBuilder::new(4);
//! builder.add_undirected(0, 1, 0.9)?;
//! builder.add_undirected(2, 3, 0.8)?;
//! let graph = builder.build();
//!
//! let objective = PairwiseObjective::from_alpha(0.9, vec![1.0, 0.9, 0.8, 0.7])?;
//! let selection = greedy_select(&graph, &objective, 2)?;
//! // Greedy prefers one point from each similar pair.
//! assert_eq!(selection.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod ids;
mod nodeset;
mod normalize;
mod objective;
mod pq;
mod selection;

pub mod greedy;
pub mod store;

pub use error::CoreError;
pub use graph::{GraphBuilder, SimilarityGraph};
pub use greedy::{greedy_select, naive_greedy_select, validate_instance};
pub use ids::NodeId;
pub use nodeset::NodeSet;
pub use normalize::ScoreNormalizer;
pub use objective::PairwiseObjective;
pub use pq::AddressablePq;
pub use selection::Selection;
pub use store::GraphError;
