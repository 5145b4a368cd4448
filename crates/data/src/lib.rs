//! Synthetic datasets, utilities, and virtual billion-scale data for the
//! subset-selection reproduction.
//!
//! The paper's evaluation (§6) uses CIFAR-100 / ImageNet embeddings from a
//! coarsely-trained ResNet-56 and a 13 B-point "Perturbed-ImageNet" blowup.
//! Neither the images nor the trained model are available here, and §6
//! notes that *"the exact choice of similarity and utility scores … does
//! not impact the comparison of the algorithms, as long as they are
//! consistently used"* — so this crate substitutes statistically similar
//! synthetic instances:
//!
//! - [`ClusteredDataset`] — Gaussian-mixture embeddings with class
//!   structure ([`DatasetConfig::cifar100_like`],
//!   [`DatasetConfig::imagenet_like`]).
//! - [`CoarseClassifier`] — a nearest-centroid softmax classifier fit on a
//!   10 % sample, standing in for the coarsely-trained ResNet; it produces
//!   the margin-based uncertainty utilities of Scheffer et al. (§6).
//! - [`PerturbedDataset`] — the Perturbed-ImageNet analogue: every base
//!   point lazily expands into `factor` noisy copies with a deterministic
//!   per-index RNG, so billions of points exist *virtually* without being
//!   materialized.
//! - [`SelectionInstance`] — a ready-to-optimize bundle (graph, utilities,
//!   objective parameters) built end-to-end by [`build_instance`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classifier;
mod dataset;
mod error;
mod instance;
mod perturb;
mod synthetic;
mod utility;

pub use classifier::CoarseClassifier;
pub use dataset::DatasetConfig;
pub use error::DataError;
pub use instance::{build_instance, SelectionInstance};
pub use perturb::PerturbedDataset;
pub use synthetic::ClusteredDataset;
pub use utility::margin_utilities;
