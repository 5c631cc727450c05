//! Statistical samplers and summaries shared across the Prochlo workspace.
//!
//! The ESA pipeline needs a small number of well-understood distributions:
//!
//! * Gaussian noise for randomized thresholding at the shuffler (§3.5 of the
//!   paper) and for differentially-private release at the analyzer,
//! * Laplace noise for pure ε-DP release,
//! * rounded, truncated Gaussians for the "drop `d` items per crowd" step,
//! * Zipf (power-law) samplers for the synthetic workloads (Vocab, Perms,
//!   Suggest, Flix all have long-tailed popularity),
//!
//! plus a few summary helpers (histograms, percentiles, RMSE) used by the
//! analytics crate and the benchmark harnesses.
//!
//! Everything is seedable and deterministic given an [`rand::Rng`] so that the
//! experiment harnesses are reproducible.

pub mod histogram;
pub mod sample;
pub mod summary;

pub use histogram::Histogram;
pub use sample::{Gaussian, Laplace, RoundedNormal, Zipf};
pub use summary::{percentile, rmse};
