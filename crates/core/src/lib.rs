//! The Encode–Shuffle–Analyze (ESA) pipeline — Prochlo's primary contribution.
//!
//! The crate is organised around the three ESA roles of the paper (§3):
//!
//! * [`encoder`] — runs on the client. It scopes and fragments the monitored
//!   data, optionally adds randomized-response noise, attaches a crowd ID
//!   (plain, hashed, or El Gamal-blinded for the split shuffler), optionally
//!   applies the secret-share encoding of §4.2, and wraps everything in
//!   *nested encryption*: an inner layer only the analyzer can open, inside
//!   an outer layer only the shuffler can open.
//! * [`shuffler`] — a standalone intermediary. It batches reports, strips
//!   transport metadata, removes the outer encryption layer, applies
//!   randomized cardinality thresholding per crowd (drop ⌊N(D,σ²)⌉ reports,
//!   then require the remaining count to exceed T plus Gaussian noise), and
//!   shuffles the surviving inner ciphertexts on the backend a
//!   [`ShuffleBackend`] names — the trusted in-memory shuffle (one
//!   Fisher–Yates pass) or the SGX Stash Shuffle.
//!   Peeling is sharded across cores by the chunked executor in [`exec`].
//!   [`shuffler::split`] implements the two-shuffler blinded-crowd-ID
//!   deployment of §4.3.
//! * [`analyzer`] — decrypts the inner layer, materialises a database,
//!   recovers secret-shared values once enough shares arrive, and releases
//!   results (optionally with differential privacy).
//!
//! [`ThresholdProfile`] computes the thresholding's exact (ε, δ) from a
//! [`ShufflerConfig`], beside the per-crowd draw it describes
//! ([`CrowdThreshold`]); [`deployment`] wires the three stages together
//! behind one topology-agnostic orchestration API
//! ([`Deployment`], [`EpochSpec`], [`EpochSession`](deployment::EpochSession),
//! [`ShardedDeployment`])
//! for in-process experiments, examples, and the collector's serving layer;
//! its `ShufflerRole` holds either topology and matches on it once per
//! call.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

pub mod analyzer;
pub mod deployment;
pub mod encoder;
pub mod error;
pub mod exec;
pub mod framing;
pub mod record;
pub mod shuffler;
pub mod wire;

pub use analyzer::{Analyzer, AnalyzerDatabase};
pub use deployment::{
    canonicalize, crowd_prefix, epoch_rng, Deployment, DeploymentBuilder, EpochSpec,
    PipelineReport, ShardedDeployment, Topology,
};
pub use encoder::{CrowdStrategy, Encoder};
pub use error::PipelineError;
pub use prochlo_shuffle::CostReport;
pub use record::{AnalyzerPayload, ClientReport, CrowdId, ShufflerEnvelope, TransportMetadata};
pub use shuffler::{
    BackendKind, CrowdThreshold, EngineConfig, ShuffleBackend, Shuffler, ShufflerConfig,
    ShufflerStats, ThresholdProfile,
};
