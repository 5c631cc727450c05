//! Building a [`Deployment`]: the [`DeploymentBuilder`] setters and the key
//! generation that assembles the roles.

use std::sync::OnceLock;

use rand::Rng;

use prochlo_crypto::hybrid::HybridKeypair;

use super::{Deployment, DeploymentBuilder, ShufflerRole, Topology};
use crate::analyzer::Analyzer;
use crate::shuffler::split::SplitShuffler;
use crate::shuffler::{EngineConfig, Shuffler, ShufflerConfig};

/// The payload size used when the builder is not told otherwise — the
/// 32-byte padding most of the paper's workloads use.
const DEFAULT_PAYLOAD_SIZE: usize = 32;

impl DeploymentBuilder {
    /// Selects the shuffling topology (default [`Topology::Single`]).
    pub fn shuffler(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the shuffler's thresholding/batching configuration (default
    /// [`ShufflerConfig::default`], the paper's §5 parameters).
    pub fn config(mut self, config: ShufflerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the fixed padded payload size clients encode to (default 32
    /// bytes, the padding most of the paper's workloads use).
    pub fn payload_size(mut self, bytes: usize) -> Self {
        self.payload_size = Some(bytes);
        self
    }

    /// Sets the deployment-level engine (backend + worker threads) every
    /// batch runs with unless an [`EpochSpec`](super::EpochSpec) overrides it. Without this,
    /// the engine embedded in the shuffler configuration is used.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Sets the number of distinct shares the analyzer needs to recover a
    /// secret-shared value (default: the analyzer's own default of 20).
    pub fn share_threshold(mut self, threshold: usize) -> Self {
        self.share_threshold = Some(threshold);
        self
    }

    /// Generates fresh keys for every role and assembles the deployment.
    ///
    /// Key generation draws from `rng` in a fixed order (shuffler role
    /// first, analyzer second), so a seeded construction reproduces the
    /// same keys on every build — the golden fixture's keys among them.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> Deployment {
        let role = match self.topology {
            Topology::Single => ShufflerRole::Single(Shuffler::new(self.config, rng)),
            Topology::Split => ShufflerRole::Split(SplitShuffler::new(self.config, rng)),
        };
        let mut analyzer = Analyzer::new(HybridKeypair::generate(rng));
        if let Some(threshold) = self.share_threshold {
            analyzer = analyzer.with_share_threshold(threshold);
        }
        Deployment {
            role,
            analyzer,
            payload_size: self.payload_size.unwrap_or(DEFAULT_PAYLOAD_SIZE),
            engine: self.engine,
            encoder: OnceLock::new(),
        }
    }
}
