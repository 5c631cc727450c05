//! Naming an epoch: the [`EpochSpec`] constructors and the per-epoch RNG
//! its `(seed, epoch_index)` derives.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::EpochSpec;
use crate::exec;
use crate::shuffler::EngineConfig;

/// Derives the RNG a deployment uses to process one epoch: a SplitMix64-style
/// mix of the deployment seed and the epoch index (the same mix the chunked
/// executor uses per chunk, see [`crate::exec::mix_seed`]), so consecutive
/// epochs get uncorrelated streams and any epoch can be replayed in
/// isolation.
pub fn epoch_rng(seed: u64, epoch_index: u64) -> StdRng {
    StdRng::seed_from_u64(exec::mix_seed(seed, epoch_index))
}

impl EpochSpec {
    /// A spec for `epoch_index` under `seed`, with no engine override.
    pub fn new(epoch_index: u64, seed: u64) -> Self {
        Self {
            epoch_index,
            seed,
            engine: None,
        }
    }

    /// Overrides the engine for this epoch.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The spec naming the next epoch (same seed and engine override).
    pub fn next(&self) -> Self {
        Self {
            epoch_index: self.epoch_index + 1,
            ..self.clone()
        }
    }
}
