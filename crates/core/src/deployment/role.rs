//! The shuffling stage of a deployment: [`Topology`] names how many
//! shuffler services a batch crosses, and [`ShufflerRole`] holds them.

use rand::Rng;

use prochlo_crypto::edwards::Point;
use prochlo_crypto::PublicKey;

use crate::error::PipelineError;
use crate::exec;
use crate::record::ClientReport;
use crate::shuffler::split::SplitShuffler;
use crate::shuffler::{EngineConfig, ShuffleOutcome, Shuffler, ShufflerConfig};

/// How many shuffler services stand between the encoders and the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// One shuffler thresholding on hashed crowd IDs (§3.3).
    #[default]
    Single,
    /// Two non-colluding shufflers thresholding on El Gamal-blinded crowd
    /// IDs (§4.3).
    Split,
}

/// The shuffling stage of a deployment: the topology [`Topology`] names,
/// with its keys and configuration.
///
/// A [`Deployment`](super::Deployment) holds one by value, so the single- and split-shuffler
/// deployments are the same type to every caller. Each method matches the
/// topology once. The engine configuration is an explicit parameter of
/// [`Self::process`] — this is the one place backend and thread-count
/// selection reaches the shuffle stage, which is what killed the
/// `_with_engine` method variants.
#[derive(Debug)]
pub enum ShufflerRole {
    /// One shuffler thresholding on hashed crowd IDs (§3.3).
    Single(Shuffler),
    /// Two non-colluding shufflers thresholding on blinded crowd IDs (§4.3).
    Split(SplitShuffler),
}

impl ShufflerRole {
    /// The public key clients seal the outer encryption layer to.
    pub(super) fn outer_public_key(&self) -> &PublicKey {
        match self {
            Self::Single(shuffler) => shuffler.public_key(),
            Self::Split(split) => split.one.public_key(),
        }
    }

    /// The El Gamal key clients blind crowd IDs under, if this topology
    /// uses blinding.
    pub(super) fn crowd_blinding_key(&self) -> Option<&Point> {
        match self {
            Self::Single(_) => None,
            Self::Split(split) => Some(split.two.elgamal_public()),
        }
    }

    /// The thresholding and batching configuration: the single shuffler's,
    /// or Shuffler 2's (the thresholder) in the split topology.
    fn config(&self) -> &ShufflerConfig {
        match self {
            Self::Single(shuffler) => shuffler.config(),
            Self::Split(split) => split.two.config(),
        }
    }

    /// The engine embedded in this role's own configuration, used when
    /// neither the deployment nor the epoch overrides it.
    pub(crate) fn default_engine(&self) -> EngineConfig {
        self.config().engine_config()
    }

    /// Processes one batch through the whole shuffling stage: peel,
    /// metadata stripping, randomized cardinality thresholding, oblivious
    /// shuffle — however many services that takes in this topology.
    ///
    /// A batch smaller than [`ShufflerConfig::min_batch_size`] fails with
    /// [`PipelineError::BatchTooSmall`] in either topology, before any
    /// randomness is drawn. The split topology also refuses any backend but
    /// the trusted one (see [`SplitShuffler::require_inline_engine`]).
    pub fn process<R: Rng + ?Sized>(
        &self,
        engine: &EngineConfig,
        reports: &[ClientReport],
        rng: &mut R,
    ) -> Result<ShuffleOutcome, PipelineError> {
        let minimum = self.config().min_batch_size;
        if reports.len() < minimum {
            return Err(PipelineError::BatchTooSmall {
                received: reports.len(),
                minimum,
            });
        }
        let num_threads = exec::resolve_threads(engine.num_threads)?;
        match self {
            Self::Single(shuffler) => shuffler.process_batch(engine, num_threads, reports, rng),
            Self::Split(split) => split.process_batch(engine, num_threads, reports, rng),
        }
    }

    /// The split shuffler, for deployments that hand each stage to a
    /// separate process (the networked split topology); `None` for the
    /// single topology.
    pub fn as_split(&self) -> Option<&SplitShuffler> {
        match self {
            Self::Single(_) => None,
            Self::Split(split) => Some(split),
        }
    }
}
