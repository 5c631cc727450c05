//! The pluggable shuffle-backend abstraction.
//!
//! [`ShuffleEngine`] is the object-safe interface the ESA shuffler programs
//! against once a batch has been peeled and thresholded: take ownership of
//! the surviving records, consume randomness from a caller-supplied stream,
//! and return the records in an unlinkable order. Keeping the trait object-
//! safe (`&mut dyn RngCore`, owned `Records`) lets deployments select a
//! backend at runtime — from configuration, an environment variable, or a
//! collector request — without a closed enum dispatch in the hot path.
//!
//! This crate implements the trait for the one oblivious shuffle Prochlo
//! runs, [`StashEngine`] — the Stash Shuffle, deriving parameters per batch
//! when none are pinned. The trusted in-memory engine (no enclave, parallel
//! tag distribution) lives in `prochlo-core`, next to the chunked executor
//! it uses. The other §4.1.3 baselines exist only as cost models.

use rand::RngCore;

use prochlo_sgx::Enclave;

use crate::error::ShuffleError;
use crate::stash::{StashShuffle, StashShuffleParams};
use crate::Records;

/// What a shuffle engine reports about one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Attempts the engine needed (restarting shuffles report > 1).
    pub attempts: usize,
}

/// An oblivious-shuffle backend usable behind a trait object.
///
/// Implementations must be deterministic functions of `(items, rng)`: given
/// the same input records and an identically-seeded generator they must
/// produce the same output order regardless of how many worker threads they
/// use internally. The ESA shuffler relies on this for seeded epoch replay.
pub trait ShuffleEngine: Send + Sync + std::fmt::Debug {
    /// Short stable name used in stats, logs and backend selection.
    fn name(&self) -> &'static str;

    /// Shuffles `items` into an order unlinkable to arrival order.
    fn shuffle(
        &self,
        items: Records,
        rng: &mut dyn RngCore,
        stats: &mut EngineStats,
    ) -> Result<Records, ShuffleError>;
}

/// The Stash Shuffle as a pluggable engine: parameters are pinned at
/// construction or derived per batch from the record count.
#[derive(Debug, Clone)]
pub struct StashEngine {
    params: Option<StashShuffleParams>,
    enclave: Enclave,
    num_threads: usize,
}

impl StashEngine {
    /// Creates a Stash engine bound to the given enclave; `None` derives
    /// parameters from each batch's size.
    pub fn new(params: Option<StashShuffleParams>, enclave: Enclave) -> Self {
        Self {
            params,
            enclave,
            num_threads: 1,
        }
    }

    /// Sets the number of enclave workers both phases shard their
    /// per-bucket cryptography over (a resolved count; default 1); see
    /// [`StashShuffle::with_threads`].
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }
}

impl ShuffleEngine for StashEngine {
    fn name(&self) -> &'static str {
        "stash"
    }

    fn shuffle(
        &self,
        items: Records,
        rng: &mut dyn RngCore,
        stats: &mut EngineStats,
    ) -> Result<Records, ShuffleError> {
        let params = self
            .params
            .unwrap_or_else(|| StashShuffleParams::derive(items.len()));
        let stash = StashShuffle::new(params, self.enclave.clone()).with_threads(self.num_threads);
        let output = stash.shuffle(&items, rng)?;
        stats.attempts = output.attempts;
        Ok(output.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_sgx::EnclaveConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn records(n: usize) -> Records {
        (0..n)
            .map(|i| {
                let mut r = vec![0u8; 24];
                r[..8].copy_from_slice(&(i as u64).to_le_bytes());
                r
            })
            .collect()
    }

    fn enclave() -> Enclave {
        Enclave::new(EnclaveConfig {
            private_memory_bytes: 16 * 1024 * 1024,
            record_trace: false,
            code_identity: "engine-test".into(),
        })
    }

    fn engines() -> Vec<Box<dyn ShuffleEngine>> {
        vec![Box::new(StashEngine::new(None, enclave()))]
    }

    #[test]
    fn every_engine_permutes_through_the_trait_object() {
        let input = records(600);
        let expected: HashSet<Vec<u8>> = input.iter().cloned().collect();
        for engine in engines() {
            let mut rng = StdRng::seed_from_u64(1);
            let mut stats = EngineStats::default();
            let out = engine
                .shuffle(input.clone(), &mut rng, &mut stats)
                .unwrap_or_else(|e| panic!("{} failed: {e}", engine.name()));
            assert_eq!(out.len(), input.len(), "{}", engine.name());
            assert_ne!(out, input, "{} left arrival order intact", engine.name());
            let got: HashSet<Vec<u8>> = out.into_iter().collect();
            assert_eq!(got, expected, "{}", engine.name());
            assert!(stats.attempts >= 1, "{}", engine.name());
        }
    }

    #[test]
    fn engines_are_deterministic_under_a_seeded_rng() {
        let input = records(400);
        for engine in engines() {
            let run = |seed: u64| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut stats = EngineStats::default();
                engine.shuffle(input.clone(), &mut rng, &mut stats).unwrap()
            };
            assert_eq!(run(7), run(7), "{} must replay", engine.name());
            assert_ne!(
                run(7),
                run(8),
                "{} must depend on the rng stream",
                engine.name()
            );
        }
    }

    #[test]
    fn stash_engine_reports_attempts_and_handles_empty_batches() {
        let engine = StashEngine::new(None, enclave());
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = EngineStats::default();
        let out = engine.shuffle(Vec::new(), &mut rng, &mut stats).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn engine_names_are_stable() {
        let names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["stash"]);
    }
}
