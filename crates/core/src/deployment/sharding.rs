//! Scale-out in one process: a [`ShardedDeployment`] routes reports to its
//! shards by [`crowd_prefix`] and merges what they count.

use rand::Rng;

use prochlo_crypto::sha256;

use super::{Deployment, DeploymentBuilder, EpochSpec, PipelineReport, ShardedDeployment};
use crate::analyzer::AnalyzerDatabase;
use crate::error::PipelineError;
use crate::exec;
use crate::record::ClientReport;

/// The crowd-routing prefix of a label: the first eight bytes of
/// `SHA-256(label)`, read big-endian — the same hash a hashed crowd ID
/// already exposes to the shuffler, so routing on it reveals nothing a
/// report does not. This is what clients put in a `SUBMIT_ROUTED` frame
/// and what [`ShardedDeployment::shard_index_from_prefix`] reduces to a
/// shard.
pub fn crowd_prefix(label: &[u8]) -> u64 {
    let digest = sha256(label);
    u64::from_be_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// The outcome of one sharded epoch.
#[derive(Debug)]
pub struct ShardedReport {
    /// Every shard's database merged into the analyzer-side view.
    pub database: AnalyzerDatabase,
    /// Per-shard outcomes, indexed by shard; `None` for shards that
    /// received no reports this epoch.
    pub shards: Vec<Option<PipelineReport>>,
}

impl ShardedDeployment {
    /// Builds `num_shards` deployments from one builder configuration, each
    /// with fresh keys drawn from `rng` in shard order.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn build<R: Rng + ?Sized>(
        builder: DeploymentBuilder,
        num_shards: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_shards > 0, "a sharded deployment needs >= 1 shard");
        let shards = (0..num_shards)
            .map(|_| builder.clone().build(rng))
            .collect();
        Self { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's deployment.
    pub fn shard(&self, index: usize) -> &Deployment {
        &self.shards[index]
    }

    /// Which of `num_shards` shards a crowd label routes to: the
    /// [`crowd_prefix`] of the label reduced modulo the shard count, so
    /// shard counts far beyond 256 still receive traffic and modulo bias
    /// is negligible for any practical count.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero — the same invariant [`Self::build`]
    /// asserts; quietly remapping 0 would misroute every report.
    pub fn shard_index(label: &[u8], num_shards: usize) -> usize {
        Self::shard_index_from_prefix(crowd_prefix(label), num_shards)
    }

    /// [`Self::shard_index`] with the routing prefix already computed —
    /// what a wire front-end uses, since a `SUBMIT_ROUTED` frame carries
    /// the prefix rather than the label (the router never sees labels).
    ///
    /// # Panics
    /// Panics if `num_shards` is zero, like [`Self::shard_index`].
    pub fn shard_index_from_prefix(prefix: u64, num_shards: usize) -> usize {
        assert!(num_shards > 0, "cannot route to zero shards");
        (prefix % num_shards as u64) as usize
    }

    /// Which of this deployment's shards a crowd label routes to.
    pub fn shard_for_crowd(&self, label: &[u8]) -> usize {
        Self::shard_index(label, self.shards.len())
    }

    /// Ingests one epoch across every shard and merges the analyzer-side
    /// databases. `batches[i]` is shard `i`'s partition of the epoch;
    /// `batches.len()` must equal the shard count. Shards with empty
    /// batches are skipped (no epoch is charged to them).
    ///
    /// Each shard ingests under its own derived seed
    /// (`mix_seed(spec.seed, shard)`, the same SplitMix64 mix as
    /// [`super::epoch_rng`]), so the shards' noise draws are mutually uncorrelated
    /// but the whole sharded epoch remains a pure function of
    /// `(spec, batches)`. Shards are independent deployments, so populated
    /// shards run concurrently through [`exec::par_chunks`] (one shard per
    /// chunk, the caller ingesting one itself), each with the resolved
    /// worker-thread budget divided across them (a shard's internal
    /// parallelism never changes its output, so the division is purely a
    /// scheduling choice); the databases are still merged in shard-index
    /// order, keeping the merged report byte-identical to a sequential
    /// pass.
    pub fn ingest(
        &self,
        spec: &EpochSpec,
        batches: &[Vec<ClientReport>],
    ) -> Result<ShardedReport, PipelineError> {
        if batches.len() != self.shards.len() {
            return Err(PipelineError::InvalidConfig(
                "sharded ingest needs exactly one batch per shard",
            ));
        }
        let populated = batches.iter().filter(|b| !b.is_empty()).count().max(1);
        // Split the thread budget across the concurrently running shards
        // instead of letting every shard resolve `0` to all available cores
        // and oversubscribe the machine shards-fold. Resolving happens here,
        // before any shard starts, so a bad PROCHLO_SHUFFLE_THREADS
        // value fails the whole epoch up front.
        let shard_specs: Vec<Option<EpochSpec>> = self
            .shards
            .iter()
            .zip(batches)
            .enumerate()
            .map(|(index, (shard, batch))| {
                if batch.is_empty() {
                    return Ok(None);
                }
                let mut engine = spec
                    .engine
                    .clone()
                    .unwrap_or_else(|| shard.default_engine());
                engine.num_threads =
                    (exec::resolve_threads(engine.num_threads)? / populated).max(1);
                Ok(Some(EpochSpec {
                    epoch_index: spec.epoch_index,
                    seed: exec::mix_seed(spec.seed, index as u64),
                    engine: Some(engine),
                }))
            })
            .collect::<Result<_, PipelineError>>()?;
        // One shard per chunk, so up to `populated` shards run at once.
        let outcomes = exec::par_chunks(&shard_specs, populated, 1, |index, shard_spec| {
            shard_spec[0]
                .as_ref()
                .map(|shard_spec| self.shards[index].ingest(shard_spec, &batches[index]))
        });
        let mut database = AnalyzerDatabase::default();
        let mut shards = Vec::with_capacity(self.shards.len());
        for outcome in outcomes {
            match outcome {
                None => shards.push(None),
                Some(report) => {
                    let report = report?;
                    database.merge_from(&report.database);
                    shards.push(Some(report));
                }
            }
        }
        Ok(ShardedReport { database, shards })
    }
}
