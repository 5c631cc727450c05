//! The deployment API: one orchestration surface for every ESA topology.
//!
//! The paper's architecture places encoders, one *or two* shufflers, and the
//! analyzer in separate services. The API does not mirror that split: the
//! number of shufflers is a property of a deployment, not of the type a
//! caller drives. This module is three pieces:
//!
//! * [`Deployment`] — built by [`DeploymentBuilder`], it owns a shuffling
//!   topology as a `ShufflerRole` (a [`crate::Shuffler`] or a
//!   [`crate::shuffler::split::SplitShuffler`]) plus the analyzer, so
//!   callers construct and drive one type regardless of topology.
//! * [`EpochSpec`] — a parameter object naming an epoch: its index, the
//!   deployment seed, and an optional [`EngineConfig`] override. Exactly two
//!   entry points consume reports: [`Deployment::run`] (caller-supplied RNG)
//!   and [`Deployment::ingest`] (deterministic per-epoch RNG derived by
//!   [`epoch_rng`]).
//! * [`EpochSession`] / [`ShardedDeployment`] — the scale-out hooks: a
//!   session accepts reports incrementally and canonicalizes the batch at
//!   [`EpochSession::finish`]; [`ShardedDeployment::shard_index_from_prefix`]
//!   is the crowd-routing rule the shard router in front of collector
//!   shards applies, whose databases merge analyzer-side via
//!   [`AnalyzerDatabase::merge_from`].
//!
//! Seeded behaviour is a contract: `deployment.ingest(&EpochSpec::new(e,
//! seed), reports)` yields the canonical histogram pinned byte for byte by
//! the committed golden fixture in the integration suite, so a change to
//! the key, seed or draw order shows there.
//!
//! The types are declared here, each beside its doc example; their
//! behaviour sits in one file per seam: `role` (the topology), `spec` (the
//! epoch RNG), `builder` (key generation), `session` (canonical order) and
//! `sharding` (crowd routing).

mod builder;
mod role;
mod session;
mod sharding;
mod spec;

pub(crate) use role::ShufflerRole;
pub use role::Topology;
pub use session::canonicalize;
pub use sharding::crowd_prefix;
pub use spec::epoch_rng;

use std::sync::OnceLock;

use rand::Rng;

use crate::analyzer::{Analyzer, AnalyzerDatabase};
use crate::encoder::{ClientKeys, Encoder};
use crate::error::PipelineError;
use crate::exec;
use crate::record::ClientReport;
use crate::shuffler::{EngineConfig, ShufflerConfig, ShufflerStats};

/// The outcome of running one batch through a deployment.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The database materialized by the analyzer.
    pub database: AnalyzerDatabase,
    /// The merged, batch-level view of what the shuffling stage did.
    pub shuffler_stats: ShufflerStats,
    /// Per-shuffler statistics, in pipeline order: one entry for the single
    /// topology, two (Shuffler 1 then Shuffler 2) for the split topology.
    pub stage_stats: Vec<ShufflerStats>,
}

/// Names one epoch of a deployment: which epoch, under which deployment
/// seed, and optionally with which engine override.
///
/// `(seed, epoch_index)` fixes every noise draw the epoch makes (see
/// [`epoch_rng`]), so an identically-specified replay of the same reports
/// reproduces the analyzer's database byte for byte.
///
/// ```
/// use prochlo_core::{Deployment, EpochSpec};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let deployment = Deployment::builder().build(&mut rng);
/// let encoder = deployment.encoder();
/// # let reports: Vec<prochlo_core::ClientReport> = (0..3)
/// #     .map(|i| {
/// #         encoder
/// #             .encode_plain(b"v", prochlo_core::CrowdStrategy::None, i, &mut rng)
/// #             .unwrap()
/// #     })
/// #     .collect();
/// let spec = EpochSpec::new(7, 0xfeed);
/// let a = deployment.ingest(&spec, &reports).unwrap();
/// let b = deployment.ingest(&spec, &reports).unwrap();
/// assert_eq!(
///     a.database.canonical_histogram_bytes(),
///     b.database.canonical_histogram_bytes()
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochSpec {
    /// The epoch index, starting at 0.
    pub epoch_index: u64,
    /// The deployment seed the epoch RNG is derived from.
    pub seed: u64,
    /// Overrides the deployment's engine (backend + worker threads) for
    /// this epoch only; `None` uses the deployment's default.
    pub engine: Option<EngineConfig>,
}

/// Configures and builds a [`Deployment`].
///
/// ```
/// use prochlo_core::{Deployment, EngineConfig, ShuffleBackend, Topology};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let deployment = Deployment::builder()
///     .payload_size(32)
///     .shuffler(Topology::Split)
///     .engine(EngineConfig {
///         backend: ShuffleBackend::Sgx { params: None },
///         num_threads: 2,
///     })
///     .share_threshold(10)
///     .build(&mut rng);
/// assert!(deployment.role().as_split().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeploymentBuilder {
    topology: Topology,
    config: ShufflerConfig,
    payload_size: Option<usize>,
    engine: Option<EngineConfig>,
    share_threshold: Option<usize>,
}

/// A complete ESA deployment — shuffling topology plus analyzer — running
/// in one process.
///
/// Examples, tests, benches and the collector all construct this one type;
/// the topology behind it is a `ShufflerRole` selected at build time. A
/// production deployment would place each role in a separate
/// service (the paper's implementation uses gRPC between them); the
/// collector crate is the serving front end for this in-process form.
///
/// ```
/// use prochlo_core::{CrowdStrategy, Deployment};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let deployment = Deployment::builder().payload_size(32).build(&mut rng);
/// let encoder = deployment.encoder();
/// let reports: Vec<_> = (0..30u64)
///     .map(|i| {
///         encoder
///             .encode_plain(b"chrome", CrowdStrategy::Hash(b"chrome"), i, &mut rng)
///             .unwrap()
///     })
///     .collect();
/// let report = deployment.run(&reports, &mut rng).unwrap();
/// assert!(report.database.count(b"chrome") > 0);
/// ```
#[derive(Debug)]
pub struct Deployment {
    role: ShufflerRole,
    analyzer: Analyzer,
    payload_size: usize,
    engine: Option<EngineConfig>,
    /// Built by the first [`Self::encoder`] call.
    encoder: OnceLock<Encoder>,
}

impl Deployment {
    /// Starts configuring a deployment.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// The shuffling stage (e.g. to drive it directly in a bench).
    pub fn role(&self) -> &ShufflerRole {
        &self.role
    }

    /// The analyzer role.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The engine a batch runs with when its epoch does not override one:
    /// the deployment-level engine if set, otherwise the engine embedded in
    /// the shuffler configuration.
    pub fn default_engine(&self) -> EngineConfig {
        self.engine
            .clone()
            .unwrap_or_else(|| self.role.default_engine())
    }

    /// The keys a client encoder needs for this deployment (including the
    /// El Gamal blinding key when the topology uses one).
    pub fn client_keys(&self) -> ClientKeys {
        ClientKeys {
            shuffler: *self.role.outer_public_key(),
            analyzer: *self.analyzer.public_key(),
            crowd_blinding: self.role.crowd_blinding_key().copied(),
        }
    }

    /// A ready-to-use encoder for this deployment.
    ///
    /// The first call builds the encoder — the comb tables of the shuffler,
    /// analyzer and (split topology) El Gamal keys, see [`Encoder::new`] —
    /// and every later call clones it, which copies a pointer. A deployment
    /// that never encodes never builds the tables. The comb walks index the
    /// tables by bits of secret scalars: not constant-time, like the rest
    /// of the crypto substrate.
    pub fn encoder(&self) -> Encoder {
        self.encoder
            .get_or_init(|| Encoder::new(self.client_keys(), self.payload_size))
            .clone()
    }

    /// Runs one batch of client reports through shuffling and analysis with
    /// a caller-supplied RNG. For deterministic, replayable epochs use
    /// [`Self::ingest`].
    pub fn run<R: Rng + ?Sized>(
        &self,
        reports: &[ClientReport],
        rng: &mut R,
    ) -> Result<PipelineReport, PipelineError> {
        self.run_with(&self.default_engine(), reports, rng)
    }

    /// Runs one epoch with a deterministic RNG derived from the spec (see
    /// [`epoch_rng`]): the randomness the batch consumes depends only on
    /// `(spec.seed, spec.epoch_index)`, never on how many epochs ran before
    /// it or on thread scheduling, so an identically-specified replay of
    /// the same contents reproduces the shuffler's noise draws and the
    /// analyzer's database byte for byte.
    pub fn ingest(
        &self,
        spec: &EpochSpec,
        reports: &[ClientReport],
    ) -> Result<PipelineReport, PipelineError> {
        let engine = spec.engine.clone().unwrap_or_else(|| self.default_engine());
        let mut rng = epoch_rng(spec.seed, spec.epoch_index);
        self.run_with(&engine, reports, &mut rng)
    }

    /// Opens a streaming session for one epoch; push reports as they
    /// arrive, then [`EpochSession::finish`] the batch.
    pub fn session(&self, spec: EpochSpec) -> EpochSession<'_> {
        EpochSession {
            deployment: self,
            spec,
            reports: Vec::new(),
        }
    }

    fn run_with<R: Rng + ?Sized>(
        &self,
        engine: &EngineConfig,
        reports: &[ClientReport],
        rng: &mut R,
    ) -> Result<PipelineReport, PipelineError> {
        let outcome = self.role.process(engine, reports, rng)?;
        // The same resolved worker count drives the analyzer's inner-layer
        // decryption, so PROCHLO_SHUFFLE_THREADS governs the batch end to
        // end: peel, engine and analysis.
        let num_threads = exec::resolve_threads(engine.num_threads)?;
        let database = self
            .analyzer
            .ingest_items_parallel(&outcome.items, num_threads)?;
        Ok(PipelineReport {
            database,
            shuffler_stats: outcome.stats,
            stage_stats: outcome.stage_stats,
        })
    }
}

/// A streaming epoch: reports accumulate incrementally and are processed as
/// one canonicalized batch when the session finishes.
///
/// [`Self::finish`] sorts the batch by outer-ciphertext bytes before
/// ingesting it — the same canonicalization the collector applies — so the
/// result is a pure function of the batch *contents* and the [`EpochSpec`],
/// independent of arrival order.
///
/// ```
/// use prochlo_core::{CrowdStrategy, Deployment, EpochSpec};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let deployment = Deployment::builder().build(&mut rng);
/// let encoder = deployment.encoder();
/// let mut session = deployment.session(EpochSpec::new(0, 42));
/// for i in 0..25u64 {
///     let report = encoder.encode_plain(b"v", CrowdStrategy::Hash(b"v"), i, &mut rng);
///     session.extend([report.unwrap()]);
/// }
/// let report = session.finish().unwrap();
/// assert_eq!(report.shuffler_stats.received, 25);
/// ```
#[derive(Debug)]
pub struct EpochSession<'a> {
    deployment: &'a Deployment,
    spec: EpochSpec,
    reports: Vec<ClientReport>,
}

/// The routing rule of a sharded collector: a crowd's reports all go to the
/// shard its [`crowd_prefix`] names, so each shard — a [`Deployment`] with
/// its own keys behind `prochlo_fabric`'s `ShardRouter` — thresholds whole
/// crowds, and the shards' databases merge with
/// [`AnalyzerDatabase::merge_from`].
///
/// ```
/// use prochlo_core::{crowd_prefix, ShardedDeployment};
/// let shard = ShardedDeployment::shard_index_from_prefix(crowd_prefix(b"chrome"), 4);
/// assert_eq!(shard, (crowd_prefix(b"chrome") % 4) as usize);
/// ```
#[derive(Debug)]
pub struct ShardedDeployment;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CrowdStrategy;
    use crate::shuffler::BackendKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_histogram_with_thresholding() {
        let mut rng = StdRng::seed_from_u64(1);
        let deployment = Deployment::builder().payload_size(32).build(&mut rng);
        let encoder = deployment.encoder();
        let mut reports = Vec::new();
        // 120 clients report "chrome", 6 report "obscure-browser".
        for i in 0..120u64 {
            reports.push(
                encoder
                    .encode_plain(b"chrome", CrowdStrategy::Hash(b"chrome"), i, &mut rng)
                    .unwrap(),
            );
        }
        for i in 0..6u64 {
            reports.push(
                encoder
                    .encode_plain(
                        b"obscure-browser",
                        CrowdStrategy::Hash(b"obscure-browser"),
                        200 + i,
                        &mut rng,
                    )
                    .unwrap(),
            );
        }
        let report = deployment.run(&reports, &mut rng).unwrap();
        // The popular value survives (minus the random drop); the rare one is
        // suppressed entirely by thresholding.
        assert!(report.database.count(b"chrome") >= 100);
        assert_eq!(report.database.count(b"obscure-browser"), 0);
        assert_eq!(report.shuffler_stats.crowds_forwarded, 1);
        assert_eq!(report.stage_stats.len(), 1);
        assert_eq!(report.stage_stats[0], report.shuffler_stats);
    }

    #[test]
    fn end_to_end_secret_shared_vocabulary() {
        let mut rng = StdRng::seed_from_u64(2);
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .payload_size(32)
            .share_threshold(10)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let mut reports = Vec::new();
        for i in 0..25u64 {
            reports.push(
                encoder
                    .encode_secret_shared(b"frequent-word", 10, CrowdStrategy::None, i, &mut rng)
                    .unwrap(),
            );
        }
        for i in 0..4u64 {
            reports.push(
                encoder
                    .encode_secret_shared(b"rare-word", 10, CrowdStrategy::None, 100 + i, &mut rng)
                    .unwrap(),
            );
        }
        let report = deployment.run(&reports, &mut rng).unwrap();
        // The frequent word crosses the share threshold and is recovered; the
        // rare word stays encrypted even though its reports were forwarded.
        assert_eq!(report.database.count(b"frequent-word"), 25);
        assert_eq!(report.database.count(b"rare-word"), 0);
        assert_eq!(report.database.pending_secret_groups(), 1);
        assert_eq!(report.database.pending_secret_reports(), 4);
    }

    #[test]
    fn split_deployment_end_to_end() {
        let mut rng = StdRng::seed_from_u64(3);
        let deployment = Deployment::builder()
            .shuffler(Topology::Split)
            .payload_size(32)
            .build(&mut rng);
        assert!(deployment.role().as_split().is_some());
        assert!(deployment.client_keys().crowd_blinding.is_some());
        let encoder = deployment.encoder();
        let mut reports = Vec::new();
        for i in 0..80u64 {
            reports.push(
                encoder
                    .encode_plain(b"the", CrowdStrategy::Blind(b"the"), i, &mut rng)
                    .unwrap(),
            );
        }
        for i in 0..5u64 {
            reports.push(
                encoder
                    .encode_plain(
                        b"xylograph",
                        CrowdStrategy::Blind(b"xylograph"),
                        500 + i,
                        &mut rng,
                    )
                    .unwrap(),
            );
        }
        let report = deployment.run(&reports, &mut rng).unwrap();
        assert!(report.database.count(b"the") >= 60);
        assert_eq!(report.database.count(b"xylograph"), 0);
        assert_eq!(report.shuffler_stats.crowds_seen, 2);
        assert_eq!(report.shuffler_stats.crowds_forwarded, 1);
        // Per-stage symmetry: both shufflers report their own stats.
        assert_eq!(report.stage_stats.len(), 2);
        assert_eq!(report.stage_stats[0].backend, BackendKind::Trusted);
        assert_eq!(report.stage_stats[0].received, 85);
        assert_eq!(report.stage_stats[1].backend, BackendKind::Trusted);
        assert_eq!(
            report.stage_stats[1].forwarded,
            report.shuffler_stats.forwarded
        );
    }

    #[test]
    fn ingest_is_deterministic_per_epoch() {
        let mut rng = StdRng::seed_from_u64(5);
        let deployment = Deployment::builder().payload_size(32).build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..60u64)
            .map(|i| {
                encoder
                    .encode_plain(b"value", CrowdStrategy::Hash(b"value"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        let spec = EpochSpec::new(3, 0xfeed);
        let a = deployment.ingest(&spec, &reports).unwrap();
        let b = deployment.ingest(&spec, &reports).unwrap();
        assert_eq!(a.shuffler_stats, b.shuffler_stats);
        assert!(a.database.rows().eq(b.database.rows()));
        // A different epoch index draws different noise (drop counts differ
        // with overwhelming probability over repeated epochs; assert the
        // stats are not all identical across a spread of epochs).
        let distinct: std::collections::HashSet<usize> = (0..16)
            .map(|e| {
                deployment
                    .ingest(&EpochSpec::new(e, 0xfeed), &reports)
                    .unwrap()
                    .shuffler_stats
                    .forwarded
            })
            .collect();
        assert!(distinct.len() > 1, "epoch RNG streams should differ");
    }

    #[test]
    fn epoch_rng_streams_are_stable_functions_of_seed_and_epoch() {
        use rand::RngCore;
        let mut a = epoch_rng(1, 2);
        let mut b = epoch_rng(1, 2);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = epoch_rng(1, 3);
        let mut d = epoch_rng(2, 2);
        let first = epoch_rng(1, 2).next_u64();
        assert_ne!(first, c.next_u64());
        assert_ne!(first, d.next_u64());
    }

    #[test]
    fn pipeline_report_combines_stats_and_database() {
        let mut rng = StdRng::seed_from_u64(4);
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .payload_size(16)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..10u64)
            .map(|i| {
                encoder
                    .encode_plain(b"v", CrowdStrategy::None, i, &mut rng)
                    .unwrap()
            })
            .collect();
        let out = deployment.run(&reports, &mut rng).unwrap();
        assert_eq!(out.shuffler_stats.received, 10);
        assert_eq!(out.shuffler_stats.forwarded, 10);
        assert_eq!(out.database.rows().len(), 10);
    }

    #[test]
    fn epoch_spec_override_beats_deployment_engine() {
        use crate::shuffler::ShuffleBackend;
        let mut rng = StdRng::seed_from_u64(6);
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .engine(EngineConfig {
                backend: ShuffleBackend::Sgx { params: None },
                num_threads: 1,
            })
            .build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..20u64)
            .map(|i| {
                encoder
                    .encode_plain(b"v", CrowdStrategy::None, i, &mut rng)
                    .unwrap()
            })
            .collect();
        // Deployment-level engine applies by default...
        let report = deployment.ingest(&EpochSpec::new(0, 1), &reports).unwrap();
        assert_eq!(report.shuffler_stats.backend, BackendKind::Stash);
        // ...and the spec override wins over it.
        let spec = EpochSpec::new(0, 1).with_engine(EngineConfig {
            backend: ShuffleBackend::Trusted,
            num_threads: 1,
        });
        let report = deployment.ingest(&spec, &reports).unwrap();
        assert_eq!(report.shuffler_stats.backend, BackendKind::Trusted);
        // The engine consumes exactly one master-stream draw regardless of
        // backend, so the histogram does not depend on the override.
        assert_eq!(
            report.database.canonical_histogram_bytes(),
            deployment
                .ingest(&EpochSpec::new(0, 1), &reports)
                .unwrap()
                .database
                .canonical_histogram_bytes()
        );
    }

    #[test]
    fn session_matches_ingest_of_canonicalized_batch() {
        let mut rng = StdRng::seed_from_u64(7);
        let deployment = Deployment::builder().build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..40u64)
            .map(|i| {
                encoder
                    .encode_plain(b"v", CrowdStrategy::Hash(b"v"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        let spec = EpochSpec::new(2, 0xabc);

        let mut sorted = reports.clone();
        canonicalize(&mut sorted);
        let direct = deployment.ingest(&spec, &sorted).unwrap();

        // Buffer in reverse arrival order, over two calls: finish()
        // canonicalizes, so the session must agree byte for byte with the
        // sorted direct call.
        let mut session = deployment.session(spec.clone());
        let mut iter = reports.into_iter().rev();
        session.extend(iter.by_ref().take(1));
        session.extend(iter);
        assert_eq!(session.spec.epoch_index, 2);
        let streamed = session.finish().unwrap();

        assert_eq!(streamed.shuffler_stats, direct.shuffler_stats);
        assert!(streamed.database.rows().eq(direct.database.rows()));
    }

    #[test]
    fn split_topology_rejects_oblivious_engine_overrides_loudly() {
        use crate::shuffler::ShuffleBackend;
        let mut rng = StdRng::seed_from_u64(10);
        let deployment = Deployment::builder()
            .shuffler(Topology::Split)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..30u64)
            .map(|i| {
                encoder
                    .encode_plain(b"w", CrowdStrategy::Blind(b"w"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        // Requesting an enclave engine the split topology cannot honor must
        // fail, not silently run the inline shuffle.
        let spec = EpochSpec::new(0, 1).with_engine(EngineConfig {
            backend: ShuffleBackend::Sgx { params: None },
            num_threads: 1,
        });
        assert!(matches!(
            deployment.ingest(&spec, &reports),
            Err(PipelineError::InvalidConfig(_))
        ));
        // A thread-count-only override (trusted backend) is accepted.
        let spec = EpochSpec::new(0, 1).with_engine(EngineConfig {
            backend: ShuffleBackend::Trusted,
            num_threads: 4,
        });
        assert!(deployment.ingest(&spec, &reports).is_ok());

        // A backend configured for the whole deployment — the builder's
        // engine, which works everywhere else — must be rejected just as
        // loudly, not silently replaced by the inline shuffle.
        let mut rng = StdRng::seed_from_u64(11);
        let configured = Deployment::builder()
            .shuffler(Topology::Split)
            .engine(EngineConfig {
                backend: ShuffleBackend::Sgx { params: None },
                num_threads: 0,
            })
            .build(&mut rng);
        let encoder = configured.encoder();
        let reports: Vec<_> = (0..5u64)
            .map(|i| {
                encoder
                    .encode_plain(b"w", CrowdStrategy::Blind(b"w"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        assert!(matches!(
            configured.run(&reports, &mut rng),
            Err(PipelineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn every_topology_refuses_a_batch_below_the_minimum() {
        for topology in [Topology::Single, Topology::Split] {
            let mut rng = StdRng::seed_from_u64(12);
            let deployment = Deployment::builder()
                .shuffler(topology)
                .config(ShufflerConfig {
                    min_batch_size: 10,
                    ..ShufflerConfig::default()
                })
                .build(&mut rng);
            let encoder = deployment.encoder();
            let crowd = match topology {
                Topology::Single => CrowdStrategy::Hash(b"w"),
                Topology::Split => CrowdStrategy::Blind(b"w"),
            };
            let reports: Vec<_> = (0..10u64)
                .map(|i| encoder.encode_plain(b"w", crowd, i, &mut rng).unwrap())
                .collect();
            let result = deployment.ingest(&EpochSpec::new(0, 1), &reports[..3]);
            assert!(
                matches!(
                    result,
                    Err(PipelineError::BatchTooSmall {
                        received: 3,
                        minimum: 10
                    })
                ),
                "{topology:?}: {result:?}"
            );
            // A batch at the minimum goes through.
            let report = deployment.ingest(&EpochSpec::new(0, 1), &reports).unwrap();
            assert_eq!(report.shuffler_stats.received, 10, "{topology:?}");
        }
    }

    #[test]
    fn sharded_routing_is_stable_and_total() {
        for shards in [1usize, 3, 4, 7] {
            for label in [&b"alpha"[..], b"beta", b"gamma", b""] {
                let idx = ShardedDeployment::shard_index_from_prefix(crowd_prefix(label), shards);
                assert!(idx < shards);
                assert_eq!(
                    idx,
                    ShardedDeployment::shard_index_from_prefix(crowd_prefix(label), shards)
                );
            }
        }
    }

    #[test]
    fn shard_index_is_pinned_on_known_digests() {
        // Routing reads the first *eight* bytes of SHA-256(label) as a
        // big-endian u64 and reduces it modulo the shard count (not just
        // the first byte — shard counts beyond 256 must still receive
        // traffic). These expectations were computed independently from the
        // published SHA-256 digests of the labels; if this test fails, the
        // routing function changed and every cross-version router/shard
        // assignment with it.
        const PINNED: &[(&[u8], u64)] = &[
            (b"chrome", 10_633_261_721_166_230_207),
            (b"firefox", 1_649_995_383_330_970_112),
            (b"example.com", 11_779_629_879_860_902_309),
            (b"", 16_406_829_232_824_261_652),
        ];
        for &(label, prefix) in PINNED {
            for shards in [1usize, 4, 7, 1000] {
                assert_eq!(crowd_prefix(label), prefix, "label {label:?}");
                assert_eq!(
                    ShardedDeployment::shard_index_from_prefix(prefix, shards),
                    (prefix % shards as u64) as usize,
                    "label {label:?}, {shards} shards"
                );
            }
        }
        // A spot check that the u64 reduction differs from first-byte
        // routing for at least one pinned label, so a regression to the
        // old documented behaviour cannot slip through.
        assert_ne!(
            ShardedDeployment::shard_index_from_prefix(crowd_prefix(b"chrome"), 1000),
            (prochlo_crypto::sha256::sha256(b"chrome")[0] as usize) % 1000
        );
    }

    /// A batch whose outer ciphertexts are drawn from tiny alphabets, so it
    /// shares ephemerals and nonces, holds `sealed` bodies that are prefixes
    /// of one another, and repeats whole ciphertexts; each report's
    /// metadata is distinct, so exact duplicates still differ.
    fn tiny_batch(seed: u64, len: usize) -> Vec<ClientReport> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len as u64)
            .map(|client| ClientReport {
                outer: prochlo_crypto::hybrid::HybridCiphertext {
                    ephemeral: [rng.gen_range(0..3); 32],
                    nonce: [rng.gen_range(0..3); 12],
                    sealed: (0..rng.gen_range(0..4))
                        .map(|_| rng.gen_range(0..2))
                        .collect(),
                },
                metadata: crate::record::TransportMetadata::synthetic(client),
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn canonicalize_equals_the_sort_by_wire_bytes(seed in proptest::prelude::any::<u64>(), len in 0usize..40) {
            let mut in_place = tiny_batch(seed, len);
            let copies = canonicalize(&mut in_place);
            let mut reference = tiny_batch(seed, len);
            reference.sort_by_cached_key(|report| report.outer.to_bytes());
            // Equal ciphertexts must keep arrival order too: compare the
            // metadata, which differs between exact duplicates.
            let order = |batch: &[ClientReport]| -> Vec<(Vec<u8>, u64)> {
                batch
                    .iter()
                    .map(|report| (report.outer.to_bytes(), report.metadata.arrival_order))
                    .collect()
            };
            let distinct: std::collections::BTreeSet<_> =
                reference.iter().map(|report| report.outer.to_bytes()).collect();
            proptest::prop_assert_eq!(copies, len - distinct.len());
            proptest::prop_assert_eq!(order(&in_place), order(&reference));
        }
    }
}
