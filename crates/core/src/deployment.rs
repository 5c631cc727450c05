//! The deployment API: one orchestration surface for every ESA topology.
//!
//! The paper's architecture places encoders, one *or two* shufflers, and the
//! analyzer in separate services. The API does not mirror that split: the
//! number of shufflers is a property of a deployment, not of the type a
//! caller drives. This module is three pieces:
//!
//! * [`Deployment`] — built by [`DeploymentBuilder`], it owns a shuffling
//!   topology as a [`ShufflerRole`] (a [`Shuffler`] or a [`SplitShuffler`])
//!   plus the analyzer, so callers construct and drive one type regardless
//!   of topology.
//! * [`EpochSpec`] — a parameter object naming an epoch: its index, the
//!   deployment seed, and an optional [`EngineConfig`] override. Exactly two
//!   entry points consume reports: [`Deployment::run`] (caller-supplied RNG)
//!   and [`Deployment::ingest`] (deterministic per-epoch RNG derived by
//!   [`epoch_rng`]).
//! * [`EpochSession`] / [`ShardedDeployment`] — the scale-out hooks: a
//!   session accepts reports incrementally and canonicalizes the batch at
//!   [`EpochSession::finish`]; a sharded deployment fans reports out to N
//!   independent deployments by crowd-ID prefix and merges the resulting
//!   databases analyzer-side via [`AnalyzerDatabase::merge_from`].
//!
//! Seeded behaviour is a contract: `deployment.ingest(&EpochSpec::new(e,
//! seed), reports)` yields the canonical histogram pinned byte for byte by
//! the committed golden fixture in the integration suite, so a change to
//! the key, seed or draw order shows there.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prochlo_crypto::edwards::Point;
use prochlo_crypto::hybrid::HybridKeypair;
use prochlo_crypto::sha256;
use prochlo_crypto::PublicKey;

use crate::analyzer::{Analyzer, AnalyzerDatabase};
use crate::encoder::{ClientKeys, Encoder};
use crate::error::PipelineError;
use crate::exec;
use crate::record::ClientReport;
use crate::shuffler::split::SplitShuffler;
use crate::shuffler::{EngineConfig, ShuffleOutcome, Shuffler, ShufflerConfig, ShufflerStats};

/// Derives the RNG a deployment uses to process one epoch: a SplitMix64-style
/// mix of the deployment seed and the epoch index (the same mix the chunked
/// executor uses per chunk, see [`crate::exec::mix_seed`]), so consecutive
/// epochs get uncorrelated streams and any epoch can be replayed in
/// isolation.
pub fn epoch_rng(seed: u64, epoch_index: u64) -> StdRng {
    StdRng::seed_from_u64(exec::mix_seed(seed, epoch_index))
}

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

/// Puts a batch into its canonical order — sorted by outer-ciphertext bytes
/// — so what an epoch computes is a pure function of the batch *contents*
/// and its [`EpochSpec`], never of arrival order. Every path that cuts a
/// batch for the shufflers ([`EpochSession::finish`], the fabric's shard
/// pipeline) calls this one function; a seeded replay across them is
/// byte-identical only because they agree on it.
///
/// The comparison reads `(ephemeral, nonce, sealed)` in place: the first
/// two have fixed lengths, so this is the order of the concatenated wire
/// bytes without building them, and the sort is stable, so equal
/// ciphertexts keep their arrival order.
pub fn canonicalize(reports: &mut [ClientReport]) {
    fn key(report: &ClientReport) -> (&[u8; 32], &[u8; 12], &[u8]) {
        let outer = &report.outer;
        (&outer.ephemeral, &outer.nonce, &outer.sealed)
    }
    reports.sort_by(|a, b| key(a).cmp(&key(b)));
}

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
/// A [`Deployment`] holds one by value, so the single- and split-shuffler
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
    /// Which topology this role implements.
    pub fn topology(&self) -> Topology {
        match self {
            Self::Single(_) => Topology::Single,
            Self::Split(_) => Topology::Split,
        }
    }

    /// The public key clients seal the outer encryption layer to.
    fn outer_public_key(&self) -> &PublicKey {
        match self {
            Self::Single(shuffler) => shuffler.public_key(),
            Self::Split(split) => split.one.public_key(),
        }
    }

    /// The El Gamal key clients blind crowd IDs under, if this topology
    /// uses blinding.
    fn crowd_blinding_key(&self) -> Option<&Point> {
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
    pub fn default_engine(&self) -> EngineConfig {
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
/// assert_eq!(deployment.topology(), Topology::Split);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeploymentBuilder {
    topology: Topology,
    config: ShufflerConfig,
    payload_size: Option<usize>,
    engine: Option<EngineConfig>,
    share_threshold: Option<usize>,
}

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
    /// batch runs with unless an [`EpochSpec`] overrides it. Without this,
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

/// A complete ESA deployment — shuffling topology plus analyzer — running
/// in one process.
///
/// Examples, tests, benches and the collector all construct this one type;
/// the topology behind it is a [`ShufflerRole`] selected at build time. A production deployment would place each role in a separate
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

    /// Which topology this deployment runs.
    pub fn topology(&self) -> Topology {
        self.role.topology()
    }

    /// The shuffling stage (e.g. to drive it directly in a bench).
    pub fn role(&self) -> &ShufflerRole {
        &self.role
    }

    /// The analyzer role.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The padded payload size clients encode to.
    pub fn payload_size(&self) -> usize {
        self.payload_size
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
///     session.push(
///         encoder
///             .encode_plain(b"v", CrowdStrategy::Hash(b"v"), i, &mut rng)
///             .unwrap(),
///     );
/// }
/// let report = session.finish().unwrap();
/// assert_eq!(report.shuffler_stats.received, 25);
/// ```
#[derive(Debug)]
// prochlo-lint: allow(uncalled-pub, "the return type of Deployment::session; the collector, the fabric and esa_bench drive it without naming it")
pub struct EpochSession<'a> {
    deployment: &'a Deployment,
    spec: EpochSpec,
    reports: Vec<ClientReport>,
}

impl EpochSession<'_> {
    /// The spec this session will finish under.
    pub fn spec(&self) -> &EpochSpec {
        &self.spec
    }

    /// Reports buffered so far.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether no report has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Buffers one report.
    pub fn push(&mut self, report: ClientReport) {
        self.reports.push(report);
    }

    /// Buffers a batch of reports.
    pub fn extend<I: IntoIterator<Item = ClientReport>>(&mut self, reports: I) {
        self.reports.extend(reports);
    }

    /// Canonicalizes the buffered batch (sorted by outer-ciphertext bytes,
    /// erasing arrival order one stage before the shuffler even sees it)
    /// and ingests it under the session's spec.
    pub fn finish(self) -> Result<PipelineReport, PipelineError> {
        let Self {
            deployment,
            spec,
            mut reports,
        } = self;
        canonicalize(&mut reports);
        deployment.ingest(&spec, &reports)
    }
}

/// The outcome of one sharded epoch.
#[derive(Debug)]
// prochlo-lint: allow(uncalled-pub, "the return type of ShardedDeployment::ingest; callers read its fields without naming it")
pub struct ShardedReport {
    /// Every shard's database merged into the analyzer-side view.
    pub database: AnalyzerDatabase,
    /// Per-shard outcomes, indexed by shard; `None` for shards that
    /// received no reports this epoch.
    pub shards: Vec<Option<PipelineReport>>,
}

/// N independent deployments fronted as one: reports are partitioned by
/// crowd-ID prefix, each shard ingests its partition under its own derived
/// seed, and the analyzer-side databases are merged with
/// [`AnalyzerDatabase::merge_from`] — the multi-collector ingestion shape the
/// ROADMAP calls for, in-process.
///
/// Every shard has its **own keys**, so a client must encode against the
/// shard its crowd maps to: [`Self::shard_for_crowd`] names the shard and
/// that shard's [`Deployment::encoder`] encodes for it. Routing uses the
/// first eight bytes of `SHA-256(crowd label)` — the same hash
/// [`crate::record::CrowdId::hashed`] attaches to reports — so a front-end
/// router holding only hashed crowd IDs can route without seeing labels.
///
/// ```
/// use prochlo_core::{CrowdStrategy, Deployment, EpochSpec, ShardedDeployment};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let sharded = ShardedDeployment::build(Deployment::builder(), 4, &mut rng);
/// let mut batches = vec![Vec::new(); sharded.num_shards()];
/// for i in 0..40u64 {
///     let shard = sharded.shard_for_crowd(b"chrome");
///     let report = sharded
///         .shard(shard)
///         .encoder()
///         .encode_plain(b"chrome", CrowdStrategy::Hash(b"chrome"), i, &mut rng)
///         .unwrap();
///     batches[shard].push(report);
/// }
/// let merged = sharded.ingest(&EpochSpec::new(0, 9), &batches).unwrap();
/// assert!(merged.database.count(b"chrome") > 0);
/// ```
#[derive(Debug)]
pub struct ShardedDeployment {
    shards: Vec<Deployment>,
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

    /// All shards, in index order.
    pub fn shards(&self) -> &[Deployment] {
        &self.shards
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
    /// [`epoch_rng`]), so the shards' noise draws are mutually uncorrelated
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CrowdStrategy;
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
        assert_eq!(deployment.topology(), Topology::Split);
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
        assert_eq!(report.stage_stats[0].backend, "blind");
        assert_eq!(report.stage_stats[0].received, 85);
        assert_eq!(report.stage_stats[1].backend, "inline");
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
        assert_eq!(report.shuffler_stats.backend, "stash");
        // ...and the spec override wins over it.
        let spec = EpochSpec::new(0, 1).with_engine(EngineConfig {
            backend: ShuffleBackend::Trusted,
            num_threads: 1,
        });
        let report = deployment.ingest(&spec, &reports).unwrap();
        assert_eq!(report.shuffler_stats.backend, "trusted");
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

        // Push in reverse arrival order: finish() canonicalizes, so the
        // session must agree byte for byte with the sorted direct call.
        let mut session = deployment.session(spec.clone());
        assert!(session.is_empty());
        let mut iter = reports.into_iter().rev();
        session.push(iter.next().unwrap());
        session.extend(iter);
        assert_eq!(session.len(), 40);
        assert_eq!(session.spec().epoch_index, 2);
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
                let idx = ShardedDeployment::shard_index(label, shards);
                assert!(idx < shards);
                assert_eq!(idx, ShardedDeployment::shard_index(label, shards));
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
                assert_eq!(
                    ShardedDeployment::shard_index(label, shards),
                    (prefix % shards as u64) as usize,
                    "label {label:?}, {shards} shards"
                );
            }
        }
        // A spot check that the u64 reduction differs from first-byte
        // routing for at least one pinned label, so a regression to the
        // old documented behaviour cannot slip through.
        assert_ne!(
            ShardedDeployment::shard_index(b"chrome", 1000),
            (prochlo_crypto::sha256::sha256(b"chrome")[0] as usize) % 1000
        );
    }

    #[test]
    fn sharded_ingest_rejects_mismatched_batch_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let sharded = ShardedDeployment::build(Deployment::builder(), 3, &mut rng);
        let err = sharded
            .ingest(&EpochSpec::new(0, 1), &[Vec::new(), Vec::new()])
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn sharded_ingest_skips_empty_shards_and_merges_the_rest() {
        let mut rng = StdRng::seed_from_u64(9);
        let sharded = ShardedDeployment::build(
            Deployment::builder().config(ShufflerConfig::default().without_thresholding()),
            3,
            &mut rng,
        );
        let mut batches = vec![Vec::new(); 3];
        for i in 0..30u64 {
            let shard = sharded.shard_for_crowd(b"only-crowd");
            batches[shard].push(
                sharded
                    .shard(shard)
                    .encoder()
                    .encode_plain(
                        b"only-crowd",
                        CrowdStrategy::Hash(b"only-crowd"),
                        i,
                        &mut rng,
                    )
                    .unwrap(),
            );
        }
        let merged = sharded.ingest(&EpochSpec::new(0, 5), &batches).unwrap();
        assert_eq!(merged.database.count(b"only-crowd"), 30);
        let populated = merged.shards.iter().filter(|s| s.is_some()).count();
        assert_eq!(populated, 1, "only one shard received reports");
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
            canonicalize(&mut in_place);
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
            proptest::prop_assert_eq!(order(&in_place), order(&reference));
        }
    }
}
