//! The ESA shuffler: batching, metadata stripping, randomized cardinality
//! thresholding and oblivious shuffling (§3.3, §3.5, §4.1).
//!
//! A batch enters through one function, [`ShufflerRole::process`], and runs
//! three explicit phases, each timed independently:
//!
//! 1. **peel** — outer-layer decryption (`peel_chunk`, the kernel both
//!    topologies share), sharded across worker threads by the chunked
//!    executor in [`crate::exec`] (embarrassingly parallel, no randomness,
//!    canonical in-order merge); a report whose crowd ID is of the wrong
//!    kind for the topology is counted as rejected here and goes no further;
//! 2. **threshold** — randomized per-crowd drop and noisy cardinality
//!    threshold (`threshold_crowds`, the one implementation: this shuffler
//!    feeds it hashed crowd IDs, Shuffler 2 of [`split`] feeds it blinded
//!    handles), sequential because every noise draw must come off the
//!    master epoch stream in crowd order;
//! 3. **shuffle** — handed to a pluggable [`ShuffleEngine`] built from the
//!    configured [`ShuffleBackend`]; the engine is seeded with exactly one
//!    draw from the master stream, so the stream position never depends on
//!    the backend or its internal parallelism.

pub mod engine;
pub mod split;

use std::collections::BTreeMap;

use prochlo_obs::Unmeasured;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::{PublicKey, StaticSecret};
use prochlo_sgx::{CpuKey, Enclave, EnclaveConfig, Quote};
use prochlo_shuffle::StashShuffleParams;

pub use prochlo_shuffle::engine::{EngineStats, ShuffleEngine};
use prochlo_stats::{Gaussian, RoundedNormal};

use crate::deployment::{ShufflerRole, Topology};
use crate::encoder::SHUFFLER_AAD;
use crate::error::PipelineError;
use crate::exec;
use crate::record::{ClientReport, CrowdId, ShufflerEnvelope};

pub use engine::TrustedEngine;

/// Which shuffling backend the shuffler uses once the batch has been peeled
/// and thresholded. This is the *configuration* of a backend; the live
/// implementation behind it is a [`ShuffleEngine`] trait object built by
/// [`ShuffleBackend::engine`], so both backends are selectable at runtime
/// (see [`ShuffleBackend::from_name`]). These are the two shufflers Prochlo
/// runs; the §4.1.3 baselines it rejects exist only as cost models in
/// `prochlo_shuffle`.
#[derive(Debug, Clone, Default)]
pub enum ShuffleBackend {
    /// A trusted in-memory shuffle (a shuffler hosted by an independent
    /// third party, per §3.3), with parallel tag distribution.
    #[default]
    Trusted,
    /// The SGX-hardened Stash Shuffle (§4.1.4); parameters are derived from
    /// the batch size when not given.
    Sgx {
        /// Explicit Stash Shuffle parameters; `None` derives them per batch.
        params: Option<StashShuffleParams>,
    },
}

/// Runtime configuration of the shuffle engine: which backend to build and
/// how many worker threads the parallel phases may use. This is the value a
/// serving layer threads from its own configuration down through a
/// [`crate::deployment::EpochSpec`] override to the engine.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The shuffle backend to run.
    pub backend: ShuffleBackend,
    /// Worker threads for the parallel phases; `0` defers to the
    /// `PROCHLO_SHUFFLE_THREADS` environment knob, which itself defaults to
    /// every available core (see [`crate::exec::resolve_threads`]).
    pub num_threads: usize,
}

/// Environment variable selecting the shuffle backend by name
/// (case-insensitive; see [`ShuffleBackend::from_name`]).
pub const SHUFFLE_BACKEND_ENV: &str = "PROCHLO_SHUFFLE_BACKEND";

impl EngineConfig {
    /// Builds an engine configuration from the environment:
    /// [`SHUFFLE_BACKEND_ENV`] selects the backend by name (default
    /// `trusted`) and `num_threads` is left at `0` so the thread knob is
    /// still parsed in its one place,
    /// [`crate::exec::shuffle_threads_from_env`].
    ///
    /// An unrecognized backend name — or a set-but-undecodable value, which
    /// is still a selection the operator made — is a hard error
    /// ([`PipelineError::UnknownBackend`], listing every valid name):
    /// silently downgrading a typo'd `stash` to the non-oblivious trusted
    /// engine would drop the very property the operator asked for.
    pub fn from_env() -> Result<Self, PipelineError> {
        let name = prochlo_obs::knobs::read(SHUFFLE_BACKEND_ENV)
            .map_err(|e| PipelineError::UnknownBackend { name: e.value })?;
        Self::from_backend_value(name.as_deref())
    }

    /// Interprets one `PROCHLO_SHUFFLE_BACKEND`-style value: absent means
    /// the default backend; anything else must name a backend exactly
    /// (case-insensitive, see [`ShuffleBackend::from_name`]) or the call
    /// fails with [`PipelineError::UnknownBackend`].
    pub fn from_backend_value(value: Option<&str>) -> Result<Self, PipelineError> {
        let backend = match value {
            Some(name) => {
                ShuffleBackend::from_name(name).ok_or_else(|| PipelineError::UnknownBackend {
                    name: name.to_string(),
                })?
            }
            None => ShuffleBackend::default(),
        };
        Ok(Self {
            backend,
            num_threads: 0,
        })
    }
}

/// Configuration of the shuffler's thresholding and batching behaviour.
///
/// The defaults are the parameters the paper uses throughout §5: threshold
/// T = 20, drop mean D = 10 with σ = 2, and Gaussian threshold noise with the
/// same σ.
#[derive(Debug, Clone)]
pub struct ShufflerConfig {
    /// Cardinality threshold T.
    pub cardinality_threshold: u64,
    /// Standard deviation of the Gaussian noise added to T.
    pub threshold_noise_sigma: f64,
    /// Mean D of the rounded normal number of reports dropped per crowd.
    pub drop_mean: f64,
    /// Standard deviation of the per-crowd drop count.
    pub drop_sigma: f64,
    /// Minimum number of reports before a batch is processed.
    pub min_batch_size: usize,
    /// Shuffling backend.
    pub backend: ShuffleBackend,
    /// Worker threads for the parallel batch phases; `0` defers to the
    /// `PROCHLO_SHUFFLE_THREADS` environment knob (see [`EngineConfig`]).
    pub num_threads: usize,
}

impl Default for ShufflerConfig {
    fn default() -> Self {
        Self {
            cardinality_threshold: 20,
            threshold_noise_sigma: 2.0,
            drop_mean: 10.0,
            drop_sigma: 2.0,
            min_batch_size: 1,
            backend: ShuffleBackend::Trusted,
            num_threads: 0,
        }
    }
}

impl ShufflerConfig {
    /// The §5.3 (Perms) configuration: threshold 100, σ = 4.
    pub fn perms() -> Self {
        Self {
            cardinality_threshold: 100,
            threshold_noise_sigma: 4.0,
            drop_mean: 10.0,
            drop_sigma: 4.0,
            ..Self::default()
        }
    }

    /// Disables thresholding entirely (the "NoCrowd" experiment): every
    /// report is forwarded and no noise is applied.
    pub fn without_thresholding(mut self) -> Self {
        self.cardinality_threshold = 0;
        self.threshold_noise_sigma = 0.0;
        self.drop_mean = 0.0;
        self.drop_sigma = 0.0;
        self
    }

    /// The engine configuration embedded in this shuffler configuration.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            backend: self.backend.clone(),
            num_threads: self.num_threads,
        }
    }
}

/// Wall-clock spent in each batch phase. Excluded from [`ShufflerStats`]
/// equality (via [`Unmeasured`]): seeded replays must agree on every
/// count while wall-clock naturally varies run to run.
///
/// Phases are timed by `prochlo-obs` spans, which also feed the
/// `shuffler.peel` / `shuffler.threshold` / `shuffler.shuffle` registry
/// histograms; when telemetry is disabled (`PROCHLO_OBS=0`) the spans
/// never read the clock and every field here reads zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Outer-layer decryption (parallel).
    pub peel_seconds: f64,
    /// Randomized per-crowd thresholding (sequential).
    pub threshold_seconds: f64,
    /// The oblivious shuffle engine.
    pub shuffle_seconds: f64,
}

impl PhaseTimings {
    /// Total wall-clock across the three phases.
    pub fn total_seconds(&self) -> f64 {
        self.peel_seconds + self.threshold_seconds + self.shuffle_seconds
    }
}

/// Statistics describing what happened to one batch.
///
/// Replay equality: every count and the backend must match; wall-clock
/// timings sit behind [`Unmeasured`], so they are observational and
/// deliberately ignored by the derived `PartialEq`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShufflerStats {
    /// Reports received in the batch.
    pub received: usize,
    /// Reports forwarded to the analyzer.
    pub forwarded: usize,
    /// Reports removed by the random per-crowd drop.
    pub dropped_noise: usize,
    /// Reports removed because their crowd fell below the (noisy) threshold.
    pub dropped_threshold: usize,
    /// Reports rejected as malformed (undecryptable outer layer).
    pub rejected: usize,
    /// Distinct crowd IDs observed.
    pub crowds_seen: usize,
    /// Distinct crowd IDs forwarded.
    pub crowds_forwarded: usize,
    /// Attempts used by the oblivious shuffle backend (1 for trusted).
    pub shuffle_attempts: usize,
    /// Name of the engine that shuffled the batch (empty before the shuffle
    /// phase runs).
    pub backend: &'static str,
    /// Per-phase wall-clock (not part of equality).
    pub timings: Unmeasured<PhaseTimings>,
}

/// What a shuffling topology hands the analyzer, regardless of how many
/// shuffler services stood between the clients and it: the shuffled inner
/// ciphertexts, a merged batch-level view, and one [`ShufflerStats`] per
/// shuffler stage (one entry for the single shuffler, two for the split
/// deployment — Shuffler 1 then Shuffler 2).
#[derive(Debug, Clone)]
pub struct ShuffleOutcome {
    /// Shuffled inner ciphertexts (still sealed to the analyzer).
    pub items: Vec<Vec<u8>>,
    /// The merged, batch-level statistics (the analyzer may see these; they
    /// reveal only selectivity, per §4.1.5).
    pub stats: ShufflerStats,
    /// Per-stage statistics, in pipeline order.
    pub stage_stats: Vec<ShufflerStats>,
}

/// The peel kernel both topologies run inside each executor chunk: opens
/// the outer layer of every report with one batched key agreement
/// ([`HybridCiphertext::open_batch`], item for item `open().ok()`), parses
/// the envelopes and hands each to `accept`, the stage's crowd-ID rule.
/// Returns what `accept` kept, in arrival order, and how many reports were
/// rejected — undecryptable, malformed, or refused by `accept`.
pub(crate) fn peel_chunk<T>(
    reports: &[ClientReport],
    secret: &StaticSecret,
    accept: impl Fn(ShufflerEnvelope) -> Option<T>,
) -> (Vec<T>, usize) {
    let outers: Vec<&HybridCiphertext> = reports.iter().map(|report| &report.outer).collect();
    let accepted: Vec<T> = HybridCiphertext::open_batch(&outers, secret, SHUFFLER_AAD)
        .into_iter()
        .filter_map(|opened| accept(ShufflerEnvelope::from_bytes(&opened?).ok()?))
        .collect();
    let rejected = reports.len() - accepted.len();
    (accepted, rejected)
}

/// Randomized cardinality thresholding (§3.5), the one implementation both
/// topologies run: `keys` names each report's crowd — a hashed crowd ID for
/// the single shuffler, a blinded handle for Shuffler 2 — and the returned
/// mask says which reports survive. `None` bypasses thresholding and is
/// always kept.
///
/// Crowds are visited in key order (a `BTreeMap`: `HashMap` order is
/// randomized per process and broke seeded replay), and each makes its draws
/// in a fixed order — the drop count d ~ ⌊N(D, σ²)⌉, a shuffle of the
/// members to pick which d go, the threshold noise — so the mask and `stats`
/// are a pure function of `(keys, config, rng)`.
pub(crate) fn threshold_crowds<R: Rng + ?Sized>(
    keys: impl Iterator<Item = Option<[u8; 32]>>,
    config: &ShufflerConfig,
    stats: &mut ShufflerStats,
    rng: &mut R,
) -> Vec<bool> {
    let mut keep = Vec::new();
    let mut groups: BTreeMap<[u8; 32], Vec<usize>> = BTreeMap::new();
    for (idx, key) in keys.enumerate() {
        keep.push(key.is_none());
        if let Some(key) = key {
            groups.entry(key).or_default().push(idx);
        }
    }
    stats.crowds_seen = groups.len();

    let drop_dist = (config.drop_mean > 0.0 || config.drop_sigma > 0.0)
        .then(|| RoundedNormal::new(config.drop_mean, config.drop_sigma));
    let noise_dist = (config.threshold_noise_sigma > 0.0)
        .then(|| Gaussian::new(0.0, config.threshold_noise_sigma));

    for mut members in groups.into_values() {
        // Step 1: drop d ~ ⌊N(D, σ²)⌉ random reports from the crowd.
        if let Some(dist) = &drop_dist {
            let dropped = (dist.sample(rng) as usize).min(members.len());
            members.shuffle(rng);
            members.truncate(members.len() - dropped);
            stats.dropped_noise += dropped;
        }
        // Step 2: forward only crowds above the noisy threshold.
        let noise = noise_dist.as_ref().map_or(0.0, |d| d.sample(rng));
        if (members.len() as f64) > config.cardinality_threshold as f64 + noise {
            stats.crowds_forwarded += 1;
            for idx in members {
                keep[idx] = true;
            }
        } else {
            stats.dropped_threshold += members.len();
        }
    }
    keep
}

/// A single-organization ESA shuffler.
#[derive(Debug, Clone)]
pub struct Shuffler {
    keys: HybridKeypair,
    config: ShufflerConfig,
    enclave: Enclave,
}

impl Shuffler {
    /// Creates a shuffler with fresh keys.
    pub fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
        Self::with_keys(HybridKeypair::generate(rng), config)
    }

    /// Creates a shuffler with the given keypair.
    pub fn with_keys(keys: HybridKeypair, config: ShufflerConfig) -> Self {
        let enclave = Enclave::new(EnclaveConfig {
            code_identity: "prochlo-shuffler".to_string(),
            ..EnclaveConfig::default()
        });
        Self {
            keys,
            config,
            enclave,
        }
    }

    /// The public key clients embed for the outer encryption layer.
    pub fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// The shuffler's configuration.
    pub fn config(&self) -> &ShufflerConfig {
        &self.config
    }

    /// The enclave used for accounting.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Produces an attestation quote binding this shuffler's public key to
    /// the enclave measurement (§4.1.1).
    pub fn attest(&self, cpu: &CpuKey) -> Quote {
        cpu.quote(&self.enclave, &self.public_key().to_bytes())
    }

    /// Peels the outer encryption layer off every report, sharded across
    /// `num_threads` workers over fixed-size chunks, keeping each survivor's
    /// thresholding key (`None` for a report without a crowd) beside its
    /// inner ciphertext. A blinded crowd ID cannot be counted without the
    /// split topology's El Gamal key, so such a report is rejected like an
    /// undecryptable one — the mirror of Shuffler 1's rule for non-blinded
    /// reports; failing the batch instead would let one client void an epoch.
    ///
    /// The merge concatenates chunk results in chunk order, so survivors
    /// appear in arrival order exactly as a sequential loop would produce
    /// them, and the enclave is charged once for the whole batch *after* the
    /// parallel region so its accounting never depends on thread scheduling.
    fn peel(
        &self,
        reports: &[ClientReport],
        num_threads: usize,
        stats: &mut ShufflerStats,
    ) -> Vec<(Option<[u8; 32]>, Vec<u8>)> {
        let peeled = exec::par_chunks(
            reports,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                let (survivors, rejected) = peel_chunk(chunk, self.keys.secret(), |envelope| {
                    match envelope.crowd_id {
                        CrowdId::None => Some((None, envelope.inner)),
                        CrowdId::Hashed(hash) => Some((Some(hash), envelope.inner)),
                        CrowdId::Blinded(_) => None,
                    }
                });
                let wire_bytes: usize = chunk.iter().map(ClientReport::wire_len).sum();
                (survivors, rejected, wire_bytes)
            },
        );

        let mut survivors = Vec::with_capacity(reports.len());
        let mut batch_bytes = 0usize;
        for (chunk_survivors, rejected, wire_bytes) in peeled {
            survivors.extend(chunk_survivors);
            stats.rejected += rejected;
            batch_bytes += wire_bytes;
        }
        self.enclave
            .copy_in("shuffler-receive-batch", 0, batch_bytes);
        survivors
    }

    /// Applies [`threshold_crowds`] to the peeled batch and returns the
    /// surviving inner ciphertexts, still in arrival order.
    fn threshold<R: Rng + ?Sized>(
        &self,
        peeled: Vec<(Option<[u8; 32]>, Vec<u8>)>,
        stats: &mut ShufflerStats,
        rng: &mut R,
    ) -> Vec<Vec<u8>> {
        let keys = peeled.iter().map(|(key, _)| *key);
        let keep = threshold_crowds(keys, &self.config, stats, rng);
        // Charge the enclave for one counter per crowd (the in-enclave
        // counting pass of §4.1.5).
        for _ in 0..stats.crowds_seen {
            self.enclave.copy_in("shuffler-crowd-counter", 0, 8);
        }
        peeled
            .into_iter()
            .zip(keep)
            .filter_map(|((_, inner), kept)| kept.then_some(inner))
            .collect()
    }

    /// Runs the configured engine over the surviving inner ciphertexts,
    /// reporting its wall-clock and attempts through the obs registry
    /// (`shuffle.<backend>.run` / `shuffle.<backend>.attempts`).
    fn shuffle_survivors<R: Rng + ?Sized>(
        &self,
        engine: &EngineConfig,
        num_threads: usize,
        items: Vec<Vec<u8>>,
        stats: &mut ShufflerStats,
        rng: &mut R,
    ) -> Result<Vec<Vec<u8>>, PipelineError> {
        let engine_impl = engine.backend.engine(self.enclave.clone(), num_threads);
        let name = engine_impl.name();
        stats.backend = name;
        // The engine consumes exactly one value from the master epoch
        // stream and draws everything else from its own derived generator,
        // so the stream's position after the shuffle is independent of the
        // backend, its attempts, and its thread count.
        let mut engine_rng = StdRng::seed_from_u64(rng.next_u64());
        let mut engine_stats = EngineStats::default();
        let span = prochlo_obs::span(&format!("shuffle.{name}.run"));
        let result = engine_impl.shuffle(items, &mut engine_rng, &mut engine_stats);
        span.finish();
        let items = result?;
        prochlo_obs::counter(&format!("shuffle.{name}.attempts")).add(engine_stats.attempts as u64);
        stats.shuffle_attempts = engine_stats.attempts;
        Ok(items)
    }
}

impl ShufflerRole for Shuffler {
    fn topology(&self) -> Topology {
        Topology::Single
    }

    fn outer_public_key(&self) -> &PublicKey {
        self.public_key()
    }

    fn default_engine(&self) -> EngineConfig {
        self.config.engine_config()
    }

    /// Peel, strip metadata, randomized thresholding, oblivious shuffle.
    ///
    /// Output is a pure function of `(reports, rng)` for any thread count:
    /// peeling is sharded over fixed-size chunks with an in-order merge, the
    /// threshold draws stay on the caller's stream, and the engine is seeded
    /// with exactly one draw from that stream.
    fn process(
        &self,
        engine: &EngineConfig,
        reports: &[ClientReport],
        rng: &mut dyn RngCore,
    ) -> Result<ShuffleOutcome, PipelineError> {
        if reports.len() < self.config.min_batch_size {
            return Err(PipelineError::BatchTooSmall {
                received: reports.len(),
                minimum: self.config.min_batch_size,
            });
        }
        let mut stats = ShufflerStats {
            received: reports.len(),
            ..ShufflerStats::default()
        };
        let num_threads = exec::resolve_threads(engine.num_threads)?;

        // Phase 1: peel the outer layer inside the enclave (parallel);
        // transport metadata is dropped here and never referenced again.
        let span = prochlo_obs::span("shuffler.peel");
        let peeled = self.peel(reports, num_threads, &mut stats);
        stats.timings.peel_seconds = span.finish();

        // Phase 2: randomized cardinality thresholding per crowd (§3.5).
        let span = prochlo_obs::span("shuffler.threshold");
        let survivors = self.threshold(peeled, &mut stats, rng);
        stats.timings.threshold_seconds = span.finish();

        // Phase 3: oblivious shuffle of the surviving inner ciphertexts.
        let span = prochlo_obs::span("shuffler.shuffle");
        let items = self.shuffle_survivors(engine, num_threads, survivors, &mut stats, rng)?;
        stats.timings.shuffle_seconds = span.finish();

        stats.forwarded = items.len();
        Ok(ShuffleOutcome {
            items,
            stage_stats: vec![stats.clone()],
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{ClientKeys, CrowdStrategy, Encoder};
    use prochlo_sgx::AttestationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng, config: ShufflerConfig) -> (Encoder, Shuffler, HybridKeypair) {
        let analyzer = HybridKeypair::generate(rng);
        let shuffler = Shuffler::new(config, rng);
        let keys = ClientKeys {
            shuffler: *shuffler.public_key(),
            analyzer: *analyzer.public_key(),
            crowd_blinding: None,
        };
        (Encoder::new(keys, 32), shuffler, analyzer)
    }

    /// Runs one batch on the engine the shuffler is configured with.
    fn process(
        shuffler: &Shuffler,
        reports: &[ClientReport],
        rng: &mut StdRng,
    ) -> Result<ShuffleOutcome, PipelineError> {
        shuffler.process(&shuffler.default_engine(), reports, rng)
    }

    fn reports_for_crowd(
        encoder: &Encoder,
        crowd: &[u8],
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<ClientReport> {
        (0..count)
            .map(|i| {
                encoder
                    .encode_plain(crowd, CrowdStrategy::Hash(crowd), i as u64, rng)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn engine_config_rejects_unknown_backend_names_listing_valid_ones() {
        for valid in ShuffleBackend::all() {
            let parsed = EngineConfig::from_backend_value(Some(valid.name())).unwrap();
            assert_eq!(parsed.backend.name(), valid.name());
            assert_eq!(parsed.num_threads, 0);
        }
        assert_eq!(
            EngineConfig::from_backend_value(None)
                .unwrap()
                .backend
                .name(),
            ShuffleBackend::default().name()
        );
        let err = EngineConfig::from_backend_value(Some("fisher-yates")).unwrap_err();
        match &err {
            PipelineError::UnknownBackend { name } => assert_eq!(name, "fisher-yates"),
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
        // The message enumerates every valid name from ShuffleBackend::all(),
        // so an operator can fix the knob without reading source.
        let message = err.to_string();
        assert!(message.contains("fisher-yates"), "{message}");
        for valid in ShuffleBackend::all() {
            assert!(message.contains(valid.name()), "{message}");
        }
    }

    #[test]
    fn small_crowds_are_dropped_large_crowds_survive() {
        let mut rng = StdRng::seed_from_u64(1);
        let (encoder, shuffler, _analyzer) = setup(&mut rng, ShufflerConfig::default());
        let mut reports = reports_for_crowd(&encoder, b"popular", 200, &mut rng);
        reports.extend(reports_for_crowd(&encoder, b"rare", 5, &mut rng));
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.received, 205);
        assert_eq!(batch.stats.crowds_seen, 2);
        assert_eq!(batch.stats.crowds_forwarded, 1);
        // The popular crowd survives minus the ~10 randomly dropped reports;
        // the rare crowd disappears entirely.
        assert!(batch.stats.forwarded >= 180 && batch.stats.forwarded <= 195);
        assert!(batch.stats.dropped_threshold <= 5);
        assert!(batch.stats.dropped_noise >= 10);
    }

    #[test]
    fn threshold_crowds_accounts_for_every_report_and_replays_exactly() {
        let mut gen = StdRng::seed_from_u64(0x7c);
        for case in 0..300u64 {
            // Up to 12 crowds of uneven popularity, some reports crowdless.
            let crowds = gen.gen_range(1..=12usize);
            let keys: Vec<Option<[u8; 32]>> = (0..gen.gen_range(0..400usize))
                .map(|_| {
                    let crowd = gen.gen_range(0..crowds) * gen.gen_range(0..=1usize);
                    (!gen.gen_bool(0.1)).then_some([crowd as u8; 32])
                })
                .collect();
            let config = ShufflerConfig {
                cardinality_threshold: gen.gen_range(0..40),
                threshold_noise_sigma: gen.gen_range(0.0..4.0),
                drop_mean: gen.gen_range(0.0..15.0),
                drop_sigma: gen.gen_range(0.0..4.0),
                ..ShufflerConfig::default()
            };
            let run = |config: &ShufflerConfig| {
                let mut rng = StdRng::seed_from_u64(case);
                let mut stats = ShufflerStats::default();
                let keep = threshold_crowds(keys.iter().copied(), config, &mut stats, &mut rng);
                (keep, stats, rng.next_u64())
            };
            let first = run(&config);
            assert_eq!(run(&config), first, "seeded replay is exact (case {case})");
            let (keep, stats, _) = first;
            assert_eq!(keep.len(), keys.len());
            let keyed = keys.iter().flatten().count();
            let kept_keyed = keys
                .iter()
                .zip(&keep)
                .filter(|(k, &kept)| k.is_some() && kept);
            assert_eq!(
                kept_keyed.count() + stats.dropped_noise + stats.dropped_threshold,
                keyed,
                "case {case}"
            );
            assert!(keys.iter().zip(&keep).all(|(k, &kept)| k.is_some() || kept));
            assert!(stats.crowds_forwarded <= stats.crowds_seen);

            // Without thresholding everything survives and nothing is drawn.
            let (keep, stats, next) = run(&config.without_thresholding());
            assert!(keep.iter().all(|&kept| kept));
            assert_eq!(stats.crowds_forwarded, stats.crowds_seen);
            assert_eq!(next, StdRng::seed_from_u64(case).next_u64());
        }
    }

    #[test]
    fn no_crowd_reports_bypass_thresholding() {
        let mut rng = StdRng::seed_from_u64(2);
        let (encoder, shuffler, _analyzer) = setup(&mut rng, ShufflerConfig::default());
        let reports: Vec<ClientReport> = (0..5)
            .map(|i| {
                encoder
                    .encode_plain(b"anything", CrowdStrategy::None, i, &mut rng)
                    .unwrap()
            })
            .collect();
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.forwarded, 5);
        assert_eq!(batch.stats.dropped_noise, 0);
    }

    #[test]
    fn without_thresholding_forwards_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let (encoder, shuffler, _analyzer) =
            setup(&mut rng, ShufflerConfig::default().without_thresholding());
        let reports = reports_for_crowd(&encoder, b"tiny", 3, &mut rng);
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.forwarded, 3);
    }

    #[test]
    fn min_batch_size_is_enforced() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = ShufflerConfig {
            min_batch_size: 10,
            ..ShufflerConfig::default()
        };
        let (encoder, shuffler, _analyzer) = setup(&mut rng, config);
        let reports = reports_for_crowd(&encoder, b"c", 3, &mut rng);
        assert!(matches!(
            process(&shuffler, &reports, &mut rng),
            Err(PipelineError::BatchTooSmall {
                received: 3,
                minimum: 10
            })
        ));
    }

    #[test]
    fn undecryptable_reports_are_rejected_not_fatal() {
        let mut rng = StdRng::seed_from_u64(5);
        let (encoder, shuffler, _analyzer) =
            setup(&mut rng, ShufflerConfig::default().without_thresholding());
        let mut reports = reports_for_crowd(&encoder, b"ok", 30, &mut rng);
        // A report encrypted to a *different* shuffler cannot be peeled.
        let other = Shuffler::new(ShufflerConfig::default(), &mut rng);
        let foreign_keys = ClientKeys {
            shuffler: *other.public_key(),
            analyzer: *HybridKeypair::generate(&mut rng).public_key(),
            crowd_blinding: None,
        };
        let foreign_encoder = Encoder::new(foreign_keys, 32);
        reports.push(
            foreign_encoder
                .encode_plain(b"x", CrowdStrategy::None, 99, &mut rng)
                .unwrap(),
        );
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.rejected, 1);
        assert_eq!(batch.stats.forwarded, 30);
    }

    #[test]
    fn output_order_is_not_arrival_order() {
        let mut rng = StdRng::seed_from_u64(6);
        let (encoder, shuffler, analyzer) =
            setup(&mut rng, ShufflerConfig::default().without_thresholding());
        let reports: Vec<ClientReport> = (0..100)
            .map(|i| {
                encoder
                    .encode_plain(
                        format!("item-{i}").as_bytes(),
                        CrowdStrategy::None,
                        i,
                        &mut rng,
                    )
                    .unwrap()
            })
            .collect();
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        // Decrypt in output order and compare against arrival order.
        let analyzer_obj = crate::analyzer::Analyzer::new(analyzer);
        let db = analyzer_obj.ingest_items(&batch.items).unwrap();
        let decoded: Vec<String> = db
            .rows()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        let arrival: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        assert_ne!(decoded, arrival);
    }

    #[test]
    fn sgx_backend_produces_same_multiset_as_trusted() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = ShufflerConfig {
            backend: ShuffleBackend::Sgx { params: None },
            ..ShufflerConfig::default().without_thresholding()
        };
        let (encoder, shuffler, analyzer) = setup(&mut rng, config);
        let reports: Vec<ClientReport> = (0..80)
            .map(|i| {
                encoder
                    .encode_plain(format!("v{i}").as_bytes(), CrowdStrategy::None, i, &mut rng)
                    .unwrap()
            })
            .collect();
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.forwarded, 80);
        assert!(batch.stats.shuffle_attempts >= 1);
        let analyzer_obj = crate::analyzer::Analyzer::new(analyzer);
        let db = analyzer_obj.ingest_items(&batch.items).unwrap();
        let mut values: Vec<String> = db
            .rows()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        values.sort();
        let mut expected: Vec<String> = (0..80).map(|i| format!("v{i}")).collect();
        expected.sort();
        assert_eq!(values, expected);
    }

    #[test]
    fn blinded_crowd_ids_are_rejected_by_single_shuffler() {
        let mut rng = StdRng::seed_from_u64(8);
        let (encoder, shuffler, analyzer) = setup(&mut rng, ShufflerConfig::default());
        let elgamal = prochlo_crypto::elgamal::ElGamalKeypair::generate(&mut rng);
        let keys = ClientKeys {
            shuffler: *shuffler.public_key(),
            analyzer: *analyzer.public_key(),
            crowd_blinding: Some(*elgamal.public_key()),
        };
        let blinding_encoder = Encoder::new(keys, 32);
        let mut reports = reports_for_crowd(&encoder, b"w", 30, &mut rng);
        for i in 0..3 {
            let hostile = blinding_encoder
                .encode_plain(b"w", CrowdStrategy::Blind(b"w"), i, &mut rng)
                .unwrap();
            reports.insert(10 * i as usize, hostile);
        }
        // The batch is processed; the blinded reports are counted and
        // dropped, and the 30 hashed ones are thresholded as one crowd.
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.received, 33);
        assert_eq!(batch.stats.rejected, 3);
        assert_eq!(batch.stats.crowds_seen, 1);
        assert_eq!(
            batch.stats.forwarded + batch.stats.dropped_noise + batch.stats.dropped_threshold,
            30
        );
    }

    #[test]
    fn attestation_binds_public_key() {
        let mut rng = StdRng::seed_from_u64(9);
        let shuffler = Shuffler::new(ShufflerConfig::default(), &mut rng);
        let authority = AttestationAuthority::from_seed(b"intel");
        let cpu = authority.provision_cpu(b"cpu-1");
        let quote = shuffler.attest(&cpu);
        let verifier = prochlo_sgx::QuoteVerifier::new(
            authority.root_key(),
            vec![shuffler.enclave().measurement()],
        );
        let report_data = verifier.verify(&quote).unwrap();
        assert_eq!(report_data, shuffler.public_key().to_bytes());
    }
}
