//! The ESA shuffler: batching, metadata stripping, randomized cardinality
//! thresholding and oblivious shuffling (§3.3, §3.5, §4.1).
//!
//! A batch enters through one function,
//! `ShufflerRole::process`,
//! which checks the batch against [`ShufflerConfig::min_batch_size`] and
//! matches the topology once. The single shuffler then runs three explicit
//! phases, each timed independently:
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
//! 3. **shuffle** — one `match` on the configured [`ShuffleBackend`]: one
//!    Fisher–Yates pass (trusted) or the Stash Shuffle on the shuffler's
//!    enclave. The backend is seeded with exactly one draw from the master
//!    stream, so the stream position never depends on the backend or its
//!    internal parallelism.

pub mod engine;
pub mod split;

use std::borrow::Borrow;
use std::collections::BTreeMap;

use prochlo_obs::Unmeasured;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::{PublicKey, StaticSecret};
use prochlo_sgx::{CpuKey, Enclave, EnclaveConfig, Quote};
use prochlo_shuffle::{StashShuffle, StashShuffleParams};
use prochlo_stats::{Gaussian, RoundedNormal};

use crate::encoder::SHUFFLER_AAD;
use crate::error::PipelineError;
use crate::exec;
use crate::record::{ClientReport, CrowdId, ShufflerEnvelope};

/// Which shuffling backend the shuffler uses once the batch has been peeled
/// and thresholded; code chooses it and the shuffler matches on it once per
/// batch. These are the two shufflers Prochlo runs; the §4.1.3 baselines it
/// rejects exist only as cost models in `prochlo-bench`.
#[derive(Debug, Clone, Default)]
pub enum ShuffleBackend {
    /// A trusted in-memory shuffle (a shuffler hosted by an independent
    /// third party, per §3.3): one Fisher–Yates pass, the algorithm both
    /// split stages run too.
    #[default]
    Trusted,
    /// The SGX-hardened Stash Shuffle (§4.1.4); parameters are derived from
    /// the batch size when not given.
    Sgx {
        /// Explicit Stash Shuffle parameters; `None` derives them per batch.
        params: Option<StashShuffleParams>,
    },
}

/// Which engine shuffled a batch, as [`ShufflerStats`] records it: a
/// [`ShuffleBackend`] without its parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// [`ShuffleBackend::Trusted`]; also what both split stages run.
    #[default]
    Trusted,
    /// [`ShuffleBackend::Sgx`], the Stash Shuffle.
    Stash,
}

impl BackendKind {
    /// The stable name used for span names and logging.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Trusted => "trusted",
            BackendKind::Stash => "stash",
        }
    }
}

/// Runtime configuration of the shuffle engine: which backend to run and
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
    /// Minimum number of reports before a batch is processed, in either
    /// topology.
    pub min_batch_size: usize,
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
            num_threads: 0,
        }
    }
}

impl ShufflerConfig {
    /// Disables thresholding entirely (the "NoCrowd" experiment): every
    /// report is forwarded and no noise is applied.
    pub fn without_thresholding(mut self) -> Self {
        self.cardinality_threshold = 0;
        self.threshold_noise_sigma = 0.0;
        self.drop_mean = 0.0;
        self.drop_sigma = 0.0;
        self
    }

    /// The engine a batch runs with when neither the deployment nor the
    /// epoch names one: the trusted backend on this configuration's
    /// `num_threads`.
    pub(crate) fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            backend: ShuffleBackend::Trusted,
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
    /// Received reports that copy an earlier one's outer ciphertext
    /// exactly: replays, which are still counted (see
    /// [`crate::canonicalize`]).
    pub duplicate_reports: usize,
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
    /// The engine that shuffled the batch.
    pub backend: BackendKind,
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
pub(crate) fn peel_chunk<R: Borrow<HybridCiphertext>, T>(
    reports: &[R],
    secret: &StaticSecret,
    accept: impl Fn(ShufflerEnvelope) -> Option<T>,
) -> (Vec<T>, usize) {
    let outers: Vec<&HybridCiphertext> = reports.iter().map(Borrow::borrow).collect();
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
/// randomized per process and broke seeded replay), and each makes the
/// draws of [`CrowdThreshold::draw`], so the mask and `stats` are a pure
/// function of `(keys, config, rng)`.
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

    let crowd_threshold = CrowdThreshold::new(config);
    for mut members in groups.into_values() {
        let (kept, released) = crowd_threshold.draw(&mut members, rng);
        stats.dropped_noise += members.len() - kept;
        if released {
            stats.crowds_forwarded += 1;
            for &idx in &members[..kept] {
                keep[idx] = true;
            }
        } else {
            stats.dropped_threshold += kept;
        }
    }
    keep
}

/// One crowd's randomized threshold under a [`ShufflerConfig`]: the draw
/// `threshold_crowds` makes per crowd and [`ThresholdProfile`] accounts
/// for. A zero drop (mean and σ both 0) and a zero noise σ draw nothing.
#[derive(Debug, Clone, Copy)]
pub struct CrowdThreshold {
    threshold: f64,
    drop: Option<RoundedNormal>,
    noise: Option<Gaussian>,
}

impl CrowdThreshold {
    /// The per-crowd draw `config` describes.
    pub fn new(config: &ShufflerConfig) -> Self {
        Self {
            threshold: config.cardinality_threshold as f64,
            drop: (config.drop_mean > 0.0 || config.drop_sigma > 0.0)
                .then(|| RoundedNormal::new(config.drop_mean, config.drop_sigma)),
            noise: (config.threshold_noise_sigma > 0.0)
                .then(|| Gaussian::new(0.0, config.threshold_noise_sigma)),
        }
    }

    /// Thresholds one crowd, drawing in the order seeded replay depends on:
    /// the drop count d ~ ⌊N(D, σ²)⌉ clamped at 0, a shuffle of `members`
    /// to pick which d go, the threshold noise. Returns how many members
    /// survive the drop — they are the first ones in `members` — and
    /// whether they outnumber T plus the noise, i.e. are released.
    pub fn draw<T, R: Rng + ?Sized>(&self, members: &mut [T], rng: &mut R) -> (usize, bool) {
        let mut kept = members.len();
        if let Some(drop) = &self.drop {
            kept -= (drop.sample(rng) as usize).min(kept);
            members.shuffle(rng);
        }
        let noise = self.noise.as_ref().map_or(0.0, |d| d.sample(rng));
        (kept, kept as f64 > self.threshold + noise)
    }
}

/// The exact (ε, δ) profile of [`CrowdThreshold::draw`] under one
/// [`ShufflerConfig`], from the draw's output probabilities. Both topologies
/// threshold through `threshold_crowds`, so one profile covers both.
///
/// A crowd of n reports releases m = n − min(d, n) of them when m exceeds
/// T + N(0, σ²), so P_n(m) = P(min(d, n) = n − m) · Φ((m − T)/σ); a
/// suppressed or empty crowd is absent from the output (⊥). Neighbouring
/// inputs differ in one user's report, so the profile compares crowds of n
/// and n + 1, in both directions, for n up to T + D + 12σ: past that every
/// pair is the last one shifted. A crowd of n + 1 can release all n + 1 and
/// a crowd of n never can, so δ is at least P(d = 0) at every ε.
#[derive(Debug, Clone)]
pub struct ThresholdProfile {
    /// `outputs[n][m]`: P_n(m), with m = 0 standing for ⊥.
    outputs: Vec<Vec<f64>>,
}

impl ThresholdProfile {
    /// The profile of `config`'s per-crowd draw.
    pub fn new(config: &ShufflerConfig) -> Self {
        let (mean, sigma) = (config.drop_mean, config.drop_sigma);
        let threshold = config.cardinality_threshold as f64;
        let noise = config.threshold_noise_sigma;
        let largest = (threshold + mean.max(0.0) + 12.0 * sigma.max(noise)).ceil() as usize + 1;
        // P(d = k): d rounds half away from zero, so d = 0 below 0.5.
        let drops: Vec<f64> = (0..=largest)
            .map(|k| {
                let (lo, hi) = (k as f64 - 0.5, k as f64 + 0.5);
                if k == 0 {
                    normal_below(hi, mean, sigma)
                } else if lo >= mean {
                    normal_at_or_above(lo, mean, sigma) - normal_at_or_above(hi, mean, sigma)
                } else {
                    normal_below(hi, mean, sigma) - normal_below(lo, mean, sigma)
                }
            })
            .collect();
        let outputs = (0..=largest)
            .map(|n| {
                let mut row = vec![0.0; n + 1];
                // d ≥ n empties the crowd.
                row[0] = match n {
                    0 => 1.0,
                    _ => normal_at_or_above(n as f64 - 0.5, mean, sigma),
                };
                for (k, &dropped) in drops[..n].iter().enumerate() {
                    let m = (n - k) as f64;
                    row[n - k] = dropped * normal_below(m - threshold, 0.0, noise);
                    row[0] += dropped * normal_at_or_above(m - threshold, 0.0, noise);
                }
                row
            })
            .collect();
        Self { outputs }
    }

    /// P_n(m): the probability that a crowd of `n` reports releases `m` of
    /// them (`m = 0`: the crowd is absent), 0 for `m > n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` passes T + D + 12σ + 1.
    pub fn release_probability(&self, n: usize, m: usize) -> f64 {
        self.outputs[n].get(m).copied().unwrap_or(0.0)
    }

    /// The smallest δ for which the draw is (ε, δ)-differentially private:
    /// the largest Σ_o max(0, P_a(o) − e^ε · P_b(o)) over neighbouring crowd
    /// sizes a, b. At `ε = ∞` this is the floor, the mass of the outputs one
    /// neighbour can never produce.
    pub fn delta(&self, epsilon: f64) -> f64 {
        let bound = epsilon.exp();
        let excess = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .enumerate()
                .map(|(m, &pa)| match b.get(m) {
                    Some(&pb) if pb > 0.0 => (pa - bound * pb).max(0.0),
                    _ => pa,
                })
                .sum()
        };
        self.outputs
            .windows(2)
            .map(|pair| excess(&pair[0], &pair[1]).max(excess(&pair[1], &pair[0])))
            .fold(0.0, f64::max)
    }

    /// The smallest ε at which [`Self::delta`] meets `delta`, found by
    /// bisection; infinite when `delta` is below the floor.
    pub fn epsilon(&self, delta: f64) -> f64 {
        if self.delta(f64::INFINITY) > delta {
            return f64::INFINITY;
        }
        // Ends by hi = 1024 at the latest, where e^hi is infinite and
        // `self.delta(hi)` is the floor.
        let (mut lo, mut hi) = (0.0, 1.0);
        while self.delta(hi) > delta {
            (lo, hi) = (hi, 2.0 * hi);
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.delta(mid) > delta {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// P(X < x) for X ~ N(mean, σ²); σ = 0 is the point mass at `mean`. Read
/// from the lower tail, so a deep lower tail keeps its relative precision.
fn normal_below(x: f64, mean: f64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return f64::from(u8::from(mean < x));
    }
    0.5 * erfc((mean - x) / (sigma * std::f64::consts::SQRT_2))
}

/// P(X ≥ x) for X ~ N(mean, σ²), read from the upper tail.
fn normal_at_or_above(x: f64, mean: f64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return f64::from(u8::from(mean >= x));
    }
    0.5 * erfc((x - mean) / (sigma * std::f64::consts::SQRT_2))
}

/// The complementary error function (Numerical Recipes' Chebyshev fit:
/// fractional error below 1.2 × 10⁻⁷ everywhere, so deep tails stay
/// accurate relative to their size).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))));
    let ans = t * poly.exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
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
        let enclave = Enclave::new(EnclaveConfig {
            code_identity: "prochlo-shuffler".to_string(),
            ..EnclaveConfig::default()
        });
        Self {
            keys: HybridKeypair::generate(rng),
            config,
            enclave,
        }
    }

    /// The public key clients embed for the outer encryption layer.
    pub fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// The shuffler's configuration.
    pub(crate) fn config(&self) -> &ShufflerConfig {
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
    /// split topology's El Gamal key, so such a report is rejected, its
    /// bytes undecoded, like an undecryptable one — the mirror of Shuffler
    /// 1's rule for non-blinded reports; failing the batch instead would let
    /// one client void an epoch.
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

    /// Shuffles the surviving inner ciphertexts on the configured backend,
    /// reporting its wall-clock and attempts through the obs registry
    /// (`shuffle.<backend>.run` / `shuffle.<backend>.attempts`).
    fn shuffle_survivors<R: Rng + ?Sized>(
        &self,
        engine: &EngineConfig,
        num_threads: usize,
        mut items: Vec<Vec<u8>>,
        stats: &mut ShufflerStats,
        rng: &mut R,
    ) -> Result<Vec<Vec<u8>>, PipelineError> {
        let kind = engine.backend.kind();
        let name = kind.name();
        stats.backend = kind;
        // The backend consumes exactly one value from the master epoch
        // stream and draws everything else from its own derived generator,
        // so the stream's position after the shuffle is independent of the
        // backend, its attempts, and its thread count.
        let mut engine_rng = StdRng::seed_from_u64(rng.next_u64());
        let span = prochlo_obs::span(&format!("shuffle.{name}.run"));
        let result = match &engine.backend {
            ShuffleBackend::Trusted => {
                items.shuffle(&mut engine_rng);
                Ok((items, 1))
            }
            ShuffleBackend::Sgx { params } => {
                let params = params.unwrap_or_else(|| StashShuffleParams::derive(items.len()));
                StashShuffle::new(params, self.enclave.clone())
                    .with_threads(num_threads)
                    .shuffle(&items, &mut engine_rng)
                    .map(|output| (output.records, output.attempts))
            }
        };
        span.finish();
        let (items, attempts) = result?;
        prochlo_obs::counter(&format!("shuffle.{name}.attempts")).add(attempts as u64);
        stats.shuffle_attempts = attempts;
        Ok(items)
    }

    /// Peel, strip metadata, randomized thresholding, oblivious shuffle, on
    /// `num_threads` workers (a resolved count).
    /// `ShufflerRole::process` is
    /// the entry point: it checks the batch size first.
    ///
    /// Output is a pure function of `(reports, rng)` for any thread count:
    /// peeling is sharded over fixed-size chunks with an in-order merge, the
    /// threshold draws stay on the caller's stream, and the backend is
    /// seeded with exactly one draw from that stream.
    pub(crate) fn process_batch<R: Rng + ?Sized>(
        &self,
        engine: &EngineConfig,
        num_threads: usize,
        reports: &[ClientReport],
        rng: &mut R,
    ) -> Result<ShuffleOutcome, PipelineError> {
        let mut stats = ShufflerStats {
            received: reports.len(),
            ..ShufflerStats::default()
        };

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
    use crate::deployment::ShufflerRole;
    use crate::encoder::{ClientKeys, CrowdStrategy, Encoder};
    use prochlo_sgx::AttestationAuthority;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// Runs one batch through the topology's dispatch point, on the engine
    /// the shuffler's configuration names.
    fn process(
        shuffler: &Shuffler,
        reports: &[ClientReport],
        rng: &mut StdRng,
    ) -> Result<ShuffleOutcome, PipelineError> {
        let engine = shuffler.config().engine_config();
        ShufflerRole::Single(shuffler.clone()).process(&engine, reports, rng)
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

    /// A report sealed to `shuffler_key` whose blinded crowd field is 64
    /// bytes that are not curve points. Built by hand: the encoder only
    /// writes encrypted crowd IDs.
    pub(super) fn report_with_undecodable_blinded_crowd(
        shuffler_key: &PublicKey,
        client_index: u64,
        rng: &mut StdRng,
    ) -> ClientReport {
        let not_a_point = (0..=u8::MAX)
            .map(|byte| [byte; 32])
            .find(|bytes| PublicKey::from_bytes(*bytes).is_err())
            .unwrap();
        let envelope = ShufflerEnvelope {
            crowd_id: CrowdId::Blinded(std::array::from_fn(|i| not_a_point[i % 32])),
            inner: b"inner".to_vec(),
        };
        let outer =
            HybridCiphertext::seal(rng, shuffler_key, SHUFFLER_AAD, &envelope.to_bytes()).unwrap();
        ClientReport {
            outer,
            metadata: crate::record::TransportMetadata::synthetic(client_index),
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

    /// Perms' thresholding (§5.3) at a given drop mean.
    fn perms(drop_mean: f64) -> ShufflerConfig {
        ShufflerConfig {
            cardinality_threshold: 100,
            threshold_noise_sigma: 4.0,
            drop_mean,
            drop_sigma: 4.0,
            ..ShufflerConfig::default()
        }
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700).abs() < 1e-5);
    }

    #[test]
    fn normal_tails_match_known_values() {
        assert!((normal_at_or_above(0.0, 0.0, 1.0) - 0.5).abs() < 1e-6);
        assert!((normal_at_or_above(1.96, 0.0, 1.0) - 0.025).abs() < 5e-4);
        assert!((normal_below(-3.0, 0.0, 1.0) - 1.35e-3).abs() < 5e-5);
        // Deep tails keep a small relative error, from either side.
        let q = normal_at_or_above(4.25, 0.0, 1.0);
        assert!(q > 0.9e-5 && q < 1.2e-5, "Q(4.25) = {q}");
        assert_eq!(normal_below(-4.25, 0.0, 1.0), q);
        assert_eq!(
            normal_at_or_above(14.0, 10.0, 2.0),
            normal_at_or_above(2.0, 0.0, 1.0)
        );
        // σ = 0 is the point mass, split at the mean like `x > mean`.
        assert_eq!(normal_below(1.0, 1.0, 0.0), 0.0);
        assert_eq!(normal_at_or_above(1.0, 1.0, 0.0), 1.0);
    }

    #[test]
    fn every_crowd_size_s_outputs_sum_to_one() {
        let configs = [
            ShufflerConfig::default(),
            perms(22.0),
            ShufflerConfig {
                threshold_noise_sigma: 0.0,
                drop_sigma: 0.0,
                drop_mean: 2.5,
                ..ShufflerConfig::default()
            },
        ];
        for config in &configs {
            let profile = ThresholdProfile::new(config);
            for (n, row) in profile.outputs.iter().enumerate() {
                let total: f64 = row.iter().sum();
                assert!((total - 1.0).abs() < 1e-6, "n = {n}: {total}");
            }
        }
        // No noise and a fixed drop of 3 (2.5 rounds away from zero): a
        // crowd of 24 releases exactly 21.
        let fixed = ThresholdProfile::new(&configs[2]);
        assert_eq!(fixed.release_probability(24, 21), 1.0);
        // Without thresholding a crowd is released whole, so neighbours
        // never overlap.
        let open = ThresholdProfile::new(&ShufflerConfig::default().without_thresholding());
        assert_eq!(open.release_probability(1, 1), 1.0);
        assert_eq!(open.delta(f64::INFINITY), 1.0);
    }

    #[test]
    fn the_draw_s_output_frequencies_match_its_profile() {
        // Crowds of 30 under the default: the drop leaves ≈ 20 = T, so both
        // the drop and the threshold noise shape every output, ⊥ included.
        let config = ShufflerConfig::default();
        let profile = ThresholdProfile::new(&config);
        let draw = CrowdThreshold::new(&config);
        let mut rng = StdRng::seed_from_u64(30);
        let crowds = 20_000;
        let mut seen = [0u32; 31];
        for _ in 0..crowds {
            match draw.draw(&mut [(); 30], &mut rng) {
                (kept, true) => seen[kept] += 1,
                (_, false) => seen[0] += 1,
            }
        }
        for (m, &count) in seen.iter().enumerate() {
            let p = profile.release_probability(30, m);
            let (mean, sd) = (crowds as f64 * p, (crowds as f64 * p * (1.0 - p)).sqrt());
            assert!(
                (f64::from(count) - mean).abs() <= 5.0 * sd + 1.0,
                "m = {m}: {count} vs {mean}"
            );
        }
    }

    #[test]
    fn epsilon_search_is_consistent_with_delta() {
        for config in [ShufflerConfig::default(), perms(22.0)] {
            let profile = ThresholdProfile::new(&config);
            for delta in [1e-4, 1e-5, 1e-7] {
                let eps = profile.epsilon(delta);
                if eps.is_finite() {
                    assert!(profile.delta(eps) <= delta, "delta {delta}");
                    assert!(profile.delta(eps - 1e-6) > delta, "delta {delta}");
                } else {
                    assert!(profile.delta(f64::INFINITY) > delta, "delta {delta}");
                }
            }
        }
    }

    #[test]
    fn delta_decreases_with_epsilon() {
        // Strictly down to the floor P(d = 0), which no ε lifts.
        for config in [ShufflerConfig::default(), perms(22.0)] {
            let profile = ThresholdProfile::new(&config);
            let floor = profile.delta(f64::INFINITY);
            assert!(profile.delta(0.25) > floor);
            for eps in (1..12).map(|i| 0.25 * f64::from(i)) {
                let (d1, d2) = (profile.delta(eps), profile.delta(eps + 0.25));
                assert!(floor <= d2 && d2 <= d1, "epsilon {eps}: {d2} vs {d1}");
                assert!(d1 == floor || d2 < d1, "epsilon {eps}: {d2} vs {d1}");
            }
        }
    }

    #[test]
    fn the_default_s_delta_floor_is_a_whole_release() {
        // T = 20, D = 10, σ = 2: a crowd of n + 1 keeps all n + 1 reports
        // with P(d = 0) = P(N(10, 4) < 0.5), which no crowd of n matches.
        let profile = ThresholdProfile::new(&ShufflerConfig::default());
        let whole = normal_below(0.5, 10.0, 2.0);
        assert!((whole - 1.02e-6).abs() < 0.01e-6, "P(d = 0) = {whole}");
        assert_eq!(profile.delta(f64::INFINITY), whole);
        // The paper's §5 figure, (2.25, 10⁻⁶), lies below that floor.
        assert_eq!(profile.epsilon(1e-6), f64::INFINITY);
        let eps = profile.epsilon(1e-5);
        assert!((eps - 1.99).abs() < 0.01, "epsilon {eps}");
    }

    #[test]
    fn perms_meets_the_papers_figure_at_drop_mean_22() {
        let at_10 = ThresholdProfile::new(&perms(10.0));
        let floor = at_10.delta(f64::INFINITY);
        assert!((floor - 8.77e-3).abs() < 0.01e-3, "floor {floor}");
        assert_eq!(at_10.release_probability(140, 140), floor);
        assert_eq!(at_10.release_probability(139, 140), 0.0);
        // §5.3: "at least (ε = 1.2, δ = 10⁻⁷)".
        let eps = ThresholdProfile::new(&perms(22.0)).epsilon(1e-7);
        assert!((eps - 1.19).abs() < 0.01, "epsilon {eps}");
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
        // Nor can a blinded crowd ID be counted, decodable or not.
        reports.push(report_with_undecodable_blinded_crowd(
            shuffler.public_key(),
            100,
            &mut rng,
        ));
        let batch = process(&shuffler, &reports, &mut rng).unwrap();
        assert_eq!(batch.stats.rejected, 2);
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
        let db = analyzer_obj.ingest_items_parallel(&batch.items, 1).unwrap();
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
        let (encoder, shuffler, analyzer) =
            setup(&mut rng, ShufflerConfig::default().without_thresholding());
        let sgx = EngineConfig {
            backend: ShuffleBackend::Sgx { params: None },
            num_threads: 0,
        };
        let reports: Vec<ClientReport> = (0..80)
            .map(|i| {
                encoder
                    .encode_plain(format!("v{i}").as_bytes(), CrowdStrategy::None, i, &mut rng)
                    .unwrap()
            })
            .collect();
        let batch = ShufflerRole::Single(shuffler)
            .process(&sgx, &reports, &mut rng)
            .unwrap();
        assert_eq!(batch.stats.forwarded, 80);
        assert!(batch.stats.shuffle_attempts >= 1);
        let analyzer_obj = crate::analyzer::Analyzer::new(analyzer);
        let db = analyzer_obj.ingest_items_parallel(&batch.items, 1).unwrap();
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
