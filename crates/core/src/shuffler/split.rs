//! The split shuffler with blinded crowd IDs (§4.3).
//!
//! Two non-colluding parties jointly threshold on crowd IDs without either
//! seeing them in the clear:
//!
//! * **Shuffler 1** holds the hybrid key for the outer encryption layer. It
//!   peels reports, *blinds* each El Gamal-encrypted crowd ID with a
//!   per-batch secret exponent α (and re-randomizes it), shuffles the batch
//!   and forwards it. It never holds the El Gamal private key, so it cannot
//!   dictionary-attack the crowd IDs it relays.
//! * **Shuffler 2** holds the El Gamal private key. It decrypts each blinded
//!   crowd ID to the pseudonymous handle `α·H(crowd ID)` — equal handles
//!   mean equal crowd IDs, so it can count and apply the same randomized
//!   thresholding as the single shuffler — but without α it cannot test
//!   guesses against the handles. It shuffles again and forwards the inner
//!   ciphertexts to the analyzer.
//!
//! Both stages run their per-record elliptic-curve work on the chunked
//! executor in [`crate::exec`] and keep everything that consumes the stage
//! RNG sequential, so seeded output is byte-identical at any thread count:
//!
//! * Shuffler 1 peels in parallel chunks, then draws — sequentially, in
//!   arrival order — α and one re-randomization scalar per *surviving*
//!   record, then blinds and re-randomizes in parallel chunks with those
//!   pre-drawn scalars, then shuffles on the stage RNG.
//! * Shuffler 2 unblinds to handles in parallel chunks; the thresholding
//!   draws (`threshold_crowds`, the implementation the single shuffler
//!   runs over hashed crowd IDs) and the shuffle stay on the stage RNG.
//!
//! Each stage has one entry point that takes the resolved worker count —
//! [`ShufflerOne::process_batch`] and [`ShufflerTwo::process_batch`], which
//! is what a per-process service loop calls — and the pair runs in-process
//! through [`ShufflerRole::process`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use prochlo_crypto::edwards::{FixedBaseTable, Point};
use prochlo_crypto::elgamal::{BlindingSecret, ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::HybridKeypair;
use prochlo_crypto::{PublicKey, Scalar};

use crate::deployment::{ShufflerRole, Topology};
use crate::error::PipelineError;
use crate::exec;
use crate::record::{ClientReport, CrowdId};
use crate::shuffler::{
    peel_chunk, threshold_crowds, EngineConfig, ShuffleBackend, ShuffleOutcome, ShufflerConfig,
    ShufflerStats,
};

/// A report in transit between the two shufflers: the blinded crowd ID plus
/// the untouched inner ciphertext.
#[derive(Debug, Clone)]
pub struct BlindedRecord {
    /// The El Gamal ciphertext after blinding and re-randomization.
    pub blinded_crowd: ElGamalCiphertext,
    /// The inner ciphertext (sealed to the analyzer).
    pub inner: Vec<u8>,
}

/// Shuffler 1: peels, blinds, shuffles, forwards.
#[derive(Debug, Clone)]
pub struct ShufflerOne {
    keys: HybridKeypair,
    num_threads: usize,
}

/// Shuffler 2: unblinds to pseudonymous handles, thresholds, shuffles.
#[derive(Debug)]
pub struct ShufflerTwo {
    elgamal: ElGamalKeypair,
    config: ShufflerConfig,
}

/// The two-shuffler deployment as a unit.
#[derive(Debug)]
pub struct SplitShuffler {
    /// Shuffler 1 (outer-layer key holder).
    pub one: ShufflerOne,
    /// Shuffler 2 (El Gamal key holder, thresholder).
    pub two: ShufflerTwo,
}

impl ShufflerOne {
    /// Creates Shuffler 1 with fresh keys. `num_threads` is the worker
    /// count for its parallel phases, with the meaning of
    /// [`ShufflerConfig::num_threads`] (`0` defers to
    /// `PROCHLO_SHUFFLE_THREADS`, then every core).
    pub fn new<R: Rng + ?Sized>(num_threads: usize, rng: &mut R) -> Self {
        Self {
            keys: HybridKeypair::generate(rng),
            num_threads,
        }
    }

    /// The public key clients embed for the outer layer.
    pub fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// The configured worker count (`0` = defer to the environment knob).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Peels, blinds and shuffles one batch on `num_threads` workers (a
    /// resolved count; see [`exec::resolve_threads`]), forwarding blinded
    /// records together with this stage's own [`ShufflerStats`].
    ///
    /// Shuffler 1 never observes crowd IDs (that is the point of blinding),
    /// so `crowds_seen`/`crowds_forwarded` stay `0` in its stats and the
    /// thresholding counters are always zero; its stage is accounted under
    /// the backend name `"blind"`.
    ///
    /// Output is a pure function of `(reports, rng)`: every draw happens in
    /// the sequential middle pass, in the order a per-record loop would make
    /// them (α, then one scalar per record that peeled to a blinded crowd
    /// ID, in arrival order, then the shuffle).
    pub fn process_batch<R: Rng + ?Sized>(
        &self,
        num_threads: usize,
        reports: &[ClientReport],
        elgamal_public: &Point,
        rng: &mut R,
    ) -> (Vec<BlindedRecord>, ShufflerStats) {
        let peel_span = prochlo_obs::span("shuffler.s1.peel");
        // Parallel: peel, rejecting anything that is not a blinded crowd
        // ID — the split shuffler is only deployed for those; anything else
        // indicates a misconfigured encoder.
        let peeled = exec::par_chunks(
            reports,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                peel_chunk(chunk, self.keys.secret(), |envelope| {
                    match envelope.crowd_id {
                        CrowdId::Blinded(ct) => Some((*ct, envelope.inner)),
                        _ => None,
                    }
                })
            },
        );

        // Sequential, RNG only: the batch's α, then one re-randomization
        // scalar per surviving record in arrival order.
        let blinding = BlindingSecret::random(rng);
        let mut rejected = 0usize;
        let mut work: Vec<(ElGamalCiphertext, Scalar)> = Vec::with_capacity(reports.len());
        let mut inners: Vec<Vec<u8>> = Vec::with_capacity(reports.len());
        for (survivors, chunk_rejected) in peeled {
            rejected += chunk_rejected;
            for (crowd, inner) in survivors {
                work.push((crowd, Scalar::random_nonzero(rng)));
                inners.push(inner);
            }
        }

        // Parallel: blind with α, re-randomize with the pre-drawn scalar.
        // The El Gamal key is multiplied once per record, so it gets a
        // fixed-base table for the batch.
        let key_table = FixedBaseTable::new(elgamal_public);
        let blinded = exec::par_chunks(
            &work,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                chunk
                    .iter()
                    .map(|(ct, s)| ct.blind(&blinding).rerandomize(s, &key_table))
                    .collect::<Vec<_>>()
            },
        );
        let mut records: Vec<BlindedRecord> = blinded
            .into_iter()
            .flatten()
            .zip(inners)
            .map(|(blinded_crowd, inner)| BlindedRecord {
                blinded_crowd,
                inner,
            })
            .collect();
        let peel_seconds = peel_span.finish();

        let shuffle_span = prochlo_obs::span("shuffler.s1.shuffle");
        records.shuffle(rng);
        let mut stats = ShufflerStats {
            received: reports.len(),
            forwarded: records.len(),
            rejected,
            shuffle_attempts: 1,
            backend: "blind",
            ..ShufflerStats::default()
        };
        stats.timings.peel_seconds = peel_seconds;
        stats.timings.shuffle_seconds = shuffle_span.finish();
        (records, stats)
    }
}

impl ShufflerTwo {
    /// Creates Shuffler 2 with fresh El Gamal keys and the given thresholding
    /// configuration.
    pub fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
        Self {
            elgamal: ElGamalKeypair::generate(rng),
            config,
        }
    }

    /// The El Gamal public key clients use to encrypt crowd IDs.
    pub fn elgamal_public(&self) -> &Point {
        self.elgamal.public_key()
    }

    /// The thresholding configuration this shuffler applies.
    pub fn config(&self) -> &ShufflerConfig {
        &self.config
    }

    /// Unblinds crowd IDs to pseudonymous handles, applies randomized
    /// thresholding and shuffles, on `num_threads` workers (a resolved
    /// count). Only the unblinding is parallel; it draws nothing, so the
    /// output is a pure function of `(records, rng)`.
    pub fn process_batch<R: Rng + ?Sized>(
        &self,
        num_threads: usize,
        records: Vec<BlindedRecord>,
        rng: &mut R,
    ) -> (Vec<Vec<u8>>, ShufflerStats) {
        let peel_span = prochlo_obs::span("shuffler.s2.peel");
        let mut stats = ShufflerStats {
            received: records.len(),
            backend: "inline",
            ..ShufflerStats::default()
        };

        // Parallel: decrypt to handles, one batched compression per chunk.
        let handles = exec::par_chunks(
            &records,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                let points: Vec<Point> = chunk
                    .iter()
                    .map(|record| self.elgamal.decrypt(&record.blinded_crowd))
                    .collect();
                Point::batch_compress(&points)
            },
        );
        // Unblinding to handles is this stage's "peel".
        stats.timings.peel_seconds = peel_span.finish();

        // Equal handles are equal crowd IDs: the same thresholding as the
        // single shuffler, over handles instead of hashes.
        let threshold_span = prochlo_obs::span("shuffler.s2.threshold");
        let keys = handles.into_iter().flatten().map(|handle| Some(handle.0));
        let keep = threshold_crowds(keys, &self.config, &mut stats, rng);
        stats.timings.threshold_seconds = threshold_span.finish();

        let shuffle_span = prochlo_obs::span("shuffler.s2.shuffle");
        let mut survivors: Vec<Vec<u8>> = records
            .into_iter()
            .zip(keep)
            .filter_map(|(record, kept)| kept.then_some(record.inner))
            .collect();
        survivors.shuffle(rng);
        stats.forwarded = survivors.len();
        stats.shuffle_attempts = 1;
        stats.timings.shuffle_seconds = shuffle_span.finish();
        (survivors, stats)
    }
}

impl SplitShuffler {
    /// Creates both shufflers.
    pub fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
        Self {
            one: ShufflerOne::new(config.num_threads, rng),
            two: ShufflerTwo::new(config, rng),
        }
    }

    /// Draws the two per-stage sub-seeds one batch consumes from the
    /// master stream: Shuffler 1's first, Shuffler 2's second.
    ///
    /// Each stage runs on its own `StdRng` seeded from one `u64` — that is
    /// the whole interface between the batch's master randomness and the
    /// stages, which is what lets the two shufflers run in separate
    /// processes (each receives its sub-seed on the wire) while remaining
    /// byte-identical to the in-process run. A wire driver replaying a
    /// batch must draw the seeds with exactly this function.
    pub fn stage_seeds<R: Rng + ?Sized>(rng: &mut R) -> (u64, u64) {
        let s1_seed = rng.next_u64();
        let s2_seed = rng.next_u64();
        (s1_seed, s2_seed)
    }

    /// The split topology shuffles inline in both stages (Shuffler 1 after
    /// blinding, Shuffler 2 after thresholding) — effectively the trusted
    /// in-memory shuffle; enclave-hosted engines for the split deployment
    /// are a ROADMAP item. Selecting any other backend is therefore a hard
    /// error: silently downgrading an oblivious-engine request to the
    /// inline shuffle would be the same failure mode the
    /// `PROCHLO_SHUFFLE_BACKEND` rejection exists to prevent. Every driver
    /// of the split stages — in-process or over the wire — applies this one
    /// rule before it runs a batch.
    pub fn require_inline_engine(engine: &EngineConfig) -> Result<(), PipelineError> {
        if matches!(engine.backend, ShuffleBackend::Trusted) {
            Ok(())
        } else {
            Err(PipelineError::InvalidConfig(
                "the split topology shuffles inline and does not support \
                 enclave shuffle engines yet; use ShuffleBackend::Trusted \
                 or the single topology",
            ))
        }
    }

    /// Both stages back to back on `num_threads` workers (a resolved count),
    /// each on its own `StdRng` seeded from its sub-seed — what a networked
    /// deployment does with the seeds its driver ships to each shuffler
    /// process. Returns the shuffled inner ciphertexts with both a merged
    /// batch-level view and the per-stage statistics (Shuffler 1 first).
    fn run_stages(
        &self,
        num_threads: usize,
        reports: &[ClientReport],
        s1_seed: u64,
        s2_seed: u64,
    ) -> ShuffleOutcome {
        let mut rng_one = StdRng::seed_from_u64(s1_seed);
        let (blinded, stage_one) = self.one.process_batch(
            num_threads,
            reports,
            self.two.elgamal_public(),
            &mut rng_one,
        );
        let mut rng_two = StdRng::seed_from_u64(s2_seed);
        let (items, stage_two) = self.two.process_batch(num_threads, blinded, &mut rng_two);
        let stats = Self::merge_stage_stats(reports.len(), &stage_one, &stage_two);
        ShuffleOutcome {
            items,
            stats,
            stage_stats: vec![stage_one, stage_two],
        }
    }

    /// The merged batch-level view of a split run, preserving the
    /// pre-redesign contract: batch-level counts span both stages
    /// (`received` is what entered Shuffler 1, `rejected` is what its peel
    /// refused), everything else is the thresholding stage's accounting.
    /// Timings combine phase-wise across the stages. Public so a wire
    /// driver that ran the stages remotely can reassemble the identical
    /// merged view from the per-stage stats it received.
    pub fn merge_stage_stats(
        received: usize,
        stage_one: &ShufflerStats,
        stage_two: &ShufflerStats,
    ) -> ShufflerStats {
        let mut stats = stage_two.clone();
        stats.rejected = stage_one.rejected;
        stats.received = received;
        stats.timings.peel_seconds =
            stage_one.timings.peel_seconds + stage_two.timings.peel_seconds;
        stats.timings.shuffle_seconds =
            stage_one.timings.shuffle_seconds + stage_two.timings.shuffle_seconds;
        stats
    }
}

impl ShufflerRole for SplitShuffler {
    fn topology(&self) -> Topology {
        Topology::Split
    }

    fn outer_public_key(&self) -> &PublicKey {
        self.one.public_key()
    }

    fn crowd_blinding_key(&self) -> Option<&Point> {
        Some(self.two.elgamal_public())
    }

    /// The engine embedded in the shuffler configuration — including a
    /// configured non-trusted backend, which [`Self::process`] then rejects
    /// loudly rather than silently running the inline shuffle instead of
    /// the oblivious engine the configuration asked for.
    fn default_engine(&self) -> EngineConfig {
        self.two.config.engine_config()
    }

    /// Runs a batch through both shufflers. The engine must pass
    /// [`SplitShuffler::require_inline_engine`]; its thread count sizes both
    /// stages' parallel phases (Shuffler 1's peel and blind, Shuffler 2's
    /// unblind) and never changes the output. Consumes exactly two `u64`s
    /// from `rng` (see [`SplitShuffler::stage_seeds`]); everything else each
    /// stage does derives from its own sub-seed.
    fn process(
        &self,
        engine: &EngineConfig,
        reports: &[ClientReport],
        rng: &mut dyn RngCore,
    ) -> Result<ShuffleOutcome, PipelineError> {
        Self::require_inline_engine(engine)?;
        let num_threads = exec::resolve_threads(engine.num_threads)?;
        let (s1_seed, s2_seed) = Self::stage_seeds(rng);
        Ok(self.run_stages(num_threads, reports, s1_seed, s2_seed))
    }

    fn as_split(&self) -> Option<&SplitShuffler> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{ClientKeys, CrowdStrategy, Encoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (Encoder, SplitShuffler, HybridKeypair) {
        let analyzer = HybridKeypair::generate(rng);
        let split = SplitShuffler::new(ShufflerConfig::default(), rng);
        let keys = ClientKeys {
            shuffler: *split.one.public_key(),
            analyzer: *analyzer.public_key(),
            crowd_blinding: Some(*split.two.elgamal_public()),
        };
        (Encoder::new(keys, 32), split, analyzer)
    }

    /// Runs one batch on the engine the deployment is configured with.
    fn process(
        split: &SplitShuffler,
        reports: &[ClientReport],
        rng: &mut StdRng,
    ) -> ShuffleOutcome {
        split
            .process(&split.default_engine(), reports, rng)
            .unwrap()
    }

    fn blinded_reports(
        encoder: &Encoder,
        word: &[u8],
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<ClientReport> {
        (0..count)
            .map(|i| {
                encoder
                    .encode_plain(word, CrowdStrategy::Blind(word), i as u64, rng)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn blinded_thresholding_keeps_popular_crowds() {
        let mut rng = StdRng::seed_from_u64(1);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let mut reports = blinded_reports(&encoder, b"common-word", 120, &mut rng);
        reports.extend(blinded_reports(&encoder, b"rare-word", 4, &mut rng));
        let outcome = process(&split, &reports, &mut rng);
        assert_eq!(outcome.stats.crowds_seen, 2);
        assert_eq!(outcome.stats.crowds_forwarded, 1);
        let items = &outcome.items;
        assert!(items.len() >= 100 && items.len() <= 115, "{}", items.len());
        // Per-stage symmetry: Shuffler 1 saw every report but no crowds;
        // Shuffler 2 did the thresholding.
        assert_eq!(outcome.stage_stats.len(), 2);
        assert_eq!(outcome.stage_stats[0].backend, "blind");
        assert_eq!(outcome.stage_stats[0].received, 124);
        assert_eq!(outcome.stage_stats[0].crowds_seen, 0);
        assert_eq!(outcome.stage_stats[1].backend, "inline");
        assert_eq!(outcome.stage_stats[1].crowds_seen, 2);
        assert_eq!(outcome.stage_stats[1].forwarded, outcome.stats.forwarded);
    }

    #[test]
    fn shuffler_two_sees_handles_not_crowd_ids() {
        // The handle Shuffler 2 derives must not equal the unblinded
        // hash-to-group point of the crowd label (no dictionary attack).
        let mut rng = StdRng::seed_from_u64(2);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let report = &blinded_reports(&encoder, b"guessable", 1, &mut rng)[0];
        let (blinded, _) = split.one.process_batch(
            1,
            std::slice::from_ref(report),
            split.two.elgamal_public(),
            &mut rng,
        );
        let handle = split.two.elgamal.decrypt(&blinded[0].blinded_crowd);
        assert_ne!(handle, Point::hash_to_point(b"guessable"));
    }

    #[test]
    fn non_blinded_reports_are_rejected_by_shuffler_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let mut reports = blinded_reports(&encoder, b"w", 30, &mut rng);
        reports.push(
            encoder
                .encode_plain(b"w", CrowdStrategy::Hash(b"w"), 99, &mut rng)
                .unwrap(),
        );
        let outcome = process(&split, &reports, &mut rng);
        assert_eq!(outcome.stats.rejected, 1);
        assert_eq!(outcome.stage_stats[0].rejected, 1);
    }

    #[test]
    fn staged_seeds_reproduce_the_joint_run() {
        // The process-separability contract: drawing the two sub-seeds and
        // running the stages on their own RNGs (what the wire topology
        // does) is byte-identical to the joint in-process run.
        let mut rng = StdRng::seed_from_u64(7);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let reports = blinded_reports(&encoder, b"word", 80, &mut rng);
        let mut joint_rng = StdRng::seed_from_u64(99);
        let joint = process(&split, &reports, &mut joint_rng);
        let mut seed_rng = StdRng::seed_from_u64(99);
        let (s1_seed, s2_seed) = SplitShuffler::stage_seeds(&mut seed_rng);
        let staged = split.run_stages(2, &reports, s1_seed, s2_seed);
        assert_eq!(joint.items, staged.items);
        assert_eq!(joint.stats, staged.stats);
        assert_eq!(joint.stage_stats, staged.stage_stats);
    }

    #[test]
    fn output_is_identical_at_any_thread_count() {
        // The same keys at every thread count: the deployment is rebuilt
        // from one seed, only `num_threads` differs.
        let split_with = |num_threads: usize| {
            let config = ShufflerConfig {
                num_threads,
                ..ShufflerConfig::default()
            };
            SplitShuffler::new(config, &mut StdRng::seed_from_u64(21))
        };
        let mut rng = StdRng::seed_from_u64(22);
        let reference = split_with(1);
        let keys = |split: &SplitShuffler| ClientKeys {
            shuffler: *split.one.public_key(),
            analyzer: *HybridKeypair::generate(&mut StdRng::seed_from_u64(23)).public_key(),
            crowd_blinding: Some(*split.two.elgamal_public()),
        };
        let encoder = Encoder::new(keys(&reference), 32);
        let foreign = Encoder::new(
            keys(&SplitShuffler::new(ShufflerConfig::default(), &mut rng)),
            32,
        );
        // Eighteen draw-free executor chunks, with undecryptable outers and
        // non-blinded crowd IDs interleaved among the valid reports so
        // rejected records sit on both sides of every chunk border: the
        // draw-per-survivor rule decides which scalar each later record
        // gets.
        let total = 2 * exec::CHUNK_RECORDS + 150;
        let reports: Vec<ClientReport> = (0..total as u64)
            .map(|i| {
                let word = format!("w{}", i % 30);
                let label = word.as_bytes();
                if i % 7 == 3 {
                    foreign.encode_plain(label, CrowdStrategy::Blind(label), i, &mut rng)
                } else if i % 11 == 5 {
                    encoder.encode_plain(label, CrowdStrategy::Hash(label), i, &mut rng)
                } else {
                    encoder.encode_plain(label, CrowdStrategy::Blind(label), i, &mut rng)
                }
                .unwrap()
            })
            .collect();
        let rejected = (0..total).filter(|i| i % 7 == 3 || i % 11 == 5).count();

        let sequential = process(&reference, &reports, &mut StdRng::seed_from_u64(31));
        assert_eq!(sequential.stage_stats[0].rejected, rejected);
        assert_eq!(sequential.stage_stats[0].forwarded, total - rejected);
        assert!(sequential.stats.forwarded > 0);
        for num_threads in [2, 3, 8] {
            let parallel = process(
                &split_with(num_threads),
                &reports,
                &mut StdRng::seed_from_u64(31),
            );
            assert_eq!(parallel.items, sequential.items, "{num_threads} threads");
            assert_eq!(parallel.stats, sequential.stats, "{num_threads} threads");
            assert_eq!(
                parallel.stage_stats, sequential.stage_stats,
                "{num_threads} threads"
            );
        }
    }

    #[test]
    fn analyzer_can_decrypt_forwarded_items() {
        let mut rng = StdRng::seed_from_u64(4);
        let (encoder, split, analyzer) = setup(&mut rng);
        let reports = blinded_reports(&encoder, b"hello-world", 60, &mut rng);
        let outcome = process(&split, &reports, &mut rng);
        assert!(outcome.stats.forwarded > 20);
        let analyzer_obj = crate::analyzer::Analyzer::new(analyzer);
        let db = analyzer_obj.ingest_items(&outcome.items).unwrap();
        assert_eq!(
            db.histogram().count(b"hello-world".as_slice()),
            outcome.items.len() as u64
        );
    }
}
