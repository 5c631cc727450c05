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
//!   record, then blinds, re-randomizes and compresses in parallel chunks
//!   with those pre-drawn scalars, then shuffles on the stage RNG.
//! * Shuffler 2 decompresses and unblinds to handles in parallel chunks;
//!   the thresholding draws (`threshold_crowds`, the implementation the
//!   single shuffler runs over hashed crowd IDs) and the shuffle stay on
//!   the stage RNG.
//!
//! What passes between the stages, a [`BlindedRecord`], is already in wire
//! form: the blinded crowd ID as its 64-byte encoding and the inner
//! ciphertext as bytes. A fabric frame carries exactly that, so Shuffler 2
//! over the wire reads its records out of the received frame, and the
//! in-process pair pays the same encoding (two point decompressions per
//! record) that it models.
//!
//! Each stage has one entry point that takes the resolved worker count —
//! [`ShufflerOne::process_batch`] and [`ShufflerTwo::process_batch`], which
//! is what a per-process service loop calls — and the pair runs in-process
//! through `ShufflerRole::process`,
//! which checks the batch size and hands it to `SplitShuffler::process_batch`.

use std::borrow::Borrow;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use prochlo_crypto::edwards::{FixedBaseTable, Point};
use prochlo_crypto::elgamal::{BlindingSecret, ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::{CryptoError, PublicKey, Scalar};

use crate::error::PipelineError;
use crate::exec;
use crate::record::{ClientReport, CrowdId};
use crate::shuffler::{
    peel_chunk, threshold_crowds, BackendKind, EngineConfig, ShuffleBackend, ShuffleOutcome,
    ShufflerConfig, ShufflerStats,
};

/// A report in transit between the two shufflers, in its wire form: the
/// blinded crowd ID's 64-byte encoding plus the untouched inner ciphertext.
/// Shuffler 1 emits owned inners (`Vec<u8>`, as it peeled them); Shuffler 2
/// takes any byte container, so over the wire its records borrow their
/// inners from the received frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindedRecord<I = Vec<u8>> {
    /// The El Gamal ciphertext after blinding and re-randomization, as
    /// [`ElGamalCiphertext::to_bytes`] encodes it.
    pub blinded_crowd: [u8; 64],
    /// The inner ciphertext (sealed to the analyzer).
    pub inner: I,
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
    /// The comb table of `two`'s El Gamal public key, which Shuffler 1
    /// re-randomizes against: built once, not once per batch.
    elgamal_table: FixedBaseTable,
}

impl ShufflerOne {
    /// Creates Shuffler 1 with fresh keys. `num_threads` is the worker
    /// count for its parallel phases, with the meaning of
    /// [`ShufflerConfig::num_threads`] (`0` defers to
    /// `PROCHLO_SHUFFLE_THREADS`, then every core).
    pub(crate) fn new<R: Rng + ?Sized>(num_threads: usize, rng: &mut R) -> Self {
        Self {
            keys: HybridKeypair::generate(rng),
            num_threads,
        }
    }

    /// The public key clients embed for the outer layer.
    pub(crate) fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// The configured worker count (`0` = defer to the environment knob).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Peels, blinds and shuffles one batch of outer ciphertexts — a
    /// `&[ClientReport]`, or the bare ciphertexts a fabric frame carries —
    /// on `num_threads` workers (a resolved count; see
    /// [`exec::resolve_threads`]), forwarding blinded records together with
    /// this stage's own [`ShufflerStats`].
    /// `elgamal_table` is the comb table of Shuffler 2's El Gamal public
    /// key; a service builds it once, since every record is re-randomized
    /// against it.
    ///
    /// Shuffler 1 never observes crowd IDs (that is the point of blinding),
    /// so `crowds_seen`/`crowds_forwarded` stay `0` in its stats and the
    /// thresholding counters are always zero.
    ///
    /// Output is a pure function of `(reports, rng)`: every draw happens in
    /// the sequential middle pass, in the order a per-record loop would make
    /// them (α, then one scalar per record that peeled to a blinded crowd
    /// ID, in arrival order, then the shuffle).
    pub fn process_batch<T: Borrow<HybridCiphertext> + Sync, R: Rng + ?Sized>(
        &self,
        num_threads: usize,
        reports: &[T],
        elgamal_table: &FixedBaseTable,
        rng: &mut R,
    ) -> (Vec<BlindedRecord>, ShufflerStats) {
        let peel_span = prochlo_obs::span("shuffler.s1.peel");
        // Parallel: peel, then decode the crowd ID (the one place a client's
        // crowd ID is decoded), rejecting anything that is not a blinded
        // crowd ID of two curve points: a misconfigured or hostile encoder.
        let peeled = exec::par_chunks(
            reports,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                peel_chunk(chunk, self.keys.secret(), |envelope| {
                    match envelope.crowd_id {
                        CrowdId::Blinded(bytes) => {
                            Some((ElGamalCiphertext::from_bytes(&bytes).ok()?, envelope.inner))
                        }
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

        // Parallel: blind with α, re-randomize with the pre-drawn scalar
        // through the El Gamal key's comb table, and compress the chunk to
        // its wire encoding with one batched inversion.
        let blinded = exec::par_chunks(
            &work,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                let blinded: Vec<ElGamalCiphertext> = chunk
                    .iter()
                    .map(|(ct, s)| ct.blind(&blinding).rerandomize(s, elgamal_table))
                    .collect();
                ElGamalCiphertext::batch_to_bytes(&blinded)
            },
        );
        drop(work);
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
            backend: BackendKind::Trusted,
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
    pub(crate) fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
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
    /// count), returning the surviving inners in shuffled order. Only the
    /// unblinding is parallel; it draws nothing, so the output is a pure
    /// function of `(records, rng)`.
    ///
    /// A crowd ID whose encoding is not two curve points fails the whole
    /// batch with [`PipelineError::MalformedReport`] before any draw: the
    /// records come from Shuffler 1, so a bad one is corruption, not client
    /// garbage.
    pub fn process_batch<I: Sync, R: Rng + ?Sized>(
        &self,
        num_threads: usize,
        records: Vec<BlindedRecord<I>>,
        rng: &mut R,
    ) -> Result<(Vec<I>, ShufflerStats), PipelineError> {
        let peel_span = prochlo_obs::span("shuffler.s2.peel");
        let mut stats = ShufflerStats {
            received: records.len(),
            backend: BackendKind::Trusted,
            ..ShufflerStats::default()
        };

        // Parallel: decompress and decrypt to handles, one batched
        // compression per chunk.
        let handles = exec::par_chunks(
            &records,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                let points = chunk
                    .iter()
                    .map(|record| {
                        ElGamalCiphertext::from_bytes(&record.blinded_crowd)
                            .map(|crowd| self.elgamal.decrypt(&crowd))
                    })
                    .collect::<Result<Vec<Point>, _>>()?;
                Ok(Point::batch_compress(&points))
            },
        )
        .into_iter()
        .collect::<Result<Vec<_>, CryptoError>>()
        .map_err(|_| PipelineError::MalformedReport("invalid blinded crowd id"))?;
        // Unblinding to handles is this stage's "peel".
        stats.timings.peel_seconds = peel_span.finish();

        // Equal handles are equal crowd IDs: the same thresholding as the
        // single shuffler, over handles instead of hashes.
        let threshold_span = prochlo_obs::span("shuffler.s2.threshold");
        let keys = handles.into_iter().flatten().map(|handle| Some(handle.0));
        let keep = threshold_crowds(keys, &self.config, &mut stats, rng);
        stats.timings.threshold_seconds = threshold_span.finish();

        let shuffle_span = prochlo_obs::span("shuffler.s2.shuffle");
        let mut survivors: Vec<I> = records
            .into_iter()
            .zip(keep)
            .filter_map(|(record, kept)| kept.then_some(record.inner))
            .collect();
        survivors.shuffle(rng);
        stats.forwarded = survivors.len();
        stats.shuffle_attempts = 1;
        stats.timings.shuffle_seconds = shuffle_span.finish();
        Ok((survivors, stats))
    }
}

impl SplitShuffler {
    /// Creates both shufflers.
    pub(crate) fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
        let one = ShufflerOne::new(config.num_threads, rng);
        let two = ShufflerTwo::new(config, rng);
        let elgamal_table = FixedBaseTable::new(two.elgamal_public());
        Self {
            one,
            two,
            elgamal_table,
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
    /// blinding, Shuffler 2 after thresholding) with the trusted backend's
    /// one Fisher–Yates pass, so both stages report
    /// [`BackendKind::Trusted`]; enclave-hosted engines for the split
    /// deployment are a ROADMAP item. Selecting any other backend is
    /// therefore a hard error: silently downgrading an oblivious-engine
    /// request to the inline shuffle would drop the very property the
    /// caller asked for. Whatever runs the split stages — in-process or
    /// over the wire — applies this one rule before it runs a batch.
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

    /// Runs a batch through both shufflers on `num_threads` workers (a
    /// resolved count). The engine must pass [`Self::require_inline_engine`];
    /// the thread count sizes both stages' parallel phases (Shuffler 1's
    /// peel and blind, Shuffler 2's unblind) and never changes the output.
    /// Consumes exactly two `u64`s from `rng` (see [`Self::stage_seeds`]);
    /// everything else each stage does derives from its own sub-seed.
    pub(crate) fn process_batch<R: Rng + ?Sized>(
        &self,
        engine: &EngineConfig,
        num_threads: usize,
        reports: &[ClientReport],
        rng: &mut R,
    ) -> Result<ShuffleOutcome, PipelineError> {
        Self::require_inline_engine(engine)?;
        let (s1_seed, s2_seed) = Self::stage_seeds(rng);
        self.run_stages(num_threads, reports, s1_seed, s2_seed)
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
    ) -> Result<ShuffleOutcome, PipelineError> {
        let mut rng_one = StdRng::seed_from_u64(s1_seed);
        let (blinded, stage_one) =
            self.one
                .process_batch(num_threads, reports, &self.elgamal_table, &mut rng_one);
        let mut rng_two = StdRng::seed_from_u64(s2_seed);
        let (items, stage_two) = self.two.process_batch(num_threads, blinded, &mut rng_two)?;
        let stats = Self::merge_stage_stats(reports.len(), &stage_one, &stage_two);
        Ok(ShuffleOutcome {
            items,
            stats,
            stage_stats: vec![stage_one, stage_two],
        })
    }

    /// The merged batch-level view of a split run: batch-level counts span
    /// both stages (`received` is what entered Shuffler 1, `rejected` is
    /// what its peel refused), everything else is the thresholding stage's
    /// accounting.
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

    /// Runs one batch on the engine the configuration names.
    fn process(
        split: &SplitShuffler,
        reports: &[ClientReport],
        rng: &mut StdRng,
    ) -> ShuffleOutcome {
        let engine = split.two.config().engine_config();
        let num_threads = exec::resolve_threads(engine.num_threads).unwrap();
        split
            .process_batch(&engine, num_threads, reports, rng)
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
        assert_eq!(outcome.stage_stats[0].backend, BackendKind::Trusted);
        assert_eq!(outcome.stage_stats[0].received, 124);
        assert_eq!(outcome.stage_stats[0].crowds_seen, 0);
        assert_eq!(outcome.stage_stats[1].backend, BackendKind::Trusted);
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
            &split.elgamal_table,
            &mut rng,
        );
        let crowd = ElGamalCiphertext::from_bytes(&blinded[0].blinded_crowd).unwrap();
        let handle = split.two.elgamal.decrypt(&crowd);
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
        // A blinded crowd field that is not two curve points is refused
        // where Shuffler 1 decodes it.
        reports.push(
            crate::shuffler::tests::report_with_undecodable_blinded_crowd(
                split.one.public_key(),
                100,
                &mut rng,
            ),
        );
        let outcome = process(&split, &reports, &mut rng);
        assert_eq!(outcome.stats.rejected, 2);
        assert_eq!(outcome.stage_stats[0].rejected, 2);
        assert_eq!(outcome.stage_stats[0].forwarded, 30);
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
        let staged = split.run_stages(2, &reports, s1_seed, s2_seed).unwrap();
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
        let db = analyzer_obj
            .ingest_items_parallel(&outcome.items, 1)
            .unwrap();
        assert_eq!(
            db.histogram().count(b"hello-world".as_slice()),
            outcome.items.len() as u64
        );
    }
}
