//! The split shuffler over the wire (§4.3 as separate processes).
//!
//! Three pieces:
//!
//! * [`serve_shuffler_one`] — Shuffler 1's service loop: receive canonical
//!   batches from each shard, peel + blind + shuffle, forward blinded
//!   records to Shuffler 2.
//! * [`serve_shuffler_two`] — Shuffler 2's service loop: unblind to
//!   handles, threshold, shuffle, send surviving inner ciphertexts back to
//!   the owning shard. It holds the [`prochlo_core::ShufflerConfig`], so it
//!   is the stage that refuses a batch below `min_batch_size`.
//! * [`RemoteSplitPipeline`] — the collector-shard side: an
//!   [`EpochPipeline`] that ships each epoch batch to the shufflers
//!   instead of processing it in-process, then analyzes the returned
//!   items. Plugs into [`prochlo_collector::Collector::start_with_pipeline`].
//!
//! **A batch stays in its wire form.** The shard encodes its frame straight
//! from the canonical batch and frees both before it waits. Shuffler 1
//! parses the outer ciphertexts out of the frame and frees it before it
//! peels; its records leave the blind pass already encoded (a 64-byte
//! crowd ID and the inner bytes). Shuffler 2 thresholds records that
//! borrow their inners from the frame it received and answers from the
//! survivors' slices, and the shard's analyzer decrypts the items where
//! they lie in the answer frame. No stage holds a second copy of a batch
//! to translate it.
//!
//! **Determinism contract.** The shard canonicalizes the batch
//! ([`prochlo_core::canonicalize`], the function
//! [`EpochSession::finish`](prochlo_core::deployment::EpochSession::finish)
//! calls), derives the epoch RNG from
//! `(seed, epoch_index)` and draws the two per-stage sub-seeds with
//! [`SplitShuffler::stage_seeds`] — the same draws, in the same order, as
//! the in-process split topology. Each shuffler stage then runs
//! [`ShufflerOne::process_batch`] / [`ShufflerTwo::process_batch`] on
//! `StdRng::seed_from_u64(sub_seed)`, exactly as the in-process
//! `ShufflerRole::process` does, so a seeded multi-process run reproduces
//! the single-process golden output byte for byte. The integration suite
//! pins this against the committed fixture.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use prochlo_collector::EpochPipeline;
use prochlo_core::shuffler::split::{ShufflerOne, ShufflerTwo, SplitShuffler};
use prochlo_core::shuffler::ShufflerStats;
use prochlo_core::{
    canonicalize, epoch_rng, exec, Analyzer, ClientReport, EpochSpec, PipelineError, PipelineReport,
};
use prochlo_crypto::edwards::{FixedBaseTable, Point};

use crate::messages::{BatchToOne, BatchToTwo, ItemsBatch, ToOne, ToShard, ToTwo};
use crate::transport::{ChannelId, FabricError, Peer, Stage, Transport, TypedChannel, WireMessage};

/// A stage's configured worker count, resolved once per service loop (`0`
/// defers to `PROCHLO_SHUFFLE_THREADS`, then every core).
fn resolve_threads(configured: usize) -> Result<usize, FabricError> {
    exec::resolve_threads(configured).map_err(|e| FabricError::Processing(e.to_string()))
}

/// Shuffler 1's service loop: serves every shard's batch stream, in shard
/// order, until each sends its in-band done marker; then releases
/// Shuffler 2 with [`ToTwo::Done`].
///
/// Shards are served **sequentially in shard order**. Batches a later shard
/// sends early simply wait in its socket (or loopback inbox) — nothing is
/// dropped — and whatever stops the shards stops them in the same order,
/// so the done markers arrive in the order this loop awaits them.
pub fn serve_shuffler_one(
    transport: &dyn Transport,
    one: &ShufflerOne,
    elgamal_public: &Point,
    num_shards: u16,
) -> Result<(), FabricError> {
    let num_threads = resolve_threads(one.num_threads())?;
    // Every record of every batch is re-randomized against the El Gamal
    // key, so its comb table is built once for the whole service.
    let elgamal_table = FixedBaseTable::new(elgamal_public);
    for shard in 0..num_shards {
        let from_shard =
            TypedChannel::<ToOne>::new(transport, ChannelId::new(Peer::Shard(shard), Stage::Batch));
        loop {
            // The outer ciphertexts are parsed out of the frame, which is
            // freed before the batch is peeled. The reports' metadata was
            // stripped at the collector and never crosses the fabric.
            let batch = match from_shard.recv()? {
                ToOne::Done => break,
                ToOne::Batch(batch) => batch,
            };
            if batch.shard != shard {
                return Err(FabricError::Malformed("batch tagged with wrong shard"));
            }
            let mut rng = StdRng::seed_from_u64(batch.s1_seed);
            let span = prochlo_obs::span("fabric.s1.serve");
            let (records, stage_one) =
                one.process_batch(num_threads, &batch.reports, &elgamal_table, &mut rng);
            span.finish();
            let forward = BatchToTwo {
                shard,
                epoch_index: batch.epoch_index,
                s2_seed: batch.s2_seed,
                received: batch.reports.len(),
                stage_one,
                records,
            };
            // The outer ciphertexts go before the records' frame is built.
            drop(batch);
            TypedChannel::<ToTwo>::new(
                transport,
                ChannelId::new(Peer::ShufflerTwo, Stage::Records),
            )
            .send(&ToTwo::Batch(Box::new(forward)))?;
        }
    }
    TypedChannel::<ToTwo>::new(transport, ChannelId::new(Peer::ShufflerTwo, Stage::Records))
        .send(&ToTwo::Done)
}

/// Shuffler 2's service loop: consumes Shuffler 1's record stream until its
/// done marker, answering each batch's owning shard with the surviving
/// items. A batch below the configured `min_batch_size` is answered with
/// [`ToShard::TooSmall`] before any draw, and the loop serves the next.
pub fn serve_shuffler_two(transport: &dyn Transport, two: &ShufflerTwo) -> Result<(), FabricError> {
    let num_threads = resolve_threads(two.config().num_threads)?;
    let minimum = two.config().min_batch_size;
    let from_one =
        TypedChannel::<ToTwo>::new(transport, ChannelId::new(Peer::ShufflerOne, Stage::Records));
    loop {
        // The records borrow their inner ciphertexts from the frame, and so
        // do the items the answer is written from.
        let frame = from_one.recv_frame()?;
        let batch = match <ToTwo>::from_wire(&frame)? {
            ToTwo::Done => return Ok(()),
            ToTwo::Batch(batch) => *batch,
        };
        let to_shard = ChannelId::new(Peer::Shard(batch.shard), Stage::Items);
        if batch.received < minimum {
            let refusal: ToShard = ToShard::TooSmall {
                shard: batch.shard,
                epoch_index: batch.epoch_index,
                received: batch.received,
                minimum,
            };
            TypedChannel::new(transport, to_shard).send(&refusal)?;
            continue;
        }
        let mut rng = StdRng::seed_from_u64(batch.s2_seed);
        let span = prochlo_obs::span("fabric.s2.serve");
        let (items, stage_two) = two
            .process_batch(num_threads, batch.records, &mut rng)
            .map_err(|e| match e {
                PipelineError::MalformedReport(what) => FabricError::Malformed(what),
                other => FabricError::Processing(other.to_string()),
            })?;
        span.finish();
        let answer = ToShard::Items(Box::new(ItemsBatch {
            shard: batch.shard,
            epoch_index: batch.epoch_index,
            received: batch.received,
            stage_one: batch.stage_one,
            stage_two,
            items,
        }));
        TypedChannel::new(transport, to_shard).send(&answer)?;
    }
}

/// The collector-shard half of the wire topology: an [`EpochPipeline`]
/// that ships each canonical batch to the out-of-process shufflers over a
/// [`Transport`], then ingests the returned items with the shard's own
/// analyzer.
///
/// The collector's serving layer (framing, dedup, backpressure, epoch
/// cutting) is untouched — this type replaces only what happens to a batch
/// once it is cut.
pub struct RemoteSplitPipeline {
    transport: Arc<dyn Transport>,
    shard: u16,
    analyzer: Analyzer,
    /// Per-epoch flight-recorder sink (`PROCHLO_OBS_PATH`); `None` when
    /// the knob is unset.
    flight: Option<prochlo_obs::FlightRecorder>,
}

impl RemoteSplitPipeline {
    /// A pipeline for shard `shard`, analyzing with `analyzer` (a clone of
    /// the shard deployment's analyzer, so keys match the encoders).
    pub fn new(transport: Arc<dyn Transport>, shard: u16, analyzer: Analyzer) -> Self {
        Self {
            transport,
            shard,
            analyzer,
            flight: prochlo_obs::FlightRecorder::from_env(),
        }
    }

    /// Tells Shuffler 1 this shard has no more batches. Call after the
    /// collector has shut down (no epoch can be cut afterwards).
    pub fn finish(&self) -> Result<(), FabricError> {
        TypedChannel::<ToOne>::new(
            self.transport.as_ref(),
            ChannelId::new(Peer::ShufflerOne, Stage::Batch),
        )
        .send(&ToOne::Done)
    }
}

impl EpochPipeline for RemoteSplitPipeline {
    fn process(
        &mut self,
        spec: &EpochSpec,
        mut batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        // The engine rule of the in-process split topology, instead of
        // silently ignoring an override the remote stages cannot honour.
        if let Some(engine) = &spec.engine {
            SplitShuffler::require_inline_engine(engine)?;
        }
        // Canonicalize, then draw the per-stage sub-seeds the way the
        // in-process split topology would: the epoch RNG's first two u64s.
        let duplicates = canonicalize(&mut batch);
        let mut rng = epoch_rng(spec.seed, spec.epoch_index);
        let (s1_seed, s2_seed) = SplitShuffler::stage_seeds(&mut rng);

        let sent = batch.len();
        // Time the full ship-shuffle-return round trip the shard is
        // blocked on.
        let span = prochlo_obs::span("fabric.shard.roundtrip");
        // The frame is encoded straight from the canonical batch; both are
        // freed before the wait.
        TypedChannel::new(
            self.transport.as_ref(),
            ChannelId::new(Peer::ShufflerOne, Stage::Batch),
        )
        .send(&ToOne::Batch(BatchToOne {
            shard: self.shard,
            epoch_index: spec.epoch_index,
            s1_seed,
            s2_seed,
            reports: batch.iter().map(|report| &report.outer).collect(),
        }))?;
        drop(batch);

        // The analyzer decrypts the items where they lie in the answer frame.
        let frame = TypedChannel::<ToShard>::new(
            self.transport.as_ref(),
            ChannelId::new(Peer::ShufflerTwo, Stage::Items),
        )
        .recv_frame()?;
        let answer = <ToShard>::from_wire(&frame)?;
        let roundtrip_seconds = span.finish();
        let (shard, epoch_index) = match &answer {
            ToShard::Items(items) => (items.shard, items.epoch_index),
            ToShard::TooSmall {
                shard, epoch_index, ..
            } => (*shard, *epoch_index),
        };
        if shard != self.shard || epoch_index != spec.epoch_index {
            return Err(PipelineError::Transport(format!(
                "answer for shard {shard} epoch {epoch_index} reached shard {} epoch {}",
                self.shard, spec.epoch_index
            )));
        }
        let items = match answer {
            ToShard::Items(items) => *items,
            ToShard::TooSmall {
                received, minimum, ..
            } => return Err(PipelineError::BatchTooSmall { received, minimum }),
        };

        let num_threads =
            exec::resolve_threads(spec.engine.as_ref().map_or(0, |engine| engine.num_threads))?;
        let database = self
            .analyzer
            .ingest_items_parallel(&items.items, num_threads)?;
        let mut stats =
            SplitShuffler::merge_stage_stats(items.received, &items.stage_one, &items.stage_two);
        stats.duplicate_reports = duplicates;
        if let Some(flight) = &self.flight {
            flight.record(
                &format!("shard{}", self.shard),
                spec.epoch_index,
                sent as f64,
                &[
                    ("roundtrip_seconds", roundtrip_seconds),
                    ("items_returned", items.items.len() as f64),
                    ("forwarded", stats.forwarded as f64),
                ],
            );
        }
        Ok(PipelineReport {
            database,
            shuffler_stats: stats,
            stage_stats: vec![items.stage_one, items.stage_two],
        })
    }
}

/// Sums batch-level shuffler statistics across a shard's epochs, for a
/// shard that cut more than one. Counters add; timings add; the backend
/// is the first epoch's, since a shard runs every epoch on one engine.
pub fn sum_epoch_stats(epochs: &[ShufflerStats]) -> ShufflerStats {
    let mut total = ShufflerStats {
        backend: epochs.first().map(|s| s.backend).unwrap_or_default(),
        ..ShufflerStats::default()
    };
    for stats in epochs {
        total.received += stats.received;
        total.duplicate_reports += stats.duplicate_reports;
        total.forwarded += stats.forwarded;
        total.dropped_noise += stats.dropped_noise;
        total.dropped_threshold += stats.dropped_threshold;
        total.rejected += stats.rejected;
        total.crowds_seen += stats.crowds_seen;
        total.crowds_forwarded += stats.crowds_forwarded;
        total.shuffle_attempts += stats.shuffle_attempts;
        total.timings.peel_seconds += stats.timings.peel_seconds;
        total.timings.threshold_seconds += stats.timings.threshold_seconds;
        total.timings.shuffle_seconds += stats.timings.shuffle_seconds;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackHub;
    use prochlo_core::encoder::CrowdStrategy;
    use prochlo_core::shuffler::split::BlindedRecord;
    use prochlo_core::{BackendKind, Deployment, ShufflerConfig, Topology};
    use prochlo_crypto::elgamal::ElGamalCiphertext;
    use prochlo_crypto::hybrid::HybridCiphertext;

    /// One shard's epoch over loopback must match the in-process split run
    /// byte for byte (items order included — it is seeded).
    #[test]
    fn loopback_epoch_matches_in_process_split_run() {
        let mut rng = StdRng::seed_from_u64(40);
        let deployment = Deployment::builder()
            .shuffler(Topology::Split)
            .payload_size(32)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let mut reports: Vec<ClientReport> = (0..90u64)
            .map(|i| {
                encoder
                    .encode_plain(b"the", CrowdStrategy::Blind(b"the"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        reports.extend((0..4u64).map(|i| {
            encoder
                .encode_plain(b"rare", CrowdStrategy::Blind(b"rare"), 900 + i, &mut rng)
                .unwrap()
        }));
        let spec = EpochSpec::new(2, 0xfab);

        // In-process reference via the session (canonicalize + ingest).
        let mut session = deployment.session(spec.clone());
        session.extend(reports.clone());
        let reference = session.finish().unwrap();

        // Wire run over loopback.
        let split = deployment.role().as_split().expect("split topology");
        let one = split.one.clone();
        let elgamal = *split.two.elgamal_public();
        let hub = LoopbackHub::new();
        let s1_transport = hub.endpoint(Peer::ShufflerOne);
        let s2_transport = hub.endpoint(Peer::ShufflerTwo);
        let shard_transport: Arc<dyn Transport> = Arc::new(hub.endpoint(Peer::Shard(0)));

        std::thread::scope(|scope| {
            let s1 =
                scope.spawn(move || serve_shuffler_one(&s1_transport, &one, &elgamal, 1).unwrap());
            let s2 = scope.spawn(|| {
                serve_shuffler_two(&s2_transport, &deployment.role().as_split().unwrap().two)
                    .unwrap()
            });
            let mut pipeline = RemoteSplitPipeline::new(
                Arc::clone(&shard_transport),
                0,
                deployment.analyzer().clone(),
            );
            let remote = pipeline.process(&spec, reports).unwrap();
            pipeline.finish().unwrap();
            s1.join().unwrap();
            s2.join().unwrap();

            assert_eq!(
                remote.database.canonical_histogram_bytes(),
                reference.database.canonical_histogram_bytes()
            );
            assert!(remote.database.rows().eq(reference.database.rows()));
            assert_eq!(remote.shuffler_stats, reference.shuffler_stats);
            assert_eq!(remote.stage_stats, reference.stage_stats);
        });
    }

    /// The wire twin of the in-process
    /// `every_topology_refuses_a_batch_below_the_minimum`: Shuffler 2
    /// refuses a 3-report epoch below `min_batch_size: 10` with the
    /// in-process error, and both services go on to serve a 10-report
    /// epoch that matches the in-process run byte for byte.
    #[test]
    fn the_wire_split_refuses_a_batch_below_the_minimum() {
        let mut rng = StdRng::seed_from_u64(12);
        let deployment = Deployment::builder()
            .shuffler(Topology::Split)
            .config(ShufflerConfig {
                min_batch_size: 10,
                ..ShufflerConfig::default().without_thresholding()
            })
            .build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<ClientReport> = (0..10u64)
            .map(|i| {
                encoder
                    .encode_plain(b"w", CrowdStrategy::Blind(b"w"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        let (small, full) = (EpochSpec::new(0, 1), EpochSpec::new(1, 1));
        let mut session = deployment.session(full.clone());
        session.extend(reports.clone());
        let reference = session.finish().unwrap();

        let split = deployment.role().as_split().unwrap();
        let hub = LoopbackHub::new();
        let s1_transport = hub.endpoint(Peer::ShufflerOne);
        let s2_transport = hub.endpoint(Peer::ShufflerTwo);
        let mut pipeline = RemoteSplitPipeline::new(
            Arc::new(hub.endpoint(Peer::Shard(0))),
            0,
            deployment.analyzer().clone(),
        );
        // Both epochs run and the services shut down before anything is
        // asserted, so a failure cannot leave a service waiting.
        let (refused, remote) = std::thread::scope(|scope| {
            let elgamal = split.two.elgamal_public();
            let s1 = scope.spawn(|| serve_shuffler_one(&s1_transport, &split.one, elgamal, 1));
            let s2 = scope.spawn(|| serve_shuffler_two(&s2_transport, &split.two));
            let refused = pipeline.process(&small, reports[..3].to_vec());
            let remote = pipeline.process(&full, reports);
            pipeline.finish().unwrap();
            s1.join().unwrap().unwrap();
            s2.join().unwrap().unwrap();
            (refused, remote)
        });
        assert!(
            matches!(
                refused,
                Err(PipelineError::BatchTooSmall {
                    received: 3,
                    minimum: 10
                })
            ),
            "{refused:?}"
        );
        let remote = remote.unwrap();
        assert_eq!(remote.shuffler_stats.forwarded, 10);
        assert_eq!(
            remote.database.canonical_histogram_bytes(),
            reference.database.canonical_histogram_bytes()
        );
        assert_eq!(remote.shuffler_stats, reference.shuffler_stats);
    }

    fn split_deployment(rng: &mut StdRng) -> Deployment {
        Deployment::builder()
            .shuffler(Topology::Split)
            .payload_size(32)
            .build(rng)
    }

    /// Blinded reports of one word through Shuffler 1 in-process: the
    /// deployment and the records it forwards.
    fn forwarded_records(seed: u64) -> (Deployment, Vec<BlindedRecord>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deployment = split_deployment(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<ClientReport> = (0..40u64)
            .map(|i| {
                encoder
                    .encode_plain(b"w", CrowdStrategy::Blind(b"w"), i, &mut rng)
                    .unwrap()
            })
            .collect();
        let split = deployment.role().as_split().unwrap();
        let table = FixedBaseTable::new(split.two.elgamal_public());
        let (records, _) = split.one.process_batch(2, &reports, &table, &mut rng);
        (deployment, records)
    }

    #[test]
    fn an_outer_that_does_not_parse_fails_shuffler_ones_batch() {
        let deployment = split_deployment(&mut StdRng::seed_from_u64(41));
        let split = deployment.role().as_split().unwrap();
        let hub = LoopbackHub::new();
        let shard = hub.endpoint(Peer::Shard(0));
        let s1 = hub.endpoint(Peer::ShufflerOne);
        // A report one byte shorter than the shortest hybrid ciphertext,
        // behind a valid one so that the count fits the frame.
        let mut frame = ToOne::Batch(BatchToOne {
            shard: 0,
            epoch_index: 0,
            s1_seed: 1,
            s2_seed: 2,
            reports: vec![HybridCiphertext {
                ephemeral: [1; 32],
                nonce: [2; 12],
                sealed: vec![3; 40],
            }],
        })
        .to_wire();
        let short = HybridCiphertext::layer_overhead() - 1;
        frame.extend(std::iter::repeat_n(0, 4 + short));
        let count_at = 1 + 4 + 3 * 8;
        frame[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        let last = frame.len() - short - 4;
        frame[last..last + 4].copy_from_slice(&(short as u32).to_le_bytes());
        shard.send(Peer::ShufflerOne, Stage::Batch, &frame).unwrap();
        let served = serve_shuffler_one(&s1, &split.one, split.two.elgamal_public(), 1);
        assert!(matches!(
            served,
            Err(FabricError::Malformed("invalid outer ciphertext"))
        ));
        // Nothing was forwarded: the first message Shuffler 2 reads is the
        // marker sent after the failure.
        TypedChannel::<ToTwo>::new(&s1, ChannelId::new(Peer::ShufflerTwo, Stage::Records))
            .send(&ToTwo::Done)
            .unwrap();
        let s2 = hub.endpoint(Peer::ShufflerTwo);
        let first =
            TypedChannel::<ToTwo>::new(&s2, ChannelId::new(Peer::ShufflerOne, Stage::Records))
                .recv_frame()
                .unwrap();
        assert!(matches!(<ToTwo>::from_wire(&first), Ok(ToTwo::Done)));
    }

    #[test]
    fn a_crowd_id_that_is_no_curve_point_fails_shuffler_twos_batch() {
        let (deployment, mut records) = forwarded_records(42);
        // y = 2^255 - 1 is at least p: no canonical point encodes to it.
        let not_a_point = [0xff; 64];
        assert!(ElGamalCiphertext::from_bytes(&not_a_point).is_err());
        records[7].blinded_crowd = not_a_point;
        let hub = LoopbackHub::new();
        let s1 = hub.endpoint(Peer::ShufflerOne);
        let s2 = hub.endpoint(Peer::ShufflerTwo);
        let to_two = TypedChannel::new(&s1, ChannelId::new(Peer::ShufflerTwo, Stage::Records));
        to_two
            .send(&ToTwo::Batch(Box::new(BatchToTwo {
                shard: 0,
                epoch_index: 0,
                s2_seed: 3,
                received: records.len(),
                stage_one: ShufflerStats::default(),
                records,
            })))
            .unwrap();
        let two = &deployment.role().as_split().unwrap().two;
        assert!(matches!(
            serve_shuffler_two(&s2, two),
            Err(FabricError::Malformed("invalid blinded crowd id"))
        ));
        // No answer was sent: the first items the shard reads are the ones
        // sent after the failure.
        let sentinel: ItemsBatch = ItemsBatch {
            shard: 0,
            epoch_index: u64::MAX,
            received: 0,
            stage_one: ShufflerStats::default(),
            stage_two: ShufflerStats::default(),
            items: vec![],
        };
        TypedChannel::new(&s2, ChannelId::new(Peer::Shard(0), Stage::Items))
            .send(&sentinel)
            .unwrap();
        let shard = hub.endpoint(Peer::Shard(0));
        let first = TypedChannel::<ItemsBatch>::new(
            &shard,
            ChannelId::new(Peer::ShufflerTwo, Stage::Items),
        )
        .recv_frame()
        .unwrap();
        assert_eq!(
            <ItemsBatch>::from_wire(&first).unwrap().epoch_index,
            u64::MAX
        );
    }

    #[test]
    fn sum_epoch_stats_adds_counters() {
        let a = ShufflerStats {
            received: 5,
            forwarded: 4,
            backend: BackendKind::Stash,
            ..ShufflerStats::default()
        };
        let b = ShufflerStats {
            received: 7,
            forwarded: 6,
            backend: BackendKind::Stash,
            ..ShufflerStats::default()
        };
        let total = sum_epoch_stats(&[a, b]);
        assert_eq!(total.received, 12);
        assert_eq!(total.forwarded, 10);
        assert_eq!(total.backend, BackendKind::Stash);
    }
}
