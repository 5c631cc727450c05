//! The typed messages that travel the fabric.
//!
//! Each message rides one [`crate::transport::Stage`]: [`ToOne`] (a
//! [`BatchToOne`] or the end-of-stream marker) on `Batch`, [`ToTwo`] (a
//! [`BatchToTwo`] or the marker) on `Records`, and [`ToShard`] (an
//! [`ItemsBatch`] or Shuffler 2's refusal) on `Items`. Every encoding
//! leads with a message tag anyway, so a payload that somehow lands on the
//! wrong stage fails to parse instead of being misinterpreted.
//!
//! The three batch messages keep a batch in the form it has on the wire.
//! Each is generic over how it holds its reports, so a sender encodes
//! straight from what it already has — the shard from references to its
//! canonical batch, Shuffler 1 from its owned records, Shuffler 2 from
//! slices of the frame it received — and each has one decoder, which
//! reads the reports out of the frame: [`BatchToOne`] parses the outer
//! ciphertexts Shuffler 1 opens, and [`BatchToTwo`] and [`ItemsBatch`]
//! borrow their byte strings from the frame (see
//! [`WireMessage::Decoded`]). Every decoder is a chain of labelled
//! [`Reader`] reads whose errors become [`FabricError::Malformed`]: it
//! checks its tag with [`Reader::expect_tag`], reads every list's element
//! count with [`Reader::get_count`] — which refuses a count the bytes left
//! cannot hold before anything is reserved, so a hostile count cannot make
//! a receiver allocate more than a small multiple of the frame it sent —
//! and ends in [`Reader::finish`].
//!
//! Statistics cross the wire with their counters intact and timings as
//! IEEE-754 bit patterns. Their engine is not shipped: only split stages
//! cross the fabric, and both run the trusted shuffle (see
//! [`prochlo_core::shuffler::split::SplitShuffler::require_inline_engine`]).
//! The batch-level merged view is *not* shipped either —
//! the receiving side reassembles it with
//! [`prochlo_core::shuffler::split::SplitShuffler::merge_stage_stats`], so
//! a remote run reports the identical merged stats as an in-process one.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::borrow::Borrow;

use prochlo_core::shuffler::split::BlindedRecord;
use prochlo_core::shuffler::{BackendKind, PhaseTimings, ShufflerStats};
use prochlo_core::wire::{put_bytes, put_u32, put_u64, put_u8, Reader};
use prochlo_crypto::hybrid::HybridCiphertext;

use crate::transport::{FabricError, WireMessage};

/// The one-byte end-of-stream marker, `ToOne::Done` and `ToTwo::Done`.
const TAG_DONE: u8 = 0x11;
const TAG_BATCH_TO_ONE: u8 = 0x20;
const TAG_BATCH_TO_TWO: u8 = 0x21;
const TAG_ITEMS: u8 = 0x22;
const TAG_TOO_SMALL: u8 = 0x23;

/// The error labels every decoder shares: a missing or foreign message tag,
/// and bytes past the end of a message.
const UNEXPECTED_TAG: &str = "unexpected message tag";
const TRAILING: &str = "trailing message bytes";

/// Encoded size of one [`ShufflerStats`]: eight counters and three
/// timings.
const STATS_LEN: usize = 8 * 8 + 3 * 8;

/// Encoded size of a list of length-prefixed blobs of the given lengths,
/// count included.
fn blobs_len(lens: impl Iterator<Item = usize>) -> usize {
    4 + lens.map(|len| 4 + len).sum::<usize>()
}

/// The smallest encoded element of a list of length-prefixed blobs: an
/// empty one.
const MIN_BLOB_LEN: usize = 4;

/// The smallest encoded [`BatchToOne`] report: a length prefix and the
/// shortest hybrid ciphertext.
const MIN_REPORT_LEN: usize = 4 + HybridCiphertext::layer_overhead();

/// The smallest encoded [`BlindedRecord`]: the crowd ID and an empty
/// length-prefixed inner.
const MIN_RECORD_LEN: usize = 64 + 4;

fn encode_stats(out: &mut Vec<u8>, stats: &ShufflerStats) {
    for count in [
        stats.received,
        stats.forwarded,
        stats.dropped_noise,
        stats.dropped_threshold,
        stats.rejected,
        stats.crowds_seen,
        stats.crowds_forwarded,
        stats.shuffle_attempts,
    ] {
        put_u64(out, count as u64);
    }
    for seconds in [
        stats.timings.peel_seconds,
        stats.timings.threshold_seconds,
        stats.timings.shuffle_seconds,
    ] {
        put_u64(out, seconds.to_bits());
    }
}

fn decode_stats(reader: &mut Reader<'_>) -> Result<ShufflerStats, FabricError> {
    let mut counts = [0usize; 8];
    for count in &mut counts {
        *count = reader.get_u64("truncated stats counter")?;
    }
    let mut seconds = [0f64; 3];
    for value in &mut seconds {
        *value = f64::from_bits(reader.get_u64("truncated stats timing")?);
    }
    let [received, forwarded, dropped_noise, dropped_threshold, rejected, crowds_seen, crowds_forwarded, shuffle_attempts] =
        counts;
    let [peel_seconds, threshold_seconds, shuffle_seconds] = seconds;
    Ok(ShufflerStats {
        received,
        forwarded,
        dropped_noise,
        dropped_threshold,
        rejected,
        crowds_seen,
        crowds_forwarded,
        shuffle_attempts,
        backend: BackendKind::Trusted,
        // A stage receives a canonical batch; its copies are counted where
        // the batch is cut, and not sent.
        duplicate_reports: 0,
        timings: PhaseTimings {
            peel_seconds,
            threshold_seconds,
            shuffle_seconds,
        }
        .into(),
    })
}

/// Parses the end-of-stream marker: its tag and nothing after it.
fn decode_done(bytes: &[u8]) -> Result<(), FabricError> {
    let mut reader = Reader::new(bytes);
    reader.expect_tag(TAG_DONE, UNEXPECTED_TAG)?;
    Ok(reader.finish(TRAILING)?)
}

/// A canonicalized epoch batch: collector shard → Shuffler 1.
///
/// Carries the already-drawn per-stage sub-seeds (see
/// [`prochlo_core::shuffler::split::SplitShuffler::stage_seeds`]): the shard
/// owns the epoch's master RNG and the shufflers receive exactly the one
/// `u64` their stage consumes, which is the whole determinism interface of
/// the wire topology.
///
/// `R` is how the message holds each outer ciphertext: the shard sends
/// `&HybridCiphertext`s borrowed from its canonical batch, and the decoder
/// parses each report straight out of the frame into the owned
/// [`HybridCiphertext`] Shuffler 1 opens, failing the whole batch with
/// `"invalid outer ciphertext"` on one that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchToOne<R = HybridCiphertext> {
    /// The shard this batch belongs to (echoed on every downstream message).
    pub shard: u16,
    /// The epoch the batch closes.
    pub epoch_index: u64,
    /// Shuffler 1's sub-seed for this batch.
    pub s1_seed: u64,
    /// Shuffler 2's sub-seed, relayed onward by Shuffler 1 (it never uses
    /// it; Shuffler 1 relaying an opaque u64 reveals nothing).
    pub s2_seed: u64,
    /// The outer ciphertext of each report, in canonical (sorted) order.
    pub reports: Vec<R>,
}

impl<R: Borrow<HybridCiphertext>> WireMessage for BatchToOne<R> {
    type Decoded<'a> = BatchToOne;

    fn to_wire(&self) -> Vec<u8> {
        // Tag, shard, epoch, both seeds, then each report's length-prefixed
        // wire bytes (`ephemeral || nonce || sealed`).
        let reports = self.reports.iter().map(Borrow::borrow);
        let len = 1 + 4 + 3 * 8 + blobs_len(reports.clone().map(HybridCiphertext::wire_len));
        let mut out = Vec::with_capacity(len);
        put_u8(&mut out, TAG_BATCH_TO_ONE);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.s1_seed);
        put_u64(&mut out, self.s2_seed);
        put_u32(&mut out, self.reports.len() as u32);
        for outer in reports {
            put_u32(&mut out, outer.wire_len() as u32);
            out.extend_from_slice(&outer.ephemeral);
            out.extend_from_slice(&outer.nonce);
            out.extend_from_slice(&outer.sealed);
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<BatchToOne, FabricError> {
        let mut reader = Reader::new(bytes);
        reader.expect_tag(TAG_BATCH_TO_ONE, UNEXPECTED_TAG)?;
        let shard = reader.get_u32("truncated shard index")?;
        let epoch_index = reader.get_u64("truncated epoch index")?;
        let s1_seed = reader.get_u64("truncated stage-one seed")?;
        let s2_seed = reader.get_u64("truncated stage-two seed")?;
        let count = reader.get_count(
            MIN_REPORT_LEN,
            "truncated report count",
            "report count exceeds message",
        )?;
        let mut reports = Vec::with_capacity(count);
        for _ in 0..count {
            let outer = reader.get_slice("truncated report")?;
            // The shard serialized real reports; a parse failure here is
            // corruption, not client garbage (that was screened at ingest).
            reports.push(
                HybridCiphertext::from_bytes(outer)
                    .map_err(|_| FabricError::Malformed("invalid outer ciphertext"))?,
            );
        }
        reader.finish(TRAILING)?;
        Ok(BatchToOne {
            shard,
            epoch_index,
            s1_seed,
            s2_seed,
            reports,
        })
    }
}

/// Blinded records: Shuffler 1 → Shuffler 2.
///
/// `I` holds each record's inner ciphertext: Shuffler 1 sends the owned
/// bytes it peeled, and the decoder borrows them from the frame, which is
/// what Shuffler 2 thresholds and forwards.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchToTwo<I = Vec<u8>> {
    /// The shard this batch belongs to.
    pub shard: u16,
    /// The epoch the batch closes.
    pub epoch_index: u64,
    /// Shuffler 2's sub-seed, relayed from the shard's [`BatchToOne`].
    pub s2_seed: u64,
    /// How many reports entered Shuffler 1 (for the merged stats).
    pub received: usize,
    /// Shuffler 1's own stage statistics.
    pub stage_one: ShufflerStats,
    /// Each record: the blinded El Gamal crowd ID's 64-byte encoding plus
    /// the untouched inner ciphertext.
    pub records: Vec<BlindedRecord<I>>,
}

impl<I: AsRef<[u8]>> WireMessage for BatchToTwo<I> {
    type Decoded<'a> = BatchToTwo<&'a [u8]>;

    fn to_wire(&self) -> Vec<u8> {
        // Tag, shard, epoch, seed, received, stats, then 64 crowd-id bytes
        // in front of each length-prefixed inner ciphertext.
        let inners = self
            .records
            .iter()
            .map(|record| record.inner.as_ref().len());
        let len = 1 + 4 + 3 * 8 + STATS_LEN + blobs_len(inners) + 64 * self.records.len();
        let mut out = Vec::with_capacity(len);
        put_u8(&mut out, TAG_BATCH_TO_TWO);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.s2_seed);
        put_u64(&mut out, self.received as u64);
        encode_stats(&mut out, &self.stage_one);
        put_u32(&mut out, self.records.len() as u32);
        for record in &self.records {
            out.extend_from_slice(&record.blinded_crowd);
            put_bytes(&mut out, record.inner.as_ref());
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<BatchToTwo<&[u8]>, FabricError> {
        let mut reader = Reader::new(bytes);
        reader.expect_tag(TAG_BATCH_TO_TWO, UNEXPECTED_TAG)?;
        let shard = reader.get_u32("truncated shard index")?;
        let epoch_index = reader.get_u64("truncated epoch index")?;
        let s2_seed = reader.get_u64("truncated stage-two seed")?;
        let received = reader.get_u64("truncated received count")?;
        let stage_one = decode_stats(&mut reader)?;
        let count = reader.get_count(
            MIN_RECORD_LEN,
            "truncated record count",
            "record count exceeds message",
        )?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(BlindedRecord {
                blinded_crowd: *reader.get_fixed("truncated blinded crowd id")?,
                inner: reader.get_slice("truncated inner ciphertext")?,
            });
        }
        reader.finish(TRAILING)?;
        Ok(BatchToTwo {
            shard,
            epoch_index,
            s2_seed,
            received,
            stage_one,
            records,
        })
    }
}

/// Surviving inner ciphertexts plus both stages' statistics:
/// Shuffler 2 → collector shard.
///
/// `I` holds each item: Shuffler 2 sends slices of the frame it received,
/// and the decoder borrows them from the answer frame, which is what the
/// shard's analyzer decrypts.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemsBatch<I = Vec<u8>> {
    /// The shard this batch belongs to.
    pub shard: u16,
    /// The epoch the batch closes.
    pub epoch_index: u64,
    /// How many reports entered Shuffler 1 (for the merged stats).
    pub received: usize,
    /// Shuffler 1's stage statistics, relayed through Shuffler 2.
    pub stage_one: ShufflerStats,
    /// Shuffler 2's own stage statistics.
    pub stage_two: ShufflerStats,
    /// The shuffled inner ciphertexts that survived thresholding.
    pub items: Vec<I>,
}

impl<I: AsRef<[u8]>> WireMessage for ItemsBatch<I> {
    type Decoded<'a> = ItemsBatch<&'a [u8]>;

    fn to_wire(&self) -> Vec<u8> {
        // Tag, shard, epoch, received, both stages' stats, then the items.
        let items = self.items.iter().map(|item| item.as_ref().len());
        let len = 1 + 4 + 2 * 8 + 2 * STATS_LEN + blobs_len(items);
        let mut out = Vec::with_capacity(len);
        put_u8(&mut out, TAG_ITEMS);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.received as u64);
        encode_stats(&mut out, &self.stage_one);
        encode_stats(&mut out, &self.stage_two);
        put_u32(&mut out, self.items.len() as u32);
        for item in &self.items {
            put_bytes(&mut out, item.as_ref());
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<ItemsBatch<&[u8]>, FabricError> {
        let mut reader = Reader::new(bytes);
        reader.expect_tag(TAG_ITEMS, UNEXPECTED_TAG)?;
        let shard = reader.get_u32("truncated shard index")?;
        let epoch_index = reader.get_u64("truncated epoch index")?;
        let received = reader.get_u64("truncated received count")?;
        let stage_one = decode_stats(&mut reader)?;
        let stage_two = decode_stats(&mut reader)?;
        let count = reader.get_count(
            MIN_BLOB_LEN,
            "truncated item count",
            "item count exceeds message",
        )?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(reader.get_slice("truncated item")?);
        }
        reader.finish(TRAILING)?;
        Ok(ItemsBatch {
            shard,
            epoch_index,
            received,
            stage_one,
            stage_two,
            items,
        })
    }
}

/// What Shuffler 1 reads off a shard's batch stream: another epoch batch,
/// or the shard's in-band end-of-stream marker. The marker travels on the
/// batch stage itself because a receiver is addressed to exactly one
/// channel at a time — in-band framing is what lets it block on a single
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToOne<R = HybridCiphertext> {
    /// An epoch batch to blind and shuffle.
    Batch(BatchToOne<R>),
    /// The shard is finished; move on to the next one.
    Done,
}

impl<R: Borrow<HybridCiphertext>> WireMessage for ToOne<R> {
    type Decoded<'a> = ToOne;

    fn to_wire(&self) -> Vec<u8> {
        match self {
            ToOne::Batch(batch) => batch.to_wire(),
            ToOne::Done => vec![TAG_DONE],
        }
    }

    fn from_wire(bytes: &[u8]) -> Result<ToOne, FabricError> {
        match bytes.first() {
            Some(&TAG_BATCH_TO_ONE) => Ok(ToOne::Batch(<BatchToOne>::from_wire(bytes)?)),
            Some(&TAG_DONE) => decode_done(bytes).map(|()| ToOne::Done),
            _ => Err(FabricError::Malformed("unknown batch-stream tag")),
        }
    }
}

/// What Shuffler 2 reads off Shuffler 1's record stream: a blinded batch,
/// or the end-of-stream marker after every shard finished.
#[derive(Debug, Clone, PartialEq)]
pub enum ToTwo<I = Vec<u8>> {
    /// A blinded batch to unblind, threshold and shuffle.
    Batch(Box<BatchToTwo<I>>),
    /// Every shard is finished; Shuffler 2 can exit.
    Done,
}

impl<I: AsRef<[u8]>> WireMessage for ToTwo<I> {
    type Decoded<'a> = ToTwo<&'a [u8]>;

    fn to_wire(&self) -> Vec<u8> {
        match self {
            ToTwo::Batch(batch) => batch.to_wire(),
            ToTwo::Done => vec![TAG_DONE],
        }
    }

    fn from_wire(bytes: &[u8]) -> Result<ToTwo<&[u8]>, FabricError> {
        match bytes.first() {
            Some(&TAG_BATCH_TO_TWO) => Ok(ToTwo::Batch(Box::new(<BatchToTwo>::from_wire(bytes)?))),
            Some(&TAG_DONE) => decode_done(bytes).map(|()| ToTwo::Done),
            _ => Err(FabricError::Malformed("unknown record-stream tag")),
        }
    }
}

/// What a shard reads off Shuffler 2's answer stream: the epoch's
/// surviving items, or Shuffler 2's refusal of a batch below its
/// `ShufflerConfig::min_batch_size`, made before any draw of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum ToShard<I = Vec<u8>> {
    /// The surviving items and both stages' statistics.
    Items(Box<ItemsBatch<I>>),
    /// The batch held fewer reports than Shuffler 2 accepts.
    TooSmall {
        /// The shard the batch came from.
        shard: u16,
        /// The epoch the batch would have closed.
        epoch_index: u64,
        /// How many reports entered Shuffler 1.
        received: usize,
        /// Shuffler 2's configured minimum.
        minimum: usize,
    },
}

impl<I: AsRef<[u8]>> WireMessage for ToShard<I> {
    type Decoded<'a> = ToShard<&'a [u8]>;

    fn to_wire(&self) -> Vec<u8> {
        match self {
            ToShard::Items(items) => items.to_wire(),
            ToShard::TooSmall {
                shard,
                epoch_index,
                received,
                minimum,
            } => {
                let mut out = Vec::with_capacity(1 + 4 + 3 * 8);
                put_u8(&mut out, TAG_TOO_SMALL);
                put_u32(&mut out, u32::from(*shard));
                put_u64(&mut out, *epoch_index);
                put_u64(&mut out, *received as u64);
                put_u64(&mut out, *minimum as u64);
                out
            }
        }
    }

    fn from_wire(bytes: &[u8]) -> Result<ToShard<&[u8]>, FabricError> {
        match bytes.first() {
            Some(&TAG_ITEMS) => Ok(ToShard::Items(Box::new(<ItemsBatch>::from_wire(bytes)?))),
            Some(&TAG_TOO_SMALL) => {
                let mut reader = Reader::new(bytes);
                reader.expect_tag(TAG_TOO_SMALL, UNEXPECTED_TAG)?;
                let refusal = ToShard::TooSmall {
                    shard: reader.get_u32("truncated shard index")?,
                    epoch_index: reader.get_u64("truncated epoch index")?,
                    received: reader.get_u64("truncated received count")?,
                    minimum: reader.get_u64("truncated minimum")?,
                };
                reader.finish(TRAILING)?;
                Ok(refusal)
            }
            _ => Err(FabricError::Malformed("unknown answer-stream tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::frame_policy;
    use prochlo_core::encoder::CrowdStrategy;
    use prochlo_core::framing::{FrameError, FrameRead, FrameWrite};
    use prochlo_core::{Deployment, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_stats() -> ShufflerStats {
        ShufflerStats {
            received: 10,
            forwarded: 8,
            dropped_noise: 1,
            dropped_threshold: 1,
            rejected: 0,
            crowds_seen: 2,
            crowds_forwarded: 1,
            shuffle_attempts: 1,
            backend: BackendKind::Trusted,
            duplicate_reports: 0,
            timings: PhaseTimings {
                peel_seconds: 0.25,
                threshold_seconds: 0.5,
                shuffle_seconds: 0.125,
            }
            .into(),
        }
    }

    fn outer(fill: u8) -> HybridCiphertext {
        HybridCiphertext {
            ephemeral: [fill; 32],
            nonce: [fill ^ 1; 12],
            sealed: vec![fill ^ 2; 40],
        }
    }

    fn empty_batch() -> BatchToOne {
        BatchToOne {
            shard: 0,
            epoch_index: 0,
            s1_seed: 0,
            s2_seed: 0,
            reports: vec![],
        }
    }

    #[test]
    fn every_message_roundtrips() {
        assert_eq!(ToOne::<HybridCiphertext>::Done.to_wire(), [TAG_DONE]);
        assert_eq!(<ToOne>::from_wire(&[TAG_DONE]).unwrap(), ToOne::Done);
        assert_eq!(ToTwo::<Vec<u8>>::Done.to_wire(), [TAG_DONE]);
        assert_eq!(<ToTwo>::from_wire(&[TAG_DONE]).unwrap(), ToTwo::Done);
        let batch = BatchToOne {
            shard: 3,
            epoch_index: 9,
            s1_seed: 1,
            s2_seed: 2,
            reports: vec![outer(1), outer(2)],
        };
        assert_eq!(<BatchToOne>::from_wire(&batch.to_wire()).unwrap(), batch);
        // Borrowed reports encode to the same bytes.
        let borrowed = BatchToOne {
            shard: batch.shard,
            epoch_index: batch.epoch_index,
            s1_seed: batch.s1_seed,
            s2_seed: batch.s2_seed,
            reports: batch.reports.iter().collect(),
        };
        assert_eq!(borrowed.to_wire(), batch.to_wire());
        let to_two = BatchToTwo {
            shard: 3,
            epoch_index: 9,
            s2_seed: 2,
            received: 2,
            stage_one: sample_stats(),
            records: vec![BlindedRecord {
                blinded_crowd: [7u8; 64],
                inner: &[1u8, 2, 3][..],
            }],
        };
        let bytes = to_two.to_wire();
        let parsed = <BatchToTwo>::from_wire(&bytes).unwrap();
        assert_eq!(parsed, to_two);
        // PartialEq on ShufflerStats ignores timings; pin them separately.
        assert_eq!(parsed.stage_one.timings.peel_seconds, 0.25);
        let items = ItemsBatch {
            shard: 3,
            epoch_index: 9,
            received: 2,
            stage_one: sample_stats(),
            stage_two: sample_stats(),
            items: vec![&[5u8; 20][..]],
        };
        let bytes = items.to_wire();
        assert_eq!(<ItemsBatch>::from_wire(&bytes).unwrap(), items);
        // The answer stream carries the same bytes, or a refusal.
        let answer = ToShard::Items(Box::new(items));
        assert_eq!(answer.to_wire(), bytes);
        assert_eq!(<ToShard>::from_wire(&bytes).unwrap(), answer);
        let refusal: ToShard<&[u8]> = ToShard::TooSmall {
            shard: 3,
            epoch_index: 9,
            received: 3,
            minimum: 10,
        };
        let bytes = refusal.to_wire();
        assert_eq!(<ToShard>::from_wire(&bytes).unwrap(), refusal);
        for cut in 0..bytes.len() {
            assert!(<ToShard>::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Shuffler 1's and Shuffler 2's stats for one in-process split run
    /// over a popular and a rare crowd.
    fn in_process_stage_stats() -> (ShufflerStats, ShufflerStats) {
        let mut rng = StdRng::seed_from_u64(5);
        let deployment = Deployment::builder()
            .shuffler(Topology::Split)
            .payload_size(32)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..60u64)
            .map(|i| {
                let word: &[u8] = if i < 4 { b"rare" } else { b"common" };
                encoder
                    .encode_plain(word, CrowdStrategy::Blind(word), i, &mut rng)
                    .unwrap()
            })
            .collect();
        let report = deployment.run(&reports, &mut rng).unwrap();
        let [one, two] = <[ShufflerStats; 2]>::try_from(report.stage_stats).unwrap();
        (one, two)
    }

    fn timing_bits(stats: &ShufflerStats) -> [u64; 3] {
        let t = &stats.timings;
        [t.peel_seconds, t.threshold_seconds, t.shuffle_seconds].map(f64::to_bits)
    }

    #[test]
    fn stage_stats_decode_to_what_the_in_process_split_reports() {
        let (one, two) = in_process_stage_stats();
        assert_eq!(one.backend, BackendKind::Trusted);
        assert_eq!(two.backend, BackendKind::Trusted);
        assert_eq!((two.crowds_seen, two.crowds_forwarded), (2, 1));
        let to_two = BatchToTwo::<&[u8]> {
            shard: 1,
            epoch_index: 2,
            s2_seed: 3,
            received: one.received,
            stage_one: one.clone(),
            records: vec![],
        };
        let decoded = <BatchToTwo>::from_wire(&to_two.to_wire())
            .unwrap()
            .stage_one;
        assert_eq!(decoded, one);
        assert_eq!(timing_bits(&decoded), timing_bits(&one));
        let items = ItemsBatch::<&[u8]> {
            shard: 1,
            epoch_index: 2,
            received: one.received,
            stage_one: one.clone(),
            stage_two: two.clone(),
            items: vec![],
        };
        let bytes = items.to_wire();
        let decoded = <ItemsBatch>::from_wire(&bytes).unwrap();
        assert_eq!(decoded.stage_one, one);
        assert_eq!(decoded.stage_two, two);
        assert_eq!(timing_bits(&decoded.stage_two), timing_bits(&two));
    }

    #[test]
    fn a_frame_of_the_previous_fabric_version_is_refused() {
        let policy = frame_policy();
        let body = ToTwo::<Vec<u8>>::Done.to_wire();
        let mut frame = Vec::new();
        frame.write_frame(&policy, &body).unwrap();
        assert_eq!((&frame[..]).read_frame(&policy).unwrap(), body);
        // Version 2 framed the stats with an engine byte.
        frame[4] = 2;
        assert!(matches!(
            (&frame[..]).read_frame(&policy),
            Err(FrameError::Protocol("unsupported protocol version"))
        ));
    }

    #[test]
    fn cross_stage_payloads_fail_to_parse() {
        let batch = empty_batch().to_wire();
        assert!(<ToTwo>::from_wire(&batch).is_err());
        assert!(<ItemsBatch>::from_wire(&batch).is_err());
        assert!(<ToShard>::from_wire(&[TAG_DONE]).is_err());
    }

    #[test]
    fn truncations_never_parse() {
        let items = ItemsBatch {
            shard: 0,
            epoch_index: 1,
            received: 1,
            stage_one: sample_stats(),
            stage_two: sample_stats(),
            items: vec![&[1u8, 2][..]],
        };
        let bytes = items.to_wire();
        for cut in 0..bytes.len() {
            assert!(<ItemsBatch>::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Nor does a done marker with a byte past it.
        assert!(matches!(
            <ToOne>::from_wire(&[TAG_DONE, 0]),
            Err(FabricError::Malformed("trailing message bytes"))
        ));
        assert!(matches!(
            <ToTwo>::from_wire(&[TAG_DONE, 0]),
            Err(FabricError::Malformed("trailing message bytes"))
        ));
    }

    #[test]
    fn bogus_counts_are_rejected_before_allocation() {
        let mut bytes = empty_batch().to_wire();
        let len = bytes.len();
        // Overwrite the report count with a huge value.
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            <BatchToOne>::from_wire(&bytes),
            Err(FabricError::Malformed("report count exceeds message"))
        ));
    }
}
