//! The typed messages that travel the fabric.
//!
//! Each message rides one [`crate::transport::Stage`]: [`Control`] on
//! `Control`, [`BatchToOne`] on `Batch`, [`BatchToTwo`] on `Records`,
//! [`ItemsBatch`] on `Items`, [`ShardSummary`] on `Summary`. Every encoding
//! leads with a message tag anyway, so a payload that somehow lands on the
//! wrong stage fails to parse instead of being misinterpreted.
//!
//! Statistics cross the wire with their counters intact and timings as
//! IEEE-754 bit patterns; the batch-level merged view is *not* shipped —
//! the receiving side reassembles it with
//! [`prochlo_core::shuffler::split::SplitShuffler::merge_stage_stats`], so
//! a remote run reports the identical merged stats as an in-process one.

use prochlo_core::exec;
use prochlo_core::shuffler::split::BlindedRecord;
use prochlo_core::shuffler::{PhaseTimings, ShufflerStats};
use prochlo_core::wire::{put_bytes, put_u32, put_u64, put_u8, Reader};
use prochlo_crypto::elgamal::ElGamalCiphertext;

use crate::transport::{FabricError, WireMessage};

const TAG_CONTROL_SHUTDOWN: u8 = 0x10;
const TAG_CONTROL_DONE: u8 = 0x11;
const TAG_BATCH_TO_ONE: u8 = 0x20;
const TAG_BATCH_TO_TWO: u8 = 0x21;
const TAG_ITEMS: u8 = 0x22;
const TAG_SUMMARY: u8 = 0x30;

/// Backend names cross the wire as tags; `&'static str` cannot be
/// reconstructed from arbitrary bytes.
const BACKEND_BLIND: u8 = 1;
const BACKEND_INLINE: u8 = 2;

fn get_usize(reader: &mut Reader<'_>, what: &'static str) -> Result<usize, FabricError> {
    let value = reader.get_u64().map_err(|_| FabricError::Malformed(what))?;
    usize::try_from(value).map_err(|_| FabricError::Malformed(what))
}

fn get_u64(reader: &mut Reader<'_>, what: &'static str) -> Result<u64, FabricError> {
    reader.get_u64().map_err(|_| FabricError::Malformed(what))
}

fn get_u16(reader: &mut Reader<'_>, what: &'static str) -> Result<u16, FabricError> {
    let value = reader.get_u32().map_err(|_| FabricError::Malformed(what))?;
    u16::try_from(value).map_err(|_| FabricError::Malformed(what))
}

/// Reads a u32 element count (the width the encoders write).
fn get_count(reader: &mut Reader<'_>, what: &'static str) -> Result<usize, FabricError> {
    let value = reader.get_u32().map_err(|_| FabricError::Malformed(what))?;
    Ok(value as usize)
}

fn get_vec(reader: &mut Reader<'_>, what: &'static str) -> Result<Vec<u8>, FabricError> {
    reader.get_bytes().map_err(|_| FabricError::Malformed(what))
}

fn expect_tag(reader: &mut Reader<'_>, tag: u8) -> Result<(), FabricError> {
    let actual = reader
        .get_u8()
        .map_err(|_| FabricError::Malformed("missing message tag"))?;
    if actual != tag {
        return Err(FabricError::Malformed("unexpected message tag"));
    }
    Ok(())
}

fn finish(reader: &Reader<'_>) -> Result<(), FabricError> {
    if !reader.is_empty() {
        return Err(FabricError::Malformed("trailing message bytes"));
    }
    Ok(())
}

/// Encoded size of one [`ShufflerStats`]: the backend tag, eight counters
/// and three timings.
const STATS_LEN: usize = 1 + 8 * 8 + 3 * 8;

/// Encoded size of a list of length-prefixed blobs, count included.
fn blobs_len<'a>(blobs: impl Iterator<Item = &'a [u8]>) -> usize {
    4 + blobs.map(|blob| 4 + blob.len()).sum::<usize>()
}

fn encode_stats(out: &mut Vec<u8>, stats: &ShufflerStats) -> Result<(), FabricError> {
    let backend = match stats.backend {
        "blind" => BACKEND_BLIND,
        "inline" => BACKEND_INLINE,
        _ => {
            return Err(FabricError::Malformed(
                "only split-stage backends cross the fabric",
            ))
        }
    };
    put_u8(out, backend);
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
    Ok(())
}

fn decode_stats(reader: &mut Reader<'_>) -> Result<ShufflerStats, FabricError> {
    let backend = match reader
        .get_u8()
        .map_err(|_| FabricError::Malformed("truncated stats"))?
    {
        BACKEND_BLIND => "blind",
        BACKEND_INLINE => "inline",
        _ => return Err(FabricError::Malformed("unknown stats backend tag")),
    };
    let mut counts = [0usize; 8];
    for count in &mut counts {
        *count = get_usize(reader, "truncated stats counter")?;
    }
    let mut seconds = [0f64; 3];
    for value in &mut seconds {
        *value = f64::from_bits(get_u64(reader, "truncated stats timing")?);
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
        backend,
        timings: PhaseTimings {
            peel_seconds,
            threshold_seconds,
            shuffle_seconds,
        }
        .into(),
    })
}

/// Lifecycle coordination on [`crate::transport::Stage::Control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Stop serving after finishing in-flight work.
    Shutdown,
    /// The sender has finished its part of the current unit of work.
    Done,
}

impl WireMessage for Control {
    fn to_wire(&self) -> Vec<u8> {
        match self {
            Control::Shutdown => vec![TAG_CONTROL_SHUTDOWN],
            Control::Done => vec![TAG_CONTROL_DONE],
        }
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        let mut reader = Reader::new(bytes);
        let control = match reader
            .get_u8()
            .map_err(|_| FabricError::Malformed("empty control message"))?
        {
            TAG_CONTROL_SHUTDOWN => Control::Shutdown,
            TAG_CONTROL_DONE => Control::Done,
            _ => return Err(FabricError::Malformed("unknown control tag")),
        };
        finish(&reader)?;
        Ok(control)
    }
}

/// A canonicalized epoch batch: collector shard → Shuffler 1.
///
/// Carries the already-drawn per-stage sub-seeds (see
/// [`prochlo_core::shuffler::split::SplitShuffler::stage_seeds`]): the shard
/// owns the epoch's master RNG and the shufflers receive exactly the one
/// `u64` their stage consumes, which is the whole determinism interface of
/// the wire topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchToOne {
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
    pub reports: Vec<Vec<u8>>,
}

impl WireMessage for BatchToOne {
    fn to_wire(&self) -> Vec<u8> {
        // Tag, shard, epoch, both seeds, then the reports.
        let len = 1 + 4 + 3 * 8 + blobs_len(self.reports.iter().map(Vec::as_slice));
        let mut out = Vec::with_capacity(len);
        put_u8(&mut out, TAG_BATCH_TO_ONE);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.s1_seed);
        put_u64(&mut out, self.s2_seed);
        put_u32(&mut out, self.reports.len() as u32);
        for report in &self.reports {
            put_bytes(&mut out, report);
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        let mut reader = Reader::new(bytes);
        expect_tag(&mut reader, TAG_BATCH_TO_ONE)?;
        let shard = get_u16(&mut reader, "truncated shard index")?;
        let epoch_index = get_u64(&mut reader, "truncated epoch index")?;
        let s1_seed = get_u64(&mut reader, "truncated stage-one seed")?;
        let s2_seed = get_u64(&mut reader, "truncated stage-two seed")?;
        let count = get_count(&mut reader, "truncated report count")?;
        if count > reader.remaining() {
            return Err(FabricError::Malformed("report count exceeds message"));
        }
        let mut reports = Vec::with_capacity(count);
        for _ in 0..count {
            reports.push(get_vec(&mut reader, "truncated report")?);
        }
        finish(&reader)?;
        Ok(Self {
            shard,
            epoch_index,
            s1_seed,
            s2_seed,
            reports,
        })
    }
}

/// Blinded records: Shuffler 1 → Shuffler 2.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchToTwo {
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
    /// Each record: the blinded El Gamal crowd ID (64 bytes) plus the
    /// untouched inner ciphertext.
    pub records: Vec<([u8; 64], Vec<u8>)>,
}

impl BatchToTwo {
    /// Encodes Shuffler 1's output into the [`Self::records`] wire form,
    /// in parallel chunks with one batched point compression per chunk
    /// (see [`ElGamalCiphertext::batch_to_bytes`]); byte for byte what
    /// per-record `to_bytes` produces.
    pub fn encode_records(
        records: Vec<BlindedRecord>,
        num_threads: usize,
    ) -> Vec<([u8; 64], Vec<u8>)> {
        let crowds = exec::par_chunks(
            &records,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_, chunk| {
                ElGamalCiphertext::batch_to_bytes(chunk.iter().map(|record| &record.blinded_crowd))
            },
        );
        crowds
            .into_iter()
            .flatten()
            .zip(records)
            .map(|(crowd, record)| (crowd, record.inner))
            .collect()
    }

    /// Parses [`Self::records`] back into curve points in parallel chunks
    /// (two square roots per record), rejecting invalid encodings.
    pub fn decode_records(
        records: Vec<([u8; 64], Vec<u8>)>,
        num_threads: usize,
    ) -> Result<Vec<BlindedRecord>, FabricError> {
        let crowds: Vec<Vec<ElGamalCiphertext>> = exec::par_chunks(
            &records,
            num_threads,
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_, chunk| {
                chunk
                    .iter()
                    .map(|(crowd, _)| ElGamalCiphertext::from_bytes(crowd))
                    .collect()
            },
        )
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|_| FabricError::Malformed("invalid blinded crowd id"))?;
        Ok(crowds
            .into_iter()
            .flatten()
            .zip(records)
            .map(|(blinded_crowd, (_, inner))| BlindedRecord {
                blinded_crowd,
                inner,
            })
            .collect())
    }
}

impl WireMessage for BatchToTwo {
    fn to_wire(&self) -> Vec<u8> {
        // Tag, shard, epoch, seed, received, stats, then 64 crowd-id bytes
        // in front of each length-prefixed inner ciphertext.
        let records = blobs_len(self.records.iter().map(|(_, inner)| inner.as_slice()));
        let len = 1 + 4 + 3 * 8 + STATS_LEN + records + 64 * self.records.len();
        let mut out = Vec::with_capacity(len);
        put_u8(&mut out, TAG_BATCH_TO_TWO);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.s2_seed);
        put_u64(&mut out, self.received as u64);
        // prochlo-lint: allow(panic-on-wire, "encode path: serializing our own in-memory stats, no peer-controlled bytes involved")
        encode_stats(&mut out, &self.stage_one).expect("split stage stats always encode");
        put_u32(&mut out, self.records.len() as u32);
        for (crowd, inner) in &self.records {
            out.extend_from_slice(crowd);
            put_bytes(&mut out, inner);
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        let mut reader = Reader::new(bytes);
        expect_tag(&mut reader, TAG_BATCH_TO_TWO)?;
        let shard = get_u16(&mut reader, "truncated shard index")?;
        let epoch_index = get_u64(&mut reader, "truncated epoch index")?;
        let s2_seed = get_u64(&mut reader, "truncated stage-two seed")?;
        let received = get_usize(&mut reader, "truncated received count")?;
        let stage_one = decode_stats(&mut reader)?;
        let count = get_count(&mut reader, "truncated record count")?;
        if count > reader.remaining() {
            return Err(FabricError::Malformed("record count exceeds message"));
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let crowd: [u8; 64] = *reader
                .get_fixed()
                .map_err(|_| FabricError::Malformed("truncated blinded crowd id"))?;
            records.push((crowd, get_vec(&mut reader, "truncated inner ciphertext")?));
        }
        finish(&reader)?;
        Ok(Self {
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
#[derive(Debug, Clone, PartialEq)]
pub struct ItemsBatch {
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
    pub items: Vec<Vec<u8>>,
}

impl WireMessage for ItemsBatch {
    fn to_wire(&self) -> Vec<u8> {
        // Tag, shard, epoch, received, both stages' stats, then the items.
        let len = 1 + 4 + 2 * 8 + 2 * STATS_LEN + blobs_len(self.items.iter().map(Vec::as_slice));
        let mut out = Vec::with_capacity(len);
        put_u8(&mut out, TAG_ITEMS);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.received as u64);
        // prochlo-lint: allow(panic-on-wire, "encode path: serializing our own in-memory stats, no peer-controlled bytes involved")
        encode_stats(&mut out, &self.stage_one).expect("split stage stats always encode");
        // prochlo-lint: allow(panic-on-wire, "encode path: serializing our own in-memory stats, no peer-controlled bytes involved")
        encode_stats(&mut out, &self.stage_two).expect("split stage stats always encode");
        put_u32(&mut out, self.items.len() as u32);
        for item in &self.items {
            put_bytes(&mut out, item);
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        let mut reader = Reader::new(bytes);
        expect_tag(&mut reader, TAG_ITEMS)?;
        let shard = get_u16(&mut reader, "truncated shard index")?;
        let epoch_index = get_u64(&mut reader, "truncated epoch index")?;
        let received = get_usize(&mut reader, "truncated received count")?;
        let stage_one = decode_stats(&mut reader)?;
        let stage_two = decode_stats(&mut reader)?;
        let count = get_count(&mut reader, "truncated item count")?;
        if count > reader.remaining() {
            return Err(FabricError::Malformed("item count exceeds message"));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(get_vec(&mut reader, "truncated item")?);
        }
        finish(&reader)?;
        Ok(Self {
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
/// batch stage itself (not [`crate::transport::Stage::Control`]) because a
/// receiver is addressed to exactly one channel at a time — in-band framing
/// is what lets it block on a single stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToOne {
    /// An epoch batch to blind and shuffle.
    Batch(BatchToOne),
    /// The shard is finished; move on to the next one.
    Done,
}

impl WireMessage for ToOne {
    fn to_wire(&self) -> Vec<u8> {
        match self {
            ToOne::Batch(batch) => batch.to_wire(),
            ToOne::Done => Control::Done.to_wire(),
        }
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        match bytes.first() {
            Some(&TAG_BATCH_TO_ONE) => Ok(ToOne::Batch(BatchToOne::from_wire(bytes)?)),
            Some(&TAG_CONTROL_DONE) => {
                Control::from_wire(bytes)?;
                Ok(ToOne::Done)
            }
            _ => Err(FabricError::Malformed("unknown batch-stream tag")),
        }
    }
}

/// What Shuffler 2 reads off Shuffler 1's record stream: a blinded batch,
/// or the end-of-stream marker after every shard finished.
#[derive(Debug, Clone, PartialEq)]
pub enum ToTwo {
    /// A blinded batch to unblind, threshold and shuffle.
    Batch(Box<BatchToTwo>),
    /// Every shard is finished; Shuffler 2 can exit.
    Done,
}

impl WireMessage for ToTwo {
    fn to_wire(&self) -> Vec<u8> {
        match self {
            ToTwo::Batch(batch) => batch.to_wire(),
            ToTwo::Done => Control::Done.to_wire(),
        }
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        match bytes.first() {
            Some(&TAG_BATCH_TO_TWO) => Ok(ToTwo::Batch(Box::new(BatchToTwo::from_wire(bytes)?))),
            Some(&TAG_CONTROL_DONE) => {
                Control::from_wire(bytes)?;
                Ok(ToTwo::Done)
            }
            _ => Err(FabricError::Malformed("unknown record-stream tag")),
        }
    }
}

/// One shard's epoch result: collector shard → driver. The driver rebuilds
/// the database with [`prochlo_core::AnalyzerDatabase::from_rows`] and
/// merges shards in index order, matching the in-process
/// [`prochlo_core::ShardedDeployment::ingest`] merge.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// The reporting shard.
    pub shard: u16,
    /// The epoch the summary covers.
    pub epoch_index: u64,
    /// Decrypted database rows.
    pub rows: Vec<Vec<u8>>,
    /// Items that failed to decrypt or parse.
    pub undecryptable: usize,
    /// Secret-shared groups below the share threshold.
    pub pending_secret_groups: usize,
    /// Reports in unrecovered secret-shared groups.
    pub pending_secret_reports: usize,
    /// Secret-shared values recovered.
    pub recovered_secrets: usize,
    /// The merged batch-level shuffler statistics.
    pub stats: ShufflerStats,
}

impl WireMessage for ShardSummary {
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, TAG_SUMMARY);
        put_u32(&mut out, u32::from(self.shard));
        put_u64(&mut out, self.epoch_index);
        put_u64(&mut out, self.undecryptable as u64);
        put_u64(&mut out, self.pending_secret_groups as u64);
        put_u64(&mut out, self.pending_secret_reports as u64);
        put_u64(&mut out, self.recovered_secrets as u64);
        // prochlo-lint: allow(panic-on-wire, "encode path: serializing our own in-memory stats, no peer-controlled bytes involved")
        encode_stats(&mut out, &self.stats).expect("split stage stats always encode");
        put_u32(&mut out, self.rows.len() as u32);
        for row in &self.rows {
            put_bytes(&mut out, row);
        }
        out
    }

    fn from_wire(bytes: &[u8]) -> Result<Self, FabricError> {
        let mut reader = Reader::new(bytes);
        expect_tag(&mut reader, TAG_SUMMARY)?;
        let shard = get_u16(&mut reader, "truncated shard index")?;
        let epoch_index = get_u64(&mut reader, "truncated epoch index")?;
        let undecryptable = get_usize(&mut reader, "truncated counter")?;
        let pending_secret_groups = get_usize(&mut reader, "truncated counter")?;
        let pending_secret_reports = get_usize(&mut reader, "truncated counter")?;
        let recovered_secrets = get_usize(&mut reader, "truncated counter")?;
        let stats = decode_stats(&mut reader)?;
        let count = get_count(&mut reader, "truncated row count")?;
        if count > reader.remaining() {
            return Err(FabricError::Malformed("row count exceeds message"));
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(get_vec(&mut reader, "truncated row")?);
        }
        finish(&reader)?;
        Ok(Self {
            shard,
            epoch_index,
            rows,
            undecryptable,
            pending_secret_groups,
            pending_secret_reports,
            recovered_secrets,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(backend: &'static str) -> ShufflerStats {
        ShufflerStats {
            received: 10,
            forwarded: 8,
            dropped_noise: 1,
            dropped_threshold: 1,
            rejected: 0,
            crowds_seen: 2,
            crowds_forwarded: 1,
            shuffle_attempts: 1,
            backend,
            timings: PhaseTimings {
                peel_seconds: 0.25,
                threshold_seconds: 0.5,
                shuffle_seconds: 0.125,
            }
            .into(),
        }
    }

    #[test]
    fn every_message_roundtrips() {
        for control in [Control::Shutdown, Control::Done] {
            assert_eq!(Control::from_wire(&control.to_wire()).unwrap(), control);
        }
        let batch = BatchToOne {
            shard: 3,
            epoch_index: 9,
            s1_seed: 1,
            s2_seed: 2,
            reports: vec![vec![1; 40], vec![2; 40]],
        };
        assert_eq!(BatchToOne::from_wire(&batch.to_wire()).unwrap(), batch);
        let to_two = BatchToTwo {
            shard: 3,
            epoch_index: 9,
            s2_seed: 2,
            received: 2,
            stage_one: sample_stats("blind"),
            records: vec![([7u8; 64], vec![1, 2, 3])],
        };
        let parsed = BatchToTwo::from_wire(&to_two.to_wire()).unwrap();
        assert_eq!(parsed, to_two);
        // PartialEq on ShufflerStats ignores timings; pin them separately.
        assert_eq!(parsed.stage_one.timings.peel_seconds, 0.25);
        let items = ItemsBatch {
            shard: 3,
            epoch_index: 9,
            received: 2,
            stage_one: sample_stats("blind"),
            stage_two: sample_stats("inline"),
            items: vec![vec![5; 20]],
        };
        assert_eq!(ItemsBatch::from_wire(&items.to_wire()).unwrap(), items);
        let summary = ShardSummary {
            shard: 1,
            epoch_index: 9,
            rows: vec![b"chrome".to_vec(); 3],
            undecryptable: 1,
            pending_secret_groups: 0,
            pending_secret_reports: 0,
            recovered_secrets: 2,
            stats: sample_stats("inline"),
        };
        assert_eq!(
            ShardSummary::from_wire(&summary.to_wire()).unwrap(),
            summary
        );
    }

    #[test]
    fn cross_stage_payloads_fail_to_parse() {
        let batch = BatchToOne {
            shard: 0,
            epoch_index: 0,
            s1_seed: 0,
            s2_seed: 0,
            reports: vec![],
        };
        assert!(Control::from_wire(&batch.to_wire()).is_err());
        assert!(ItemsBatch::from_wire(&batch.to_wire()).is_err());
        assert!(ShardSummary::from_wire(&Control::Done.to_wire()).is_err());
    }

    #[test]
    fn truncations_never_parse() {
        let summary = ShardSummary {
            shard: 0,
            epoch_index: 1,
            rows: vec![vec![1, 2]],
            undecryptable: 0,
            pending_secret_groups: 0,
            pending_secret_reports: 0,
            recovered_secrets: 0,
            stats: sample_stats("inline"),
        };
        let bytes = summary.to_wire();
        for cut in 0..bytes.len() {
            assert!(ShardSummary::from_wire(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bogus_counts_are_rejected_before_allocation() {
        let mut bytes = BatchToOne {
            shard: 0,
            epoch_index: 0,
            s1_seed: 0,
            s2_seed: 0,
            reports: vec![],
        }
        .to_wire();
        let len = bytes.len();
        // Overwrite the report count with a huge value.
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            BatchToOne::from_wire(&bytes),
            Err(FabricError::Malformed("report count exceeds message"))
        ));
    }
}
