//! Property tests for the decoders that face a peer: the fabric's envelopes
//! and typed messages, the collector protocol's requests and responses, and
//! the core report formats a shuffler and an analyzer peel. Each
//! round-trips exactly, refuses every truncation and a trailing byte, and
//! never panics on malformed, truncated or misaddressed input: a receive
//! path faces whatever the other end of a socket sends, so — exactly as
//! for `prochlo_core::wire` — "worst case is an error" is a hard
//! requirement. `Envelope::from_bytes` is the in-place parser every link
//! runs plus a copy of the payload, so the envelope properties fuzz the
//! production parser. The TCP transport writes its frames in pieces (frame
//! header, envelope header, payload); the bytes it puts on the socket must
//! be exactly the reference `Envelope::to_bytes` framed by `write_frame`.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};

use prochlo_collector::protocol::{Request, RequestRef, Response, NONCE_LEN};
use prochlo_collector::CollectorError;
use prochlo_core::framing::{FrameRead, FrameWrite};
use prochlo_core::record::{AnalyzerPayload, CrowdId, ShufflerEnvelope};
use prochlo_core::shuffler::split::BlindedRecord;
use prochlo_core::shuffler::{BackendKind, PhaseTimings, ShufflerStats};
use prochlo_crypto::elgamal::{ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_fabric::transport::{frame_policy, WireMessage};
use prochlo_fabric::{
    BatchToOne, BatchToTwo, Envelope, FabricError, ItemsBatch, Peer, Stage, TcpTransportBuilder,
    ToOne, ToShard, ToTwo, Transport,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const STAGES: [Stage; 3] = [Stage::Batch, Stage::Records, Stage::Items];

fn arb_peer(selector: u8, shard: u16) -> Peer {
    match selector % 3 {
        0 => Peer::ShufflerOne,
        1 => Peer::ShufflerTwo,
        _ => Peer::Shard(shard),
    }
}

fn stats(seed: u64) -> ShufflerStats {
    let mut rng = StdRng::seed_from_u64(seed);
    ShufflerStats {
        received: rng.gen_range(0..1000),
        forwarded: rng.gen_range(0..1000),
        dropped_noise: rng.gen_range(0..100),
        dropped_threshold: rng.gen_range(0..100),
        rejected: rng.gen_range(0..100),
        crowds_seen: rng.gen_range(0..50),
        crowds_forwarded: rng.gen_range(0..50),
        shuffle_attempts: rng.gen_range(0..4),
        backend: BackendKind::Trusted,
        duplicate_reports: 0,
        timings: PhaseTimings {
            peel_seconds: rng.gen::<f64>(),
            threshold_seconds: rng.gen::<f64>(),
            shuffle_seconds: rng.gen::<f64>(),
        }
        .into(),
    }
}

fn bytes_from_seed(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn blobs(seed: u64, count: usize, max_len: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(0..=max_len);
            let mut blob = vec![0u8; len];
            rng.fill_bytes(&mut blob);
            blob
        })
        .collect()
}

/// `count` outer ciphertexts of random bytes, from the shortest a report
/// can be up to `max_sealed` bytes past it.
fn outers(seed: u64, count: usize, max_sealed: usize) -> Vec<HybridCiphertext> {
    blobs(seed, count, max_sealed)
        .into_iter()
        .enumerate()
        .map(|(i, mut tag)| {
            tag.resize(tag.len() + 16, i as u8);
            HybridCiphertext {
                ephemeral: [i as u8; 32],
                nonce: [(seed % 251) as u8; 12],
                sealed: tag,
            }
        })
        .collect()
}

/// Blinded records over `inners`, each crowd ID a fill byte.
fn records(seed: u64, inners: &[Vec<u8>]) -> Vec<BlindedRecord<&[u8]>> {
    inners
        .iter()
        .map(|inner| BlindedRecord {
            blinded_crowd: [(seed % 251) as u8; 64],
            inner: inner.as_slice(),
        })
        .collect()
}

/// One collector request of each kind `kind % 4` selects.
fn request(seed: u64, kind: u8, report_len: usize) -> Request {
    let nonce = [(seed % 251) as u8; NONCE_LEN];
    let report = bytes_from_seed(seed, report_len);
    match kind % 4 {
        0 => Request::Submit { nonce, report },
        1 => Request::Ping,
        2 => Request::SubmitRouted {
            crowd_prefix: seed,
            nonce,
            report,
        },
        _ => Request::Stats,
    }
}

/// One collector response of each kind `kind % 5` selects; text fields
/// are ASCII so they round-trip.
fn response(seed: u64, kind: u8, entries: usize) -> Response {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = |max: usize| -> String {
        let len = rng.gen_range(0..=max);
        (0..len)
            .map(|_| rng.gen_range(b'a'..=b'z') as char)
            .collect()
    };
    match kind % 5 {
        0 => Response::Ack {
            pending: seed as u32,
        },
        1 => Response::RetryAfter {
            millis: (seed >> 32) as u32,
        },
        2 => Response::Rejected { reason: text(40) },
        3 => Response::Duplicate,
        _ => Response::Stats {
            entries: (0..entries)
                .map(|i| (text(24), f64::from_bits(seed.rotate_left(i as u32))))
                .collect(),
        },
    }
}

/// One crowd ID of each kind `kind % 3` selects.
fn crowd_id(seed: u64, kind: u8) -> CrowdId {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind % 3 {
        0 => CrowdId::None,
        1 => CrowdId::hashed(&seed.to_le_bytes()),
        _ => {
            let keys = ElGamalKeypair::generate(&mut rng);
            CrowdId::Blinded(
                ElGamalCiphertext::encrypt_hashed(&mut rng, keys.public_key(), &seed.to_le_bytes())
                    .to_bytes(),
            )
        }
    }
}

/// Asserts that `accepts` holds for `bytes` and fails for every strict
/// prefix of it and for `bytes` with one byte appended.
fn refuses_every_cut_and_a_trailing_byte(bytes: &[u8], accepts: impl Fn(&[u8]) -> bool) {
    assert!(accepts(bytes));
    for cut in 0..bytes.len() {
        assert!(!accepts(&bytes[..cut]), "cut {cut}");
    }
    let mut extended = bytes.to_vec();
    extended.push(0);
    assert!(!accepts(&extended), "trailing byte");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_envelopes_roundtrip(
        selector in any::<u8>(),
        shard in any::<u16>(),
        stage_idx in 0usize..3,
        seq in any::<u64>(),
        payload_seed in any::<u64>(),
        payload_len in 0usize..256,
    ) {
        let envelope = Envelope {
            from: arb_peer(selector, shard),
            stage: STAGES[stage_idx],
            seq,
            payload: bytes_from_seed(payload_seed, payload_len),
        };
        prop_assert_eq!(Envelope::from_bytes(&envelope.to_bytes()).unwrap(), envelope);
    }

    #[test]
    fn prop_random_bytes_never_panic_any_parser(seed in any::<u64>(), len in 0usize..512) {
        // Every parser must fail cleanly (or succeed) on arbitrary input;
        // a panic here is a remote denial of service.
        let bytes = bytes_from_seed(seed, len);
        let _ = Envelope::from_bytes(&bytes);
        let _ = <BatchToOne>::from_wire(&bytes);
        let _ = <BatchToTwo>::from_wire(&bytes);
        let _ = <ItemsBatch>::from_wire(&bytes);
        let _ = <ToOne>::from_wire(&bytes);
        let _ = <ToTwo>::from_wire(&bytes);
        let _ = <ToShard>::from_wire(&bytes);
        let _ = RequestRef::parse(&bytes);
        let _ = Response::from_bytes(&bytes);
        let _ = AnalyzerPayload::from_bytes(&bytes);
        let _ = ShufflerEnvelope::from_bytes(&bytes);
    }

    #[test]
    fn prop_collector_messages_refuse_every_cut_and_a_trailing_byte(
        seed in any::<u64>(),
        kind in any::<u8>(),
        len in 0usize..48,
    ) {
        let request = request(seed, kind, len);
        let bytes = request.to_bytes();
        prop_assert_eq!(Request::from_bytes(&bytes).unwrap(), request);
        refuses_every_cut_and_a_trailing_byte(&bytes, |b| RequestRef::parse(b).is_ok());

        let response = response(seed, kind, len % 6);
        let bytes = response.to_bytes();
        prop_assert_eq!(Response::from_bytes(&bytes).unwrap(), response);
        refuses_every_cut_and_a_trailing_byte(&bytes, |b| Response::from_bytes(b).is_ok());
    }

    #[test]
    fn prop_a_stats_count_its_bytes_cannot_hold_is_refused(
        seed in any::<u64>(),
        entries in 0usize..6,
        excess in any::<u32>(),
    ) {
        // The smallest entry is an empty name and a value: 12 bytes. Any
        // count above what the bytes after it hold at that size fails
        // before the parser reserves anything for it.
        let mut bytes = response(seed, 4, entries).to_bytes();
        let most = (bytes.len() - 5) / 12;
        let count = (most as u32).saturating_add(1).saturating_add(excess);
        bytes[1..5].copy_from_slice(&count.to_le_bytes());
        prop_assert!(matches!(
            Response::from_bytes(&bytes),
            Err(CollectorError::Protocol("stats count exceeds frame"))
        ));
    }

    #[test]
    fn prop_report_formats_refuse_every_cut_and_a_trailing_byte(
        seed in any::<u64>(),
        kind in any::<u8>(),
        len in 0usize..48,
    ) {
        let payload = match kind % 2 {
            0 => AnalyzerPayload::Plain(bytes_from_seed(seed, len)),
            _ => AnalyzerPayload::SecretShared {
                ciphertext: bytes_from_seed(seed, len),
                share: bytes_from_seed(seed ^ 1, 64),
            },
        };
        let bytes = payload.to_bytes();
        prop_assert_eq!(AnalyzerPayload::from_bytes(&bytes).unwrap(), payload);
        refuses_every_cut_and_a_trailing_byte(&bytes, |b| AnalyzerPayload::from_bytes(b).is_ok());

        let envelope = ShufflerEnvelope {
            crowd_id: crowd_id(seed, kind),
            inner: bytes_from_seed(seed ^ 2, len),
        };
        let bytes = envelope.to_bytes();
        prop_assert_eq!(ShufflerEnvelope::from_bytes(&bytes).unwrap(), envelope);
        refuses_every_cut_and_a_trailing_byte(&bytes, |b| ShufflerEnvelope::from_bytes(b).is_ok());
        // A crowd-ID field one byte longer than its crowd ID is refused
        // too: the field is used up exactly, not only the envelope.
        let field_len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        let mut longer = (field_len + 1).to_le_bytes().to_vec();
        longer.extend_from_slice(&bytes[4..4 + field_len as usize]);
        longer.push(0);
        longer.extend_from_slice(&bytes[4 + field_len as usize..]);
        prop_assert!(ShufflerEnvelope::from_bytes(&longer).is_err());
    }

    #[test]
    fn prop_envelope_truncations_always_error(
        selector in any::<u8>(),
        shard in any::<u16>(),
        stage_idx in 0usize..3,
        seq in any::<u64>(),
        payload_seed in any::<u64>(),
        payload_len in 1usize..64,
    ) {
        let bytes = Envelope {
            from: arb_peer(selector, shard),
            stage: STAGES[stage_idx],
            seq,
            payload: bytes_from_seed(payload_seed, payload_len),
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Envelope::from_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
        }
        // One trailing byte is as fatal as one missing byte.
        let mut extended = bytes;
        extended.push(0);
        prop_assert!(Envelope::from_bytes(&extended).is_err());
    }

    #[test]
    fn prop_unknown_channels_are_rejected_loudly(seq in any::<u64>()) {
        // Every tag byte in the peer and the stage position: an assigned
        // tag (peers 2–4, stages 1–3) decodes to its peer or stage, and a
        // frame carrying any other, 0 included, must name the tag in the
        // error, not be skipped or misfiled.
        let good = Envelope {
            from: Peer::ShufflerOne,
            stage: Stage::Batch,
            seq,
            payload: vec![1, 2, 3],
        }
        .to_bytes();
        for tag in 0..=u8::MAX {
            let mut bytes = good.clone();
            bytes[0] = tag;
            let decoded = Envelope::from_bytes(&bytes);
            match tag {
                2..=4 => {
                    let peers = [Peer::ShufflerOne, Peer::ShufflerTwo, Peer::Shard(0)];
                    prop_assert_eq!(decoded.unwrap().from, peers[usize::from(tag - 2)]);
                }
                _ => prop_assert!(
                    matches!(
                        decoded,
                        Err(FabricError::UnknownChannel { what: "peer", tag: got }) if got == tag
                    ),
                    "peer tag {}: {:?}", tag, decoded
                ),
            }
            let mut bytes = good.clone();
            bytes[5] = tag;
            let decoded = Envelope::from_bytes(&bytes);
            match tag {
                1..=3 => prop_assert_eq!(decoded.unwrap().stage, STAGES[usize::from(tag - 1)]),
                _ => prop_assert!(
                    matches!(
                        decoded,
                        Err(FabricError::UnknownChannel { what: "stage", tag: got }) if got == tag
                    ),
                    "stage tag {}: {:?}", tag, decoded
                ),
            }
        }
    }

    #[test]
    fn prop_typed_messages_roundtrip(seed in any::<u64>(), count in 0usize..12) {
        let batch = BatchToOne {
            shard: (seed % 7) as u16,
            epoch_index: seed,
            s1_seed: seed.wrapping_mul(3),
            s2_seed: seed.wrapping_mul(5),
            reports: outers(seed, count, 96),
        };
        // The batch encodings reserve their exact length up front: growing
        // by doubling would leave capacity over and copy the batch on the
        // way.
        let bytes = batch.to_wire();
        prop_assert_eq!(bytes.capacity(), bytes.len());
        prop_assert_eq!(<BatchToOne>::from_wire(&bytes).unwrap(), batch.clone());
        prop_assert_eq!(
            <ToOne>::from_wire(&ToOne::Batch(batch.clone()).to_wire()).unwrap(),
            ToOne::Batch(batch.clone())
        );
        // A shard encodes from references into its batch: the same bytes.
        let borrowed = BatchToOne {
            shard: batch.shard,
            epoch_index: batch.epoch_index,
            s1_seed: batch.s1_seed,
            s2_seed: batch.s2_seed,
            reports: batch.reports.iter().collect(),
        };
        prop_assert!(borrowed.to_wire() == bytes);

        let inners = blobs(seed ^ 1, count, 64);
        let to_two = BatchToTwo {
            shard: (seed % 7) as u16,
            epoch_index: seed,
            s2_seed: seed.wrapping_mul(5),
            received: count,
            stage_one: stats(seed),
            records: records(seed, &inners),
        };
        let bytes = to_two.to_wire();
        prop_assert_eq!(bytes.capacity(), bytes.len());
        let parsed = <BatchToTwo>::from_wire(&bytes).unwrap();
        prop_assert_eq!(&parsed, &to_two);
        // Shuffler 1 encodes from the owned records it peeled: the same bytes.
        let owned = BatchToTwo {
            shard: to_two.shard,
            epoch_index: to_two.epoch_index,
            s2_seed: to_two.s2_seed,
            received: to_two.received,
            stage_one: to_two.stage_one.clone(),
            records: to_two
                .records
                .iter()
                .map(|record| BlindedRecord {
                    blinded_crowd: record.blinded_crowd,
                    inner: record.inner.to_vec(),
                })
                .collect(),
        };
        prop_assert!(owned.to_wire() == bytes);
        // ShufflerStats equality ignores timings; pin them bit-for-bit.
        prop_assert_eq!(
            parsed.stage_one.timings.peel_seconds.to_bits(),
            to_two.stage_one.timings.peel_seconds.to_bits()
        );

        let item_bytes = blobs(seed ^ 3, count, 48);
        let items = ItemsBatch {
            shard: (seed % 7) as u16,
            epoch_index: seed,
            received: count,
            stage_one: stats(seed),
            stage_two: stats(seed ^ 2),
            items: item_bytes.iter().map(Vec::as_slice).collect(),
        };
        let bytes = items.to_wire();
        prop_assert_eq!(bytes.capacity(), bytes.len());
        prop_assert_eq!(<ItemsBatch>::from_wire(&bytes).unwrap(), items);
    }

    #[test]
    fn prop_typed_message_truncations_always_error(seed in any::<u64>(), count in 1usize..6) {
        let inners = blobs(seed, count, 40);
        let bytes = BatchToTwo {
            shard: 1,
            epoch_index: seed,
            s2_seed: seed,
            received: count,
            stage_one: stats(seed),
            records: records(9, &inners),
        }
        .to_wire();
        for cut in 0..bytes.len() {
            prop_assert!(<BatchToTwo>::from_wire(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }
}

/// Sends `messages` (stage index, payload) from a `TcpTransport` whose
/// identity is `from` to a raw socket, and returns every byte the raw side
/// read after the `HELLO` frame.
fn bytes_on_the_socket(from: Peer, to: Peer, messages: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0".parse::<SocketAddr>().unwrap()).unwrap();
    let addr = listener.local_addr().unwrap();
    let reader = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = stream.read_frame(&frame_policy()).unwrap();
        let mut expected_hello = Vec::new();
        from.encode(&mut expected_hello);
        assert_eq!(hello, expected_hello);
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        rest
    });
    let mut builder = TcpTransportBuilder::new(from);
    builder.connect(to, addr).unwrap();
    let transport = builder.build().unwrap();
    for (stage, payload) in messages {
        transport.send(to, STAGES[*stage], payload).unwrap();
    }
    // Dropping the transport closes the socket: the reader sees the end.
    drop(transport);
    reader.join().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_socket_bytes_equal_the_reference_frames(
        from_selector in any::<u8>(),
        to_selector in any::<u8>(),
        shard in any::<u16>(),
        seed in any::<u64>(),
        count in 1usize..4,
    ) {
        let from = arb_peer(from_selector, shard);
        let to = arb_peer(to_selector, shard.wrapping_add(1));
        // Up to 200 KiB each: larger than the socket takes in one write
        // and than the receiver's read chunk.
        let mut rng = StdRng::seed_from_u64(seed);
        let messages: Vec<(usize, Vec<u8>)> = (0..count)
            .map(|_| (rng.gen_range(0..3), bytes_from_seed(rng.gen(), rng.gen_range(0..=200 << 10))))
            .collect();
        let mut expected = Vec::new();
        let mut next_seq = [0u64; 3];
        for (stage, payload) in &messages {
            let envelope = Envelope {
                from,
                stage: STAGES[*stage],
                seq: next_seq[*stage],
                payload: payload.clone(),
            };
            next_seq[*stage] += 1;
            expected.write_frame(&frame_policy(), &envelope.to_bytes()).unwrap();
        }
        prop_assert!(bytes_on_the_socket(from, to, &messages) == expected);
    }
}
