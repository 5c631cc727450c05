//! The client's sealing path, held to its wire bytes.
//!
//! `ENCODER_WIRE_SHA256` is the SHA-256 of the outer ciphertexts an
//! [`Encoder`] produces for a seeded stream of 64 reports each of
//! `encode_plain` + `Hash`, `encode_plain` + `Blind` and
//! `encode_secret_shared` + `Hash`. It was first captured while every layer
//! was still sealed through the one-shot `HybridCiphertext::seal(&PublicKey)`
//! and `ElGamalCiphertext::encrypt_hashed(&Point)`, before the encoder
//! precomputed its recipients' comb tables. It was re-captured once, when
//! the AEAD became ChaCha20-Poly1305 and the layer key one SHA-256 (the
//! `prochlo-hybrid-v2` label): that change moves every ciphertext byte and
//! tag, and `ENCODER_DRAWS_SHA256`, the digest of what the RNG draws alone
//! fix, passed unedited on both sides of it. If either fails, a change to
//! client sealing moved the bytes on the wire or the order of the RNG
//! draws — fix the regression, do not re-capture.
//!
//! The degenerate-key test holds the encoder to the one-shot calls, byte
//! for byte and draw for draw, on keys a client could be handed: the
//! identity and the order-2 point `(0, −1)` both decode as public keys, so
//! the precomputed path must neither panic on them nor answer differently.
//! Each placement keeps the other keys honest, so the same comparison
//! covers the ordinary path too.

use prochlo_core::encoder::{ClientKeys, CrowdStrategy, Encoder, ANALYZER_AAD, SHUFFLER_AAD};
use prochlo_core::wire::pad_payload;
use prochlo_core::{AnalyzerPayload, CrowdId, PipelineError, ShufflerEnvelope};
use prochlo_crypto::edwards::{CompressedPoint, Point};
use prochlo_crypto::elgamal::{ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::sha256::Sha256;
use prochlo_crypto::{mle, shamir, PublicKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PIN_SEED: u64 = 0xc11e;
const ENCODER_WIRE_SHA256: &str =
    "9fd844ec7c79db188f4f9660848a8f6192930d9fdc4e90a5e16a68ed3611d1f6";
/// The witness beside `ENCODER_WIRE_SHA256`: the SHA-256 of what the RNG
/// draws fix in the same 192 reports and no symmetric construction can move
/// (see `hash_draws`). Captured under the HMAC-tagged AEAD and unchanged by
/// the move to ChaCha20-Poly1305, so a failing wire pin with a passing
/// witness is a change of ciphertext bytes alone.
const ENCODER_DRAWS_SHA256: &str =
    "1c5ac753dc643d2fe2f48bab37352e86a40ad56b0d0587bb0d258518322224c8";

const PAYLOAD_SIZE: usize = 32;
const SHARE_THRESHOLD: usize = 3;

/// The encoded point `(0, 1)`: the group identity.
const IDENTITY: [u8; 32] = {
    let mut bytes = [0u8; 32];
    bytes[0] = 1;
    bytes
};

/// The encoded point `(0, −1)`: y = p − 1 = 2²⁵⁵ − 20, x = 0. Twice it is
/// the identity, so `e·P` is the identity for every even `e`.
const ORDER_TWO: [u8; 32] = {
    let mut bytes = [0xff; 32];
    bytes[0] = 0xec;
    bytes[31] = 0x7f;
    bytes
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn seeded_keys(rng: &mut StdRng) -> ClientKeys {
    seeded_keys_and_shuffler(rng).0
}

/// [`seeded_keys`] together with the shuffler's keypair, which peels the
/// outer layer for [`ENCODER_DRAWS_SHA256`].
fn seeded_keys_and_shuffler(rng: &mut StdRng) -> (ClientKeys, HybridKeypair) {
    let shuffler = HybridKeypair::generate(rng);
    let analyzer = HybridKeypair::generate(rng);
    let blinding = ElGamalKeypair::generate(rng);
    let keys = ClientKeys {
        shuffler: *shuffler.public_key(),
        analyzer: *analyzer.public_key(),
        crowd_blinding: Some(*blinding.public_key()),
    };
    (keys, shuffler)
}

/// Feeds `hasher` the bytes of one outer ciphertext that the RNG draws fix
/// and the AEAD does not touch: the outer `ephemeral ‖ nonce`, then, with
/// the layer peeled, the inner `ephemeral ‖ nonce` and any El Gamal crowd
/// ID.
fn hash_draws(hasher: &mut Sha256, outer: &[u8], shuffler: &HybridKeypair) {
    let outer = HybridCiphertext::from_bytes(outer).unwrap();
    hasher.update(&outer.ephemeral).update(&outer.nonce);
    let peeled = outer.open(shuffler.secret(), SHUFFLER_AAD).unwrap();
    let envelope = ShufflerEnvelope::from_bytes(&peeled).unwrap();
    let inner = HybridCiphertext::from_bytes(&envelope.inner).unwrap();
    hasher.update(&inner.ephemeral).update(&inner.nonce);
    if let CrowdId::Blinded(crowd) = &envelope.crowd_id {
        hasher.update(crowd);
    }
}

/// The three report shapes a deployment sends.
#[derive(Clone, Copy, Debug)]
enum Shape {
    PlainHash,
    PlainBlind,
    SharedHash,
}

const SHAPES: [Shape; 3] = [Shape::PlainHash, Shape::PlainBlind, Shape::SharedHash];

fn word(i: u64) -> Vec<u8> {
    format!("word-{}", i % 7).into_bytes()
}

fn encode(
    encoder: &Encoder,
    shape: Shape,
    value: &[u8],
    client: u64,
    rng: &mut StdRng,
) -> Result<Vec<u8>, PipelineError> {
    match shape {
        Shape::PlainHash => encoder.encode_plain(value, CrowdStrategy::Hash(value), client, rng),
        Shape::PlainBlind => encoder.encode_plain(value, CrowdStrategy::Blind(value), client, rng),
        Shape::SharedHash => encoder.encode_secret_shared(
            value,
            SHARE_THRESHOLD,
            CrowdStrategy::Hash(value),
            client,
            rng,
        ),
    }
    .map(|report| report.outer.to_bytes())
}

/// The same report built from the one-shot calls, in the encoder's draw
/// order: Shamir coefficients (secret-shared only), El Gamal `r`, inner
/// ephemeral, inner nonce, outer ephemeral, outer nonce.
fn one_shot(
    keys: &ClientKeys,
    shape: Shape,
    value: &[u8],
    rng: &mut StdRng,
) -> Result<Vec<u8>, PipelineError> {
    let padded = pad_payload(value, PAYLOAD_SIZE)?;
    let payload = match shape {
        Shape::PlainHash | Shape::PlainBlind => AnalyzerPayload::Plain(padded),
        Shape::SharedHash => AnalyzerPayload::SecretShared {
            ciphertext: mle::encrypt(&padded).to_bytes(),
            share: shamir::share_secret(&mle::derive_key(&padded), SHARE_THRESHOLD, rng)
                .to_bytes()
                .to_vec(),
        },
    };
    let crowd_id = match shape {
        Shape::PlainHash | Shape::SharedHash => CrowdId::hashed(value),
        Shape::PlainBlind => {
            let key = keys.crowd_blinding.as_ref().expect("blinding key");
            CrowdId::Blinded(ElGamalCiphertext::encrypt_hashed(rng, key, value).to_bytes())
        }
    };
    let inner = HybridCiphertext::seal(rng, &keys.analyzer, ANALYZER_AAD, &payload.to_bytes())?;
    let envelope = ShufflerEnvelope {
        crowd_id,
        inner: inner.to_bytes(),
    };
    let outer = HybridCiphertext::seal(rng, &keys.shuffler, SHUFFLER_AAD, &envelope.to_bytes())?;
    Ok(outer.to_bytes())
}

#[test]
fn encoder_wire_bytes_match_the_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(PIN_SEED);
    let (keys, shuffler) = seeded_keys_and_shuffler(&mut rng);
    let encoder = Encoder::new(keys, PAYLOAD_SIZE);
    let (mut hasher, mut draws) = (Sha256::new(), Sha256::new());
    for shape in SHAPES {
        for i in 0..64u64 {
            let bytes = encode(&encoder, shape, &word(i), i, &mut rng).unwrap();
            hasher.update(&bytes);
            hash_draws(&mut draws, &bytes, &shuffler);
        }
    }
    assert_eq!(hex(&draws.finalize()), ENCODER_DRAWS_SHA256);
    assert_eq!(hex(&hasher.finalize()), ENCODER_WIRE_SHA256);
}

#[test]
fn a_degenerate_recipient_key_behaves_as_the_one_shot_seal_does() {
    let mut rng = StdRng::seed_from_u64(PIN_SEED ^ 2);
    let honest = seeded_keys(&mut rng);
    for encoding in [IDENTITY, ORDER_TWO] {
        let hybrid = PublicKey::from_bytes(encoding).expect("a decodable public key");
        let point: Point = CompressedPoint(encoding).decompress().unwrap();
        let placements = [
            ClientKeys {
                shuffler: hybrid,
                ..honest.clone()
            },
            ClientKeys {
                analyzer: hybrid,
                ..honest.clone()
            },
            ClientKeys {
                crowd_blinding: Some(point),
                ..honest.clone()
            },
            ClientKeys {
                shuffler: hybrid,
                analyzer: hybrid,
                crowd_blinding: Some(point),
            },
        ];
        for keys in placements {
            let encoder = Encoder::new(keys.clone(), PAYLOAD_SIZE);
            let (mut sealed, mut refused) = (0, 0);
            for i in 0..12u64 {
                for shape in SHAPES {
                    let seed = rng.gen::<u64>();
                    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let value = word(i);
                    let got = encode(&encoder, shape, &value, i, &mut a);
                    assert_eq!(got, one_shot(&keys, shape, &value, &mut b), "{shape:?}");
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{shape:?} draw count");
                    if got.is_ok() {
                        sealed += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
            let hybrid_degenerate = keys.shuffler == hybrid || keys.analyzer == hybrid;
            match (encoding == IDENTITY, hybrid_degenerate) {
                // A shared point that is the identity is always refused.
                (true, true) => assert_eq!(sealed, 0),
                // (0, −1) times an odd ephemeral scalar is not the identity.
                (false, true) => assert!(sealed > 0 && refused > 0, "{sealed} / {refused}"),
                // A degenerate El Gamal key only makes the crowd ID weak.
                (_, false) => assert_eq!(refused, 0),
            }
        }
    }
}
