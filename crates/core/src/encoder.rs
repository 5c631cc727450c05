//! The ESA encoder: client-side encoding, fragmentation, randomized response
//! and nested encryption (§3.2, §4.2).
//!
//! A client seals every report to the same keys, so [`Encoder::new`] builds
//! each key's comb table ([`FixedBaseTable`]) once — the shuffler's and the
//! analyzer's hybrid keys and Shuffler 2's El Gamal key — and shares them
//! behind an `Arc`: cloning an encoder copies a pointer. A report then
//! costs two comb walks for the ephemeral keys, two for the shared points
//! (three of each with a blinded crowd ID), one field inversion for both
//! layers' four points and a blinded crowd ID's two
//! ([`HybridCiphertext::seal_nested`]) and one scalar draw per layer (plus
//! the El Gamal randomness), each a single Barrett reduction. A comb walk
//! costs about a seventh of the NAF walk a bare key needs. The bytes, and
//! the order of every RNG draw, are those of two one-shot
//! [`HybridCiphertext::seal`]s and [`ElGamalCiphertext::encrypt_hashed`].
//! None of it is constant-time: the comb indexes its tables by bits of the
//! secret scalars, as `Point::mul_base` already does.

use std::sync::Arc;

use rand::Rng;

use prochlo_crypto::ecdh::PublicKey;
use prochlo_crypto::edwards::{FixedBaseTable, Point};
use prochlo_crypto::elgamal::ElGamalCiphertext;
use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_crypto::{mle, shamir};

use crate::error::PipelineError;
use crate::record::{AnalyzerPayload, ClientReport, CrowdId, ShufflerEnvelope, TransportMetadata};
use crate::wire::pad_payload;

/// Associated-data labels binding each nested-encryption layer to its role.
pub const SHUFFLER_AAD: &[u8] = b"prochlo-layer-shuffler";
/// Associated-data label for the analyzer (inner) layer.
pub const ANALYZER_AAD: &[u8] = b"prochlo-layer-analyzer";

/// The public keys a client's software ships with. Installing software with
/// these keys embedded is how users state their trust assumptions (§3.1).
#[derive(Debug, Clone)]
pub struct ClientKeys {
    /// The shuffler's hybrid-encryption public key (outer layer).
    pub shuffler: PublicKey,
    /// The analyzer's hybrid-encryption public key (inner layer).
    pub analyzer: PublicKey,
    /// Shuffler 2's El Gamal public key, present when the pipeline uses
    /// blinded crowd IDs (§4.3).
    pub crowd_blinding: Option<Point>,
}

/// How a report should be assigned to a crowd.
#[derive(Debug, Clone, Copy)]
pub enum CrowdStrategy<'a> {
    /// No crowd ID: the report bypasses thresholding.
    None,
    /// Attach `SHA-256(label)`; the shuffler thresholds on the hash.
    Hash(&'a [u8]),
    /// Attach an El Gamal encryption of the hashed-to-group label under
    /// Shuffler 2's key; requires [`ClientKeys::crowd_blinding`].
    Blind(&'a [u8]),
}

/// A configured client-side encoder. Cheap to clone: the precomputed keys
/// are shared.
#[derive(Debug, Clone)]
pub struct Encoder {
    keys: Arc<SealingKeys>,
    payload_size: usize,
}

/// [`ClientKeys`] with each key's comb table built.
#[derive(Debug)]
struct SealingKeys {
    shuffler: FixedBaseTable,
    analyzer: FixedBaseTable,
    crowd_blinding: Option<FixedBaseTable>,
}

impl Encoder {
    /// Creates an encoder, building the comb tables of its two or three
    /// keys (≈ 0.75 ms each on a 2 GHz core; any decodable key, including a
    /// degenerate one, builds). `payload_size` is the fixed data size every
    /// report is padded to (the paper uses 64-byte payloads in its
    /// evaluation).
    pub fn new(keys: ClientKeys, payload_size: usize) -> Self {
        let keys = SealingKeys {
            shuffler: FixedBaseTable::from(&keys.shuffler),
            analyzer: FixedBaseTable::from(&keys.analyzer),
            crowd_blinding: keys.crowd_blinding.as_ref().map(FixedBaseTable::new),
        };
        Self {
            keys: Arc::new(keys),
            payload_size,
        }
    }

    /// Encodes a plain report: the data (padded) is readable by the analyzer
    /// once the shuffler has forwarded it.
    pub fn encode_plain<R: Rng + ?Sized>(
        &self,
        data: &[u8],
        crowd: CrowdStrategy<'_>,
        client_index: u64,
        rng: &mut R,
    ) -> Result<ClientReport, PipelineError> {
        let padded = pad_payload(data, self.payload_size)?;
        self.seal(AnalyzerPayload::Plain(padded), crowd, client_index, rng)
    }

    /// Encodes a secret-shared report (§4.2): the analyzer can only read the
    /// value once `threshold` distinct clients have reported the same value.
    pub fn encode_secret_shared<R: Rng + ?Sized>(
        &self,
        data: &[u8],
        threshold: usize,
        crowd: CrowdStrategy<'_>,
        client_index: u64,
        rng: &mut R,
    ) -> Result<ClientReport, PipelineError> {
        let padded = pad_payload(data, self.payload_size)?;
        let key = mle::derive_key(&padded);
        let ciphertext = mle::encrypt_with_key(&key, &padded);
        let share = shamir::share_secret(&key, threshold, rng);
        let payload = AnalyzerPayload::SecretShared {
            ciphertext: ciphertext.to_bytes(),
            share: share.to_bytes().to_vec(),
        };
        self.seal(payload, crowd, client_index, rng)
    }

    /// Applies the crowd strategy and both encryption layers.
    fn seal<R: Rng + ?Sized>(
        &self,
        payload: AnalyzerPayload,
        crowd: CrowdStrategy<'_>,
        client_index: u64,
        rng: &mut R,
    ) -> Result<ClientReport, PipelineError> {
        let blinded = match crowd {
            CrowdStrategy::None | CrowdStrategy::Hash(_) => None,
            CrowdStrategy::Blind(label) => {
                let pk = self
                    .keys
                    .crowd_blinding
                    .as_ref()
                    .ok_or(PipelineError::InvalidConfig(
                        "blinded crowd IDs require the split-shuffler El Gamal key",
                    ))?;
                Some(ElGamalCiphertext::encrypt_hashed(rng, pk, label).points())
            }
        };

        // Inner layer: only the analyzer can open. Outer layer, around the
        // crowd ID and the inner layer: only the shuffler can open. A
        // blinded crowd ID's R and C are compressed with the layers' points.
        let outer = HybridCiphertext::seal_nested(
            rng,
            (&self.keys.analyzer, ANALYZER_AAD),
            &payload.to_bytes(),
            (&self.keys.shuffler, SHUFFLER_AAD),
            blinded.as_ref().map_or(&[], |points| points),
            |inner, crowd_points| {
                let crowd_id = match crowd {
                    CrowdStrategy::None => CrowdId::None,
                    CrowdStrategy::Hash(label) => CrowdId::hashed(label),
                    CrowdStrategy::Blind(_) => CrowdId::Blinded(ElGamalCiphertext::pack(
                        crowd_points
                            .try_into()
                            .expect("one encoding per crowd point"),
                    )),
                };
                let envelope = ShufflerEnvelope {
                    crowd_id,
                    inner: inner.to_bytes(),
                };
                envelope.to_bytes()
            },
        )?;
        Ok(ClientReport {
            outer,
            metadata: TransportMetadata::synthetic(client_index),
        })
    }
}

/// Fragments a set of items into all unordered pairs, the encoding the paper
/// describes for correlation analyses (movie ratings in §3.2 / §5.5): each
/// pair is reported independently so no single report links a user's full
/// set.
pub fn fragment_pairs<T: Clone>(items: &[T]) -> Vec<(T, T)> {
    let mut pairs =
        Vec::with_capacity(items.len().saturating_mul(items.len().saturating_sub(1)) / 2);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            pairs.push((items[i].clone(), items[j].clone()));
        }
    }
    pairs
}

/// Fragments an ordered sequence into disjoint windows of `m` items (the
/// Suggest encoding of §5.4); a trailing partial window is dropped so every
/// fragment carries exactly the same amount of information.
pub fn fragment_windows<T: Clone>(sequence: &[T], m: usize) -> Vec<Vec<T>> {
    if m == 0 {
        return Vec::new();
    }
    sequence
        .chunks_exact(m)
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// Flips each bit of `bitmap` independently with the given probability — the
/// plausible-deniability noise applied to the Perms action bitmaps (§5.3).
pub fn flip_bits<R: Rng + ?Sized>(bitmap: &mut [u8], flip_probability: f64, rng: &mut R) {
    for byte in bitmap.iter_mut() {
        for bit in 0..8 {
            if rng.gen::<f64>() < flip_probability {
                *byte ^= 1 << bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_crypto::hybrid::HybridKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys(rng: &mut StdRng) -> (ClientKeys, HybridKeypair, HybridKeypair) {
        let shuffler = HybridKeypair::generate(rng);
        let analyzer = HybridKeypair::generate(rng);
        (
            ClientKeys {
                shuffler: *shuffler.public_key(),
                analyzer: *analyzer.public_key(),
                crowd_blinding: None,
            },
            shuffler,
            analyzer,
        )
    }

    #[test]
    fn plain_report_roundtrips_through_both_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let (client_keys, shuffler, analyzer) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 64);
        let report = encoder
            .encode_plain(
                b"www.example.com",
                CrowdStrategy::Hash(b"crowd-A"),
                7,
                &mut rng,
            )
            .unwrap();

        // Shuffler peels the outer layer and sees the crowd ID but not data.
        let envelope_bytes = report.outer.open(shuffler.secret(), SHUFFLER_AAD).unwrap();
        let envelope = ShufflerEnvelope::from_bytes(&envelope_bytes).unwrap();
        assert_eq!(envelope.crowd_id, CrowdId::hashed(b"crowd-A"));

        // Analyzer opens the inner layer.
        let inner = HybridCiphertext::from_bytes(&envelope.inner).unwrap();
        let payload_bytes = inner.open(analyzer.secret(), ANALYZER_AAD).unwrap();
        match AnalyzerPayload::from_bytes(&payload_bytes).unwrap() {
            AnalyzerPayload::Plain(padded) => {
                assert_eq!(
                    crate::wire::unpad_payload(&padded).unwrap(),
                    b"www.example.com"
                );
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn shuffler_cannot_read_inner_layer() {
        let mut rng = StdRng::seed_from_u64(2);
        let (client_keys, shuffler, _analyzer) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 32);
        let report = encoder
            .encode_plain(b"secret", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        let envelope_bytes = report.outer.open(shuffler.secret(), SHUFFLER_AAD).unwrap();
        let envelope = ShufflerEnvelope::from_bytes(&envelope_bytes).unwrap();
        let inner = HybridCiphertext::from_bytes(&envelope.inner).unwrap();
        assert!(inner.open(shuffler.secret(), ANALYZER_AAD).is_err());
    }

    #[test]
    fn analyzer_cannot_open_outer_layer() {
        let mut rng = StdRng::seed_from_u64(3);
        let (client_keys, _shuffler, analyzer) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 32);
        let report = encoder
            .encode_plain(b"data", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        assert!(report.outer.open(analyzer.secret(), SHUFFLER_AAD).is_err());
    }

    #[test]
    fn reports_have_uniform_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let (client_keys, _s, _a) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 64);
        let a = encoder
            .encode_plain(b"a", CrowdStrategy::Hash(b"c"), 0, &mut rng)
            .unwrap();
        let b = encoder
            .encode_plain(
                b"a much longer string of data here",
                CrowdStrategy::Hash(b"c"),
                1,
                &mut rng,
            )
            .unwrap();
        assert_eq!(a.wire_len(), b.wire_len());
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let (client_keys, _s, _a) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 16);
        assert!(matches!(
            encoder.encode_plain(&[0u8; 17], CrowdStrategy::None, 0, &mut rng),
            Err(PipelineError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn blind_crowd_requires_elgamal_key() {
        let mut rng = StdRng::seed_from_u64(6);
        let (client_keys, _s, _a) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 16);
        assert!(matches!(
            encoder.encode_plain(b"x", CrowdStrategy::Blind(b"c"), 0, &mut rng),
            Err(PipelineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn secret_shared_reports_share_the_same_ciphertext() {
        let mut rng = StdRng::seed_from_u64(7);
        let (client_keys, shuffler, analyzer) = keys(&mut rng);
        let encoder = Encoder::new(client_keys, 32);
        let open_payload = |report: &ClientReport| {
            let env_bytes = report.outer.open(shuffler.secret(), SHUFFLER_AAD).unwrap();
            let env = ShufflerEnvelope::from_bytes(&env_bytes).unwrap();
            let inner = HybridCiphertext::from_bytes(&env.inner).unwrap();
            let payload = inner.open(analyzer.secret(), ANALYZER_AAD).unwrap();
            AnalyzerPayload::from_bytes(&payload).unwrap()
        };
        let r1 = encoder
            .encode_secret_shared(b"rare-word", 3, CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        let r2 = encoder
            .encode_secret_shared(b"rare-word", 3, CrowdStrategy::None, 1, &mut rng)
            .unwrap();
        match (open_payload(&r1), open_payload(&r2)) {
            (
                AnalyzerPayload::SecretShared {
                    ciphertext: c1,
                    share: s1,
                },
                AnalyzerPayload::SecretShared {
                    ciphertext: c2,
                    share: s2,
                },
            ) => {
                assert_eq!(c1, c2, "same value must give the same MLE ciphertext");
                assert_ne!(s1, s2, "shares from different clients must differ");
            }
            other => panic!("unexpected payloads {other:?}"),
        }
    }

    #[test]
    fn fragment_pairs_produces_all_combinations() {
        let pairs = fragment_pairs(&[1, 2, 3, 4]);
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(1, 4)));
        assert!(pairs.contains(&(2, 3)));
        assert!(fragment_pairs::<u32>(&[]).is_empty());
        assert!(fragment_pairs(&[1]).is_empty());
    }

    #[test]
    fn fragment_windows_is_disjoint_and_uniform() {
        let windows = fragment_windows(&[1, 2, 3, 4, 5, 6, 7], 3);
        assert_eq!(windows, vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert!(fragment_windows(&[1, 2], 3).is_empty());
        assert!(fragment_windows(&[1, 2], 0).is_empty());
    }

    #[test]
    fn flip_bits_respects_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut bitmap = [0b1010_1010u8; 4];
        let original = bitmap;
        flip_bits(&mut bitmap, 0.0, &mut rng);
        assert_eq!(bitmap, original);
        flip_bits(&mut bitmap, 1.0, &mut rng);
        assert_eq!(bitmap, [0b0101_0101u8; 4]);
    }
}
