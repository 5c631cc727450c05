//! Hybrid public-key encryption (ECIES-style): the building block of ESA's
//! *nested encryption*.
//!
//! A client that wants a payload readable only by the analyzer, wrapped so
//! that only the shuffler can remove the outer layer, applies
//! [`HybridCiphertext::seal`] twice with different recipient keys, or
//! [`HybridCiphertext::seal_nested`] once. Each layer is: fresh ephemeral
//! Diffie–Hellman key, one SHA-256 to derive a ChaCha20-Poly1305 key from
//! the shared point, then the AEAD with the recipient's role string as
//! associated data.
//!
//! [`HybridCiphertext::seal`] takes the recipient as a bare [`PublicKey`]
//! (a one-shot seal: a width-5 NAF walk for `e·PK`) or as the key's
//! [`FixedBaseTable`] (a comb walk, the table built once by whoever seals
//! to that key repeatedly — the ESA encoder). Both forms draw the same
//! randomness in the same order and produce the same bytes. A layer's
//! ephemeral public key and Diffie–Hellman point are compressed with one
//! field inversion; [`HybridCiphertext::seal_nested`] compresses both
//! layers' four points, and any the caller adds, with one. Not
//! constant-time: the comb indexes its table by bits of the ephemeral
//! scalar.
//!
//! [`FixedBaseTable`]: crate::edwards::FixedBaseTable

use std::borrow::Borrow;

use rand::Rng;

use crate::aead::{self, AeadKey};
use crate::ecdh::{derive_key, EphemeralSecret, PublicKey, StaticSecret};
use crate::edwards::{CompressedPoint, Point, ScalarMul};
use crate::error::CryptoError;

/// The key-derivation label of every hybrid layer.
const INFO: &[u8] = b"prochlo-hybrid-v2";

/// A keypair for a party that receives hybrid-encrypted messages (the
/// shuffler or the analyzer).
#[derive(Clone, Debug)]
pub struct HybridKeypair {
    secret: StaticSecret,
    public: PublicKey,
}

impl HybridKeypair {
    /// Generates a fresh keypair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let secret = StaticSecret::random(rng);
        let public = secret.public_key();
        Self { secret, public }
    }

    /// The public (encryption) key to embed in client software.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The private key, for the decrypting service.
    pub fn secret(&self) -> &StaticSecret {
        &self.secret
    }
}

/// One layer of hybrid encryption: ephemeral public key, nonce and sealed
/// payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridCiphertext {
    /// The sender's ephemeral public key.
    pub ephemeral: [u8; 32],
    /// AEAD nonce.
    pub nonce: [u8; aead::NONCE_LEN],
    /// AEAD ciphertext followed by the tag.
    pub sealed: Vec<u8>,
}

/// One layer's draws and curve points, before compression.
struct LayerDraws {
    public: Point,
    shared: Point,
    nonce: [u8; aead::NONCE_LEN],
}

impl LayerDraws {
    /// Draws the ephemeral scalar, then the nonce; a degenerate shared
    /// point stops it after the scalar.
    fn draw<R: Rng + ?Sized, K: ScalarMul + ?Sized>(
        rng: &mut R,
        recipient: &K,
    ) -> Result<Self, CryptoError> {
        let (public, shared) = EphemeralSecret::random(rng).exchange(recipient)?;
        let mut nonce = [0u8; aead::NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        Ok(Self {
            public,
            shared,
            nonce,
        })
    }

    /// Seals `plaintext` given this layer's compressed `[public, shared]`.
    fn seal(&self, points: &[CompressedPoint], aad: &[u8], plaintext: &[u8]) -> HybridCiphertext {
        let key = AeadKey::from_bytes(derive_key(&points[1], INFO));
        HybridCiphertext {
            ephemeral: points[0].0,
            nonce: self.nonce,
            sealed: aead::seal(&key, &self.nonce, aad, plaintext),
        }
    }
}

impl HybridCiphertext {
    /// Encrypts `plaintext` to `recipient` — a [`PublicKey`] or its
    /// [`crate::edwards::FixedBaseTable`], with the same result — binding
    /// `aad`. Draws the ephemeral scalar, then the nonce.
    pub fn seal<R: Rng + ?Sized, K: ScalarMul + ?Sized>(
        rng: &mut R,
        recipient: &K,
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Self, CryptoError> {
        let layer = LayerDraws::draw(rng, recipient)?;
        let points = Point::batch_compress(&[layer.public, layer.shared]);
        Ok(layer.seal(&points, aad, plaintext))
    }

    /// Seals `plaintext` to `inner`, hands that layer to `wrap`, and seals
    /// what `wrap` returns to `outer`: the bytes, the draws and the errors
    /// of `seal` to `inner` followed by `seal` to `outer`, but the two
    /// layers' four points and the caller's `extra` points (a crowd ID's
    /// El Gamal `R` and `C`) are compressed with one field inversion;
    /// `wrap` receives the encodings of `extra`, in order, beside the inner
    /// layer. All draws come first (inner ephemeral, inner nonce, outer
    /// ephemeral, outer nonce), stopping where a degenerate key stops the
    /// two calls.
    pub fn seal_nested<R: Rng + ?Sized, K: ScalarMul + ?Sized>(
        rng: &mut R,
        (inner, inner_aad): (&K, &[u8]),
        plaintext: &[u8],
        (outer, outer_aad): (&K, &[u8]),
        extra: &[Point],
        wrap: impl FnOnce(&Self, &[CompressedPoint]) -> Vec<u8>,
    ) -> Result<Self, CryptoError> {
        let inner_layer = LayerDraws::draw(rng, inner)?;
        let outer_layer = LayerDraws::draw(rng, outer)?;
        let layers = [
            inner_layer.public,
            inner_layer.shared,
            outer_layer.public,
            outer_layer.shared,
        ];
        let points = Point::batch_compress(&[&layers[..], extra].concat());
        let sealed_inner = inner_layer.seal(&points[..2], inner_aad, plaintext);
        Ok(outer_layer.seal(&points[2..4], outer_aad, &wrap(&sealed_inner, &points[4..])))
    }

    /// Decrypts a layer with the recipient's static secret.
    pub fn open(&self, recipient: &StaticSecret, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let ephemeral = PublicKey::from_bytes(self.ephemeral)?;
        let key_bytes = recipient.agree(&ephemeral, INFO)?;
        let key = AeadKey::from_bytes(key_bytes);
        aead::open(&key, &self.nonce, aad, &self.sealed)
    }

    /// Decrypts many layers with the same recipient secret and `aad`.
    ///
    /// Per-item results are identical to [`Self::open`] (`None` wherever it
    /// would return any error), but the Diffie–Hellman shared points for the
    /// whole batch are normalized together via
    /// `StaticSecret::agree_batch`, amortizing the field inversion that
    /// each individual agreement would otherwise pay during compression.
    /// Items may be owned or borrowed (`&[HybridCiphertext]` or
    /// `&[&HybridCiphertext]`), so a caller holding ciphertexts inside
    /// larger records batches them without cloning.
    pub fn open_batch<T: Borrow<Self>>(
        items: &[T],
        recipient: &StaticSecret,
        aad: &[u8],
    ) -> Vec<Option<Vec<u8>>> {
        // Parse all ephemerals first; undecodable ones are sieved out so the
        // batch agreement runs only over valid keys.
        let ephemerals: Vec<Option<PublicKey>> = items
            .iter()
            .map(|item| PublicKey::from_bytes(item.borrow().ephemeral).ok())
            .collect();
        let valid: Vec<PublicKey> = ephemerals.iter().filter_map(|pk| *pk).collect();
        let keys = recipient.agree_batch(&valid, INFO);
        let mut key_iter = keys.into_iter();
        items
            .iter()
            .zip(&ephemerals)
            .map(|(item, ephemeral)| {
                // Keys exist only for parseable ephemerals, so consuming one
                // per `Some` keeps the iterator aligned with `valid`.
                ephemeral.as_ref()?;
                let key_bytes = key_iter.next().expect("one key per valid ephemeral").ok()?;
                let key = AeadKey::from_bytes(key_bytes);
                let item = item.borrow();
                aead::open(&key, &item.nonce, aad, &item.sealed).ok()
            })
            .collect()
    }

    /// Serializes to a flat byte string (`ephemeral || nonce || sealed`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + aead::NONCE_LEN + self.sealed.len());
        out.extend_from_slice(&self.ephemeral);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.sealed);
        out
    }

    /// Parses the flat byte encoding produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < 32 + aead::NONCE_LEN + aead::TAG_LEN {
            return Err(CryptoError::InvalidEncoding("hybrid ciphertext too short"));
        }
        let mut ephemeral = [0u8; 32];
        ephemeral.copy_from_slice(&bytes[..32]);
        let mut nonce = [0u8; aead::NONCE_LEN];
        nonce.copy_from_slice(&bytes[32..32 + aead::NONCE_LEN]);
        Ok(Self {
            ephemeral,
            nonce,
            sealed: bytes[32 + aead::NONCE_LEN..].to_vec(),
        })
    }

    /// Size in bytes of the wire encoding.
    pub fn wire_len(&self) -> usize {
        32 + aead::NONCE_LEN + self.sealed.len()
    }

    /// The per-layer ciphertext expansion over the plaintext length.
    pub const fn layer_overhead() -> usize {
        32 + aead::NONCE_LEN + aead::TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edwards::FixedBaseTable;
    use crate::elgamal::{ElGamalCiphertext, ElGamalKeypair};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let recipient = HybridKeypair::generate(&mut rng);
        let ct =
            HybridCiphertext::seal(&mut rng, recipient.public_key(), b"role", b"hello").unwrap();
        assert_eq!(ct.open(recipient.secret(), b"role").unwrap(), b"hello");
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        let alice = HybridKeypair::generate(&mut rng);
        let eve = HybridKeypair::generate(&mut rng);
        let ct = HybridCiphertext::seal(&mut rng, alice.public_key(), b"", b"secret").unwrap();
        assert!(ct.open(eve.secret(), b"").is_err());
    }

    #[test]
    fn wrong_aad_fails() {
        let mut rng = StdRng::seed_from_u64(3);
        let recipient = HybridKeypair::generate(&mut rng);
        let ct = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"a", b"x").unwrap();
        assert!(ct.open(recipient.secret(), b"b").is_err());
    }

    #[test]
    fn nesting_two_layers_models_esa() {
        let mut rng = StdRng::seed_from_u64(4);
        let shuffler = HybridKeypair::generate(&mut rng);
        let analyzer = HybridKeypair::generate(&mut rng);

        // Inner layer: to the analyzer. Outer layer: to the shuffler.
        let inner =
            HybridCiphertext::seal(&mut rng, analyzer.public_key(), b"analyzer", b"payload")
                .unwrap();
        let outer = HybridCiphertext::seal(
            &mut rng,
            shuffler.public_key(),
            b"shuffler",
            &inner.to_bytes(),
        )
        .unwrap();

        // The shuffler peels one layer but cannot read the payload.
        let peeled = outer.open(shuffler.secret(), b"shuffler").unwrap();
        let inner_parsed = HybridCiphertext::from_bytes(&peeled).unwrap();
        assert!(inner_parsed.open(shuffler.secret(), b"analyzer").is_err());
        // The analyzer reads the payload.
        assert_eq!(
            inner_parsed.open(analyzer.secret(), b"analyzer").unwrap(),
            b"payload"
        );
    }

    #[test]
    fn byte_encoding_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let recipient = HybridKeypair::generate(&mut rng);
        let ct = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"", b"data").unwrap();
        let parsed = HybridCiphertext::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(ct.wire_len(), ct.to_bytes().len());
    }

    #[test]
    fn truncated_encoding_is_rejected() {
        assert!(HybridCiphertext::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn each_seal_uses_fresh_randomness() {
        let mut rng = StdRng::seed_from_u64(6);
        let recipient = HybridKeypair::generate(&mut rng);
        let a = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"", b"same").unwrap();
        let b = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"", b"same").unwrap();
        assert_ne!(a.ephemeral, b.ephemeral);
        assert_ne!(a.sealed, b.sealed);
    }

    #[test]
    fn open_batch_matches_per_item_open() {
        let mut rng = StdRng::seed_from_u64(8);
        let recipient = HybridKeypair::generate(&mut rng);
        let other = HybridKeypair::generate(&mut rng);
        let mut items: Vec<HybridCiphertext> = (0..6)
            .map(|i| {
                HybridCiphertext::seal(
                    &mut rng,
                    recipient.public_key(),
                    b"role",
                    format!("payload-{i}").as_bytes(),
                )
                .unwrap()
            })
            .collect();
        // A garbage ephemeral key, a wrong-recipient layer, and a corrupted
        // tag must each come back `None` without disturbing their neighbors.
        items[1].ephemeral = [0x11; 32];
        items[3] = HybridCiphertext::seal(&mut rng, other.public_key(), b"role", b"x").unwrap();
        let last = items.last_mut().unwrap();
        let flip = last.sealed.len() - 1;
        last.sealed[flip] ^= 1;

        let batch = HybridCiphertext::open_batch(&items, recipient.secret(), b"role");
        assert_eq!(batch.len(), items.len());
        for (item, opened) in items.iter().zip(&batch) {
            assert_eq!(*opened, item.open(recipient.secret(), b"role").ok());
        }
        assert_eq!(batch.iter().filter(|o| o.is_some()).count(), 3);
        // Borrowed items open identically.
        let borrowed: Vec<&HybridCiphertext> = items.iter().collect();
        assert_eq!(
            HybridCiphertext::open_batch(&borrowed, recipient.secret(), b"role"),
            batch
        );
        assert!(
            HybridCiphertext::open_batch(&borrowed[..0], recipient.secret(), b"role").is_empty()
        );
    }

    #[test]
    fn layer_overhead_matches_reality() {
        let mut rng = StdRng::seed_from_u64(7);
        let recipient = HybridKeypair::generate(&mut rng);
        let plaintext = vec![0u8; 100];
        let ct = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"", &plaintext).unwrap();
        assert_eq!(
            ct.wire_len(),
            plaintext.len() + HybridCiphertext::layer_overhead()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The precomputed recipient is only a faster route to the one-shot
        /// seal: fed the same RNG stream, both produce the same bytes and
        /// leave the stream at the same place.
        #[test]
        fn precomputed_seal_matches_the_one_shot_seal(
            key_seed in any::<u64>(),
            seal_seed in any::<u64>(),
            plaintext_len in 0usize..=300,
            aad_len in 0usize..=40,
            fill_seed in any::<u64>(),
        ) {
            let mut fill = StdRng::seed_from_u64(fill_seed);
            let plaintext: Vec<u8> = (0..plaintext_len).map(|_| fill.gen()).collect();
            let aad: Vec<u8> = (0..aad_len).map(|_| fill.gen()).collect();
            let recipient = HybridKeypair::generate(&mut StdRng::seed_from_u64(key_seed));
            let precomputed = FixedBaseTable::from(recipient.public_key());
            let mut one_shot_rng = StdRng::seed_from_u64(seal_seed);
            let mut precomputed_rng = StdRng::seed_from_u64(seal_seed);
            let one_shot =
                HybridCiphertext::seal(&mut one_shot_rng, recipient.public_key(), &aad, &plaintext);
            let through_table =
                HybridCiphertext::seal(&mut precomputed_rng, &precomputed, &aad, &plaintext);
            prop_assert_eq!(&through_table, &one_shot);
            prop_assert_eq!(one_shot_rng.gen::<u64>(), precomputed_rng.gen::<u64>());
            prop_assert_eq!(
                through_table.unwrap().open(recipient.secret(), &aad).unwrap(),
                plaintext
            );
        }

        /// The nested seal is two sequential seals with the wrap between
        /// them: the same bytes, the same draws, on honest keys and on the
        /// identity, whose every shared point is degenerate. With a crowd
        /// ID's `R` and `C` in the batch, the wrap packs their encodings
        /// into what `ElGamalCiphertext::to_bytes` returns.
        #[test]
        fn seal_nested_matches_two_sequential_seals(
            key_seed in any::<u64>(),
            seal_seed in any::<u64>(),
            plaintext_len in 0usize..=200,
            degenerate in 0usize..3,
            blind in any::<bool>(),
        ) {
            let mut key_rng = StdRng::seed_from_u64(key_seed);
            let honest = [
                *HybridKeypair::generate(&mut key_rng).public_key(),
                *HybridKeypair::generate(&mut key_rng).public_key(),
            ];
            let elgamal = ElGamalKeypair::generate(&mut key_rng);
            let mut identity = [0u8; 32];
            identity[0] = 1;
            let mut keys = honest.map(|pk| FixedBaseTable::from(&pk));
            if degenerate < 2 {
                let identity = PublicKey::from_bytes(identity).unwrap();
                keys[degenerate] = FixedBaseTable::from(&identity);
            }
            let plaintext = vec![7u8; plaintext_len];
            let wrap = |inner: &HybridCiphertext, crowd: &[u8]| {
                [b"env".as_slice(), crowd, &inner.to_bytes()].concat()
            };
            // Each side draws its El Gamal `r` first, as the encoder does.
            let crowd_id = |rng: &mut StdRng| {
                blind.then(|| ElGamalCiphertext::encrypt_hashed(rng, elgamal.public_key(), b"crowd"))
            };
            let mut nested_rng = StdRng::seed_from_u64(seal_seed);
            let mut sequential_rng = StdRng::seed_from_u64(seal_seed);
            let extra = crowd_id(&mut nested_rng).map_or(Vec::new(), |ct| ct.points().to_vec());
            let nested = HybridCiphertext::seal_nested(
                &mut nested_rng,
                (&keys[0], b"inner"),
                &plaintext,
                (&keys[1], b"outer"),
                &extra,
                |inner, encoded| match encoded {
                    [] => wrap(inner, &[]),
                    pair => wrap(inner, &ElGamalCiphertext::pack(pair.try_into().unwrap())),
                },
            );
            let crowd = crowd_id(&mut sequential_rng).map_or(Vec::new(), |ct| ct.to_bytes().to_vec());
            let sequential =
                HybridCiphertext::seal(&mut sequential_rng, &keys[0], b"inner", &plaintext)
                    .and_then(|inner| {
                        HybridCiphertext::seal(
                            &mut sequential_rng,
                            &keys[1],
                            b"outer",
                            &wrap(&inner, &crowd),
                        )
                    });
            prop_assert_eq!(&nested, &sequential);
            prop_assert_eq!(nested.is_ok(), degenerate == 2);
            prop_assert_eq!(nested_rng.gen::<u64>(), sequential_rng.gen::<u64>());
        }
    }
}
