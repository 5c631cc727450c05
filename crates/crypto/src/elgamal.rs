//! El Gamal encryption over the Edwards group with exponent blinding —
//! the cryptographic core of the *blinded crowd IDs* construction (§4.3).
//!
//! Protocol recap (additive notation for the curve group):
//!
//! 1. The encoder hashes the crowd ID to a group element µ = H(crowd ID) and
//!    encrypts it to Shuffler 2's public key h = x·B as
//!    `(R, C) = (r·B, r·h + µ)`.
//! 2. Shuffler 1 *blinds* the ciphertext with its per-batch secret α:
//!    `(α·R, α·C)`, which is an encryption of α·µ under the same key, then
//!    batches and shuffles.
//! 3. Shuffler 2 decrypts: `α·C − x·(α·R) = α·µ`, a pseudonymous handle that
//!    preserves equality of crowd IDs (so it can count and threshold) but —
//!    absent collusion — neither shuffler can dictionary-attack.
//!
//! `ElGamalCiphertext::encrypt` takes Shuffler 2's key `h` as the bare
//! [`Point`] or as its [`FixedBaseTable`]: an encoder builds the table once
//! and computes `r·h` as a comb walk, with the same bytes as the per-call
//! NAF walk. Shuffler 1's [`ElGamalCiphertext::rerandomize`] walks the same
//! table, built once per service. Not constant-time: the comb indexes its
//! table by bits of `r`. The encoder compresses a crowd ID's `(R, C)` in
//! the same batch as its report's hybrid layers
//! ([`ElGamalCiphertext::points`], then [`ElGamalCiphertext::pack`]).

use rand::Rng;

use crate::edwards::{CompressedPoint, FixedBaseTable, Point, ScalarMul};
use crate::error::CryptoError;
use crate::scalar::Scalar;

/// An El Gamal keypair (held by Shuffler 2 in the split-shuffler deployment).
#[derive(Clone)]
pub struct ElGamalKeypair {
    secret: Scalar,
    public: Point,
}

impl std::fmt::Debug for ElGamalKeypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ElGamalKeypair(pk: {:?})", self.public.compress())
    }
}

/// An El Gamal ciphertext (a pair of group elements).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ElGamalCiphertext {
    /// `r·B` (possibly blinded).
    pub(crate) r: Point,
    /// `r·h + µ` (possibly blinded).
    pub(crate) c: Point,
}

/// A blinding secret held by Shuffler 1 for one batch.
#[derive(Clone)]
pub struct BlindingSecret {
    alpha: Scalar,
}

impl std::fmt::Debug for BlindingSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlindingSecret(..)")
    }
}

impl ElGamalKeypair {
    /// Generates a fresh keypair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let secret = Scalar::random_nonzero(rng);
        let public = Point::mul_base(&secret);
        Self { secret, public }
    }

    /// The public key (embedded in client encoders).
    pub fn public_key(&self) -> &Point {
        &self.public
    }

    /// Decrypts a (possibly blinded) ciphertext, returning the encrypted
    /// group element (µ or α·µ).
    pub fn decrypt(&self, ct: &ElGamalCiphertext) -> Point {
        ct.c.sub(&ct.r.mul(&self.secret))
    }
}

impl ElGamalCiphertext {
    /// Encrypts a group element to `public_key` — the [`Point`] or its
    /// [`FixedBaseTable`], with the same result.
    pub(crate) fn encrypt<R: Rng + ?Sized, K: ScalarMul + ?Sized>(
        rng: &mut R,
        public_key: &K,
        message: &Point,
    ) -> Self {
        let r = Scalar::random_nonzero(rng);
        Self {
            r: Point::mul_base(&r),
            c: public_key.scalar_mul(&r).add(message),
        }
    }

    /// Encrypts the hash-to-group image of an arbitrary byte string
    /// (the crowd ID path used by the encoder).
    pub fn encrypt_hashed<R: Rng + ?Sized, K: ScalarMul + ?Sized>(
        rng: &mut R,
        public_key: &K,
        id: &[u8],
    ) -> Self {
        Self::encrypt(rng, public_key, &Point::hash_to_point(id))
    }

    /// Applies exponent blinding with `alpha`.
    pub fn blind(&self, blinding: &BlindingSecret) -> Self {
        Self {
            r: self.r.mul(&blinding.alpha),
            c: self.c.mul(&blinding.alpha),
        }
    }

    /// Re-randomizes the ciphertext (fresh encryption of the same plaintext)
    /// so that Shuffler 1 can also unlink ciphertexts before forwarding.
    ///
    /// The caller draws `s` (one [`Scalar::random_nonzero`] per ciphertext)
    /// and builds `key_table` once for the public key, so a batch can draw
    /// its scalars sequentially from a seeded stream and then re-randomize
    /// on any number of threads, with both `s·B` and `s·h` on fixed-base
    /// tables.
    pub fn rerandomize(&self, s: &Scalar, key_table: &FixedBaseTable) -> Self {
        Self {
            r: self.r.add(&Point::mul_base(s)),
            c: self.c.add(&key_table.mul(s)),
        }
    }

    /// Serializes to 64 bytes (two compressed points, normalized through
    /// one field inversion).
    pub fn to_bytes(&self) -> [u8; 64] {
        let encoded = Point::batch_compress(&self.points());
        Self::pack(&[encoded[0], encoded[1]])
    }

    /// The points `(R, C)`, for a caller that compresses them in a larger
    /// batch (the encoder's, with both hybrid layers' points) and then
    /// [`Self::pack`]s them.
    pub fn points(&self) -> [Point; 2] {
        [self.r, self.c]
    }

    /// The 64-byte encoding from the compressed `[R, C]`.
    pub fn pack([r, c]: &[CompressedPoint; 2]) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(r.as_bytes());
        out[32..].copy_from_slice(c.as_bytes());
        out
    }

    /// Serializes many ciphertexts for the cost of one field inversion
    /// (see [`Point::batch_compress`]) instead of two per ciphertext.
    /// Output order matches input order.
    pub fn batch_to_bytes<'a>(
        ciphertexts: impl IntoIterator<Item = &'a ElGamalCiphertext>,
    ) -> Vec<[u8; 64]> {
        let points: Vec<Point> = ciphertexts
            .into_iter()
            .flat_map(|ct| [ct.r, ct.c])
            .collect();
        let encoded = Point::batch_compress(&points);
        encoded.as_chunks().0.iter().map(Self::pack).collect()
    }

    /// Parses the 64-byte encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != 64 {
            return Err(CryptoError::InvalidEncoding("El Gamal ciphertext length"));
        }
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        let mut c_bytes = [0u8; 32];
        c_bytes.copy_from_slice(&bytes[32..]);
        Ok(Self {
            r: CompressedPoint(r_bytes).decompress()?,
            c: CompressedPoint(c_bytes).decompress()?,
        })
    }
}

impl BlindingSecret {
    /// Draws a fresh blinding exponent for a batch.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            alpha: Scalar::random_nonzero(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys = ElGamalKeypair::generate(&mut rng);
        let message = Point::hash_to_point(b"app-id-1234");
        let ct = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &message);
        assert_eq!(keys.decrypt(&ct), message);
    }

    #[test]
    fn blinding_preserves_equality_and_hides_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let keys = ElGamalKeypair::generate(&mut rng);
        let blinding = BlindingSecret::random(&mut rng);

        let mu = Point::hash_to_point(b"crowd-42");
        let ct1 = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &mu);
        let ct2 = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &mu);
        let other = ElGamalCiphertext::encrypt(
            &mut rng,
            keys.public_key(),
            &Point::hash_to_point(b"crowd-43"),
        );

        let b1 = keys.decrypt(&ct1.blind(&blinding));
        let b2 = keys.decrypt(&ct2.blind(&blinding));
        let b3 = keys.decrypt(&other.blind(&blinding));

        // Same crowd ID ⇒ same blinded handle; different ⇒ different.
        assert_eq!(b1, b2);
        assert_ne!(b1, b3);
        // The blinded handle is not the raw hash (Shuffler 2 cannot
        // dictionary-attack without α).
        assert_ne!(b1, mu);
        // And it is α·µ: (identity, µ) encrypts µ with randomness 0 under
        // any key, so blinding it leaves (identity, α·µ).
        let trivial = ElGamalCiphertext {
            r: Point::identity(),
            c: mu,
        };
        assert_eq!(b1, keys.decrypt(&trivial.blind(&blinding)));
    }

    #[test]
    fn distinct_encryptions_of_same_message_differ() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys = ElGamalKeypair::generate(&mut rng);
        let mu = Point::hash_to_point(b"x");
        let ct1 = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &mu);
        let ct2 = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &mu);
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn rerandomize_preserves_plaintext_but_changes_ciphertext() {
        let mut rng = StdRng::seed_from_u64(4);
        let keys = ElGamalKeypair::generate(&mut rng);
        let mu = Point::hash_to_point(b"page:example.com");
        let ct = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &mu);
        let s = Scalar::random_nonzero(&mut rng);
        let rr = ct.rerandomize(&s, &FixedBaseTable::new(keys.public_key()));
        assert_ne!(ct, rr);
        assert_eq!(keys.decrypt(&rr), mu);
        // The table is only a faster route to the textbook formula.
        assert_eq!(rr.r, ct.r.add(&Point::basepoint().mul(&s)));
        assert_eq!(rr.c, ct.c.add(&keys.public_key().mul(&s)));
    }

    #[test]
    fn batch_to_bytes_matches_per_item_encoding() {
        let mut rng = StdRng::seed_from_u64(8);
        let keys = ElGamalKeypair::generate(&mut rng);
        let blinding = BlindingSecret::random(&mut rng);
        let mut cts: Vec<ElGamalCiphertext> = (0..9u8)
            .map(|i| ElGamalCiphertext::encrypt_hashed(&mut rng, keys.public_key(), &[i]))
            .collect();
        // Unnormalized (Z ≠ 1) points, as blinding leaves them.
        cts.extend(cts.clone().iter().map(|ct| ct.blind(&blinding)));
        let batch = ElGamalCiphertext::batch_to_bytes(&cts);
        assert_eq!(batch.len(), cts.len());
        for (ct, bytes) in cts.iter().zip(&batch) {
            assert_eq!(*bytes, ct.to_bytes());
        }
        assert!(ElGamalCiphertext::batch_to_bytes(&[]).is_empty());
    }

    #[test]
    fn encrypt_hashed_matches_manual_hash() {
        let mut rng = StdRng::seed_from_u64(5);
        let keys = ElGamalKeypair::generate(&mut rng);
        let ct = ElGamalCiphertext::encrypt_hashed(&mut rng, keys.public_key(), b"word:hello");
        assert_eq!(keys.decrypt(&ct), Point::hash_to_point(b"word:hello"));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let keys = ElGamalKeypair::generate(&mut rng);
        let ct = ElGamalCiphertext::encrypt_hashed(&mut rng, keys.public_key(), b"id");
        let parsed = ElGamalCiphertext::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(parsed, ct);
        assert!(ElGamalCiphertext::from_bytes(&[0u8; 63]).is_err());
    }

    #[test]
    fn wrong_key_decrypts_to_garbage() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys = ElGamalKeypair::generate(&mut rng);
        let wrong = ElGamalKeypair::generate(&mut rng);
        let mu = Point::hash_to_point(b"secret-app");
        let ct = ElGamalCiphertext::encrypt(&mut rng, keys.public_key(), &mu);
        assert_ne!(wrong.decrypt(&ct), mu);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Encrypting through the key's table is only a faster route to
        /// encrypting through the point: same RNG stream, same bytes, same
        /// place in the stream afterwards.
        #[test]
        fn encrypt_hashed_through_the_table_matches_the_point(
            key_seed in any::<u64>(),
            encrypt_seed in any::<u64>(),
            id_len in 0usize..=64,
            id_seed in any::<u64>(),
        ) {
            let mut fill = StdRng::seed_from_u64(id_seed);
            let id: Vec<u8> = (0..id_len).map(|_| fill.gen()).collect();
            let keys = ElGamalKeypair::generate(&mut StdRng::seed_from_u64(key_seed));
            let table = FixedBaseTable::new(keys.public_key());
            let mut point_rng = StdRng::seed_from_u64(encrypt_seed);
            let mut table_rng = StdRng::seed_from_u64(encrypt_seed);
            let through_point =
                ElGamalCiphertext::encrypt_hashed(&mut point_rng, keys.public_key(), &id);
            let through_table = ElGamalCiphertext::encrypt_hashed(&mut table_rng, &table, &id);
            prop_assert_eq!(through_table.to_bytes(), through_point.to_bytes());
            prop_assert_eq!(point_rng.gen::<u64>(), table_rng.gen::<u64>());
            prop_assert_eq!(keys.decrypt(&through_table), Point::hash_to_point(&id));
        }
    }
}
