//! Diffie–Hellman key agreement over the Edwards group.
//!
//! In the ESA architecture every client derives an ephemeral shared key with
//! the shuffler and with the analyzer (one per nested-encryption layer), and
//! the shuffler/analyzer hold the corresponding static private keys. This
//! module provides both halves.
//!
//! A client seals to the same two keys for its whole life, so a recipient
//! key has a precomputed form: its [`FixedBaseTable`] comb, built from the
//! key with `FixedBaseTable::from(&PublicKey)` (1 024 affine entries,
//! ≈ 123 KB, about ten variable-base multiplications, once per key).
//! `EphemeralSecret::exchange` takes either form through
//! [`ScalarMul`] and returns the same points from both; with the table,
//! `e·PK` is a comb walk instead of a width-5 NAF walk. It leaves the
//! points projective, so a sealer compresses the ephemeral public key and
//! the shared point (of one layer or of two) with one field inversion.
//!
//! A shared point becomes a key through one SHA-256,
//! `SHA-256("prochlo-ecdh" ‖ compressed point ‖ info)`: a hash KDF in the
//! style of ANSI X9.63 / SEC 1 §3.6.1, which needs a single output block
//! for a 32-byte key.
//! Like the rest of the substrate this is not constant-time: the comb
//! indexes its table by bits of the secret scalar, as
//! [`Point::mul_base`] already does.

use rand::Rng;

use crate::edwards::{CompressedPoint, FixedBaseTable, Point, ScalarMul};
use crate::error::CryptoError;
use crate::scalar::Scalar;
use crate::sha256::sha256_concat;

/// A long-lived Diffie–Hellman private key (shuffler or analyzer side).
#[derive(Clone)]
pub struct StaticSecret {
    secret: Scalar,
}

/// A single-use Diffie–Hellman private key (client side).
pub struct EphemeralSecret {
    secret: Scalar,
}

/// A Diffie–Hellman public key.
///
/// Caches the decompressed curve point next to the wire encoding: parsing
/// validates (and pays the square-root decompression) exactly once, and
/// every subsequent agreement reuses the point directly.
#[derive(Clone, Copy)]
pub struct PublicKey {
    point: Point,
    compressed: CompressedPoint,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.compressed == other.compressed
    }
}

impl Eq for PublicKey {}

impl std::hash::Hash for PublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.compressed.as_bytes().hash(state);
    }
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PublicKey").field(&self.compressed).finish()
    }
}

impl std::fmt::Debug for StaticSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StaticSecret(..)")
    }
}

impl std::fmt::Debug for EphemeralSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EphemeralSecret(..)")
    }
}

const DEGENERATE_SHARED: CryptoError =
    CryptoError::InvalidParameter("degenerate Diffie-Hellman shared secret");

/// The symmetric key a compressed shared point derives under `info`.
pub(crate) fn derive_key(shared: &CompressedPoint, info: &[u8]) -> [u8; 32] {
    sha256_concat(&[b"prochlo-ecdh", shared.as_bytes(), info])
}

impl StaticSecret {
    /// Generates a fresh keypair secret.
    pub(crate) fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            secret: Scalar::random_nonzero(rng),
        }
    }

    /// Deterministically derives a secret from seed bytes (the tests'
    /// fixed keys).
    #[cfg(test)]
    fn from_seed(seed: &[u8]) -> Self {
        Self {
            secret: Scalar::hash_from_bytes(&[b"static-secret", seed]),
        }
    }

    /// The corresponding public key.
    pub(crate) fn public_key(&self) -> PublicKey {
        PublicKey::from_point(Point::mul_base(&self.secret))
    }

    /// Computes the shared symmetric key with a peer's public key.
    pub(crate) fn agree(
        &self,
        their_public: &PublicKey,
        info: &[u8],
    ) -> Result<[u8; 32], CryptoError> {
        let shared = their_public.point.mul(&self.secret);
        if shared.is_identity() {
            return Err(DEGENERATE_SHARED);
        }
        Ok(derive_key(&shared.compress(), info))
    }

    /// Computes shared symmetric keys with many peers at once.
    ///
    /// Result-for-result identical to calling [`Self::agree`] per peer with
    /// the same `info` string, but the shared curve points are normalized
    /// together through [`Point::batch_compress`], so the whole batch pays
    /// one field inversion instead of one per peer.
    pub(crate) fn agree_batch(
        &self,
        peers: &[PublicKey],
        info: &[u8],
    ) -> Vec<Result<[u8; 32], CryptoError>> {
        let shared: Vec<Point> = peers.iter().map(|pk| pk.point.mul(&self.secret)).collect();
        let compressed = Point::batch_compress(&shared);
        shared
            .iter()
            .zip(compressed)
            .map(|(point, c)| {
                if point.is_identity() {
                    Err(DEGENERATE_SHARED)
                } else {
                    Ok(derive_key(&c, info))
                }
            })
            .collect()
    }
}

impl EphemeralSecret {
    /// Generates a fresh single-use secret.
    pub(crate) fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            secret: Scalar::random_nonzero(rng),
        }
    }

    /// Computes this secret's public point and the point it shares with
    /// `recipient`, consuming the secret so it cannot be reused. Both are
    /// left projective for the caller to compress in one batch; a shared
    /// point that is the identity is refused.
    ///
    /// `recipient` is a [`PublicKey`] or its [`FixedBaseTable`]; the points
    /// are the same.
    pub(crate) fn exchange<K: ScalarMul + ?Sized>(
        self,
        recipient: &K,
    ) -> Result<(Point, Point), CryptoError> {
        let shared = recipient.scalar_mul(&self.secret);
        if shared.is_identity() {
            return Err(DEGENERATE_SHARED);
        }
        Ok((Point::mul_base(&self.secret), shared))
    }
}

impl PublicKey {
    fn from_point(point: Point) -> Self {
        Self {
            compressed: point.compress(),
            point,
        }
    }

    /// The compressed wire encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.compressed.0
    }

    /// Parses a public key from its wire encoding.
    pub fn from_bytes(bytes: [u8; 32]) -> Result<Self, CryptoError> {
        let compressed = CompressedPoint(bytes);
        // Validation and decompression are the same work; keep the point.
        let point = compressed.decompress()?;
        Ok(Self { point, compressed })
    }
}

impl ScalarMul for PublicKey {
    fn scalar_mul(&self, scalar: &Scalar) -> Point {
        self.point.mul(scalar)
    }
}

/// The precomputed form of a recipient key: sealing to it produces the same
/// bytes as sealing to the bare [`PublicKey`].
impl From<&PublicKey> for FixedBaseTable {
    fn from(public: &PublicKey) -> Self {
        FixedBaseTable::new(&public.point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn static_static_agreement_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = StaticSecret::random(&mut rng);
        let b = StaticSecret::random(&mut rng);
        let k_ab = a.agree(&b.public_key(), b"test").unwrap();
        let k_ba = b.agree(&a.public_key(), b"test").unwrap();
        assert_eq!(k_ab, k_ba);
    }

    #[test]
    fn ephemeral_static_agreement_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let server = StaticSecret::random(&mut rng);
        let client = EphemeralSecret::random(&mut rng);
        let (client_pub, shared) = client.exchange(&server.public_key()).unwrap();
        let k_client = derive_key(&shared.compress(), b"layer");
        let client_pub = PublicKey::from_point(client_pub);
        let k_server = server.agree(&client_pub, b"layer").unwrap();
        assert_eq!(k_client, k_server);
    }

    #[test]
    fn info_string_separates_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = StaticSecret::random(&mut rng);
        let b = StaticSecret::random(&mut rng);
        let k1 = a.agree(&b.public_key(), b"shuffler").unwrap();
        let k2 = a.agree(&b.public_key(), b"analyzer").unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn different_peers_give_different_keys() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = StaticSecret::random(&mut rng);
        let b = StaticSecret::random(&mut rng);
        let c = StaticSecret::random(&mut rng);
        assert_ne!(
            a.agree(&b.public_key(), b"x").unwrap(),
            a.agree(&c.public_key(), b"x").unwrap()
        );
    }

    #[test]
    fn public_key_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = StaticSecret::random(&mut rng);
        let pk = a.public_key();
        let parsed = PublicKey::from_bytes(pk.to_bytes()).unwrap();
        assert_eq!(parsed, pk);
    }

    #[test]
    fn agree_batch_matches_sequential_agreements() {
        let mut rng = StdRng::seed_from_u64(7);
        let server = StaticSecret::random(&mut rng);
        let peers: Vec<PublicKey> = (0..9)
            .map(|_| StaticSecret::random(&mut rng).public_key())
            .collect();
        let batch = server.agree_batch(&peers, b"layer");
        assert_eq!(batch.len(), peers.len());
        for (peer, key) in peers.iter().zip(&batch) {
            assert_eq!(
                key.as_ref().unwrap(),
                &server.agree(peer, b"layer").unwrap()
            );
        }
        assert!(server.agree_batch(&[], b"layer").is_empty());
    }

    #[test]
    fn from_seed_is_deterministic() {
        let a1 = StaticSecret::from_seed(b"shuffler-v1");
        let a2 = StaticSecret::from_seed(b"shuffler-v1");
        let b = StaticSecret::from_seed(b"analyzer-v1");
        assert_eq!(a1.public_key(), a2.public_key());
        assert_ne!(a1.public_key(), b.public_key());
    }

    #[test]
    fn invalid_public_key_is_rejected() {
        // A y-coordinate that is not on the curve: find one by perturbing a
        // valid key until decompression fails.
        let mut rng = StdRng::seed_from_u64(6);
        let mut bytes = StaticSecret::random(&mut rng).public_key().to_bytes();
        let mut rejected = false;
        for i in 0..=255u8 {
            bytes[0] = i;
            if PublicKey::from_bytes(bytes).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "expected some perturbed encoding to be invalid");
    }
}
