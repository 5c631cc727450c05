//! Schnorr signatures over the Edwards group.
//!
//! Used by the simulated SGX attestation chain: the (simulated) Intel root
//! key signs per-CPU keys, and a CPU key signs enclave Quotes that bind an
//! enclave measurement to the shuffler's freshly generated public key
//! (§4.1.1 of the paper).

use crate::edwards::{CompressedPoint, Point};
use crate::error::CryptoError;
use crate::scalar::Scalar;

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SigningKey {
    secret: Scalar,
    public: Point,
}

/// A Schnorr verification key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey {
    public: CompressedPoint,
}

/// A Schnorr signature (R, s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Commitment point R = r·B.
    pub(crate) r: CompressedPoint,
    /// Response s = r + c·sk (mod ℓ).
    pub(crate) s: [u8; 32],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(pk: {:?})", self.public.compress())
    }
}

fn challenge(r: &CompressedPoint, public: &CompressedPoint, message: &[u8]) -> Scalar {
    Scalar::hash_from_bytes(&[b"prochlo-schnorr", r.as_bytes(), public.as_bytes(), message])
}

impl SigningKey {
    /// Deterministic key from a seed (used for the fixed "Intel" root of the
    /// simulated attestation hierarchy).
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = Scalar::hash_from_bytes(&[b"signing-key-seed", seed]);
        let public = Point::mul_base(&secret);
        Self { secret, public }
    }

    /// The corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            public: self.public.compress(),
        }
    }

    /// Signs a message. The nonce is derived deterministically from the key
    /// and the message (no RNG misuse possible).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let nonce =
            Scalar::hash_from_bytes(&[b"prochlo-schnorr-nonce", &self.secret.to_bytes(), message]);
        let r_point = Point::mul_base(&nonce).compress();
        let c = challenge(&r_point, &self.public.compress(), message);
        let s = nonce.add(&c.mul(&self.secret));
        Signature {
            r: r_point,
            s: s.to_bytes(),
        }
    }
}

impl VerifyingKey {
    /// Wire encoding of the key.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.public.0
    }

    /// Verifies a signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let public = self.public.decompress()?;
        let r = signature.r.decompress()?;
        let s = Scalar::from_bytes_mod_order(&signature.s);
        let c = challenge(&signature.r, &self.public, message);
        // s·B == R + c·P
        let lhs = Point::mul_base(&s);
        let rhs = r.add(&public.mul(&c));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::from_seed(b"roundtrip");
        let sig = key.sign(b"enclave measurement || shuffler pk");
        assert!(key
            .verifying_key()
            .verify(b"enclave measurement || shuffler pk", &sig)
            .is_ok());
    }

    #[test]
    fn wrong_message_fails() {
        let key = SigningKey::from_seed(b"message");
        let sig = key.sign(b"message A");
        assert_eq!(
            key.verifying_key().verify(b"message B", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let key = SigningKey::from_seed(b"key");
        let other = SigningKey::from_seed(b"other");
        let sig = key.sign(b"message");
        assert!(other.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(b"tamper");
        let mut sig = key.sign(b"message");
        sig.s[0] ^= 1;
        assert!(key.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn signatures_are_deterministic() {
        let key = SigningKey::from_seed(b"intel-root");
        let (a, b) = (key.sign(b"m"), key.sign(b"m"));
        assert_eq!((a.r.as_bytes(), a.s), (b.r.as_bytes(), b.s));
    }
}
