//! Message-locked encryption: deterministic encryption under a key derived
//! from the message itself (k_m = H(m)).
//!
//! This is the "deterministic encryption of the message under a
//! message-derived key" of §4.2: every client holding the same message m
//! produces the *identical* ciphertext c, which lets the analyzer group
//! shares by ciphertext, and the key k_m can only be reconstructed once the
//! Shamir threshold of shares has been collected.

use crate::aead::{self, AeadKey, NONCE_LEN};
use crate::error::CryptoError;
use crate::sha256::Sha256;

/// A message-locked ciphertext. Deterministic: equal messages produce equal
/// ciphertexts.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MleCiphertext {
    /// Nonce derived from the message (deterministic).
    pub(crate) nonce: [u8; NONCE_LEN],
    /// AEAD ciphertext + tag.
    pub(crate) sealed: Vec<u8>,
}

/// Derives the message-locked key k_m = H(m), with the top four bits cleared
/// so that the key can also serve as a Shamir secret over GF(2²⁵⁵ − 19).
pub fn derive_key(message: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(b"prochlo-mle-key");
    hasher.update(message);
    let mut key = hasher.finalize();
    key[31] &= 0x0f;
    key
}

fn derive_nonce(key: &[u8; 32], message: &[u8]) -> [u8; NONCE_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(b"prochlo-mle-nonce");
    hasher.update(key);
    hasher.update(message);
    let digest = hasher.finalize();
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&digest[..NONCE_LEN]);
    nonce
}

/// Encrypts `message` under its own derived key.
pub fn encrypt(message: &[u8]) -> MleCiphertext {
    encrypt_with_key(&derive_key(message), message)
}

/// [`encrypt`] for a caller that already holds `derive_key(message)` (a
/// client secret-sharing that key derives it once for both uses).
pub fn encrypt_with_key(key_bytes: &[u8; 32], message: &[u8]) -> MleCiphertext {
    let nonce = derive_nonce(key_bytes, message);
    let key = AeadKey::from_bytes(*key_bytes);
    let sealed = aead::seal(&key, &nonce, b"prochlo-mle", message);
    MleCiphertext { nonce, sealed }
}

/// Decrypts a message-locked ciphertext with the recovered key.
pub fn decrypt(key_bytes: &[u8; 32], ciphertext: &MleCiphertext) -> Result<Vec<u8>, CryptoError> {
    let key = AeadKey::from_bytes(*key_bytes);
    aead::open(&key, &ciphertext.nonce, b"prochlo-mle", &ciphertext.sealed)
}

impl MleCiphertext {
    /// Serializes to `nonce || sealed`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + self.sealed.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.sealed);
        out
    }

    /// Parses the encoding produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < NONCE_LEN + aead::TAG_LEN {
            return Err(CryptoError::InvalidEncoding("MLE ciphertext too short"));
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&bytes[..NONCE_LEN]);
        Ok(Self {
            nonce,
            sealed: bytes[NONCE_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let ct = encrypt(b"www.example.com/rare-page");
        let key = derive_key(b"www.example.com/rare-page");
        assert_eq!(decrypt(&key, &ct).unwrap(), b"www.example.com/rare-page");
    }

    #[test]
    fn determinism_groups_equal_messages() {
        assert_eq!(encrypt(b"same word"), encrypt(b"same word"));
        assert_ne!(encrypt(b"word a"), encrypt(b"word b"));
    }

    #[test]
    fn derived_key_fits_shamir_field() {
        let key = derive_key(b"anything at all");
        assert_eq!(key[31] & 0xf0, 0);
        // And it still must not be trivially small.
        assert!(key.iter().any(|&b| b != 0));
    }

    #[test]
    fn wrong_key_fails() {
        let ct = encrypt(b"message");
        let wrong = derive_key(b"other message");
        assert!(decrypt(&wrong, &ct).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut ct = encrypt(b"message");
        let key = derive_key(b"message");
        let last = ct.sealed.len() - 1;
        ct.sealed[last] ^= 1;
        assert!(decrypt(&key, &ct).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let ct = encrypt(b"serialize me");
        let parsed = MleCiphertext::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(parsed, ct);
        assert!(MleCiphertext::from_bytes(&[0u8; 3]).is_err());
    }

    #[test]
    fn empty_message_is_supported() {
        let ct = encrypt(b"");
        let key = derive_key(b"");
        assert_eq!(decrypt(&key, &ct).unwrap(), Vec::<u8>::new());
    }
}
