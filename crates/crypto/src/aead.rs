//! Authenticated encryption with associated data.
//!
//! The paper's PROCHLO implementation uses AES-128-GCM for the symmetric
//! layer of its nested encryption. We substitute an encrypt-then-MAC
//! construction built from the primitives in this crate: ChaCha20 for
//! confidentiality and HMAC-SHA-256 (truncated to 16 bytes) for integrity.
//! The MAC key is derived from keystream block 0, exactly as
//! ChaCha20-Poly1305 does, so each (key, nonce) pair gets an independent MAC
//! key and the ciphertext expansion (16 bytes) matches GCM's.

use crate::chacha20;
use crate::error::CryptoError;
use crate::hmac::HmacSha256;
use crate::util::ct_eq;

/// AEAD key length in bytes.
pub const KEY_LEN: usize = 32;
/// AEAD nonce length in bytes.
pub const NONCE_LEN: usize = chacha20::NONCE_LEN;
/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// A 256-bit AEAD key.
#[derive(Clone)]
pub struct AeadKey([u8; KEY_LEN]);

/// Constant-shape equality via [`ct_eq`]: comparing key material with a
/// derived `PartialEq` would exit at the first differing byte.
impl PartialEq for AeadKey {
    fn eq(&self, other: &AeadKey) -> bool {
        ct_eq(&self.0, &other.0)
    }
}

impl Eq for AeadKey {}

impl AeadKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        Self(bytes)
    }

    /// Generates a random key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        Self(bytes)
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "AeadKey(..)")
    }
}

fn mac_key(key: &AeadKey, nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
    // Keystream block 0 is reserved for the MAC key; payload encryption
    // starts at block 1.
    let block0 = chacha20::block(&key.0, nonce, 0);
    let mut mk = [0u8; 32];
    mk.copy_from_slice(&block0[..32]);
    mk
}

fn compute_tag(
    mk: &[u8; 32],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    let full = HmacSha256::new(mk)
        .update(&(aad.len() as u64).to_le_bytes())
        .update(aad)
        .update(&(ciphertext.len() as u64).to_le_bytes())
        .update(nonce)
        .update(ciphertext)
        .finalize();
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(&full[..TAG_LEN]);
    tag
}

/// Encrypts `plaintext` with `key`/`nonce`, binding `aad`, and returns
/// `ciphertext || tag`.
pub fn seal(key: &AeadKey, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    seal_in_place(key, nonce, aad, &mut out, 0);
    out
}

/// Encrypts `buffer[start..]` in place and appends the tag, so
/// `buffer[start..]` ends up as exactly what [`seal`] returns for that
/// plaintext; the bytes before `start` (a caller's header) are untouched.
/// A caller that reserves `TAG_LEN` spare capacity seals without
/// reallocating.
pub fn seal_in_place(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buffer: &mut Vec<u8>,
    start: usize,
) {
    chacha20::xor_stream(&key.0, nonce, 1, &mut buffer[start..]);
    let tag = compute_tag(&mac_key(key, nonce), nonce, aad, &buffer[start..]);
    buffer.extend_from_slice(&tag);
}

/// Decrypts `ciphertext || tag` produced by [`seal`], verifying `aad`.
pub fn open(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < TAG_LEN {
        return Err(CryptoError::InvalidEncoding("AEAD ciphertext too short"));
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let expected = compute_tag(&mac_key(key, nonce), nonce, aad, ciphertext);
    if !ct_eq(&expected, tag) {
        return Err(CryptoError::AuthenticationFailed);
    }
    Ok(chacha20::apply(&key.0, nonce, 1, ciphertext))
}

/// The ciphertext expansion added by [`seal`].
pub const fn overhead() -> usize {
    TAG_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> AeadKey {
        AeadKey::from_bytes([42u8; KEY_LEN])
    }

    #[test]
    fn key_eq_has_constant_comparison_shape() {
        // AeadKey equality routes through ct_eq: every byte of the key
        // participates in the verdict, so a comparison can never exit
        // early and leak the length of the matching prefix.
        let base = key();
        assert_eq!(base, base.clone());
        for i in 0..KEY_LEN {
            let mut bytes = *base.as_bytes();
            bytes[i] ^= 0x80;
            assert_ne!(
                base,
                AeadKey::from_bytes(bytes),
                "byte {i} must participate in the comparison"
            );
        }
    }

    #[test]
    fn roundtrip() {
        let nonce = [1u8; NONCE_LEN];
        let sealed = seal(&key(), &nonce, b"aad", b"secret report");
        assert_eq!(sealed.len(), 13 + TAG_LEN);
        let opened = open(&key(), &nonce, b"aad", &sealed).unwrap();
        assert_eq!(opened, b"secret report");
    }

    #[test]
    fn sealing_in_place_behind_a_header_matches_seal() {
        let nonce = [5u8; NONCE_LEN];
        let plaintext: Vec<u8> = (0..200u8).collect();
        let mut buffer = Vec::with_capacity(3 + plaintext.len() + TAG_LEN);
        buffer.extend_from_slice(b"hdr");
        buffer.extend_from_slice(&plaintext);
        let capacity = buffer.capacity();
        seal_in_place(&key(), &nonce, b"aad", &mut buffer, 3);
        assert_eq!(&buffer[..3], b"hdr");
        assert_eq!(buffer[3..], seal(&key(), &nonce, b"aad", &plaintext)[..]);
        assert_eq!(buffer.capacity(), capacity, "the tag fits the reserve");
        assert_eq!(
            open(&key(), &nonce, b"aad", &buffer[3..]).unwrap(),
            plaintext
        );
    }

    #[test]
    fn roundtrip_empty_plaintext_and_aad() {
        let nonce = [0u8; NONCE_LEN];
        let sealed = seal(&key(), &nonce, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&key(), &nonce, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let nonce = [1u8; NONCE_LEN];
        let mut sealed = seal(&key(), &nonce, b"", b"hello world");
        sealed[0] ^= 1;
        assert_eq!(
            open(&key(), &nonce, b"", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_tag_is_rejected() {
        let nonce = [1u8; NONCE_LEN];
        let mut sealed = seal(&key(), &nonce, b"", b"hello world");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(
            open(&key(), &nonce, b"", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_aad_is_rejected() {
        let nonce = [1u8; NONCE_LEN];
        let sealed = seal(&key(), &nonce, b"crowd-17", b"payload");
        assert!(open(&key(), &nonce, b"crowd-18", &sealed).is_err());
        assert!(open(&key(), &nonce, b"crowd-17", &sealed).is_ok());
    }

    #[test]
    fn wrong_key_is_rejected() {
        let nonce = [1u8; NONCE_LEN];
        let sealed = seal(&key(), &nonce, b"", b"payload");
        let other = AeadKey::from_bytes([43u8; KEY_LEN]);
        assert!(open(&other, &nonce, b"", &sealed).is_err());
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let sealed = seal(&key(), &[1u8; NONCE_LEN], b"", b"payload");
        assert!(open(&key(), &[2u8; NONCE_LEN], b"", &sealed).is_err());
    }

    #[test]
    fn short_input_is_rejected_cleanly() {
        assert!(matches!(
            open(&key(), &[0u8; NONCE_LEN], b"", &[0u8; 5]),
            Err(CryptoError::InvalidEncoding(_))
        ));
    }

    #[test]
    fn aad_length_confusion_is_prevented() {
        // Moving a byte between AAD and the nonce/ciphertext boundary must
        // change the tag (length framing in the MAC input).
        let nonce = [9u8; NONCE_LEN];
        let s1 = seal(&key(), &nonce, b"ab", b"cpayload");
        let s2 = seal(&key(), &nonce, b"abc", b"payload");
        assert_ne!(s1[s1.len() - TAG_LEN..], s2[s2.len() - TAG_LEN..]);
    }

    #[test]
    fn random_keys_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let k1 = AeadKey::random(&mut rng);
        let k2 = AeadKey::random(&mut rng);
        assert_ne!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = AeadKey::from_bytes([7u8; KEY_LEN]);
        assert_eq!(format!("{k:?}"), "AeadKey(..)");
    }
}
