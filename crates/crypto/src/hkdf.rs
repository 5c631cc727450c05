//! HKDF (RFC 5869) key derivation built on HMAC-SHA-256.
//!
//! Used to derive symmetric AEAD keys from Diffie–Hellman shared secrets in
//! the nested-encryption layers, and to derive per-purpose subkeys inside the
//! simulated enclave.

use crate::hmac::hmac_sha256;
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: turns input keying material into a pseudorandom key.
fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derives `length` bytes of output keying material.
///
/// # Panics
///
/// Panics if `length > 255 * 32`, the RFC 5869 limit.
fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], length: usize) -> Vec<u8> {
    assert!(length <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut okm = Vec::with_capacity(length);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter: u8 = 1;
    while okm.len() < length {
        let mut data = Vec::with_capacity(previous.len() + info.len() + 1);
        data.extend_from_slice(&previous);
        data.extend_from_slice(info);
        data.push(counter);
        let block = hmac_sha256(prk, &data);
        previous = block.to_vec();
        okm.extend_from_slice(&block);
        counter = counter.wrapping_add(1);
    }
    okm.truncate(length);
    okm
}

/// One-shot HKDF: extract then expand.
fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], length: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, length)
}

/// Derives exactly 32 bytes, convenient for AEAD keys.
pub(crate) fn hkdf_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let okm = hkdf(salt, ikm, info, 32);
    let mut key = [0u8; 32];
    key.copy_from_slice(&okm);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};

    #[test]
    fn rfc5869_test_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = from_hex("000102030405060708090a0b0c").unwrap();
        let info = from_hex("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            to_hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn expand_lengths() {
        let prk = hkdf_extract(b"salt", b"ikm");
        assert_eq!(hkdf_expand(&prk, b"", 0).len(), 0);
        assert_eq!(hkdf_expand(&prk, b"", 1).len(), 1);
        assert_eq!(hkdf_expand(&prk, b"", 33).len(), 33);
        assert_eq!(hkdf_expand(&prk, b"", 100).len(), 100);
    }

    #[test]
    fn prefix_property() {
        // Shorter outputs are prefixes of longer ones (per RFC construction).
        let prk = hkdf_extract(b"s", b"k");
        let long = hkdf_expand(&prk, b"info", 64);
        let short = hkdf_expand(&prk, b"info", 16);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn info_separates_keys() {
        assert_ne!(
            hkdf_key(b"salt", b"secret", b"shuffler"),
            hkdf_key(b"salt", b"secret", b"analyzer")
        );
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn expand_rejects_oversize() {
        let prk = hkdf_extract(b"s", b"k");
        let _ = hkdf_expand(&prk, b"", 255 * 32 + 1);
    }
}
