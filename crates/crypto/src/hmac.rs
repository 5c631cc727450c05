//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA-256(key, message)`.
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacSha256::new(key).update(message).finalize()
}

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub(crate) struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub(crate) fn new(key: &[u8]) -> Self {
        // Keys longer than the block size are hashed first.
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = key_block[i] ^ 0x36;
            opad_key[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        Self { inner, opad_key }
    }

    /// Absorbs message bytes.
    pub(crate) fn update(mut self, message: &[u8]) -> Self {
        self.inner.update(message);
        self
    }

    /// Finishes and returns the 32-byte tag.
    pub(crate) fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;

    /// `HmacSha256` holds keyed state: like the secret types of the
    /// `secret_types` integration test, it must never gain `PartialEq`.
    #[test]
    fn hmac_state_has_no_partial_eq() {
        trait NotEq<Marker> {
            fn checked() {}
        }
        impl<T: ?Sized> NotEq<()> for T {}
        impl<T: ?Sized + PartialEq> NotEq<u8> for T {}
        let _ = <HmacSha256 as NotEq<_>>::checked;
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let tag1 = HmacSha256::new(b"key")
            .update(b"hello ")
            .update(b"world")
            .finalize();
        let tag2 = hmac_sha256(b"key", b"hello world");
        assert_eq!(tag1, tag2);
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }
}
