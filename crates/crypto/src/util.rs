//! Byte-level helpers: loads/stores, constant-time comparison, hex encoding.

/// Reads a little-endian `u64` from 8 bytes.
pub(crate) fn load_u64_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(buf)
}

/// Reads a little-endian `u32` from 4 bytes.
pub(crate) fn load_u32_le(bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(buf)
}

/// Compares two byte strings without early exit.
///
/// Returns `true` iff they have equal length and contents. The comparison
/// touches every byte regardless of where the first difference occurs, which
/// is what authenticated decryption wants for tag checks.
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Hex-encodes a byte slice (lowercase).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes a lowercase/uppercase hex string. Returns `None` on bad input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// Integer square root of a `u128` (largest `r` with `r*r <= n`).
pub(crate) fn isqrt_u128(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let mut lo: u128 = 0;
    let mut hi: u128 = 1 << 64; // sqrt of u128::MAX fits in 64 bits.
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        match mid.checked_mul(mid) {
            Some(sq) if sq <= n => lo = mid,
            _ => hi = mid,
        }
    }
    lo
}

/// Integer cube root of a `u128` (largest `r` with `r*r*r <= n`).
pub(crate) fn icbrt_u128(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let mut lo: u128 = 0;
    let mut hi: u128 = 1 << 43; // cbrt of u128::MAX is < 2^43.
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        let cube = mid.checked_mul(mid).and_then(|sq| sq.checked_mul(mid));
        match cube {
            Some(c) if c <= n => lo = mid,
            _ => hi = mid,
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_helpers_are_little_endian() {
        let bytes = [1u8, 0, 0, 0, 0, 0, 0, 0x80];
        assert_eq!(load_u64_le(&bytes), 0x8000_0000_0000_0001);
        assert_eq!(load_u32_le(&bytes), 1);
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hex_roundtrip() {
        let data = [0u8, 1, 0xfe, 0xff, 0x10];
        assert_eq!(to_hex(&data), "0001feff10");
        assert_eq!(from_hex("0001feff10").unwrap(), data);
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("abc"), None);
    }

    #[test]
    fn integer_roots_exact_values() {
        assert_eq!(isqrt_u128(0), 0);
        assert_eq!(isqrt_u128(1), 1);
        assert_eq!(isqrt_u128(15), 3);
        assert_eq!(isqrt_u128(16), 4);
        assert_eq!(isqrt_u128(u128::from(u64::MAX)), (1 << 32) - 1);
        assert_eq!(icbrt_u128(26), 2);
        assert_eq!(icbrt_u128(27), 3);
        assert_eq!(icbrt_u128(1_000_000), 100);
    }

    #[test]
    fn sha256_constant_derivation_matches_known_values() {
        // frac(sqrt(2)) * 2^32 is the first SHA-256 IV word.
        let h0 = (isqrt_u128(2u128 << 64) & 0xffff_ffff) as u32;
        assert_eq!(h0, 0x6a09_e667);
        // frac(cbrt(2)) * 2^32 is the first SHA-256 round constant.
        let k0 = (icbrt_u128(2u128 << 96) & 0xffff_ffff) as u32;
        assert_eq!(k0, 0x428a_2f98);
    }
}
