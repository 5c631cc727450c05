//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! The initial hash values and round constants are the fractional parts of
//! the square and cube roots of the first primes. Rather than transcribing
//! the 72 magic words (an easy place to introduce a typo that tests built on
//! the same table would not catch), they are derived once at start-up with
//! exact integer arithmetic and cross-checked against the well-known test
//! vectors in the unit tests.

use std::sync::OnceLock;

use crate::util::{icbrt_u128, isqrt_u128};

/// Output size of SHA-256 in bytes.
pub(crate) const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

fn first_primes(n: usize) -> Vec<u128> {
    let mut primes = Vec::with_capacity(n);
    let mut candidate: u128 = 2;
    while primes.len() < n {
        if primes.iter().all(|&p| !candidate.is_multiple_of(p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// Initial hash state: 32 fractional bits of sqrt(p) for the first 8 primes.
fn initial_state() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let primes = first_primes(8);
        let mut h = [0u32; 8];
        for (i, &p) in primes.iter().enumerate() {
            h[i] = (isqrt_u128(p << 64) & 0xffff_ffff) as u32;
        }
        h
    })
}

/// Round constants: 32 fractional bits of cbrt(p) for the first 64 primes.
fn round_constants() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let primes = first_primes(64);
        let mut k = [0u32; 64];
        for (i, &p) in primes.iter().enumerate() {
            k[i] = (icbrt_u128(p << 96) & 0xffff_ffff) as u32;
        }
        k
    })
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: *initial_state(),
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially-buffered block first.
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        // Process whole blocks directly from the input.
        while input.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&input[..BLOCK_LEN]);
            self.compress(&block);
            input = &input[BLOCK_LEN..];
        }
        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
        self
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Append the 0x80 terminator.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        // Pad to 56 mod 64, then the 64-bit big-endian length.
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            120 - self.buffered
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buffered, 0);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let k = round_constants();
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// One-shot SHA-256 over the concatenation of several byte slices.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // NIST FIPS 180-4 example: 56-byte message spanning the padding edge.
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for split in [0usize, 1, 63, 64, 65, 100, 9_999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn concat_helper_matches_manual_concat() {
        let digest = sha256_concat(&[b"hello", b" ", b"world"]);
        assert_eq!(digest, sha256(b"hello world"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"prochlo"), sha256(b"prochl0"));
    }
}
