//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! The accumulator and `r` are held in three limbs of 44, 44 and 42 bits,
//! so each 16-byte block costs nine 64 × 64 → 128-bit multiplications
//! (the "donna" layout). A key authenticates exactly one message: [`aead`]
//! draws it from keystream block 0 of a (key, nonce) pair that never
//! repeats.
//!
//! [`aead`]: crate::aead

use crate::util::load_u64_le;

/// Key length in bytes: `r` then `s`.
pub(crate) const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub(crate) const TAG_LEN: usize = 16;
const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Incremental Poly1305. `r` and `s` are key material, so the state has
/// no `PartialEq` (the test below fails to compile once it gains one).
#[derive(Clone)]
pub(crate) struct Poly1305 {
    /// The clamped multiplier, in limbs.
    r: [u64; 3],
    /// The final addend, as two little-endian words.
    s: [u64; 2],
    /// The accumulator, in limbs.
    h: [u64; 3],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        let t0 = load_u64_le(&key[0..8]);
        let t1 = load_u64_le(&key[8..16]);
        // Clamping (RFC 8439 §2.5.1) folded into the limb masks.
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Self {
            r,
            s: [load_u64_le(&key[16..24]), load_u64_le(&key[24..32])],
            h: [0; 3],
            buffer: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorbs message bytes; any split of a message gives the same tag.
    pub(crate) fn update(&mut self, mut data: &[u8]) -> &mut Self {
        if self.buffered > 0 {
            let take = data.len().min(BLOCK_LEN - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return self;
            }
            let block = self.buffer;
            self.block(&block, 1 << 40);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            self.block(block, 1 << 40);
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
        self
    }

    /// Zero-pads what has been absorbed to a multiple of 16 bytes, the
    /// AEAD's `pad16` (RFC 8439 §2.8).
    pub(crate) fn pad16(&mut self) -> &mut Self {
        if self.buffered > 0 {
            self.update(&[0; BLOCK_LEN][self.buffered..]);
        }
        self
    }

    /// Adds one 16-byte block, with `hibit` the 2¹²⁸ bit in limb 2's
    /// position (set for every block but a short final one), and multiplies
    /// by `r` modulo 2¹³⁰ − 5.
    fn block(&mut self, block: &[u8], hibit: u64) {
        let [r0, r1, r2] = self.r;
        let (s1, s2) = (r1 * 20, r2 * 20);
        let t0 = load_u64_le(&block[0..8]);
        let t1 = load_u64_le(&block[8..16]);
        let h0 = self.h[0] + (t0 & MASK44);
        let h1 = self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44);
        let h2 = self.h[2] + (((t1 >> 24) & MASK42) | hibit);

        let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let d0 = wide(h0, r0) + wide(h1, s2) + wide(h2, s1);
        let mut d1 = wide(h0, r1) + wide(h1, r0) + wide(h2, s2);
        let mut d2 = wide(h0, r2) + wide(h1, r1) + wide(h2, r0);

        // Partial carry propagation; the limbs stay a few bits over width.
        d1 += d0 >> 44;
        let h0 = (d0 as u64) & MASK44;
        d2 += d1 >> 44;
        let h1 = (d1 as u64) & MASK44;
        let carry = (d2 >> 42) as u64;
        let h2 = (d2 as u64) & MASK42;
        let h0 = h0 + carry * 5;
        self.h = [h0 & MASK44, h1 + (h0 >> 44), h2];
    }

    /// Finishes and returns the tag: `(h mod 2¹³⁰ − 5) + s mod 2¹²⁸`.
    pub(crate) fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // A short final block carries its 1 bit right after the data.
            let mut last = [0u8; BLOCK_LEN];
            last[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            last[self.buffered] = 1;
            self.block(&last, 0);
        }

        // Full carry propagation: two passes leave every limb in width.
        let [mut h0, mut h1, mut h2] = self.h;
        let mut carry;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // g = h + 5 − 2¹³⁰; keep g when it did not underflow (h ≥ p).
        let mut g0 = h0 + 5;
        carry = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + carry;
        carry = g1 >> 44;
        g1 &= MASK44;
        let g2 = (h2 + carry).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // h + s, modulo 2¹²⁸.
        let [s0, s1] = self.s;
        h0 += s0 & MASK44;
        carry = h0 >> 44;
        h0 &= MASK44;
        h1 += (((s0 >> 44) | (s1 << 20)) & MASK44) + carry;
        carry = h1 >> 44;
        h1 &= MASK44;
        h2 += ((s1 >> 24) & MASK42) + carry;

        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{from_hex, to_hex};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn tag(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(key);
        mac.update(message);
        mac.finalize()
    }

    fn rfc_key() -> [u8; KEY_LEN] {
        from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .unwrap()
            .try_into()
            .unwrap()
    }

    /// `Poly1305` holds `r` and `s`: like the secret types of the
    /// `secret_types` integration test, it must never gain `PartialEq`.
    #[test]
    fn poly1305_state_has_no_partial_eq() {
        trait NotEq<Marker> {
            fn checked() {}
        }
        impl<T: ?Sized> NotEq<()> for T {}
        impl<T: ?Sized + PartialEq> NotEq<u8> for T {}
        let _ = <Poly1305 as NotEq<_>>::checked;
    }

    #[test]
    fn rfc8439_section_2_5_2_vector() {
        assert_eq!(
            to_hex(&tag(&rfc_key(), b"Cryptographic Forum Research Group")),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    #[test]
    fn an_accumulator_at_or_above_the_modulus_is_reduced() {
        // RFC 8439 Appendix A.3, test vectors #5 and #6: r = 2 with
        // h = 2¹³⁰ − 3 (which must reduce to 2), and h + s wrapping 2¹²⁸.
        let mut key = [0u8; KEY_LEN];
        key[0] = 2;
        assert_eq!(
            to_hex(&tag(&key, &[0xff; 16])),
            "03000000000000000000000000000000"
        );
        let mut key = [0u8; KEY_LEN];
        key[0] = 2;
        key[16..].copy_from_slice(&[0xff; 16]);
        let mut message = [0u8; 16];
        message[0] = 2;
        assert_eq!(
            to_hex(&tag(&key, &message)),
            "03000000000000000000000000000000"
        );
    }

    #[test]
    fn pad16_is_a_no_op_on_a_block_boundary() {
        let key = rfc_key();
        let mut padded = Poly1305::new(&key);
        padded.update(&[7; 32]).pad16();
        assert_eq!(padded.finalize(), tag(&key, &[7; 32]));
        let mut padded = Poly1305::new(&key);
        padded.update(&[7; 5]).pad16();
        let mut zeros = [0u8; 16];
        zeros[..5].copy_from_slice(&[7; 5]);
        assert_eq!(padded.finalize(), tag(&key, &zeros));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any split of the input into updates gives the single update's
        /// tag: the 16-byte buffer carries partial blocks across calls.
        #[test]
        fn any_split_of_the_input_matches_one_update(
            seed in any::<u64>(),
            len in 0usize..=200,
            pieces in 0usize..=6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut key = [0u8; KEY_LEN];
            rng.fill_bytes(&mut key);
            let message: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let mut cuts: Vec<usize> = (0..pieces).map(|_| rng.gen_range(0..=len)).collect();
            cuts.sort_unstable();
            let mut mac = Poly1305::new(&key);
            let mut start = 0;
            for cut in cuts {
                mac.update(&message[start..cut]);
                start = cut;
            }
            mac.update(&message[start..]);
            prop_assert_eq!(mac.finalize(), tag(&key, &message));
        }
    }
}
