//! Arithmetic in the prime field GF(p) with p = 2²⁵⁵ − 19.
//!
//! Elements are stored as five 51-bit limbs (little-endian), the standard
//! 64-bit representation for Curve25519 arithmetic. Limbs may exceed 51 bits
//! between reductions, within the two classes stated on [`FieldElement`]:
//! every public operation takes and returns *reduced* elements, carries are
//! propagated in one parallel pass and only where one of those bounds needs
//! it, and `FieldElement::to_bytes` performs the full canonical reduction.
//!
//! This field backs three things in the workspace: the Edwards curve group
//! (substituting for NIST P-256), Shamir secret sharing for the secret-share
//! encoder (§4.2 of the paper), and hash-to-field for crowd-ID blinding.

use std::fmt;

const LOW_51_BIT_MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2²⁵⁵ − 19), value Σ limbᵢ · 2⁵¹ⁱ. Two limb classes:
///
/// * **reduced** — every limb < 2⁵². Every constructor and every public
///   operation returns this class (one carry pass leaves limbs below
///   2⁵¹ + 2¹⁸ whatever it was given), and public operations expect it.
/// * **lazy** — every limb < 2⁵⁴: a sum of up to three reduced elements that
///   has not been carried (`FieldElement::add_lazy`, crate-private; the
///   curve formulas feed such sums straight into a product). [`Self::mul`],
///   [`Self::square`] and `Self::sub` accept lazy operands — with limbs
///   below 2⁵⁴ their wide accumulators stay below 2¹¹⁵ and the 16·p that
///   `sub` adds stays above the subtrahend — and `debug_assert!` it, so a
///   build with debug assertions checks the bound on every call.
#[derive(Clone, Copy)]
pub struct FieldElement(pub(crate) [u64; 5]);

/// Exclusive limb bound of the *lazy* class.
const LAZY_LIMB_BOUND: u64 = 1 << 54;

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldElement({})", crate::util::to_hex(&self.to_bytes()))
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for FieldElement {}

impl FieldElement {
    /// The additive identity.
    pub(crate) const ZERO: FieldElement = FieldElement([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub(crate) const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Constructs an element from a small integer.
    pub fn from_u64(x: u64) -> Self {
        let mut limbs = [0u64; 5];
        limbs[0] = x & LOW_51_BIT_MASK;
        limbs[1] = x >> 51;
        FieldElement(limbs)
    }

    /// Decodes 32 little-endian bytes, ignoring the top bit (as Curve25519
    /// implementations conventionally do). Every limb is masked to 51 bits;
    /// a value in [p, 2²⁵⁵) stays as it is until [`Self::to_bytes`].
    pub(crate) fn from_bytes(bytes: &[u8; 32]) -> Self {
        let load8 = |b: &[u8]| -> u64 { crate::util::load_u64_le(b) };
        FieldElement([
            load8(&bytes[0..8]) & LOW_51_BIT_MASK,
            (load8(&bytes[6..14]) >> 3) & LOW_51_BIT_MASK,
            (load8(&bytes[12..20]) >> 6) & LOW_51_BIT_MASK,
            (load8(&bytes[19..27]) >> 1) & LOW_51_BIT_MASK,
            (load8(&bytes[24..32]) >> 12) & LOW_51_BIT_MASK,
        ])
    }

    /// Encodes the element canonically as 32 little-endian bytes (< p).
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        // Step 1: one carry pass, so the value is below 2^255 + 2^223 < 2p.
        let mut limbs = carry(self.0).0;

        // Step 2: compute the quotient of (value + 19) by 2^255. It is 1 when
        // value is in [p, 2p), which is exactly when we must subtract p.
        let mut q = (limbs[0] + 19) >> 51;
        q = (limbs[1] + q) >> 51;
        q = (limbs[2] + q) >> 51;
        q = (limbs[3] + q) >> 51;
        q = (limbs[4] + q) >> 51;

        // Step 3: add 19 q and propagate carries; masking the top limb then
        // discards q * 2^255, i.e. subtracts q * p overall.
        limbs[0] += 19 * q;
        limbs[1] += limbs[0] >> 51;
        limbs[0] &= LOW_51_BIT_MASK;
        limbs[2] += limbs[1] >> 51;
        limbs[1] &= LOW_51_BIT_MASK;
        limbs[3] += limbs[2] >> 51;
        limbs[2] &= LOW_51_BIT_MASK;
        limbs[4] += limbs[3] >> 51;
        limbs[3] &= LOW_51_BIT_MASK;
        limbs[4] &= LOW_51_BIT_MASK;

        let mut out = [0u8; 32];
        out[0] = limbs[0] as u8;
        out[1] = (limbs[0] >> 8) as u8;
        out[2] = (limbs[0] >> 16) as u8;
        out[3] = (limbs[0] >> 24) as u8;
        out[4] = (limbs[0] >> 32) as u8;
        out[5] = (limbs[0] >> 40) as u8;
        out[6] = ((limbs[0] >> 48) | (limbs[1] << 3)) as u8;
        out[7] = (limbs[1] >> 5) as u8;
        out[8] = (limbs[1] >> 13) as u8;
        out[9] = (limbs[1] >> 21) as u8;
        out[10] = (limbs[1] >> 29) as u8;
        out[11] = (limbs[1] >> 37) as u8;
        out[12] = ((limbs[1] >> 45) | (limbs[2] << 6)) as u8;
        out[13] = (limbs[2] >> 2) as u8;
        out[14] = (limbs[2] >> 10) as u8;
        out[15] = (limbs[2] >> 18) as u8;
        out[16] = (limbs[2] >> 26) as u8;
        out[17] = (limbs[2] >> 34) as u8;
        out[18] = (limbs[2] >> 42) as u8;
        out[19] = ((limbs[2] >> 50) | (limbs[3] << 1)) as u8;
        out[20] = (limbs[3] >> 7) as u8;
        out[21] = (limbs[3] >> 15) as u8;
        out[22] = (limbs[3] >> 23) as u8;
        out[23] = (limbs[3] >> 31) as u8;
        out[24] = (limbs[3] >> 39) as u8;
        out[25] = ((limbs[3] >> 47) | (limbs[4] << 4)) as u8;
        out[26] = (limbs[4] >> 4) as u8;
        out[27] = (limbs[4] >> 12) as u8;
        out[28] = (limbs[4] >> 20) as u8;
        out[29] = (limbs[4] >> 28) as u8;
        out[30] = (limbs[4] >> 36) as u8;
        out[31] = (limbs[4] >> 44) as u8;
        out
    }

    /// Reduces a 64-byte wide hash output into the field (little-endian).
    ///
    /// Used for hash-to-field: the bias from reducing 512 uniform bits mod p
    /// is negligible.
    pub(crate) fn from_wide_bytes(bytes: &[u8; 64]) -> Self {
        // Split into low 255 bits and the rest: value = lo + 2^255 * hi_chunks.
        // 2^255 = 19 (mod p), 2^510 = 361 (mod p).
        let mut lo_bytes = [0u8; 32];
        lo_bytes.copy_from_slice(&bytes[..32]);
        let top_bit_lo = (lo_bytes[31] >> 7) as u64;
        lo_bytes[31] &= 0x7f;
        let lo = FieldElement::from_bytes(&lo_bytes);

        let mut hi_bytes = [0u8; 32];
        hi_bytes.copy_from_slice(&bytes[32..]);
        let top_bit_hi = (hi_bytes[31] >> 7) as u64;
        hi_bytes[31] &= 0x7f;
        let hi = FieldElement::from_bytes(&hi_bytes);

        // value = lo + 2^255*top_bit_lo + 2^256*(hi + 2^255*top_bit_hi)
        //       = lo + 19*top_bit_lo + 38*hi + 38*19*top_bit_hi   (mod p)
        let mut acc = lo;
        acc = acc.add(&FieldElement::from_u64(19 * top_bit_lo));
        acc = acc.add(&hi.mul(&FieldElement::from_u64(38)));
        acc = acc.add(&FieldElement::from_u64(38 * 19 * top_bit_hi));
        acc
    }

    /// Addition in the field.
    pub(crate) fn add(&self, other: &FieldElement) -> FieldElement {
        carry(self.add_lazy(other).0)
    }

    /// The limb-wise sum with no carry pass: a *lazy* element as long as the
    /// limbs stay below 2⁵⁴, i.e. for up to three reduced summands. Only
    /// [`Self::mul`], [`Self::square`] and [`Self::sub`] may consume it, and
    /// each of them asserts that bound.
    pub(crate) fn add_lazy(&self, other: &FieldElement) -> FieldElement {
        let (a, b) = (&self.0, &other.0);
        FieldElement([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// Subtraction in the field. Either operand may be lazy.
    pub(crate) fn sub(&self, other: &FieldElement) -> FieldElement {
        // Add 16 p before subtracting so no limb underflows: a lazy
        // subtrahend limb is < 2^54 < 16 * (2^51 - 19) = 2^55 - 304.
        const SIXTEEN_P: [u64; 5] = [
            36_028_797_018_963_664,
            36_028_797_018_963_952,
            36_028_797_018_963_952,
            36_028_797_018_963_952,
            36_028_797_018_963_952,
        ];
        debug_assert!(self.is_lazy() && other.is_lazy());
        let (a, b) = (&self.0, &other.0);
        carry([
            a[0] + SIXTEEN_P[0] - b[0],
            a[1] + SIXTEEN_P[1] - b[1],
            a[2] + SIXTEEN_P[2] - b[2],
            a[3] + SIXTEEN_P[3] - b[3],
            a[4] + SIXTEEN_P[4] - b[4],
        ])
    }

    /// Negation in the field.
    pub(crate) fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Multiplication in the field. Either operand may be lazy.
    pub fn mul(&self, other: &FieldElement) -> FieldElement {
        debug_assert!(self.is_lazy() && other.is_lazy());
        let a = &self.0;
        let b = &other.0;

        // Pre-multiply the wrap-around terms by 19 (since 2^255 = 19 mod p).
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };

        carry_wide([
            m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[4], b3_19) + m(a[3], b4_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// Squaring; the operand may be lazy. Exploits the symmetry of the
    /// product to halve the number of wide multiplications relative to
    /// [`FieldElement::mul`]; squarings dominate the doubling chains and
    /// inversion ladders of the curve hot path, so this is measurably faster
    /// end to end.
    pub fn square(&self) -> FieldElement {
        debug_assert!(self.is_lazy());
        let a = &self.0;

        // c_k = Σ_{i+j=k} a_i a_j, with wrap-around terms (i+j = k+5)
        // multiplied by 19 since 2^255 = 19 mod p. Off-diagonal products
        // appear twice; the doubling is folded into one 64-bit operand
        // (< 2^55) rather than applied to the 128-bit sums.
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let (a0_2, a1_2, a2_2, a4_2) = (a[0] * 2, a[1] * 2, a[2] * 2, a[4] * 2);

        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };

        carry_wide([
            m(a[0], a[0]) + m(a1_2, a4_19) + m(a2_2, a3_19),
            m(a[3], a3_19) + m(a0_2, a[1]) + m(a2_2, a4_19),
            m(a[1], a[1]) + m(a0_2, a[2]) + m(a4_2, a3_19),
            m(a[4], a4_19) + m(a0_2, a[3]) + m(a1_2, a[2]),
            m(a[2], a[2]) + m(a0_2, a[4]) + m(a1_2, a[3]),
        ])
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn pow2k(&self, k: u32) -> FieldElement {
        debug_assert!(k > 0);
        let mut out = *self;
        for _ in 0..k {
            out = out.square();
        }
        out
    }

    /// The shared prefix of the inversion and square-root addition chains:
    /// returns `(self^(2^250 - 1), self^11)`.
    fn pow22501(&self) -> (FieldElement, FieldElement) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t4 = t3.square(); // 22
        let t5 = t2.mul(&t4); // 31 = 2^5 - 1
        let t6 = t5.pow2k(5).mul(&t5); // 2^10 - 1
        let t7 = t6.pow2k(10).mul(&t6); // 2^20 - 1
        let t8 = t7.pow2k(20).mul(&t7); // 2^40 - 1
        let t9 = t8.pow2k(10).mul(&t6); // 2^50 - 1
        let t10 = t9.pow2k(50).mul(&t9); // 2^100 - 1
        let t11 = t10.pow2k(100).mul(&t10); // 2^200 - 1
        let t12 = t11.pow2k(50).mul(&t9); // 2^250 - 1
        (t12, t3)
    }

    /// `self^((p-5)/8) = self^(2^252 - 3)`, the core of [`Self::sqrt_ratio`].
    fn pow_p58(&self) -> FieldElement {
        let (t250, _) = self.pow22501();
        t250.pow2k(2).mul(self)
    }

    /// Raises the element to the power given by a 256-bit little-endian
    /// exponent expressed as four `u64` limbs.
    fn pow_limbs(&self, exponent: &[u64; 4]) -> FieldElement {
        let mut result = FieldElement::ONE;
        // Process bits from most significant to least significant.
        for limb_idx in (0..4).rev() {
            for bit in (0..64).rev() {
                result = result.square();
                if (exponent[limb_idx] >> bit) & 1 == 1 {
                    result = result.mul(self);
                }
            }
        }
        result
    }

    /// Multiplicative inverse. Returns zero for zero (callers that care must
    /// check `FieldElement::is_zero` themselves).
    ///
    /// Computed as `self^(p-2)` via a fixed addition chain (254 squarings and
    /// 11 multiplications) rather than a naive square-and-multiply over the
    /// dense exponent, which costs roughly twice as much. Still Θ(1) and
    /// still expensive — normalize in bulk with `Self::batch_invert` where
    /// more than one inverse is needed.
    pub fn invert(&self) -> FieldElement {
        // self^(2^255 - 21) = self^(p - 2).
        let (t250, t11) = self.pow22501();
        t250.pow2k(5).mul(&t11)
    }

    /// Inverts every non-zero element of `elements` in place with
    /// Montgomery's trick: one field inversion plus three multiplications
    /// per element, instead of one inversion each. Zero entries stay zero,
    /// matching [`Self::invert`]'s convention.
    ///
    /// This is what makes bulk affine normalization
    /// ([`Point::batch_to_affine`](crate::edwards::Point::batch_to_affine))
    /// and the fixed-base table builder cheap.
    pub(crate) fn batch_invert(elements: &mut [FieldElement]) {
        // prefix[i] = product of all non-zero elements before index i.
        let mut prefix = Vec::with_capacity(elements.len());
        let mut acc = FieldElement::ONE;
        for e in elements.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul(e);
            }
        }
        // acc = product of all non-zero elements; peel one element per step.
        let mut suffix_inv = acc.invert();
        for (e, p) in elements.iter_mut().zip(prefix).rev() {
            if e.is_zero() {
                continue;
            }
            let inv = suffix_inv.mul(&p);
            suffix_inv = suffix_inv.mul(e);
            *e = inv;
        }
    }

    /// Returns the non-negative square root of `u/v` if `u/v` is a square.
    ///
    /// Fuses the division into the square-root candidate
    /// `u v³ (u v⁷)^((p-5)/8) = (u/v)^((p+3)/8)`, so point decompression
    /// costs one exponentiation instead of an inversion plus a separate
    /// square root. Returns `None` when `u/v` is a non-residue (including
    /// the impossible-for-valid-curves case `v = 0, u ≠ 0`).
    pub(crate) fn sqrt_ratio(u: &FieldElement, v: &FieldElement) -> Option<FieldElement> {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let candidate = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        // v·candidate² is u (correct root), -u (root after multiplying by
        // sqrt(-1)), or neither (non-residue).
        let check = v.mul(&candidate.square());
        let root = if check == *u {
            candidate
        } else if check == u.neg() {
            candidate.mul(&sqrt_minus_one())
        } else {
            return None;
        };
        // Normalize sign.
        if root.is_negative() {
            Some(root.neg())
        } else {
            Some(root)
        }
    }

    /// True when the element is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// "Sign" of the element: the low bit of its canonical encoding.
    pub(crate) fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Conditionally negates so the result has the requested sign bit.
    pub(crate) fn with_sign(&self, negative: bool) -> FieldElement {
        if self.is_negative() == negative {
            *self
        } else {
            self.neg()
        }
    }

    /// True when every limb is inside the lazy class (which contains the
    /// reduced one).
    fn is_lazy(&self) -> bool {
        self.0.iter().all(|&limb| limb < LAZY_LIMB_BOUND)
    }
}

/// The constant sqrt(-1) = 2^((p-1)/4) mod p.
fn sqrt_minus_one() -> FieldElement {
    use std::sync::OnceLock;
    static SQRT_M1: OnceLock<FieldElement> = OnceLock::new();
    *SQRT_M1.get_or_init(|| {
        // (p - 1) / 4 = 2^253 - 5.
        const EXP: [u64; 4] = [
            0xffff_ffff_ffff_fffb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x1fff_ffff_ffff_ffff,
        ];
        FieldElement::from_u64(2).pow_limbs(&EXP)
    })
}

/// One parallel carry pass: every limb keeps its low 51 bits and receives
/// the carry of the *input* limb below it (times 19 around the top, since
/// 2^255 = 19 mod p). A carry is < 2^13, so whatever the input, every output
/// limb is < 2^51 + 2^18 — reduced — and no step depends on the one before.
#[inline(always)]
fn carry(limbs: [u64; 5]) -> FieldElement {
    FieldElement([
        (limbs[0] & LOW_51_BIT_MASK) + (limbs[4] >> 51) * 19,
        (limbs[1] & LOW_51_BIT_MASK) + (limbs[0] >> 51),
        (limbs[2] & LOW_51_BIT_MASK) + (limbs[1] >> 51),
        (limbs[3] & LOW_51_BIT_MASK) + (limbs[2] >> 51),
        (limbs[4] & LOW_51_BIT_MASK) + (limbs[3] >> 51),
    ])
}

/// Carries the five 128-bit column sums of a product down to a reduced
/// element. With both operands lazy (limbs < 2^54) the columns that hold
/// 19-folded terms are < 2^115, so every carry fits 64 bits; the top column
/// has no folded term and is < 5·2^108 + 2^64, so its carry is < 2^59.4 and
/// `carry * 19` stays below 2^63.7.
#[inline(always)]
fn carry_wide(mut c: [u128; 5]) -> FieldElement {
    let mut out = [0u64; 5];
    for i in 0..4 {
        debug_assert!(c[i] >> 115 == 0);
        // The round trip through u64 tells the compiler the carry is one
        // word, making this a 128 + 64-bit addition.
        c[i + 1] += ((c[i] >> 51) as u64) as u128;
        out[i] = (c[i] as u64) & LOW_51_BIT_MASK;
    }
    debug_assert!(c[4] >> 111 == 0);
    let carry = (c[4] >> 51) as u64;
    out[4] = (c[4] as u64) & LOW_51_BIT_MASK;
    out[0] += carry * 19;
    out[1] += out[0] >> 51;
    out[0] &= LOW_51_BIT_MASK;
    FieldElement(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl FieldElement {
        /// Returns a square root of the element if one exists: the one
        /// whose canonical encoding has an even low bit ("non-negative").
        fn sqrt(&self) -> Option<FieldElement> {
            FieldElement::sqrt_ratio(self, &FieldElement::ONE)
        }
    }

    /// Exclusive limb bound of the *reduced* class.
    const REDUCED_LIMB_BOUND: u64 = 1 << 52;

    fn random_fe(rng: &mut StdRng) -> FieldElement {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        bytes[31] &= 0x7f;
        FieldElement::from_bytes(&bytes)
    }

    /// Schoolbook arithmetic modulo p on four 64-bit limbs with 128-bit
    /// products: the oracle for the 5×51 code above, with which it shares
    /// nothing but the modulus. Values are canonical (< p).
    mod reference {
        pub const P: [u64; 4] = [0xffff_ffff_ffff_ffed, !0, !0, 0x7fff_ffff_ffff_ffff];

        fn sub_raw(a: [u64; 4], b: [u64; 4]) -> ([u64; 4], bool) {
            let mut out = [0u64; 4];
            let mut borrow = false;
            for i in 0..4 {
                let (d, b1) = a[i].overflowing_sub(b[i]);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                out[i] = d;
                borrow = b1 || b2;
            }
            (out, borrow)
        }

        /// Canonical residue of a 512-bit little-endian integer: fold the
        /// high half down with 2^256 = 38 until it is empty, then subtract
        /// p while it fits.
        pub fn reduce(mut w: [u64; 8]) -> [u64; 4] {
            while w[4..] != [0; 4] {
                let mut carry = 0u128;
                for i in 0..4 {
                    let t = w[i] as u128 + 38 * w[i + 4] as u128 + carry;
                    w[i] = t as u64;
                    carry = t >> 64;
                }
                w[4..].copy_from_slice(&[carry as u64, 0, 0, 0]);
            }
            let mut v = [w[0], w[1], w[2], w[3]];
            while let (reduced, false) = sub_raw(v, P) {
                v = reduced;
            }
            v
        }

        /// The value Σ limbs[i]·2^(51 i) of a 5×51 element, any limb size.
        pub fn from_limbs(limbs: &[u64; 5]) -> [u64; 4] {
            let mut w = [0u64; 8];
            for (i, &limb) in limbs.iter().enumerate() {
                let mut rest = (limb as u128) << (51 * i % 64);
                let mut word = 51 * i / 64;
                while rest != 0 {
                    let t = w[word] as u128 + (rest as u64) as u128;
                    w[word] = t as u64;
                    rest = (rest >> 64) + (t >> 64);
                    word += 1;
                }
            }
            reduce(w)
        }

        pub fn to_bytes(a: &[u64; 4]) -> [u8; 32] {
            let mut out = [0u8; 32];
            for (chunk, limb) in out.chunks_mut(8).zip(a) {
                chunk.copy_from_slice(&limb.to_le_bytes());
            }
            out
        }

        pub fn add(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
            let mut w = [0u64; 8];
            let mut carry = 0u128;
            for i in 0..4 {
                let t = a[i] as u128 + b[i] as u128 + carry;
                w[i] = t as u64;
                carry = t >> 64;
            }
            w[4] = carry as u64;
            reduce(w)
        }

        /// a + (p − b); `add` reduces the sum, which is at most 2p − 1.
        pub fn sub(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
            add(a, &sub_raw(P, *b).0)
        }

        pub fn neg(a: &[u64; 4]) -> [u64; 4] {
            sub(&[0; 4], a)
        }

        pub fn mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
            let mut w = [0u64; 8];
            for i in 0..4 {
                let mut carry = 0u128;
                for j in 0..4 {
                    let t = w[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
                    w[i + j] = t as u64;
                    carry = t >> 64;
                }
                w[i + 4] = carry as u64;
            }
            reduce(w)
        }

        /// a^(p-2) by square-and-multiply; 0 for 0.
        pub fn invert(a: &[u64; 4]) -> [u64; 4] {
            let exponent = sub_raw(P, [2, 0, 0, 0]).0;
            let mut result = [1, 0, 0, 0];
            for bit in (0..255).rev() {
                result = mul(&result, &result);
                if (exponent[bit / 64] >> (bit % 64)) & 1 == 1 {
                    result = mul(&result, a);
                }
            }
            result
        }
    }

    /// Asserts that `actual` is a reduced element whose value — read from
    /// the limbs and, independently, from the canonical encoding — is
    /// `expected`.
    #[track_caller]
    fn assert_reduced_and_equal(actual: &FieldElement, expected: &[u64; 4], what: &str) {
        assert!(
            actual.0.iter().all(|&limb| limb < REDUCED_LIMB_BOUND),
            "{what}: limbs {:x?} are not reduced",
            actual.0
        );
        assert_eq!(&reference::from_limbs(&actual.0), expected, "{what}: limbs");
        assert_eq!(
            actual.to_bytes(),
            reference::to_bytes(expected),
            "{what}: encoding"
        );
    }

    /// Every public operation on `a` (and `b`), against the reference. The
    /// operands may be lazy wherever the operation documents that it
    /// accepts lazy operands; `add` and `invert` run on reduced ones only.
    #[track_caller]
    fn check_against_reference(a: &FieldElement, b: &FieldElement) {
        let (ra, rb) = (reference::from_limbs(&a.0), reference::from_limbs(&b.0));
        assert_reduced_and_equal(&a.sub(b), &reference::sub(&ra, &rb), "sub");
        assert_reduced_and_equal(&a.neg(), &reference::neg(&ra), "neg");
        assert_reduced_and_equal(&a.mul(b), &reference::mul(&ra, &rb), "mul");
        assert_reduced_and_equal(&a.square(), &reference::mul(&ra, &ra), "square");
        if a.0
            .iter()
            .chain(&b.0)
            .all(|&limb| limb < REDUCED_LIMB_BOUND)
        {
            assert_reduced_and_equal(&a.add(b), &reference::add(&ra, &rb), "add");
            assert_reduced_and_equal(&a.invert(), &reference::invert(&ra), "invert");
            // The unreduced sum is a lazy operand for the other operations.
            let sum = a.add_lazy(b);
            let rsum = reference::add(&ra, &rb);
            assert_reduced_and_equal(&sum.mul(&sum), &reference::mul(&rsum, &rsum), "lazy mul");
            assert_reduced_and_equal(&sum.square(), &reference::mul(&rsum, &rsum), "lazy square");
            assert_reduced_and_equal(&a.sub(&sum), &reference::neg(&rb), "lazy subtrahend");
            assert_reduced_and_equal(&sum.sub(b), &ra, "lazy minuend");
        }
    }

    #[test]
    fn reference_arithmetic_knows_the_modulus() {
        // The oracle itself, on values whose answers are known by hand.
        let p_minus_1 = [reference::P[0] - 1, !0, !0, reference::P[3]];
        assert_eq!(reference::add(&p_minus_1, &[1, 0, 0, 0]), [0; 4]);
        assert_eq!(reference::mul(&p_minus_1, &p_minus_1), [1, 0, 0, 0]);
        assert_eq!(reference::neg(&[0; 4]), [0; 4]);
        assert_eq!(reference::sub(&[0; 4], &[1, 0, 0, 0]), p_minus_1);
        assert_eq!(reference::reduce([0, 0, 0, 0, 1, 0, 0, 0]), [38, 0, 0, 0]);
        assert_eq!(reference::from_limbs(&[0, 0, 0, 0, 1 << 51]), [19, 0, 0, 0]);
        assert_eq!(reference::invert(&[2, 0, 0, 0]), {
            // (p + 1) / 2
            [0xffff_ffff_ffff_fff7, !0, !0, 0x3fff_ffff_ffff_ffff]
        });
        assert_eq!(reference::invert(&[0; 4]), [0; 4]);
    }

    #[test]
    fn operations_match_the_reference_on_random_elements() {
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..200 {
            check_against_reference(&random_fe(&mut rng), &random_fe(&mut rng));
        }
    }

    /// Hand-built operands at the edges of both limb classes and of the
    /// value range, in every pairing.
    #[test]
    fn operations_match_the_reference_at_the_limb_bounds() {
        let mut p_minus_1 = [0xffu8; 32];
        p_minus_1[0] = 0xec;
        p_minus_1[31] = 0x7f;
        let mut p_plus_1 = p_minus_1;
        p_plus_1[0] = 0xee;
        let mut rng = StdRng::seed_from_u64(41);
        let reduced = [
            FieldElement::ZERO,
            FieldElement::ONE,
            FieldElement::from_bytes(&p_minus_1),
            // Non-canonical values in [p, 2^255): p + 1 and 2^255 - 1.
            FieldElement::from_bytes(&p_plus_1),
            FieldElement::from_bytes(&[0xff; 32]),
            // The largest reduced limbs, everywhere and one limb at a time.
            FieldElement([REDUCED_LIMB_BOUND - 1; 5]),
            FieldElement([REDUCED_LIMB_BOUND - 1, 0, 0, 0, 0]),
            FieldElement([0, 0, 0, 0, REDUCED_LIMB_BOUND - 1]),
            // What one carry pass can return at most.
            FieldElement([(1 << 51) + (1 << 18) - 1; 5]),
            random_fe(&mut rng),
        ];
        // The documented lazy maximum, everywhere and one limb at a time,
        // and the largest sum of three reduced elements.
        let lazy = [
            FieldElement([LAZY_LIMB_BOUND - 1; 5]),
            FieldElement([LAZY_LIMB_BOUND - 1, 0, 0, 0, 0]),
            FieldElement([0, 0, 0, 0, LAZY_LIMB_BOUND - 1]),
            FieldElement([3 * (REDUCED_LIMB_BOUND - 1); 5]),
        ];
        for a in reduced.iter().chain(&lazy) {
            for b in reduced.iter().chain(&lazy) {
                check_against_reference(a, b);
            }
        }
    }

    /// The limb bounds are checked, not just stated: the dev-profile test
    /// build keeps debug assertions on for this crate.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn a_limb_outside_the_lazy_class_is_caught() {
        let _ = FieldElement([LAZY_LIMB_BOUND, 0, 0, 0, 0]).mul(&FieldElement::ONE);
    }

    #[test]
    fn zero_and_one_roundtrip() {
        assert_eq!(FieldElement::ZERO.to_bytes(), [0u8; 32]);
        let mut one = [0u8; 32];
        one[0] = 1;
        assert_eq!(FieldElement::ONE.to_bytes(), one);
        assert_eq!(FieldElement::from_bytes(&one), FieldElement::ONE);
    }

    #[test]
    fn from_bytes_reduces_p_to_zero() {
        // p = 2^255 - 19 encoded little-endian.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let fe = FieldElement::from_bytes(&p_bytes);
        assert!(fe.is_zero());
    }

    #[test]
    fn p_minus_one_is_canonical() {
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xec;
        bytes[31] = 0x7f;
        let fe = FieldElement::from_bytes(&bytes);
        assert_eq!(fe.to_bytes(), bytes);
        assert_eq!(fe.add(&FieldElement::ONE), FieldElement::ZERO);
    }

    #[test]
    fn add_sub_inverse() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a = random_fe(&mut rng);
            let b = random_fe(&mut rng);
            assert_eq!(a.add(&b).sub(&b), a);
            assert_eq!(a.sub(&b).add(&b), a);
            assert_eq!(a.sub(&a), FieldElement::ZERO);
        }
    }

    #[test]
    fn multiplication_identities() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let a = random_fe(&mut rng);
            assert_eq!(a.mul(&FieldElement::ONE), a);
            assert_eq!(a.mul(&FieldElement::ZERO), FieldElement::ZERO);
        }
    }

    #[test]
    fn small_integer_multiplication() {
        let six = FieldElement::from_u64(6);
        let seven = FieldElement::from_u64(7);
        assert_eq!(six.mul(&seven), FieldElement::from_u64(42));
        assert_eq!(
            FieldElement::from_u64(u64::MAX)
                .add(&FieldElement::ONE)
                .to_bytes()[8],
            1,
            "2^64 should set the 9th byte"
        );
    }

    #[test]
    fn invert_matches_naive_exponentiation() {
        // The addition chain must agree with the audit-friendly
        // square-and-multiply over p - 2 = 2^255 - 21.
        const P_MINUS_2: [u64; 4] = [
            0xffff_ffff_ffff_ffeb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x7fff_ffff_ffff_ffff,
        ];
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let a = random_fe(&mut rng);
            assert_eq!(a.invert(), a.pow_limbs(&P_MINUS_2));
        }
    }

    #[test]
    fn batch_invert_matches_single_inversions() {
        let mut rng = StdRng::seed_from_u64(32);
        // Random values with zeros and duplicates sprinkled in.
        let mut elements: Vec<FieldElement> = (0..17).map(|_| random_fe(&mut rng)).collect();
        elements[3] = FieldElement::ZERO;
        elements[9] = FieldElement::ZERO;
        elements[11] = elements[2];
        let expected: Vec<FieldElement> = elements.iter().map(|e| e.invert()).collect();
        FieldElement::batch_invert(&mut elements);
        assert_eq!(elements, expected);
        assert!(elements[3].is_zero(), "zero entries stay zero");

        // Degenerate shapes.
        let mut empty: Vec<FieldElement> = Vec::new();
        FieldElement::batch_invert(&mut empty);
        let mut single = [FieldElement::from_u64(7)];
        FieldElement::batch_invert(&mut single);
        assert_eq!(single[0], FieldElement::from_u64(7).invert());
        let mut zeros = [FieldElement::ZERO; 3];
        FieldElement::batch_invert(&mut zeros);
        assert!(zeros.iter().all(|e| e.is_zero()));
    }

    #[test]
    fn sqrt_ratio_matches_divide_then_sqrt() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let u = random_fe(&mut rng);
            let v = random_fe(&mut rng);
            if v.is_zero() {
                continue;
            }
            let expected = u.mul(&v.invert()).sqrt();
            assert_eq!(FieldElement::sqrt_ratio(&u, &v), expected);
        }
        // u = 0 has root 0 for any v.
        assert_eq!(
            FieldElement::sqrt_ratio(&FieldElement::ZERO, &FieldElement::from_u64(5)),
            Some(FieldElement::ZERO)
        );
    }

    #[test]
    fn inversion() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = random_fe(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
        }
        assert_eq!(FieldElement::ZERO.invert(), FieldElement::ZERO);
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let a = random_fe(&mut rng);
            let sq = a.square();
            let root = sq.sqrt().expect("squares have roots");
            assert_eq!(root.square(), sq);
        }
    }

    #[test]
    fn sqrt_minus_one_squares_to_minus_one() {
        let i = sqrt_minus_one();
        assert_eq!(i.square(), FieldElement::ONE.neg());
    }

    #[test]
    fn non_residue_has_no_root() {
        // p ≡ 5 (mod 8), so 2 is a quadratic non-residue; and because
        // -1 is a residue (p ≡ 1 mod 4), -2 is a non-residue as well.
        let two = FieldElement::from_u64(2);
        assert!(two.sqrt().is_none());
        assert!(two.neg().sqrt().is_none());
        // Sanity: perfect squares of small integers round-trip.
        assert_eq!(
            FieldElement::from_u64(4).sqrt().unwrap(),
            FieldElement::from_u64(2)
        );
        // sqrt returns the root with even low bit; for 9 that is p - 3.
        let root_of_nine = FieldElement::from_u64(9).sqrt().unwrap();
        assert_eq!(root_of_nine.square(), FieldElement::from_u64(9));
        assert!(!root_of_nine.is_negative());
    }

    #[test]
    fn from_wide_bytes_matches_narrow_for_small_values() {
        let mut wide = [0u8; 64];
        wide[0] = 200;
        wide[1] = 13;
        assert_eq!(
            FieldElement::from_wide_bytes(&wide),
            FieldElement::from_u64(200 + 13 * 256)
        );
    }

    #[test]
    fn from_wide_bytes_reduces_2_255_to_19() {
        let mut wide = [0u8; 64];
        wide[31] = 0x80; // 2^255
        assert_eq!(
            FieldElement::from_wide_bytes(&wide),
            FieldElement::from_u64(19)
        );
        let mut wide2 = [0u8; 64];
        wide2[32] = 1; // 2^256
        assert_eq!(
            FieldElement::from_wide_bytes(&wide2),
            FieldElement::from_u64(38)
        );
    }

    #[test]
    fn sign_normalization() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_fe(&mut rng);
        assert!(!a.with_sign(false).is_negative());
        assert!(a.with_sign(true).is_negative() || a.is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_mul_commutes(a_seed in any::<u64>(), b_seed in any::<u64>()) {
            let mut ra = StdRng::seed_from_u64(a_seed);
            let mut rb = StdRng::seed_from_u64(b_seed);
            let a = random_fe(&mut ra);
            let b = random_fe(&mut rb);
            prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn prop_mul_associates(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = random_fe(&mut rng);
            let b = random_fe(&mut rng);
            let c = random_fe(&mut rng);
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }

        #[test]
        fn prop_distributive(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = random_fe(&mut rng);
            let b = random_fe(&mut rng);
            let c = random_fe(&mut rng);
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn prop_bytes_roundtrip(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = random_fe(&mut rng);
            prop_assert_eq!(FieldElement::from_bytes(&a.to_bytes()), a);
        }

        /// A random chain of public operations, each checked against the
        /// reference and for the reduced-output bound before its result
        /// becomes an operand of the next.
        #[test]
        fn prop_op_chains_stay_reduced_and_match_the_reference(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let mut a = random_fe(&mut rng);
            let mut b = random_fe(&mut rng);
            let (mut ra, mut rb) = (reference::from_limbs(&a.0), reference::from_limbs(&b.0));
            for _ in 0..48 {
                let (c, rc, what) = match rng.gen_range(0..11u32) {
                    0 | 1 => (a.add(&b), reference::add(&ra, &rb), "add"),
                    2 | 3 => (a.sub(&b), reference::sub(&ra, &rb), "sub"),
                    4 => (a.neg(), reference::neg(&ra), "neg"),
                    5..=7 => (a.mul(&b), reference::mul(&ra, &rb), "mul"),
                    8 | 9 => (a.square(), reference::mul(&ra, &ra), "square"),
                    _ => (a.invert(), reference::invert(&ra), "invert"),
                };
                assert_reduced_and_equal(&c, &rc, what);
                (a, ra, b, rb) = (b, rb, c, rc);
            }
        }

        #[test]
        fn prop_square_matches_mul(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = random_fe(&mut rng);
            prop_assert_eq!(a.square(), a.mul(&a));
        }
    }
}
