//! Arithmetic modulo the order ℓ of the prime-order subgroup of the Edwards
//! curve, ℓ = 2²⁵² + 27742317777372353535851937790883648493.
//!
//! Scalars are what exponents "are" in the protocol descriptions of the
//! paper: Diffie–Hellman private keys, El Gamal randomness, the blinding
//! exponent α of the split shuffler, and Schnorr signature values. Drawing
//! one is on the client's path — every encoded report draws an ephemeral
//! key per layer, plus the El Gamal randomness of a blinded crowd ID — and
//! on Shuffler 1's, whose sequential draw loop takes one re-randomization
//! scalar per record. So both wide reductions (a 64-byte draw or hash) and
//! products (a 4×4-limb schoolbook product) go through one Barrett
//! reduction over 64-bit limbs rather than a bit-serial loop; the
//! bit-serial versions stay in the test suite as the oracle.

use std::cmp::Ordering;

use rand::Rng;

use crate::sha256::Sha256;

/// The group order ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// Barrett's constant μ = ⌊2⁵¹²/ℓ⌋, a 260-bit number, as five
/// little-endian 64-bit limbs.
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_000f,
];

/// An integer modulo ℓ, stored as four little-endian 64-bit limbs, always
/// fully reduced.
#[derive(Clone, Copy)]
pub struct Scalar([u64; 4]);

/// Equality is constant-shape: scalars are always fully reduced, so the
/// canonical 32-byte encodings are equal iff the scalars are, and
/// `crate::util::ct_eq` touches every byte regardless of where they
/// first differ. Scalars are Diffie–Hellman private keys and blinding
/// exponents; a derived `PartialEq` would short-circuit at the first
/// differing limb and leak match length through timing.
impl PartialEq for Scalar {
    fn eq(&self, other: &Scalar) -> bool {
        crate::util::ct_eq(&self.to_bytes(), &other.to_bytes())
    }
}

impl Eq for Scalar {}

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar({})", crate::util::to_hex(&self.to_bytes()))
    }
}

fn compare(a: &[u64; 4], b: &[u64; 4]) -> Ordering {
    for i in (0..4).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

fn raw_add(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut carry = false;
    for i in 0..4 {
        let (sum1, c1) = a[i].overflowing_add(b[i]);
        let (sum2, c2) = sum1.overflowing_add(carry as u64);
        out[i] = sum2;
        carry = c1 || c2;
    }
    (out, carry)
}

fn raw_sub(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (diff1, b1) = a[i].overflowing_sub(b[i]);
        let (diff2, b2) = diff1.overflowing_sub(borrow as u64);
        out[i] = diff2;
        borrow = b1 || b2;
    }
    (out, borrow)
}

/// The low `out.len()` limbs of the product `a·b`, schoolbook over
/// little-endian limbs; `out` must start zeroed. Each step computes
/// `out + a·b + carry` ≤ (2⁶⁴ − 1) + (2⁶⁴ − 1)² + (2⁶⁴ − 1) = 2¹²⁸ − 1, so
/// the u128 never overflows.
fn mul_limbs(a: &[u64], b: &[u64], out: &mut [u64]) {
    for (i, &a_i) in a.iter().enumerate() {
        let mut carry = 0u64;
        for (j, &b_j) in b.iter().enumerate().take(out.len().saturating_sub(i)) {
            let t = out[i + j] as u128 + a_i as u128 * b_j as u128 + carry as u128;
            out[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        if let Some(top) = out.get_mut(i + b.len()) {
            *top = carry;
        }
    }
}

/// `limbs` (< 2ℓ) reduced to a scalar by one conditional subtraction.
fn subtract_l_once(limbs: [u64; 4]) -> Scalar {
    if compare(&limbs, &L) == Ordering::Less {
        Scalar(limbs)
    } else {
        Scalar(raw_sub(&limbs, &L).0)
    }
}

/// Reduces a 512-bit little-endian integer `x` modulo ℓ by Barrett's
/// method (HAC 14.42 with b = 2⁶⁴, k = 4).
///
/// The quotient estimate q = ⌊⌊x / 2¹⁹²⌋ · μ / 2³²⁰⌋ is never above ⌊x/ℓ⌋
/// and at most one below it: the two truncations lose less than
/// frac(2⁵¹²/ℓ) + 2¹⁹²/ℓ < 0.23. So r = x − q·ℓ lies in [0, 2ℓ), which is
/// below 2²⁵⁶ — the low four limbs of x and of q·ℓ determine it — and one
/// conditional subtraction finishes the reduction.
fn barrett_reduce(x: &[u64; 8]) -> Scalar {
    let mut q_mu = [0u64; 10];
    mul_limbs(&x[3..], &MU, &mut q_mu);
    let mut q_l = [0u64; 4];
    mul_limbs(&q_mu[5..], &L, &mut q_l);
    let (r, _) = raw_sub(&[x[0], x[1], x[2], x[3]], &q_l);
    subtract_l_once(r)
}

impl Scalar {
    /// The scalar 0.
    pub(crate) fn zero() -> Scalar {
        Scalar([0; 4])
    }

    /// Loads 32 little-endian bytes and reduces modulo ℓ.
    pub(crate) fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = crate::util::load_u64_le(&bytes[i * 8..]);
        }
        // The value is below 2^256 < 16 ℓ, so a few conditional subtractions
        // fully reduce it.
        while compare(&limbs, &L) != Ordering::Less {
            let (reduced, borrow) = raw_sub(&limbs, &L);
            debug_assert!(!borrow);
            limbs = reduced;
        }
        Scalar(limbs)
    }

    /// Reduces 64 bytes (e.g. a wide hash output) modulo ℓ, treating them as
    /// a big little-endian integer.
    fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = crate::util::load_u64_le(&bytes[i * 8..]);
        }
        barrett_reduce(&limbs)
    }

    /// Serializes to 32 little-endian bytes (< ℓ).
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Uniformly random scalar.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Scalar {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// A non-zero uniformly random scalar (rejection-sampled).
    pub fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Scalar {
        loop {
            let s = Scalar::random(rng);
            if s != Scalar::zero() {
                return s;
            }
        }
    }

    /// Hashes arbitrary byte strings to a scalar (domain-separated SHA-256).
    pub(crate) fn hash_from_bytes(parts: &[&[u8]]) -> Scalar {
        let mut h1 = Sha256::new();
        h1.update(b"prochlo-hash-to-scalar-1");
        let mut h2 = Sha256::new();
        h2.update(b"prochlo-hash-to-scalar-2");
        for part in parts {
            h1.update(&(part.len() as u64).to_le_bytes());
            h1.update(part);
            h2.update(&(part.len() as u64).to_le_bytes());
            h2.update(part);
        }
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&h1.finalize());
        wide[32..].copy_from_slice(&h2.finalize());
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Addition modulo ℓ.
    pub(crate) fn add(&self, other: &Scalar) -> Scalar {
        let (sum, carry) = raw_add(&self.0, &other.0);
        debug_assert!(!carry, "reduced scalars never overflow 2^256 when added");
        subtract_l_once(sum)
    }

    /// Multiplication modulo ℓ: the 512-bit product, then one Barrett
    /// reduction.
    pub(crate) fn mul(&self, other: &Scalar) -> Scalar {
        let mut product = [0u64; 8];
        mul_limbs(&self.0, &other.0, &mut product);
        barrett_reduce(&product)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    impl Scalar {
        /// Subtraction modulo ℓ.
        pub(crate) fn sub(&self, other: &Scalar) -> Scalar {
            if compare(&self.0, &other.0) != Ordering::Less {
                let (diff, _) = raw_sub(&self.0, &other.0);
                Scalar(diff)
            } else {
                let (bumped, _) = raw_add(&self.0, &L);
                let (diff, _) = raw_sub(&bumped, &other.0);
                Scalar(diff)
            }
        }

        /// Negation modulo ℓ.
        fn neg(&self) -> Scalar {
            Scalar::zero().sub(self)
        }

        /// True when the scalar is zero.
        fn is_zero(&self) -> bool {
            self.0 == [0; 4]
        }

        /// The scalar 1.
        pub(crate) fn one() -> Scalar {
            Scalar::from_u64(1)
        }

        /// Builds a scalar from a small integer.
        pub(crate) fn from_u64(x: u64) -> Scalar {
            Scalar([x, 0, 0, 0])
        }
    }

    fn l_minus_one() -> Scalar {
        Scalar::zero().sub(&Scalar::one())
    }

    /// The bit-serial Horner reduction Barrett replaced, kept as the
    /// oracle: most significant bit first, double, then add the bit.
    fn wide_bit_serial(bytes: &[u8; 64]) -> Scalar {
        let mut acc = Scalar::zero();
        for byte_idx in (0..64).rev() {
            for bit in (0..8).rev() {
                acc = acc.add(&acc);
                if (bytes[byte_idx] >> bit) & 1 == 1 {
                    acc = acc.add(&Scalar::one());
                }
            }
        }
        acc
    }

    /// The double-and-add product Barrett replaced, kept as the oracle.
    fn mul_bit_serial(a: &Scalar, b: &Scalar) -> Scalar {
        let mut acc = Scalar::zero();
        let bytes = b.to_bytes();
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                acc = acc.add(&acc);
                if (bytes[byte_idx] >> bit) & 1 == 1 {
                    acc = acc.add(a);
                }
            }
        }
        acc
    }

    /// 64 bytes in which every 8-byte limb is, by `selector`, all zeros,
    /// all ones or drawn from `rng`: runs of either that ripple carries
    /// and borrows through every limb of the reduction.
    fn structured_wide(selector: u64, rng: &mut StdRng) -> [u8; 64] {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        for (i, limb) in wide.chunks_mut(8).enumerate() {
            match (selector >> (2 * i)) & 3 {
                0 => limb.fill(0),
                1 => limb.fill(0xff),
                _ => {}
            }
        }
        wide
    }

    fn wide_hex(hex: &str) -> [u8; 64] {
        crate::util::from_hex(hex).unwrap().try_into().unwrap()
    }

    /// The edges of the reduction: 0, 2⁵¹² − 1, and k·ℓ − 1, k·ℓ, k·ℓ + 1
    /// for k = 1, 2¹²⁸ and ⌊(2⁵¹² − 1)/ℓ⌋ = μ (the largest multiple of ℓ
    /// below 2⁵¹²). The μ·ℓ encodings and 2⁵¹² − 1 mod ℓ were computed
    /// outside this crate.
    #[test]
    fn wide_reduction_is_exact_at_the_edges() {
        let check = |wide: &[u8; 64], expected: Scalar| {
            assert_eq!(Scalar::from_bytes_mod_order_wide(wide), expected);
            assert_eq!(wide_bit_serial(wide), expected);
        };
        check(&[0; 64], Scalar::zero());
        let max_mod_l = crate::util::from_hex(
            "000f9c44e31106a447938568a71b0ed065bef517d273ecce3d9a307c1b419903",
        )
        .unwrap();
        check(
            &[0xff; 64],
            Scalar::from_bytes_mod_order(&max_mod_l.try_into().unwrap()),
        );
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        let expected = [l_minus_one(), Scalar::zero(), Scalar::one()];
        for offset in [0, 16] {
            let mut k_l = [0u8; 64];
            k_l[offset..offset + 32].copy_from_slice(&l_bytes);
            // k·ℓ − 1 borrows through the zero bytes below 2¹²⁸·ℓ.
            let mut below = k_l;
            for byte in below.iter_mut() {
                let (value, borrow) = byte.overflowing_sub(1);
                *byte = value;
                if !borrow {
                    break;
                }
            }
            let mut above = k_l;
            above[0] += 1;
            for (wide, want) in [below, k_l, above].iter().zip(expected) {
                check(wide, want);
            }
        }
        let mu_l = [
            "fef063bb1ceef95bb86c7a9758e4f12f9a410ae82d8c1331c265cf83e4be66fc",
            "fff063bb1ceef95bb86c7a9758e4f12f9a410ae82d8c1331c265cf83e4be66fc",
            "00f163bb1ceef95bb86c7a9758e4f12f9a410ae82d8c1331c265cf83e4be66fc",
        ];
        for (low, want) in mu_l.into_iter().zip(expected) {
            check(&wide_hex(&format!("{low}{}", "ff".repeat(32))), want);
        }
    }

    /// μ is ⌊2⁵¹²/ℓ⌋: μ·ℓ ≤ 2⁵¹² − 1 < (μ + 1)·ℓ, checked limb by limb
    /// against the 512-bit encodings above.
    #[test]
    fn mu_is_the_floor_of_two_to_the_512_over_l() {
        let mut mu_l = [0u64; 9];
        mul_limbs(&MU, &L, &mut mu_l);
        assert_eq!(mu_l[8], 0);
        let expected = wide_hex(&format!(
            "fff063bb1ceef95bb86c7a9758e4f12f9a410ae82d8c1331c265cf83e4be66fc{}",
            "ff".repeat(32)
        ));
        for (limb, bytes) in mu_l.iter().zip(expected.chunks(8)) {
            assert_eq!(*limb, crate::util::load_u64_le(bytes));
        }
        // The top four limbs of μ·ℓ are all ones, so 2⁵¹² − μ·ℓ is 2²⁵⁶
        // minus the low four: non-zero, and below ℓ.
        let (gap, borrow) = raw_sub(&[0; 4], &[mu_l[0], mu_l[1], mu_l[2], mu_l[3]]);
        assert!(borrow && compare(&gap, &L) == Ordering::Less);
    }

    #[test]
    fn zero_and_one_behave() {
        assert!(Scalar::zero().is_zero());
        assert!(!Scalar::one().is_zero());
        assert_eq!(Scalar::one().add(&Scalar::zero()), Scalar::one());
        assert_eq!(Scalar::one().mul(&Scalar::zero()), Scalar::zero());
        assert_eq!(Scalar::one().mul(&Scalar::one()), Scalar::one());
    }

    #[test]
    fn small_arithmetic_matches_integers() {
        let a = Scalar::from_u64(123_456_789);
        let b = Scalar::from_u64(987_654_321);
        assert_eq!(a.add(&b), Scalar::from_u64(1_111_111_110));
        assert_eq!(b.sub(&a), Scalar::from_u64(864_197_532));
        assert_eq!(
            Scalar::from_u64(1 << 30).mul(&Scalar::from_u64(1 << 20)),
            Scalar::from_u64(1 << 50)
        );
    }

    #[test]
    fn l_wraps_to_zero() {
        // ℓ expressed via its limbs must reduce to 0.
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(Scalar::from_bytes_mod_order(&l_bytes).is_zero());
        // (ℓ - 1) + 1 == 0.
        assert_eq!(l_minus_one().add(&Scalar::one()), Scalar::zero());
    }

    #[test]
    fn sub_wraps_correctly() {
        assert_eq!(Scalar::zero().sub(&Scalar::one()), l_minus_one());
        assert_eq!(Scalar::one().sub(&Scalar::one()), Scalar::zero());
    }

    #[test]
    fn neg_is_additive_inverse() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = Scalar::random(&mut rng);
            assert_eq!(a.add(&a.neg()), Scalar::zero());
        }
    }

    #[test]
    fn wide_reduction_matches_narrow_for_small_inputs() {
        let mut narrow = [0u8; 32];
        narrow[0] = 0xaa;
        narrow[9] = 0x55;
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&narrow);
        assert_eq!(
            Scalar::from_bytes_mod_order(&narrow),
            Scalar::from_bytes_mod_order_wide(&wide)
        );
    }

    #[test]
    fn to_bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let a = Scalar::random(&mut rng);
            assert_eq!(Scalar::from_bytes_mod_order(&a.to_bytes()), a);
        }
    }

    #[test]
    fn hash_from_bytes_is_deterministic_and_framed() {
        let a = Scalar::hash_from_bytes(&[b"ab", b"c"]);
        let b = Scalar::hash_from_bytes(&[b"ab", b"c"]);
        let c = Scalar::hash_from_bytes(&[b"a", b"bc"]);
        assert_eq!(a, b);
        assert_ne!(a, c, "length framing must separate part boundaries");
    }

    #[test]
    fn eq_has_constant_comparison_shape() {
        // `Scalar::eq` routes through `ct_eq` on the canonical encoding.
        // The timing shape cannot be measured reliably in a unit test, but
        // it can be proven structurally: ct_eq's verdict is the OR of all
        // byte XORs, so every byte position participates — flipping any
        // single byte (first, last, or middle — exactly the positions an
        // early-exit comparison would distinguish fastest/slowest) flips
        // the verdict.
        let mut rng = StdRng::seed_from_u64(6);
        let a = Scalar::random(&mut rng);
        let bytes = a.to_bytes();
        for i in 0..32 {
            let mut flipped = bytes;
            flipped[i] ^= 0x01;
            assert!(
                !crate::util::ct_eq(&bytes, &flipped),
                "byte {i} must participate in the comparison"
            );
        }
        // And the ct_eq-backed equality still means value equality: the
        // encoding is canonical (always fully reduced).
        assert_eq!(Scalar::from_bytes_mod_order(&bytes), a);
        assert_ne!(a.add(&Scalar::one()), a, "low-limb difference detected");
        assert_ne!(
            a.add(&Scalar::from_bytes_mod_order_wide(&[0xf0; 64])),
            a,
            "high-limb difference detected"
        );
    }

    #[test]
    fn random_scalars_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_ne!(Scalar::random(&mut rng), Scalar::random(&mut rng));
        assert!(!Scalar::random_nonzero(&mut rng).is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Barrett agrees with the bit-serial oracle on arbitrary 64-byte
        /// inputs: uniformly random ones (about one in nine needs the final
        /// subtraction) and limb-structured ones.
        #[test]
        fn prop_wide_reduction_matches_bit_serial(seed in any::<u64>(), selector in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            prop_assert_eq!(Scalar::from_bytes_mod_order_wide(&wide), wide_bit_serial(&wide));
            let structured = structured_wide(selector, &mut rng);
            prop_assert_eq!(
                Scalar::from_bytes_mod_order_wide(&structured),
                wide_bit_serial(&structured)
            );
        }

        /// Barrett products agree with double-and-add on arbitrary scalar
        /// pairs, loaded without the wide reduction under test.
        #[test]
        fn prop_mul_matches_bit_serial(seed in any::<u64>(), selector in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let structured = structured_wide(selector, &mut rng);
            let mut narrow = [0u8; 32];
            rng.fill_bytes(&mut narrow);
            let a = Scalar::from_bytes_mod_order(&narrow);
            let b = Scalar::from_bytes_mod_order(&structured[..32].try_into().unwrap());
            let c = Scalar::from_bytes_mod_order(&structured[32..].try_into().unwrap());
            for (x, y) in [(a, b), (b, c), (c, a), (l_minus_one(), a), (b, l_minus_one())] {
                prop_assert_eq!(x.mul(&y), mul_bit_serial(&x, &y));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_add_commutes(x in any::<u64>(), y in any::<u64>()) {
            let mut rx = StdRng::seed_from_u64(x);
            let mut ry = StdRng::seed_from_u64(y);
            let a = Scalar::random(&mut rx);
            let b = Scalar::random(&mut ry);
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn prop_mul_commutes_and_associates(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let c = Scalar::random(&mut rng);
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }

        #[test]
        fn prop_distributive(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let c = Scalar::random(&mut rng);
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn prop_sub_add_roundtrip(s in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(s);
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            prop_assert_eq!(a.sub(&b).add(&b), a);
        }

        #[test]
        fn prop_small_mul_matches_u128(x in 0u64..u64::MAX, y in 0u64..u64::MAX) {
            // Products below 2^128 never reach ℓ, so they must match integer math.
            let prod = (x as u128) * (y as u128);
            let expected_lo = prod as u64;
            let expected_hi = (prod >> 64) as u64;
            let result = Scalar::from_u64(x).mul(&Scalar::from_u64(y));
            let bytes = result.to_bytes();
            prop_assert_eq!(crate::util::load_u64_le(&bytes[0..8]), expected_lo);
            prop_assert_eq!(crate::util::load_u64_le(&bytes[8..16]), expected_hi);
        }
    }
}
