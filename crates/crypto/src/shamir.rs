//! Shamir secret sharing over GF(2²⁵⁵ − 19), arranged so that *independent*
//! clients holding the same message produce consistent shares (§4.2).
//!
//! Classic Shamir sharing has a single dealer pick a random polynomial. In
//! the ESA secret-share encoding there is no dealer: every client that holds
//! the message m must be able to produce a share of the message-derived key
//! k_m = H(m) on its own, and any t of those shares (from different clients)
//! must recover k_m. The construction therefore derives the polynomial
//! deterministically from the secret itself — coefficient i is
//! H(secret ‖ i) — and each client contributes one evaluation at a random
//! abscissa. For attackers who cannot guess m (and hence cannot reconstruct
//! the polynomial), any t−1 shares are statistically uninformative, exactly
//! the property the paper relies on for hard-to-guess data.

use rand::Rng;

use crate::error::CryptoError;
use crate::field::FieldElement;
use crate::sha256::Sha256;

/// One secret share: an evaluation (x, P(x)) of the secret polynomial.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Share {
    /// Evaluation abscissa (non-zero).
    pub(crate) x: FieldElement,
    /// Polynomial value at `x`.
    pub(crate) y: FieldElement,
}

impl Share {
    /// Serializes to 64 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.x.to_bytes());
        out[32..].copy_from_slice(&self.y.to_bytes());
        out
    }

    /// Parses the 64-byte encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != 64 {
            return Err(CryptoError::InvalidEncoding("share length"));
        }
        let mut x_bytes = [0u8; 32];
        x_bytes.copy_from_slice(&bytes[..32]);
        let mut y_bytes = [0u8; 32];
        y_bytes.copy_from_slice(&bytes[32..]);
        Ok(Self {
            x: FieldElement::from_bytes(&x_bytes),
            y: FieldElement::from_bytes(&y_bytes),
        })
    }
}

/// Derives the i-th polynomial coefficient from the secret.
fn coefficient(secret: &[u8; 32], index: u32) -> FieldElement {
    let mut h1 = Sha256::new();
    h1.update(b"prochlo-shamir-coefficient-a");
    h1.update(secret);
    h1.update(&index.to_le_bytes());
    let mut h2 = Sha256::new();
    h2.update(b"prochlo-shamir-coefficient-b");
    h2.update(secret);
    h2.update(&index.to_le_bytes());
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&h1.finalize());
    wide[32..].copy_from_slice(&h2.finalize());
    FieldElement::from_wide_bytes(&wide)
}

/// Interprets a 32-byte secret as a field element.
///
/// # Panics
///
/// Panics if the top four bits are set: secrets must be below 2²⁵² so that
/// the field encoding is lossless (the message-locked keys produced by
/// [`crate::mle::derive_key`] satisfy this by construction).
fn secret_to_field(secret: &[u8; 32]) -> FieldElement {
    assert!(
        secret[31] & 0xf0 == 0,
        "Shamir secrets must have the top four bits clear"
    );
    FieldElement::from_bytes(secret)
}

/// Evaluates the secret's polynomial of degree `threshold - 1` at `x`.
fn evaluate(
    secret: &FieldElement,
    secret_bytes: &[u8; 32],
    threshold: usize,
    x: &FieldElement,
) -> FieldElement {
    // P(x) = secret + a_1 x + a_2 x^2 + ... + a_{t-1} x^{t-1}, Horner form.
    let mut acc = FieldElement::ZERO;
    for i in (1..threshold).rev() {
        acc = acc.add(&coefficient(secret_bytes, i as u32));
        acc = acc.mul(x);
    }
    acc.add(secret)
}

/// Produces one share of `secret` for a `threshold`-out-of-anything sharing.
///
/// Each call (from any client holding the same secret) picks an independent
/// random abscissa; any `threshold` shares with distinct abscissas recover
/// the secret.
pub fn share_secret<R: Rng + ?Sized>(secret: &[u8; 32], threshold: usize, rng: &mut R) -> Share {
    assert!(threshold >= 1, "threshold must be at least 1");
    let secret_fe = secret_to_field(secret);
    // Random non-zero abscissa (zero would leak the secret directly).
    let x = loop {
        let mut bytes = [0u8; 64];
        rng.fill_bytes(&mut bytes);
        let x = FieldElement::from_wide_bytes(&bytes);
        if !x.is_zero() {
            break x;
        }
    };
    let y = evaluate(&secret_fe, secret, threshold, &x);
    Share { x, y }
}

/// Recovers the secret from at least `threshold` shares with distinct
/// abscissas, using Lagrange interpolation at zero.
pub fn recover_secret(shares: &[Share], threshold: usize) -> Result<[u8; 32], CryptoError> {
    // Deduplicate by abscissa: two shares from the same client are not
    // independent information. Interpolation uses the first `threshold`
    // distinct shares, so the scan stops once it has them — a popular value
    // arrives with thousands of shares, and comparing each against every
    // earlier one is quadratic in a count that does not matter.
    let mut points: Vec<Share> = Vec::with_capacity(threshold.min(shares.len()));
    for share in shares {
        if points.len() == threshold {
            break;
        }
        if !points.iter().any(|s| s.x == share.x) {
            points.push(*share);
        }
    }
    if points.len() < threshold {
        return Err(CryptoError::InsufficientShares {
            required: threshold,
            available: points.len(),
        });
    }

    // Lagrange interpolation at x = 0:
    //   P(0) = Σ_i y_i · Π_{j≠i} x_j / (x_j − x_i)
    // with the `threshold` denominators inverted together: one field
    // inversion per recovery instead of one per share.
    let mut numerators = Vec::with_capacity(points.len());
    let mut denominators = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        let mut numerator = point.y;
        let mut denominator = FieldElement::ONE;
        for (j, other) in points.iter().enumerate() {
            if i != j {
                numerator = numerator.mul(&other.x);
                denominator = denominator.mul(&other.x.sub(&point.x));
            }
        }
        numerators.push(numerator);
        denominators.push(denominator);
    }
    FieldElement::batch_invert(&mut denominators);
    let secret = numerators
        .iter()
        .zip(&denominators)
        .fold(FieldElement::ZERO, |sum, (n, d)| sum.add(&n.mul(d)));
    Ok(secret.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn secret_from(tag: u8) -> [u8; 32] {
        let mut s = [tag; 32];
        s[31] &= 0x0f;
        s
    }

    #[test]
    fn threshold_many_independent_shares_recover() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = secret_from(7);
        let threshold = 5;
        let shares: Vec<Share> = (0..threshold)
            .map(|_| share_secret(&secret, threshold, &mut rng))
            .collect();
        assert_eq!(recover_secret(&shares, threshold).unwrap(), secret);
    }

    #[test]
    fn more_than_threshold_shares_also_recover() {
        let mut rng = StdRng::seed_from_u64(2);
        let secret = secret_from(9);
        let threshold = 3;
        let shares: Vec<Share> = (0..10)
            .map(|_| share_secret(&secret, threshold, &mut rng))
            .collect();
        assert_eq!(recover_secret(&shares, threshold).unwrap(), secret);
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = StdRng::seed_from_u64(3);
        let secret = secret_from(1);
        let shares: Vec<Share> = (0..4).map(|_| share_secret(&secret, 5, &mut rng)).collect();
        assert!(matches!(
            recover_secret(&shares, 5),
            Err(CryptoError::InsufficientShares {
                required: 5,
                available: 4
            })
        ));
    }

    #[test]
    fn duplicate_abscissas_do_not_count_twice() {
        let mut rng = StdRng::seed_from_u64(4);
        let secret = secret_from(2);
        let share = share_secret(&secret, 3, &mut rng);
        let shares = vec![share, share, share];
        assert!(recover_secret(&shares, 3).is_err());
    }

    #[test]
    fn recovery_stops_at_the_threshold_without_changing_the_answer() {
        // The recovery this replaces: deduplicate the whole list, keep the
        // first `threshold` distinct abscissas, invert every Lagrange
        // denominator on its own. Duplicates before and after the
        // threshold-th distinct share must not move the answer.
        fn full_scan(shares: &[Share], threshold: usize) -> [u8; 32] {
            let mut unique: Vec<Share> = Vec::new();
            for share in shares {
                if !unique.iter().any(|s| s.x == share.x) {
                    unique.push(*share);
                }
            }
            let points = &unique[..threshold];
            let mut secret = FieldElement::ZERO;
            for (i, point) in points.iter().enumerate() {
                let mut weight = FieldElement::ONE;
                for (j, other) in points.iter().enumerate() {
                    if i != j {
                        weight = weight.mul(&other.x.mul(&other.x.sub(&point.x).invert()));
                    }
                }
                secret = secret.add(&point.y.mul(&weight));
            }
            secret.to_bytes()
        }
        let mut rng = StdRng::seed_from_u64(10);
        let secret = secret_from(6);
        let threshold = 20;
        let distinct: Vec<Share> = (0..400)
            .map(|_| share_secret(&secret, threshold, &mut rng))
            .collect();
        // 2 000 shares: every distinct one followed by four repeats drawn
        // from anywhere in the list, earlier or later.
        let shares: Vec<Share> = (0..2_000)
            .map(|i| match i % 5 {
                0 => distinct[i / 5],
                _ => distinct[rng.gen_range(0..distinct.len())],
            })
            .collect();
        assert_eq!(recover_secret(&shares, threshold).unwrap(), secret);
        assert_eq!(full_scan(&shares, threshold), secret);
        // Mixed with shares of another secret the recovered value is
        // neither, and it is still the full scan's.
        let other = secret_from(8);
        let mixed: Vec<Share> = shares
            .iter()
            .enumerate()
            .map(|(i, share)| match i % 7 {
                3 => share_secret(&other, threshold, &mut rng),
                _ => *share,
            })
            .collect();
        let recovered = recover_secret(&mixed, threshold).unwrap();
        assert!(recovered != secret && recovered != other);
        assert_eq!(recovered, full_scan(&mixed, threshold));
    }

    #[test]
    fn too_few_distinct_shares_report_the_true_count() {
        // 2 000 shares over 19 abscissas: the scan never reaches the
        // threshold, so it sees — and reports — every distinct one.
        let mut rng = StdRng::seed_from_u64(11);
        let secret = secret_from(12);
        let distinct: Vec<Share> = (0..19)
            .map(|_| share_secret(&secret, 20, &mut rng))
            .collect();
        let shares: Vec<Share> = (0..2_000).map(|i| distinct[i % 19]).collect();
        assert_eq!(
            recover_secret(&shares, 20),
            Err(CryptoError::InsufficientShares {
                required: 20,
                available: 19
            })
        );
    }

    #[test]
    fn threshold_one_is_plain_disclosure() {
        let mut rng = StdRng::seed_from_u64(5);
        let secret = secret_from(3);
        let share = share_secret(&secret, 1, &mut rng);
        assert_eq!(recover_secret(&[share], 1).unwrap(), secret);
    }

    #[test]
    fn wrong_secret_shares_do_not_recover_target() {
        // Mixing shares from two different secrets yields neither secret
        // (with overwhelming probability).
        let mut rng = StdRng::seed_from_u64(6);
        let s1 = secret_from(10);
        let s2 = secret_from(11);
        let shares = vec![
            share_secret(&s1, 3, &mut rng),
            share_secret(&s1, 3, &mut rng),
            share_secret(&s2, 3, &mut rng),
        ];
        let recovered = recover_secret(&shares, 3).unwrap();
        assert_ne!(recovered, s1);
        assert_ne!(recovered, s2);
    }

    #[test]
    fn paper_parameters_t20() {
        // The Vocab experiment uses t = 20 matching the crowd threshold.
        let mut rng = StdRng::seed_from_u64(7);
        let secret = secret_from(20);
        let shares: Vec<Share> = (0..20)
            .map(|_| share_secret(&secret, 20, &mut rng))
            .collect();
        assert_eq!(recover_secret(&shares, 20).unwrap(), secret);
        assert!(recover_secret(&shares[..19], 20).is_err());
    }

    #[test]
    fn share_serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let share = share_secret(&secret_from(5), 4, &mut rng);
        let parsed = Share::from_bytes(&share.to_bytes()).unwrap();
        assert_eq!(parsed, share);
        assert!(Share::from_bytes(&[0u8; 5]).is_err());
    }

    #[test]
    #[should_panic(expected = "top four bits")]
    fn oversized_secret_is_rejected() {
        let secret = [0xffu8; 32];
        secret_to_field(&secret);
    }
}
