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

use std::collections::BTreeSet;

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

/// A secret's sharing polynomial of degree `threshold - 1`, the secret
/// then a_1 … a_{t−1}, derived once: checking a share against it is one
/// Horner pass and no hashing.
struct Polynomial(Vec<FieldElement>);

impl Polynomial {
    fn new(secret: FieldElement, secret_bytes: &[u8; 32], threshold: usize) -> Self {
        let coefficients = (1..threshold).map(|i| coefficient(secret_bytes, i as u32));
        Self(std::iter::once(secret).chain(coefficients).collect())
    }

    /// `P(x) = secret + a_1 x + a_2 x^2 + ... + a_{t-1} x^{t-1}`.
    fn evaluate(&self, x: &FieldElement) -> FieldElement {
        self.0
            .iter()
            .rev()
            .fold(FieldElement::ZERO, |acc, c| acc.mul(x).add(c))
    }
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
    let y = Polynomial::new(secret_fe, secret, threshold).evaluate(&x);
    Share { x, y }
}

/// Recovers the secret from at least `threshold` shares with distinct
/// abscissas, using Lagrange interpolation at zero.
pub fn recover_secret(shares: &[Share], threshold: usize) -> Result<[u8; 32], CryptoError> {
    Ok(interpolate(&first_window(shares, threshold)?).to_bytes())
}

/// The first `threshold` shares with distinct abscissas: two shares from
/// the same client are not independent information. The scan stops at
/// `threshold` — a popular value arrives with thousands of shares, and
/// comparing each against every earlier one is quadratic.
fn first_window(shares: &[Share], threshold: usize) -> Result<Vec<Share>, CryptoError> {
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
    Ok(points)
}

/// Lagrange interpolation at x = 0 through `points`, which have distinct
/// abscissas:
///   P(0) = Σ_i y_i · Π_{j≠i} x_j / (x_j − x_i)
/// with the denominators inverted together: one field inversion per
/// recovery instead of one per share.
fn interpolate(points: &[Share]) -> FieldElement {
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
    numerators
        .iter()
        .zip(&denominators)
        .fold(FieldElement::ZERO, |sum, (n, d)| sum.add(&n.mul(d)))
}

/// What [`recover_verified`] found in one group of shares.
#[derive(Debug, Default)]
pub struct Verified<T> {
    /// What `accept` returned for the secret it took, if it took one.
    pub value: Option<T>,
    /// Shares off the taken secret's polynomial, not to be counted.
    pub forged: usize,
    /// Subsets interpolated after the first.
    pub retries: usize,
}

/// Recovers a secret the caller checks, counting the shares off its
/// polynomial as forged.
///
/// A candidate from the first `threshold` distinct shares (as in
/// [`recover_secret`]) is taken if its top four bits are clear and `accept`
/// returns a value for it. A forged share in the window steers the
/// candidate, so on refusal come every subset of the first `threshold + 1`
/// distinct shares that leaves one out — one forged share never hides a
/// secret `threshold` honest shares carry — and then up to `random_subsets`
/// uniform subsets drawn from `rng`, each clean with probability about
/// (1 − ρ)^threshold when a fraction ρ of the shares is forged. With no
/// forgery nothing is drawn. The coefficients derive from the secret, so a
/// taken secret fixes its polynomial and each share is checked in one
/// Horner pass.
pub fn recover_verified<T, R: Rng + ?Sized>(
    shares: &[Share],
    threshold: usize,
    random_subsets: usize,
    rng: &mut R,
    mut accept: impl FnMut(&[u8; 32]) -> Option<T>,
) -> Verified<T> {
    let mut verify = |points: &[Share]| {
        let secret = interpolate(points);
        let secret_bytes = secret.to_bytes();
        if secret_bytes[31] & 0xf0 != 0 {
            return None;
        }
        let value = accept(&secret_bytes)?;
        Some((value, Polynomial::new(secret, &secret_bytes, threshold)))
    };
    let mut found = first_window(shares, threshold)
        .ok()
        .and_then(|window| verify(&window));
    let mut retries = 0;
    // Distinct by value: a forgery on an honest share's abscissa must not
    // push the honest share out.
    let mut pool = match found {
        None => distinct_shares(shares),
        Some(_) => Vec::new(),
    };
    if pool.len() > threshold {
        let head = pool[..=threshold].to_vec();
        let leave_one_out = (0..=threshold).map(|left_out| {
            let mut subset = head.clone();
            subset.remove(left_out);
            subset
        });
        let random = std::iter::repeat_with(|| {
            // A partial Fisher–Yates pass: `pool[..threshold]` is a uniform
            // subset whatever order earlier draws left.
            for i in 0..threshold {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool[..threshold].to_vec()
        });
        found = leave_one_out
            .chain(random.take(random_subsets))
            .find_map(|subset| {
                retries += 1;
                verify(&subset)
            });
    }
    let forged = found.as_ref().map_or(0, |(_, polynomial)| {
        shares
            .iter()
            .filter(|s| polynomial.evaluate(&s.x) != s.y)
            .count()
    });
    Verified {
        value: found.map(|(value, _)| value),
        forged,
        retries,
    }
}

/// Every share no earlier share equals, in input order.
fn distinct_shares(shares: &[Share]) -> Vec<Share> {
    let mut seen = BTreeSet::new();
    shares
        .iter()
        .filter(|s| seen.insert(s.to_bytes()))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// A share of no polynomial: both coordinates drawn at random.
    fn forged_share(rng: &mut StdRng) -> Share {
        let mut bytes = [0u8; 64];
        rng.fill_bytes(&mut bytes);
        Share {
            x: FieldElement::from_wide_bytes(&bytes),
            y: FieldElement::from_wide_bytes(&bytes.map(|b| b ^ 0x5a)),
        }
    }

    /// Recovers `shares` taking only `secret` and reports what happened.
    fn recover_taking(shares: &[Share], threshold: usize, secret: [u8; 32]) -> Verified<()> {
        let mut rng = StdRng::seed_from_u64(99);
        recover_verified(shares, threshold, 64, &mut rng, |candidate| {
            (*candidate == secret).then_some(())
        })
    }

    #[test]
    fn forgery_free_recovery_draws_nothing_and_counts_every_share() {
        let mut rng = StdRng::seed_from_u64(20);
        let secret = secret_from(4);
        let share = share_secret(&secret, 5, &mut rng);
        let mut shares: Vec<Share> = (0..30)
            .map(|_| share_secret(&secret, 5, &mut rng))
            .collect();
        shares.push(share);
        shares.push(share);
        let mut draws = StdRng::seed_from_u64(21);
        let verified = recover_verified(&shares, 5, 64, &mut draws, |candidate| {
            (*candidate == secret).then_some(*candidate)
        });
        assert_eq!(verified.value, Some(secret));
        assert_eq!((verified.forged, verified.retries), (0, 0));
        assert_eq!(draws.next_u64(), StdRng::seed_from_u64(21).next_u64());
    }

    #[test]
    fn one_forged_share_never_hides_a_secret_that_threshold_honest_shares_carry() {
        let mut rng = StdRng::seed_from_u64(22);
        let secret = secret_from(5);
        for threshold in [1, 2, 5, 20] {
            let honest: Vec<Share> = (0..threshold)
                .map(|_| share_secret(&secret, threshold, &mut rng))
                .collect();
            // The forgery anywhere in the group, fresh or on an honest
            // share's abscissa.
            for position in 0..=threshold {
                for copies_an_abscissa in [false, true] {
                    let mut forged = forged_share(&mut rng);
                    if copies_an_abscissa {
                        forged.x = honest[position % threshold].x;
                    }
                    let mut shares = honest.clone();
                    shares.insert(position, forged);
                    let verified = recover_taking(&shares, threshold, secret);
                    assert!(
                        verified.value.is_some(),
                        "t = {threshold}, forgery at {position}"
                    );
                    assert_eq!(verified.forged, 1);
                    assert!(verified.retries <= threshold + 1);
                }
            }
        }
    }

    #[test]
    fn a_tenth_of_the_shares_forged_is_outvoted_by_random_subsets() {
        let mut rng = StdRng::seed_from_u64(23);
        let secret = secret_from(6);
        let threshold = 20;
        // 20 forgeries up front, then 180 honest shares: every
        // leave-one-out subset holds a forgery.
        let mut shares: Vec<Share> = (0..20).map(|_| forged_share(&mut rng)).collect();
        shares.extend((0..180).map(|_| share_secret(&secret, threshold, &mut rng)));
        let verified = recover_taking(&shares, threshold, secret);
        assert!(verified.value.is_some());
        assert_eq!(verified.forged, 20);
        assert!(verified.retries > threshold + 1, "{}", verified.retries);
    }

    #[test]
    fn a_group_no_subset_verifies_stays_unrecovered_within_the_budget() {
        let mut rng = StdRng::seed_from_u64(24);
        let shares: Vec<Share> = (0..40).map(|_| forged_share(&mut rng)).collect();
        let verified = recover_taking(&shares, 5, secret_from(7));
        assert!(verified.value.is_none());
        assert_eq!((verified.forged, verified.retries), (0, 6 + 64));
        // Too few distinct shares: nothing is interpolated at all.
        let verified = recover_taking(&shares[..4], 5, secret_from(7));
        assert!(verified.value.is_none());
        assert_eq!(verified.retries, 0);
    }

    #[test]
    fn a_candidate_with_its_top_bits_set_is_refused_before_accept() {
        // At threshold 1 the secret is the share's y, chosen here as
        // p − 1, whose top byte is 0x7f: no message-locked key.
        let mut top = [0xffu8; 32];
        top[0] = 0xec;
        top[31] = 0x7f;
        let share = Share {
            x: FieldElement::from_u64(1),
            y: FieldElement::from_bytes(&top),
        };
        let mut rng = StdRng::seed_from_u64(25);
        let verified = recover_verified(&[share], 1, 64, &mut rng, |_| -> Option<()> {
            panic!("accept called on a secret with its top bits set")
        });
        assert!(verified.value.is_none());
    }
}
