//! Plain randomized response and its privacy accounting: RAPPOR's Bloom
//! bits and Perms' per-action bit flip.

use rand::Rng;

/// Reports `true_bit` with probability `1 - f`, otherwise a fair coin — the
/// "permanent randomized response" applied to each Bloom filter bit in
/// RAPPOR.
pub(crate) fn permanent_response<R: Rng + ?Sized>(true_bit: bool, f: f64, rng: &mut R) -> bool {
    if rng.gen::<f64>() < f {
        rng.gen::<bool>()
    } else {
        true_bit
    }
}

/// The ε guaranteed by permanent randomized response with flip parameter `f`
/// when a value sets `hashes` bits of the Bloom filter
/// (ε = 2·h·ln((1 − f/2)/(f/2)), Erlingsson et al. 2014).
pub(crate) fn rappor_epsilon(f: f64, hashes: u32) -> f64 {
    assert!(f > 0.0 && f < 1.0, "f must be in (0, 1)");
    2.0 * hashes as f64 * ((1.0 - f / 2.0) / (f / 2.0)).ln()
}

/// ε-local differential privacy of flipping each bit of a bitmap
/// independently with probability `flip` (Perms' plausible deniability,
/// §5.3). Binary randomized response that tells the truth with probability
/// `p` is `bit_flip_epsilon(1 − p)`.
pub fn bit_flip_epsilon(flip: f64) -> f64 {
    assert!(
        flip > 0.0 && flip < 0.5,
        "flip probability must be in (0, 0.5)"
    );
    ((1.0 - flip) / flip).ln()
}

/// The flip parameter `f` needed to achieve a target ε with `hashes` Bloom
/// bits per value (inverse of [`rappor_epsilon`]).
pub(crate) fn f_for_epsilon(epsilon: f64, hashes: u32) -> f64 {
    assert!(epsilon > 0.0);
    let x = (epsilon / (2.0 * hashes as f64)).exp();
    2.0 / (x + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epsilon_and_f_are_inverse() {
        for &eps in &[0.5, 1.0, 2.0, 4.0] {
            for &h in &[1u32, 2, 4] {
                let f = f_for_epsilon(eps, h);
                assert!((rappor_epsilon(f, h) - eps).abs() < 1e-9, "eps {eps} h {h}");
                assert!(f > 0.0 && f < 1.0);
            }
        }
    }

    #[test]
    fn figure5_epsilon_two_uses_heavy_noise() {
        // ε = 2 with 2 hash functions requires f ≈ 0.75: three quarters of
        // bits are random, which is why RAPPOR recovers so little of the
        // long tail in Figure 5.
        let f = f_for_epsilon(2.0, 2);
        assert!(f > 0.7 && f < 0.8, "f {f}");
    }

    #[test]
    fn bit_flip_epsilon_matches_perms_setting() {
        // §5.3: flip probability 10⁻⁴ per bit.
        let eps = bit_flip_epsilon(1e-4);
        assert!((eps - (9999.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn bit_flip_epsilon_matches_formula() {
        // Telling the truth with p = e²/(e² + 1) gives ε = 2.
        let p = 2.0f64.exp() / (2.0f64.exp() + 1.0);
        assert!((bit_flip_epsilon(1.0 - p) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "flip probability")]
    fn bit_flip_epsilon_rejects_bad_probability() {
        let _ = bit_flip_epsilon(0.7);
    }

    #[test]
    fn permanent_response_respects_f_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| permanent_response(true, 0.0001, &mut rng)));
        // With f = 1 the output is a fair coin: roughly half true.
        let trues = (0..10_000)
            .filter(|_| permanent_response(false, 1.0 - 1e-12, &mut rng))
            .count();
        assert!((4_500..5_500).contains(&trues), "{trues}");
    }
}
