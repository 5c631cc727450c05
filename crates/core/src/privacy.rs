//! Differential-privacy accounting for the ESA pipeline (§3.5).
//!
//! Each stage can contribute its own guarantee:
//!
//! * the encoder's randomized response gives ε-local DP per report,
//! * the shuffler's randomized thresholding (drop ⌊N(D,σ²)⌉ reports per
//!   crowd, forward only crowds above T plus Gaussian noise) gives the
//!   crowd-ID multiset an (ε, δ) guarantee via the analytic Gaussian
//!   mechanism — the paper's "(2.25, 10⁻⁶)" for σ = 2 and "(1.2, 10⁻⁷)" for
//!   σ = 4,
//! * the analyzer's Laplace release gives ε-DP on published results.
//!
//! [`PrivacyAccountant`] composes the stage guarantees (basic sequential
//! composition: epsilons and deltas add), which is what the paper relies on
//! when it says the stages' guarantees are "complementary".

/// A single (ε, δ) differential-privacy guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
// prochlo-lint: allow(uncalled-pub, "the return type of GaussianThresholdPrivacy::guarantee, which PrivacyAccountant::record takes; callers pass it on without naming it")
pub struct PrivacyGuarantee {
    /// The ε parameter (multiplicative bound on inference change).
    pub epsilon: f64,
    /// The δ parameter (probability mass excluded from the ε bound).
    pub delta: f64,
    /// Which pipeline stage provides it.
    pub stage: PrivacyStage,
}

/// The pipeline stage a guarantee is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyStage {
    /// Client-side encoding (randomized response, fragmentation by fiat).
    Encoder,
    /// Shuffler randomized thresholding on crowd IDs.
    Shuffler,
    /// Analyzer differentially-private release.
    Analyzer,
}

/// The standard normal upper-tail probability Q(x) = P(Z > x).
///
/// Uses the Numerical-Recipes-style erfc approximation (fractional error
/// below ~1.2 × 10⁻⁷), which is accurate enough for the δ values of interest
/// (10⁻⁶ – 10⁻⁸) because the error is relative, not absolute.
fn normal_upper_tail(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// The complementary error function.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))));
    let ans = t * poly.exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The analytic Gaussian mechanism: the exact δ achieved at a given ε when a
/// sensitivity-`sensitivity` statistic is protected with `N(0, σ²)` noise
/// (Balle–Wang formulation).
pub fn gaussian_mechanism_delta(sigma: f64, sensitivity: f64, epsilon: f64) -> f64 {
    assert!(sigma > 0.0 && sensitivity > 0.0 && epsilon >= 0.0);
    let a = sensitivity / (2.0 * sigma);
    let b = epsilon * sigma / sensitivity;
    let delta = normal_upper_tail(b - a) - epsilon.exp() * normal_upper_tail(b + a);
    delta.max(0.0)
}

/// The smallest ε for which the Gaussian mechanism meets a target δ, found by
/// bisection.
pub fn gaussian_mechanism_epsilon(sigma: f64, sensitivity: f64, target_delta: f64) -> f64 {
    assert!(target_delta > 0.0 && target_delta < 1.0);
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while gaussian_mechanism_delta(sigma, sensitivity, hi) > target_delta {
        hi *= 2.0;
        if hi > 1e6 {
            return f64::INFINITY;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gaussian_mechanism_delta(sigma, sensitivity, mid) > target_delta {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The shuffler's randomized-thresholding guarantee for the multiset of
/// crowd IDs forwarded to the analyzer.
///
/// One user contributes at most one report to a crowd, so the sensitivity of
/// each crowd count is 1; the count is protected by Gaussian noise of
/// standard deviation `sigma` (both the random drop and the threshold noise
/// are Gaussian with this σ in the paper's configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianThresholdPrivacy {
    /// Cardinality threshold T.
    pub threshold: u64,
    /// Mean of the per-crowd random drop D.
    pub drop_mean: f64,
    /// Standard deviation σ of the Gaussian noise.
    pub sigma: f64,
}

impl GaussianThresholdPrivacy {
    /// The paper's default §5 configuration: T = 20, D = 10, σ = 2.
    pub fn paper_default() -> Self {
        Self {
            threshold: 20,
            drop_mean: 10.0,
            sigma: 2.0,
        }
    }

    /// The Perms configuration of §5.3: T = 100, σ = 4.
    pub fn perms() -> Self {
        Self {
            threshold: 100,
            drop_mean: 10.0,
            sigma: 4.0,
        }
    }

    /// The ε achieved at a target δ.
    pub fn epsilon_at(&self, target_delta: f64) -> f64 {
        gaussian_mechanism_epsilon(self.sigma, 1.0, target_delta)
    }

    /// The full guarantee at a target δ.
    pub fn guarantee(&self, target_delta: f64) -> PrivacyGuarantee {
        PrivacyGuarantee {
            epsilon: self.epsilon_at(target_delta),
            delta: target_delta,
            stage: PrivacyStage::Shuffler,
        }
    }
}

/// Accumulates per-stage guarantees and composes them.
#[derive(Debug, Clone, Default)]
pub struct PrivacyAccountant {
    guarantees: Vec<PrivacyGuarantee>,
}

impl PrivacyAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a stage guarantee.
    pub fn record(&mut self, guarantee: PrivacyGuarantee) {
        self.guarantees.push(guarantee);
    }

    /// Records an ε-only guarantee (δ = 0).
    pub fn record_pure(&mut self, stage: PrivacyStage, epsilon: f64) {
        self.record(PrivacyGuarantee {
            epsilon,
            delta: 0.0,
            stage,
        });
    }

    /// Basic sequential composition: epsilons and deltas add. This is the
    /// worst-case bound for an adversary that sees every stage's output.
    pub fn composed(&self) -> (f64, f64) {
        let epsilon = self.guarantees.iter().map(|g| g.epsilon).sum();
        let delta = self.guarantees.iter().map(|g| g.delta).sum();
        (epsilon, delta)
    }

    /// Linear degradation when one user contributes `reports` reports
    /// (the "composability and graceful degradation" property of §3.5).
    pub fn for_reports_per_user(&self, reports: u32) -> (f64, f64) {
        let (e, d) = self.composed();
        (e * reports as f64, d * reports as f64)
    }
}

/// ε-local differential privacy of binary randomized response that reports
/// the truth with probability `p` (and lies with `1 − p`).
pub fn randomized_response_epsilon(p_truth: f64) -> f64 {
    assert!(
        (0.5..1.0).contains(&p_truth),
        "truth probability must be in [0.5, 1)"
    );
    (p_truth / (1.0 - p_truth)).ln()
}

/// ε-local differential privacy of flipping each bit of a bitmap
/// independently with probability `flip`.
pub fn bit_flip_epsilon(flip: f64) -> f64 {
    assert!(
        flip > 0.0 && flip < 0.5,
        "flip probability must be in (0, 0.5)"
    );
    ((1.0 - flip) / flip).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700).abs() < 1e-5);
    }

    #[test]
    fn normal_tail_matches_known_values() {
        assert!((normal_upper_tail(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_upper_tail(1.96) - 0.025).abs() < 5e-4);
        assert!((normal_upper_tail(3.0) - 1.35e-3).abs() < 5e-5);
        // Deep tail values keep small relative error.
        let q = normal_upper_tail(4.25);
        assert!(q > 0.9e-5 && q < 1.2e-5, "Q(4.25) = {q}");
    }

    #[test]
    fn paper_default_matches_2_25_at_1e6() {
        // §5: "(2.25, 10⁻⁶)-approximate differential privacy" for σ = 2.
        let privacy = GaussianThresholdPrivacy::paper_default();
        let eps = privacy.epsilon_at(1e-6);
        assert!((eps - 2.25).abs() < 0.15, "epsilon {eps}");
    }

    #[test]
    fn perms_configuration_matches_1_2_at_1e7() {
        // §5.3: "at least (ε=1.2, δ=10⁻⁷)-differential privacy" for σ = 4.
        let privacy = GaussianThresholdPrivacy::perms();
        let eps = privacy.epsilon_at(1e-7);
        assert!(eps <= 1.35, "epsilon {eps}");
        assert!(eps > 0.8, "epsilon {eps} suspiciously small");
    }

    #[test]
    fn delta_decreases_with_epsilon_and_sigma() {
        let d1 = gaussian_mechanism_delta(2.0, 1.0, 1.0);
        let d2 = gaussian_mechanism_delta(2.0, 1.0, 2.0);
        let d3 = gaussian_mechanism_delta(4.0, 1.0, 1.0);
        assert!(d2 < d1);
        assert!(d3 < d1);
    }

    #[test]
    fn epsilon_search_is_consistent_with_delta() {
        for sigma in [1.0, 2.0, 4.0] {
            for delta in [1e-5, 1e-6, 1e-7] {
                let eps = gaussian_mechanism_epsilon(sigma, 1.0, delta);
                let achieved = gaussian_mechanism_delta(sigma, 1.0, eps);
                assert!(achieved <= delta * 1.01, "sigma {sigma} delta {delta}");
            }
        }
    }

    #[test]
    fn accountant_composes_linearly() {
        let mut acc = PrivacyAccountant::new();
        acc.record(GaussianThresholdPrivacy::paper_default().guarantee(1e-6));
        acc.record_pure(PrivacyStage::Encoder, 2.0);
        let (e, d) = acc.composed();
        assert!(e > 4.0 && e < 4.5);
        assert!((d - 1e-6).abs() < 1e-12);
        let (e2, d2) = acc.for_reports_per_user(3);
        assert!((e2 - 3.0 * e).abs() < 1e-9);
        assert!((d2 - 3.0 * d).abs() < 1e-12);
        assert_eq!(acc.guarantees.len(), 2);
    }

    #[test]
    fn randomized_response_epsilon_matches_formula() {
        // p = e^2/(e^2+1) gives epsilon 2.
        let p = 2.0f64.exp() / (2.0f64.exp() + 1.0);
        assert!((randomized_response_epsilon(p) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bit_flip_epsilon_matches_perms_setting() {
        // §5.3: flip probability 10⁻⁴ per bit.
        let eps = bit_flip_epsilon(1e-4);
        assert!((eps - (9999.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "truth probability")]
    fn randomized_response_rejects_bad_probability() {
        let _ = randomized_response_epsilon(0.3);
    }
}
