//! Property-based and cross-crate tests of the privacy mechanisms: the
//! secret-share encoding, fragmentation, randomized thresholding guarantees
//! and local-DP bookkeeping.

use prochlo_bench::rappor::RapporParams;
use prochlo_core::encoder::{fragment_pairs, fragment_windows};
use prochlo_core::privacy::{
    bit_flip_epsilon, gaussian_mechanism_delta, gaussian_mechanism_epsilon,
    randomized_response_epsilon,
};
use prochlo_core::{GaussianThresholdPrivacy, PrivacyAccountant};
use prochlo_crypto::{mle, shamir};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn paper_privacy_figures_are_reproduced() {
    // §5 preamble: T=20, D=10, σ=2 gives (2.25, 1e-6).
    let default = GaussianThresholdPrivacy::paper_default();
    assert!((default.epsilon_at(1e-6) - 2.25).abs() < 0.15);
    // §5.3: σ=4 gives at least (1.2, 1e-7).
    assert!(GaussianThresholdPrivacy::perms().epsilon_at(1e-7) <= 1.35);
    // §5.5: replacing 10% of movie ids gives 2.2-DP for the rated-movie set.
    assert!((((0.9f64) / (0.1f64)).ln() - 2.197).abs() < 0.01);
    // Figure 5 RAPPOR line: ε = 2.
    assert!((RapporParams::for_epsilon(2.0).epsilon() - 2.0).abs() < 1e-9);
}

#[test]
fn accountant_composition_covers_a_full_pipeline() {
    let mut accountant = PrivacyAccountant::new();
    accountant.record(GaussianThresholdPrivacy::paper_default().guarantee(1e-6));
    accountant.record_pure(
        prochlo_core::privacy::PrivacyStage::Encoder,
        bit_flip_epsilon(1e-4),
    );
    accountant.record_pure(prochlo_core::privacy::PrivacyStage::Analyzer, 1.0);
    let (epsilon, delta) = accountant.composed();
    assert!(epsilon > 3.0 && epsilon < 15.0);
    assert!(delta > 0.0 && delta < 1e-5);
    let (eps3, _) = accountant.for_reports_per_user(3);
    assert!((eps3 - 3.0 * epsilon).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_gaussian_mechanism_is_monotone(sigma in 0.5f64..8.0, eps in 0.1f64..4.0) {
        let d1 = gaussian_mechanism_delta(sigma, 1.0, eps);
        let d2 = gaussian_mechanism_delta(sigma, 1.0, eps + 0.5);
        let d3 = gaussian_mechanism_delta(sigma + 1.0, 1.0, eps);
        prop_assert!(d2 <= d1 + 1e-12);
        prop_assert!(d3 <= d1 + 1e-12);
        // And the inverse search is consistent.
        if d1 > 1e-12 {
            let eps_back = gaussian_mechanism_epsilon(sigma, 1.0, d1);
            prop_assert!(gaussian_mechanism_delta(sigma, 1.0, eps_back) <= d1 * 1.05 + 1e-15);
        }
    }

    #[test]
    fn prop_randomized_response_epsilon_is_monotone(p in 0.5f64..0.99) {
        let eps = randomized_response_epsilon(p);
        let eps_higher = randomized_response_epsilon((p + 0.005).min(0.995));
        prop_assert!(eps >= 0.0);
        prop_assert!(eps_higher >= eps);
    }

    #[test]
    fn prop_fragment_windows_never_leak_partial_tuples(len in 0usize..40, m in 1usize..6) {
        let sequence: Vec<usize> = (0..len).collect();
        let fragments = fragment_windows(&sequence, m);
        prop_assert!(fragments.iter().all(|f| f.len() == m));
        prop_assert_eq!(fragments.len(), len / m);
        // Disjointness: every element appears at most once across fragments.
        let mut seen = std::collections::HashSet::new();
        for fragment in &fragments {
            for item in fragment {
                prop_assert!(seen.insert(*item));
            }
        }
    }

    #[test]
    fn prop_fragment_pairs_counts(len in 0usize..15) {
        let items: Vec<usize> = (0..len).collect();
        let pairs = fragment_pairs(&items);
        prop_assert_eq!(pairs.len(), len * len.saturating_sub(1) / 2);
    }

    #[test]
    fn prop_secret_share_recovery_requires_threshold(
        threshold in 2usize..12,
        extra in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let message = format!("secret-value-{seed}");
        let key = mle::derive_key(message.as_bytes());
        let shares: Vec<shamir::Share> = (0..threshold + extra)
            .map(|_| shamir::share_secret(&key, threshold, &mut rng))
            .collect();
        // Below threshold: recovery fails.
        prop_assert!(shamir::recover_secret(&shares[..threshold - 1], threshold).is_err());
        // At or above threshold: the exact key comes back and decrypts the
        // deterministic ciphertext.
        let recovered = shamir::recover_secret(&shares, threshold).unwrap();
        prop_assert_eq!(recovered, key);
        let ciphertext = mle::encrypt(message.as_bytes());
        prop_assert_eq!(mle::decrypt(&recovered, &ciphertext).unwrap(), message.into_bytes());
    }
}
