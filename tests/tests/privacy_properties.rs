//! Property-based and cross-crate tests of the privacy mechanisms: the
//! secret-share encoding, fragmentation, randomized thresholding guarantees
//! and local-DP bookkeeping.

use prochlo_bench::rappor::RapporParams;
use prochlo_bench::response::bit_flip_epsilon;
use prochlo_core::encoder::{fragment_pairs, fragment_windows};
use prochlo_core::{CrowdThreshold, ShufflerConfig, ThresholdProfile};
use prochlo_crypto::{mle, shamir};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Perms' thresholding (§5.3): T = 100 and σ = 4 for the noise and the drop,
/// at a given drop mean.
fn perms(drop_mean: f64) -> ShufflerConfig {
    ShufflerConfig {
        cardinality_threshold: 100,
        threshold_noise_sigma: 4.0,
        drop_mean,
        drop_sigma: 4.0,
        ..ShufflerConfig::default()
    }
}

#[test]
fn paper_privacy_figures_are_reproduced() {
    // §5 preamble: T=20, D=10, σ=2 is stated as (2.25, 1e-6). Exactly, a
    // crowd is released whole with P(d = 0) ≈ 1.02e-6 — an output no crowd
    // one smaller can produce — so δ stays above 1e-6 at every ε and the
    // paper's figure is unreachable.
    let default = ThresholdProfile::new(&ShufflerConfig::default());
    assert!(default.delta(f64::INFINITY) >= 1.0e-6);
    assert!(default.delta(2.25) >= 1.0e-6);
    assert_eq!(default.epsilon(1e-6), f64::INFINITY);
    // §5.3: σ=4 gives at least (1.2, 1e-7). At a drop mean of 10 the floor
    // is P(d = 0) ≈ 8.8e-3; at 22 the exact profile meets the figure.
    assert!(ThresholdProfile::new(&perms(10.0)).delta(f64::INFINITY) >= 8e-3);
    let perms_epsilon = ThresholdProfile::new(&perms(22.0)).epsilon(1e-7);
    assert!(
        perms_epsilon > 0.8 && perms_epsilon <= 1.35,
        "{perms_epsilon}"
    );
    // §5.5: replacing 10% of movie ids gives 2.2-DP for the rated-movie set.
    assert!((((0.9f64) / (0.1f64)).ln() - 2.197).abs() < 0.01);
    // Figure 5 RAPPOR line: ε = 2.
    assert!((RapporParams::for_epsilon(2.0).epsilon() - 2.0).abs() < 1e-9);
}

#[test]
fn the_threshold_draw_releases_whole_crowds_as_often_as_its_profile_says() {
    // Perms at a drop mean of 10: a crowd of 140 is released whole exactly
    // when d = 0, which the profile puts at ≈ 8.8e-3; a crowd of 139 can
    // never release 140. `[(); n]` is a crowd of n that draws like any other.
    let config = perms(10.0);
    let profile = ThresholdProfile::new(&config);
    let expected = profile.release_probability(140, 140);
    assert!((expected - 8.8e-3).abs() < 0.1e-3, "{expected}");
    assert_eq!(profile.release_probability(139, 140), 0.0);

    let draw = CrowdThreshold::new(&config);
    let mut rng = StdRng::seed_from_u64(0x140);
    let crowds = 100_000;
    let mut whole = 0u32;
    for _ in 0..crowds {
        if draw.draw(&mut [(); 140], &mut rng) == (140, true) {
            whole += 1;
        }
        let (kept, _) = draw.draw(&mut [(); 139], &mut rng);
        assert!(kept <= 139);
    }

    // 99.9 % Wilson score interval for the observed frequency.
    let (n, z) = (f64::from(crowds), 3.2905);
    let observed = f64::from(whole) / n;
    let centre = (observed + z * z / (2.0 * n)) / (1.0 + z * z / n);
    let half =
        z / (1.0 + z * z / n) * (observed * (1.0 - observed) / n + z * z / (4.0 * n * n)).sqrt();
    assert!(
        (centre - half..=centre + half).contains(&expected),
        "{whole} of {crowds} whole releases; profile {expected}, interval {centre} ± {half}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_threshold_profile_is_monotone(
        threshold in 0u64..40,
        noise in 0.5f64..4.0,
        drop_mean in 0.0f64..20.0,
        drop_sigma in 0.5f64..4.0,
        eps in 0.1f64..4.0,
    ) {
        let profile = ThresholdProfile::new(&ShufflerConfig {
            cardinality_threshold: threshold,
            threshold_noise_sigma: noise,
            drop_mean,
            drop_sigma,
            ..ShufflerConfig::default()
        });
        let d1 = profile.delta(eps);
        prop_assert!(profile.delta(eps + 0.5) <= d1);
        prop_assert!(profile.delta(f64::INFINITY) <= d1);
        // And the inverse search is consistent.
        if d1 > 1e-12 {
            let eps_back = profile.epsilon(d1);
            prop_assert!(eps_back <= eps + 1e-9);
            prop_assert!(profile.delta(eps_back) <= d1);
        }
    }

    #[test]
    fn prop_bit_flip_epsilon_is_monotone(flip in 0.01f64..0.49) {
        let eps = bit_flip_epsilon(flip);
        let eps_higher = bit_flip_epsilon((flip - 0.005).max(0.005));
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
