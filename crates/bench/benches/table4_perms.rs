//! Table 4: Perms — number of Web pages recovered using a naive threshold
//! or, for each user action, a noisy crowd threshold.
//!
//! The workload is the synthetic Chrome-permissions telemetry of
//! `prochlo_bench::perms`; the thresholding is the shuffler's own per-crowd
//! draw (`CrowdThreshold`) at the paper's §5.3 settings (threshold 100,
//! Gaussian σ = 4 for the noise and the drop) with a drop mean of 22, and the
//! plausible-deniability bit flip (10⁻⁴ per action bit) is applied at the
//! encoder. The absolute page counts depend on the synthetic popularity
//! distribution; the shape to check is that the noisy-threshold columns sit a
//! little below the naive-threshold row, far above what local DP recovers
//! (the paper could not recover more than a few dozen pages with RAPPOR).

use std::collections::{BTreeMap, BTreeSet};

use prochlo_bench::perms::{PermissionAction, PermissionFeature, PermsGenerator};
use prochlo_bench::response::bit_flip_epsilon;
use prochlo_bench::{env_usize, print_header};
use prochlo_core::encoder::flip_bits;
use prochlo_core::{CrowdThreshold, ShufflerConfig, ThresholdProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let events_count = env_usize("PROCHLO_PERMS_EVENTS", 2_000_000);
    // A drop mean of 10 would leave every full crowd released whole with
    // probability P(d = 0) ≈ 8.8·10⁻³, a δ floor far above 10⁻⁷; at 22 the
    // exact profile meets the paper's figure.
    let perms = ShufflerConfig {
        cardinality_threshold: 100,
        threshold_noise_sigma: 4.0,
        drop_mean: 22.0,
        drop_sigma: 4.0,
        ..ShufflerConfig::default()
    };
    let naive_threshold = perms.cardinality_threshold;
    let generator = PermsGenerator::table4_default();
    let mut rng = StdRng::seed_from_u64(0x9e45);

    // Generate events and apply the encoder-side bit flip.
    let mut events = generator.sample_n(events_count, &mut rng);
    for event in &mut events {
        let mut bitmap = [event.actions];
        flip_bits(&mut bitmap, 1e-4, &mut rng);
        event.actions = bitmap[0] & 0x0f;
    }

    // Count ⟨page, feature⟩ and ⟨page, feature, action⟩ crowds. The noisy
    // threshold draws once per action crowd, so those are walked in key
    // order: a seeded run then prints the same table every time.
    let mut per_pair: BTreeMap<(usize, PermissionFeature), u64> = BTreeMap::new();
    let mut per_action: BTreeMap<(usize, PermissionFeature, u8), u64> = BTreeMap::new();
    for event in &events {
        *per_pair.entry((event.page, event.feature)).or_insert(0) += 1;
        for action in PermissionAction::all() {
            if event.has(action) {
                *per_action
                    .entry((event.page, event.feature, action.bit()))
                    .or_insert(0) += 1;
            }
        }
    }

    // A crowd's members are not needed, only its size: a `Vec<()>` holds
    // that many without allocating and draws like the shuffler's crowds.
    let threshold = CrowdThreshold::new(&perms);
    let released = |count: u64, rng: &mut StdRng| -> bool {
        threshold.draw(&mut vec![(); count as usize], rng).1
    };

    print_header(
        &format!("Table 4: Perms pages recovered ({events_count} events)"),
        &["row", "Geolocation", "Notification", "Audio"],
    );

    // Row 1: naive threshold on ⟨page, feature⟩ counts.
    let mut naive: BTreeMap<PermissionFeature, BTreeSet<usize>> = BTreeMap::new();
    for ((page, feature), count) in &per_pair {
        if *count >= naive_threshold {
            naive.entry(*feature).or_default().insert(*page);
        }
    }
    println!(
        "{:>13} | {:>11} | {:>12} | {:>5}",
        "Naive Thresh.",
        naive
            .get(&PermissionFeature::Geolocation)
            .map_or(0, |s| s.len()),
        naive
            .get(&PermissionFeature::Notifications)
            .map_or(0, |s| s.len()),
        naive
            .get(&PermissionFeature::AudioCapture)
            .map_or(0, |s| s.len()),
    );

    // Rows 2-5: noisy crowd threshold per ⟨page, feature, action⟩.
    for action in PermissionAction::all() {
        let mut recovered: BTreeMap<PermissionFeature, BTreeSet<usize>> = BTreeMap::new();
        for ((page, feature, bit), count) in &per_action {
            if *bit == action.bit() && released(*count, &mut rng) {
                recovered.entry(*feature).or_default().insert(*page);
            }
        }
        println!(
            "{:>13} | {:>11} | {:>12} | {:>5}",
            action.name(),
            recovered
                .get(&PermissionFeature::Geolocation)
                .map_or(0, |s| s.len()),
            recovered
                .get(&PermissionFeature::Notifications)
                .map_or(0, |s| s.len()),
            recovered
                .get(&PermissionFeature::AudioCapture)
                .map_or(0, |s| s.len()),
        );
    }

    println!();
    println!(
        "Differential privacy of the released crowd multiset, exact: (epsilon={:.2}, \
         delta=1e-7) at drop mean 22 (paper: at least (1.2, 1e-7)); bit-flip local \
         deniability epsilon = {:.2}.",
        ThresholdProfile::new(&perms).epsilon(1e-7),
        bit_flip_epsilon(1e-4),
    );
    println!(
        "Paper's Table 4 (real Chrome data): naive 6,610/12,200/620; per-action rows \
         within 10-25% below naive. Check the same ordering and gap here."
    );
}
