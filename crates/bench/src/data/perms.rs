//! The Perms workload (§5.3): Chrome permission-prompt telemetry.
//!
//! Each event is a ⟨page, feature, action bitmap⟩ tuple: a Web page asked for
//! a permission (Geolocation, Notifications or Audio Capture) and the user
//! granted, denied, dismissed and/or ignored the prompt (multiple bits can be
//! set because a user may respond more than once). Page popularity is
//! Zipfian; the per-feature action mix loosely follows public Chrome numbers
//! (notifications are denied more often than geolocation, etc.), but Table 4
//! only depends on the popularity distribution and the thresholding, not on
//! the exact mix.

use rand::Rng;

use prochlo_stats::Zipf;

/// The permission-gated features measured in §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PermissionFeature {
    /// Geolocation access.
    Geolocation,
    /// Web push notifications.
    Notifications,
    /// Microphone / audio capture.
    AudioCapture,
}

impl PermissionFeature {
    /// All features.
    pub(crate) fn all() -> [PermissionFeature; 3] {
        [
            PermissionFeature::Geolocation,
            PermissionFeature::Notifications,
            PermissionFeature::AudioCapture,
        ]
    }
}

/// The user actions recorded in the bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PermissionAction {
    /// The user granted the permission.
    Granted,
    /// The user denied the permission.
    Denied,
    /// The user dismissed the prompt.
    Dismissed,
    /// The user ignored the prompt.
    Ignored,
}

impl PermissionAction {
    /// All actions, in bitmap-bit order.
    pub fn all() -> [PermissionAction; 4] {
        [
            PermissionAction::Granted,
            PermissionAction::Denied,
            PermissionAction::Dismissed,
            PermissionAction::Ignored,
        ]
    }

    /// The bit this action occupies in the action bitmap.
    pub fn bit(&self) -> u8 {
        match self {
            PermissionAction::Granted => 0,
            PermissionAction::Denied => 1,
            PermissionAction::Dismissed => 2,
            PermissionAction::Ignored => 3,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PermissionAction::Granted => "Granted",
            PermissionAction::Denied => "Denied",
            PermissionAction::Dismissed => "Dismissed",
            PermissionAction::Ignored => "Ignored",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PermsEvent {
    /// Page identifier (index into the Zipf popularity distribution).
    pub page: usize,
    /// Which feature was requested.
    pub feature: PermissionFeature,
    /// Bitmap of [`PermissionAction`] bits.
    pub actions: u8,
}

impl PermsEvent {
    /// Whether the bitmap has the given action set.
    pub fn has(&self, action: PermissionAction) -> bool {
        self.actions & (1 << action.bit()) != 0
    }
}

/// Configuration and sampler for the Perms dataset.
#[derive(Debug, Clone)]
pub struct PermsGenerator {
    pages: Zipf,
    /// Per-feature relative request volume (geolocation, notifications, audio).
    feature_weights: [f64; 3],
    /// Per-feature probability of each action being present in the bitmap.
    action_probabilities: [[f64; 4]; 3],
}

impl PermsGenerator {
    /// Creates a generator over `num_pages` pages with Zipf exponent
    /// `exponent`.
    pub(crate) fn new(num_pages: usize, exponent: f64) -> Self {
        Self {
            pages: Zipf::new(num_pages, exponent),
            feature_weights: [0.40, 0.55, 0.05],
            action_probabilities: [
                // granted, denied, dismissed, ignored
                [0.55, 0.20, 0.25, 0.30], // Geolocation
                [0.35, 0.35, 0.30, 0.40], // Notifications
                [0.60, 0.15, 0.20, 0.25], // Audio capture
            ],
        }
    }

    /// The default Table 4 configuration: 50 000 pages, exponent 0.9.
    pub fn table4_default() -> Self {
        Self::new(50_000, 0.9)
    }

    /// Samples one event.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> PermsEvent {
        let page = self.pages.sample(rng);
        let feature_idx = {
            let total: f64 = self.feature_weights.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            let mut idx = 0;
            for (i, w) in self.feature_weights.iter().enumerate() {
                if u < *w {
                    idx = i;
                    break;
                }
                u -= w;
                idx = i;
            }
            idx
        };
        let feature = PermissionFeature::all()[feature_idx];
        let mut actions = 0u8;
        for action in PermissionAction::all() {
            if rng.gen::<f64>() < self.action_probabilities[feature_idx][action.bit() as usize] {
                actions |= 1 << action.bit();
            }
        }
        // Ensure at least one action bit so every event is meaningful.
        if actions == 0 {
            actions |= 1 << PermissionAction::Ignored.bit();
        }
        PermsEvent {
            page,
            feature,
            actions,
        }
    }

    /// Samples `count` events.
    pub fn sample_n<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<PermsEvent> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn events_are_well_formed() {
        let generator = PermsGenerator::new(1_000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for event in generator.sample_n(5_000, &mut rng) {
            assert!(event.page < 1_000);
            assert_ne!(event.actions, 0);
            assert!(event.actions < 16);
        }
        let granted_only = PermsEvent {
            page: 42,
            feature: PermissionFeature::Geolocation,
            actions: 1,
        };
        assert!(granted_only.has(PermissionAction::Granted));
        assert!(!granted_only.has(PermissionAction::Denied));
    }

    #[test]
    fn popular_pages_dominate() {
        let generator = PermsGenerator::new(10_000, 0.9);
        let mut rng = StdRng::seed_from_u64(2);
        let events = generator.sample_n(50_000, &mut rng);
        let top_page = events.iter().filter(|e| e.page == 0).count();
        let tail_page = events.iter().filter(|e| e.page == 9_000).count();
        assert!(
            top_page > 20 * (tail_page + 1),
            "top {top_page} tail {tail_page}"
        );
    }

    #[test]
    fn all_features_and_actions_appear() {
        let generator = PermsGenerator::table4_default();
        let mut rng = StdRng::seed_from_u64(3);
        let events = generator.sample_n(20_000, &mut rng);
        for feature in PermissionFeature::all() {
            assert!(events.iter().any(|e| e.feature == feature), "{feature:?}");
        }
        for action in PermissionAction::all() {
            assert!(events.iter().any(|e| e.has(action)), "{action:?}");
        }
    }
}
