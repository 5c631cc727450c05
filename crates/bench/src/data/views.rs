//! The Suggest workload (§5.4): longitudinal content-view sequences.
//!
//! The key property the real YouTube data has — and the one the experiment
//! depends on — is *locality*: the next video watched is strongly predicted
//! by the most recent ones. The generator models this with a popularity-
//! biased Markov process: from video `v` the user continues to one of a few
//! "related" videos with high probability, and otherwise jumps to a fresh
//! popularity-sampled video. A model trained on short recent-history
//! fragments therefore retains most of the predictive power of one trained on
//! full histories, which is the §5.4 claim being reproduced.

use rand::Rng;

use prochlo_stats::Zipf;

/// Configuration of the view-sequence generator.
#[derive(Debug, Clone)]
pub struct ViewConfig {
    /// Size of the content catalog.
    pub catalog: usize,
    /// Zipf exponent of content popularity.
    pub popularity_exponent: f64,
    /// Probability that the next view follows the "related videos" chain
    /// rather than being an independent popularity draw.
    pub locality: f64,
    /// Number of related videos each video links to.
    pub related_per_video: usize,
    /// Views per user history.
    pub history_length: usize,
}

impl Default for ViewConfig {
    fn default() -> Self {
        Self {
            catalog: 5_000,
            popularity_exponent: 0.8,
            locality: 0.7,
            related_per_video: 4,
            history_length: 30,
        }
    }
}

/// Generates per-user view histories.
#[derive(Debug, Clone)]
pub struct ViewGenerator {
    config: ViewConfig,
    popularity: Zipf,
}

impl ViewGenerator {
    /// Creates a generator.
    pub fn new(config: ViewConfig) -> Self {
        let popularity = Zipf::new(config.catalog, config.popularity_exponent);
        Self { config, popularity }
    }

    /// The deterministic "related videos" list of a video: a pseudorandom but
    /// fixed set derived from the video id, shared across all users (this is
    /// what makes short contexts predictive).
    fn related(&self, video: usize) -> Vec<usize> {
        (0..self.config.related_per_video)
            .map(|slot| {
                let digest = prochlo_crypto::sha256::sha256_concat(&[
                    b"related-video" as &[u8],
                    &(video as u64).to_le_bytes(),
                    &(slot as u64).to_le_bytes(),
                ]);
                let word = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
                (word % self.config.catalog as u64) as usize
            })
            .collect()
    }

    /// Generates one user's view history.
    fn history<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut history = Vec::with_capacity(self.config.history_length);
        let mut current = self.popularity.sample(rng);
        history.push(current);
        while history.len() < self.config.history_length {
            current = if rng.gen::<f64>() < self.config.locality {
                let related = self.related(current);
                related[rng.gen_range(0..related.len())]
            } else {
                self.popularity.sample(rng)
            };
            history.push(current);
        }
        history
    }

    /// Generates `users` histories.
    pub fn histories<R: Rng + ?Sized>(&self, users: usize, rng: &mut R) -> Vec<Vec<usize>> {
        (0..users).map(|_| self.history(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn histories_have_requested_shape() {
        let generator = ViewGenerator::new(ViewConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let histories = generator.histories(20, &mut rng);
        assert_eq!(histories.len(), 20);
        for history in &histories {
            assert_eq!(history.len(), 30);
            assert!(history.iter().all(|&v| v < 5_000));
        }
    }

    #[test]
    fn related_lists_are_deterministic_and_in_range() {
        let generator = ViewGenerator::new(ViewConfig::default());
        assert_eq!(generator.related(17), generator.related(17));
        assert_ne!(generator.related(17), generator.related(18));
        assert!(generator.related(17).iter().all(|&v| v < 5_000));
    }

    #[test]
    fn locality_makes_transitions_predictable() {
        // With high locality, a large fraction of consecutive pairs should be
        // related-video transitions.
        let generator = ViewGenerator::new(ViewConfig {
            locality: 0.9,
            ..ViewConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let mut related_transitions = 0usize;
        let mut total = 0usize;
        for history in generator.histories(200, &mut rng) {
            for pair in history.windows(2) {
                total += 1;
                if generator.related(pair[0]).contains(&pair[1]) {
                    related_transitions += 1;
                }
            }
        }
        let fraction = related_transitions as f64 / total as f64;
        assert!(fraction > 0.8, "fraction {fraction}");
    }

    #[test]
    fn zero_locality_behaves_like_independent_draws() {
        let generator = ViewGenerator::new(ViewConfig {
            locality: 0.0,
            ..ViewConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let mut related_transitions = 0usize;
        let mut total = 0usize;
        for history in generator.histories(100, &mut rng) {
            for pair in history.windows(2) {
                total += 1;
                if generator.related(pair[0]).contains(&pair[1]) {
                    related_transitions += 1;
                }
            }
        }
        assert!((related_transitions as f64 / total as f64) < 0.05);
    }
}
