//! The Flix workload (§5.5): a Netflix-Prize-shaped ratings corpus.
//!
//! Ratings are produced by a latent-factor model — each user and movie has a
//! small hidden factor vector, and the observed 1–5 star rating is the
//! clipped, rounded inner product plus noise — so that item-item covariance
//! actually carries signal (a purely random corpus would make every predictor
//! equally useless and Table 5 meaningless). Movie popularity is Zipfian and
//! the per-user basket size varies, matching the sparsity pattern of the real
//! Netflix data.

use rand::Rng;

use prochlo_stats::sample::standard_normal;
use prochlo_stats::Zipf;

/// One observed rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// User index.
    pub(crate) user: u32,
    /// Movie index.
    pub movie: u32,
    /// Star rating in 1..=5.
    pub(crate) stars: u8,
}

/// Configuration of the ratings generator.
#[derive(Debug, Clone)]
pub struct RatingsConfig {
    /// Number of users.
    pub(crate) users: usize,
    /// Number of movies.
    pub(crate) movies: usize,
    /// Mean number of ratings per user.
    pub(crate) mean_ratings_per_user: usize,
    /// Dimensionality of the latent factors.
    pub(crate) factors: usize,
    /// Observation noise added to each rating before rounding.
    pub(crate) noise: f64,
    /// Zipf exponent of movie popularity.
    pub(crate) popularity_exponent: f64,
}

impl RatingsConfig {
    /// A scaled-down corpus with the Netflix shape for the given movie count
    /// (Table 5 uses 200, 2 000 and 18 000 movies).
    pub fn for_movies(movies: usize, users: usize) -> Self {
        Self {
            users,
            movies,
            mean_ratings_per_user: 20,
            factors: 4,
            noise: 0.6,
            popularity_exponent: 0.9,
        }
    }
}

/// Deterministic latent-factor ratings generator.
#[derive(Debug, Clone)]
pub struct RatingsGenerator {
    config: RatingsConfig,
    popularity: Zipf,
    seed: u64,
}

impl RatingsGenerator {
    /// Creates a generator; `seed` fixes the latent factors.
    pub fn new(config: RatingsConfig, seed: u64) -> Self {
        let popularity = Zipf::new(config.movies, config.popularity_exponent);
        Self {
            config,
            popularity,
            seed,
        }
    }

    fn factor(&self, kind: &'static [u8], index: u32, dim: usize) -> f64 {
        let digest = prochlo_crypto::sha256::sha256_concat(&[
            kind,
            &self.seed.to_le_bytes(),
            &index.to_le_bytes(),
            &(dim as u64).to_le_bytes(),
        ]);
        let word = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
        // Map to roughly N(0, 0.45): uniform in [-1, 1] scaled.
        (word as f64 / u64::MAX as f64) * 2.0 - 1.0
    }

    /// The "true" (pre-noise) affinity of a user for a movie.
    fn affinity(&self, user: u32, movie: u32) -> f64 {
        let mut dot = 0.0;
        for dim in 0..self.config.factors {
            dot +=
                self.factor(b"user-factor", user, dim) * self.factor(b"movie-factor", movie, dim);
        }
        3.0 + 1.8 * dot
    }

    /// Generates one user's basket of ratings.
    fn user_ratings<R: Rng + ?Sized>(&self, user: u32, rng: &mut R) -> Vec<Rating> {
        let count = (self.config.mean_ratings_per_user / 2)
            + rng.gen_range(0..=self.config.mean_ratings_per_user);
        #[expect(clippy::disallowed_types, reason = "insert-only set, never iterated")]
        let mut seen = std::collections::HashSet::new();
        let mut ratings = Vec::with_capacity(count);
        while ratings.len() < count && seen.len() < self.config.movies {
            let movie = self.popularity.sample(rng) as u32;
            if !seen.insert(movie) {
                continue;
            }
            let value = self.affinity(user, movie) + self.config.noise * standard_normal(rng);
            let stars = value.round().clamp(1.0, 5.0) as u8;
            ratings.push(Rating { user, movie, stars });
        }
        ratings
    }

    /// Generates the full corpus, one basket per user.
    pub fn corpus<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Vec<Rating>> {
        (0..self.config.users as u32)
            .map(|user| self.user_ratings(user, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generator() -> RatingsGenerator {
        RatingsGenerator::new(RatingsConfig::for_movies(200, 500), 7)
    }

    #[test]
    fn ratings_are_in_range_and_unique_per_user() {
        let mut rng = StdRng::seed_from_u64(1);
        for basket in generator().corpus(&mut rng) {
            let mut seen = std::collections::HashSet::new();
            for rating in &basket {
                assert!((1..=5).contains(&rating.stars));
                assert!(rating.movie < 200);
                assert!(seen.insert(rating.movie), "duplicate movie in basket");
            }
        }
    }

    #[test]
    fn affinity_is_deterministic_and_varied() {
        let g = generator();
        assert_eq!(g.affinity(1, 2), g.affinity(1, 2));
        // Across many pairs the affinity should spread out, not collapse.
        let values: Vec<f64> = (0..200).map(|i| g.affinity(i, (i * 7) % 200)).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>();
        let spread = (variance / (values.len() - 1) as f64).sqrt();
        assert!(spread > 0.3, "spread {spread}");
    }

    #[test]
    fn latent_structure_is_learnable() {
        // Users with similar factors should rate movies similarly: the
        // rating a user gives must correlate with the noiseless affinity.
        let g = generator();
        let mut rng = StdRng::seed_from_u64(2);
        let mut diffs = Vec::new();
        for basket in g.corpus(&mut rng).iter().take(200) {
            for rating in basket {
                diffs.push(rating.stars as f64 - g.affinity(rating.user, rating.movie));
            }
        }
        // The residual should be dominated by the configured noise plus
        // rounding, i.e. well below the rating scale's spread.
        let rms = (diffs.iter().map(|d| d * d).sum::<f64>() / diffs.len() as f64).sqrt();
        assert!(rms < 1.0, "rms residual {rms}");
    }

    #[test]
    fn popular_movies_receive_more_ratings() {
        let g = generator();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 200];
        for basket in g.corpus(&mut rng) {
            for rating in basket {
                counts[rating.movie as usize] += 1;
            }
        }
        let head: usize = counts[..20].iter().sum();
        let tail: usize = counts[180..].iter().sum();
        assert!(head > 3 * (tail + 1), "head {head} tail {tail}");
    }
}
