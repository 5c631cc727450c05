//! Item-item covariance assembly and collaborative filtering for the Flix
//! experiment (§5.5, Table 5).
//!
//! Following the paper, the only computation that touches sensitive per-user
//! data is the accumulation of two item-by-item matrices from anonymous
//! four-tuples `(i, r_ui, j, r_uj)`:
//!
//! * `S_ij = |U(i) ∩ U(j)|` — how many users rated both items,
//! * `A_ij = Σ_u r_ui · r_uj` — the co-rating inner product,
//!
//! from which `A_ij / S_ij` approximates the (uncentred) covariance. The
//! predictor built on top — a similarity-weighted item-item regression with
//! mean back-off — is deliberately simple; Table 5's point is that the ESA
//! collection path (capped sampling of tuples, 10 % movie randomization,
//! thresholding) barely moves the RMSE, not that the recommender is
//! state-of-the-art.
#![expect(
    clippy::disallowed_types,
    reason = "keyed accumulators: looked up, and walked only to collect a key set"
)]

use std::collections::HashMap;

use crate::ratings::Rating;

/// One reported four-tuple `(i, r_ui, j, r_uj)` with `i ≤ j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RatingTuple {
    /// First movie.
    pub(crate) movie_a: u32,
    /// Rating of the first movie.
    pub(crate) rating_a: u8,
    /// Second movie.
    pub(crate) movie_b: u32,
    /// Rating of the second movie.
    pub(crate) rating_b: u8,
}

impl RatingTuple {
    /// Builds a tuple in canonical (sorted-movie) order.
    pub(crate) fn new(a: (u32, u8), b: (u32, u8)) -> Self {
        if a.0 <= b.0 {
            Self {
                movie_a: a.0,
                rating_a: a.1,
                movie_b: b.0,
                rating_b: b.1,
            }
        } else {
            Self {
                movie_a: b.0,
                rating_a: b.1,
                movie_b: a.0,
                rating_b: a.1,
            }
        }
    }

    /// All four-tuples of one user's basket.
    pub fn from_basket(basket: &[Rating]) -> Vec<RatingTuple> {
        let mut tuples = Vec::with_capacity(basket.len() * basket.len().saturating_sub(1) / 2);
        for i in 0..basket.len() {
            for j in (i + 1)..basket.len() {
                tuples.push(RatingTuple::new(
                    (basket[i].movie, basket[i].stars),
                    (basket[j].movie, basket[j].stars),
                ));
            }
        }
        tuples
    }
}

/// The accumulated S and A matrices plus per-item marginals.
#[derive(Debug, Clone, Default)]
pub struct CovarianceModel {
    s: HashMap<(u32, u32), u64>,
    a: HashMap<(u32, u32), f64>,
    item_count: HashMap<u32, u64>,
    item_sum: HashMap<u32, f64>,
}

impl CovarianceModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one four-tuple.
    fn add_tuple(&mut self, tuple: &RatingTuple) {
        let key = (tuple.movie_a, tuple.movie_b);
        *self.s.entry(key).or_insert(0) += 1;
        *self.a.entry(key).or_insert(0.0) += tuple.rating_a as f64 * tuple.rating_b as f64;
        for (movie, rating) in [
            (tuple.movie_a, tuple.rating_a),
            (tuple.movie_b, tuple.rating_b),
        ] {
            *self.item_count.entry(movie).or_insert(0) += 1;
            *self.item_sum.entry(movie).or_insert(0.0) += rating as f64;
        }
    }

    /// Adds many tuples.
    pub fn add_tuples(&mut self, tuples: &[RatingTuple]) {
        for tuple in tuples {
            self.add_tuple(tuple);
        }
    }

    /// Removes every item pair observed fewer than `threshold` times — the
    /// thresholding the split shuffler applies to (movie, rating) crowd IDs.
    pub fn apply_threshold(&mut self, threshold: u64) {
        let keep: Vec<(u32, u32)> = self
            .s
            .iter()
            .filter_map(|(key, &count)| (count >= threshold).then_some(*key))
            .collect();
        let keep_set: std::collections::HashSet<(u32, u32)> = keep.into_iter().collect();
        self.s.retain(|key, _| keep_set.contains(key));
        self.a.retain(|key, _| keep_set.contains(key));
    }

    /// Number of co-rating observations for a pair.
    pub(crate) fn support(&self, a: u32, b: u32) -> u64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.s.get(&key).copied().unwrap_or(0)
    }

    /// The `A_ij / S_ij` covariance approximation for a pair.
    fn covariance(&self, a: u32, b: u32) -> Option<f64> {
        let key = if a <= b { (a, b) } else { (b, a) };
        let support = *self.s.get(&key)? as f64;
        let sum = *self.a.get(&key)?;
        Some(sum / support)
    }

    /// The mean observed rating of an item (from the tuples), or the global
    /// midpoint when unseen.
    fn item_mean(&self, movie: u32) -> f64 {
        match (self.item_sum.get(&movie), self.item_count.get(&movie)) {
            (Some(sum), Some(&count)) if count > 0 => sum / count as f64,
            _ => 3.0,
        }
    }

    /// Predicts user `basket`'s rating for `movie` from the other ratings in
    /// the basket, using covariance-weighted deviations from item means.
    pub(crate) fn predict(&self, basket: &[Rating], movie: u32) -> f64 {
        let base = self.item_mean(movie);
        let mut weight_sum = 0.0;
        let mut weighted = 0.0;
        for rating in basket {
            if rating.movie == movie {
                continue;
            }
            let Some(cov) = self.covariance(movie, rating.movie) else {
                continue;
            };
            // Use the co-rating strength relative to the item means as the
            // similarity weight.
            let similarity = cov - self.item_mean(movie) * self.item_mean(rating.movie);
            let support = self.support(movie, rating.movie) as f64;
            let weight = similarity * (support / (support + 10.0));
            weighted += weight * (rating.stars as f64 - self.item_mean(rating.movie));
            weight_sum += weight.abs();
        }
        let prediction = if weight_sum > 1e-9 {
            base + weighted / weight_sum
        } else {
            base
        };
        prediction.clamp(1.0, 5.0)
    }

    /// Leave-one-out RMSE over the given baskets: each rating is predicted
    /// from the rest of its user's basket.
    pub fn evaluate_rmse(&self, baskets: &[Vec<Rating>]) -> f64 {
        let mut predictions = Vec::new();
        let mut targets = Vec::new();
        for basket in baskets {
            for rating in basket {
                predictions.push(self.predict(basket, rating.movie));
                targets.push(rating.stars as f64);
            }
        }
        if predictions.is_empty() {
            return 0.0;
        }
        prochlo_stats::rmse(&predictions, &targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::{RatingsConfig, RatingsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl CovarianceModel {
        /// Number of distinct item pairs retained.
        fn pairs(&self) -> usize {
            self.s.len()
        }
    }

    fn corpus() -> Vec<Vec<Rating>> {
        let generator = RatingsGenerator::new(RatingsConfig::for_movies(100, 400), 11);
        let mut rng = StdRng::seed_from_u64(1);
        generator.corpus(&mut rng)
    }

    #[test]
    fn tuples_cover_all_pairs_in_a_basket() {
        let basket = vec![
            Rating {
                user: 0,
                movie: 3,
                stars: 4,
            },
            Rating {
                user: 0,
                movie: 1,
                stars: 2,
            },
            Rating {
                user: 0,
                movie: 7,
                stars: 5,
            },
        ];
        let tuples = RatingTuple::from_basket(&basket);
        assert_eq!(tuples.len(), 3);
        // Canonical ordering puts the smaller movie id first.
        assert!(tuples.iter().all(|t| t.movie_a <= t.movie_b));
    }

    #[test]
    fn covariance_and_support_accumulate() {
        let mut model = CovarianceModel::new();
        model.add_tuple(&RatingTuple::new((1, 4), (2, 4)));
        model.add_tuple(&RatingTuple::new((2, 2), (1, 2)));
        assert_eq!(model.support(1, 2), 2);
        assert_eq!(model.support(2, 1), 2);
        assert!((model.covariance(1, 2).unwrap() - (16.0 + 4.0) / 2.0).abs() < 1e-12);
        assert_eq!(model.covariance(1, 3), None);
        assert!((model.item_mean(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn thresholding_removes_rare_pairs() {
        let mut model = CovarianceModel::new();
        for _ in 0..5 {
            model.add_tuple(&RatingTuple::new((1, 4), (2, 4)));
        }
        model.add_tuple(&RatingTuple::new((1, 4), (3, 4)));
        assert_eq!(model.pairs(), 2);
        model.apply_threshold(5);
        assert_eq!(model.pairs(), 1);
        assert_eq!(model.covariance(1, 3), None);
        assert!(model.covariance(1, 2).is_some());
    }

    #[test]
    fn predictor_beats_the_constant_baseline() {
        let baskets = corpus();
        // Train on 80% of users, evaluate on the rest.
        let split = baskets.len() * 8 / 10;
        let mut model = CovarianceModel::new();
        for basket in &baskets[..split] {
            model.add_tuples(&RatingTuple::from_basket(basket));
        }
        let test = &baskets[split..];
        let rmse_model = model.evaluate_rmse(test);

        // Baseline: always predict the global mean of 3.
        let mut predictions = Vec::new();
        let mut targets = Vec::new();
        for basket in test {
            for rating in basket {
                predictions.push(3.0);
                targets.push(rating.stars as f64);
            }
        }
        let rmse_baseline = prochlo_stats::rmse(&predictions, &targets);
        assert!(
            rmse_model < rmse_baseline * 0.97,
            "model {rmse_model} vs baseline {rmse_baseline}"
        );
        assert!(rmse_model > 0.2, "suspiciously perfect RMSE {rmse_model}");
    }

    #[test]
    fn empty_model_predicts_the_midpoint() {
        let model = CovarianceModel::new();
        let basket = vec![Rating {
            user: 0,
            movie: 1,
            stars: 5,
        }];
        assert!((model.predict(&basket, 2) - 3.0).abs() < 1e-12);
        assert_eq!(model.evaluate_rmse(&[]), 0.0);
    }
}
