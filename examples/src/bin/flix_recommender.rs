//! The Flix use case (§5.5): privacy-preserving collaborative filtering.
//!
//! Users' movie-rating baskets are fragmented into four-tuples
//! (movie-a, rating-a, movie-b, rating-b), a capped random subset of which is
//! reported with 10 % of movie identifiers randomized. The analyzer
//! assembles the item-item covariance matrices and the example compares the
//! resulting recommender's RMSE against one trained on the raw data.
//!
//! Run with: `cargo run -p prochlo-examples --release --bin flix_recommender`

use prochlo_bench::covariance::{CovarianceModel, RatingTuple};
use prochlo_bench::ratings::{RatingsConfig, RatingsGenerator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let movies = 200usize;
    let generator = RatingsGenerator::new(RatingsConfig::for_movies(movies, 3_000), 5);
    let corpus = generator.corpus(&mut rng);
    let split = corpus.len() * 9 / 10;
    let (train, test) = corpus.split_at(split);
    println!(
        "{} users, {} movies, {} ratings total",
        corpus.len(),
        movies,
        corpus.iter().map(Vec::len).sum::<usize>()
    );

    // Non-private baseline: every four-tuple of every basket.
    let mut plain = CovarianceModel::new();
    for basket in train {
        plain.add_tuples(&RatingTuple::from_basket(basket));
    }

    // Prochlo collection: capped sampling, movie randomization, thresholding.
    let mut prochlo = CovarianceModel::new();
    for basket in train {
        let mut noisy: Vec<_> = basket
            .iter()
            .map(|r| {
                let mut rating = *r;
                if rng.gen::<f64>() < 0.10 {
                    rating.movie = rng.gen_range(0..movies) as u32;
                }
                rating
            })
            .collect();
        noisy.shuffle(&mut rng);
        let mut tuples = RatingTuple::from_basket(&noisy);
        tuples.shuffle(&mut rng);
        tuples.truncate(100);
        prochlo.add_tuples(&tuples);
    }
    prochlo.apply_threshold(5);

    let rmse_plain = plain.evaluate_rmse(test);
    let rmse_prochlo = prochlo.evaluate_rmse(test);
    println!(
        "\nitem pairs retained: {} (plain) vs {} (prochlo, after thresholding)",
        plain.pairs(),
        prochlo.pairs()
    );
    println!("RMSE without privacy:  {rmse_plain:.4}");
    println!("RMSE with Prochlo:     {rmse_prochlo:.4}");
    println!("difference:            {:+.4}", rmse_prochlo - rmse_plain);
    println!(
        "\nThe paper's Table 5 reports the same effect on Netflix-shaped data: the \
         Prochlo collection path costs at most ~0.002 RMSE."
    );
}
