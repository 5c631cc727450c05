//! Small numeric summaries used by the analytics crate and the benchmark
//! harnesses (percentiles, RMSE).

/// Root-mean-square error between predictions and targets.
///
/// This is the utility metric of the Flix experiment (Table 5).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target length mismatch"
    );
    assert!(!predictions.is_empty(), "RMSE of an empty set is undefined");
    let sse: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum();
    (sse / predictions.len() as f64).sqrt()
}

/// The `q`-th percentile (0 ≤ q ≤ 100) using nearest-rank on a sorted copy:
/// the smallest element such that at least `q` percent of the data is less
/// than or equal to it, i.e. the element at rank `⌈q/100 · n⌉` (1-based;
/// `q = 0` returns the minimum).
///
/// # Panics
///
/// Panics if the slice is empty or `q` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty set is undefined");
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0, 100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

#[cfg(test)]
/// Arithmetic mean of a slice, for the samplers' tests. Returns 0 for an
/// empty slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
/// Sample standard deviation (unbiased, `n - 1` denominator).
///
/// Returns 0 for slices with fewer than two elements.
pub(crate) fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is ~2.138.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.1381).abs() < 1e-3);
    }

    #[test]
    fn rmse_zero_for_perfect_predictions() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&xs, &xs), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rmse_rejects_mismatched_lengths() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn percentile_extremes() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_is_true_nearest_rank() {
        // n = 4, q = 25: rank ⌈0.25·4⌉ = 1, the *first* sorted element —
        // the interpolating round(q/100·(n−1)) formula wrongly gave the
        // second.
        let xs = [40.0, 10.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 25.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 20.0);
        assert_eq!(percentile(&xs, 75.0), 30.0);
        // Anything strictly above 75 needs the 4th element.
        assert_eq!(percentile(&xs, 75.1), 40.0);
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        for q in [0.0, 25.0, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[7.5], q), 7.5, "q = {q}");
        }
    }

    #[test]
    fn percentile_just_below_100_is_the_maximum() {
        let xs = [2.0, 4.0, 6.0, 8.0];
        // ⌈0.999·4⌉ = 4 → the last element, without indexing past the end.
        assert_eq!(percentile(&xs, 99.9), 8.0);
    }
}
