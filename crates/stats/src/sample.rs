//! Seedable samplers for the distributions used throughout Prochlo.

use rand::Rng;

/// A Gaussian (normal) sampler with fixed mean and standard deviation.
///
/// Sampling uses the Box–Muller transform; both variates of each pair are
/// used, so amortized cost is one `ln` + one `sqrt` + one `sin`/`cos` per two
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    stddev: f64,
}

impl Gaussian {
    /// Creates a Gaussian sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `stddev` is negative or not finite.
    pub fn new(mean: f64, stddev: f64) -> Self {
        assert!(
            stddev.is_finite() && stddev >= 0.0,
            "standard deviation must be finite and non-negative, got {stddev}"
        );
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        Self { mean, stddev }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.stddev * standard_normal(rng)
    }
}

/// Draws a standard-normal variate using Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: u1 in (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A Laplace sampler with location `mu` and scale `b`.
///
/// Used for pure ε-differentially-private release at the analyzer: a count
/// query with sensitivity 1 released with `Laplace::new(0, 1/ε)` noise is
/// ε-DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    mu: f64,
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace sampler with location `mu` and scale `b`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(mu: f64, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "Laplace scale must be finite and positive, got {scale}"
        );
        Self { mu, scale }
    }

    /// Draws one sample via inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform in (-0.5, 0.5).
        let u: f64 = rng.gen::<f64>() - 0.5;
        self.mu - self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }
}

/// A rounded, truncated-at-zero normal distribution `⌊N(mean, σ²)⌉`, as used
/// by the shuffler to pick how many reports to drop from each crowd (§3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundedNormal {
    inner: Gaussian,
}

impl RoundedNormal {
    /// Creates the sampler for `⌊N(mean, stddev²)⌉` truncated below at 0.
    pub fn new(mean: f64, stddev: f64) -> Self {
        Self {
            inner: Gaussian::new(mean, stddev),
        }
    }

    /// Draws a non-negative integer sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let x = self.inner.sample(rng).round();
        if x <= 0.0 {
            0
        } else {
            x as u64
        }
    }
}

/// A Zipf (power-law) sampler over the items `0..n` with exponent `s`.
///
/// Item `i` (0-based) has probability proportional to `1 / (i + 1)^s`. The
/// sampler precomputes the cumulative distribution and draws by binary
/// search, so construction is `O(n)` and sampling is `O(log n)`.
///
/// This is the workhorse of the synthetic workloads: the Vocab corpus, page
/// popularity in Perms, video popularity in Suggest, and movie popularity in
/// Flix are all drawn from Zipf distributions, matching the paper's
/// description of "heavy head and long tail".
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf sampler over `n` items with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the exponent is not finite and non-negative.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "Zipf exponent must be finite and non-negative, got {exponent}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point round-off at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of items in the support.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one item index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // Find the first index whose CDF value is >= u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Draws `count` items.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Expected number of *distinct* items observed after `samples` draws.
    ///
    /// Computed exactly as `Σ_i (1 - (1 - p_i)^samples)`; used by the Vocab
    /// benchmark to report the ground-truth number of unique words without
    /// materializing gigantic sample sets.
    pub fn expected_distinct(&self, samples: u64) -> f64 {
        let mut total = 0.0;
        let mut prev = 0.0;
        for &c in &self.cdf {
            let p = c - prev;
            prev = c;
            total += 1.0 - (1.0 - p).powf(samples as f64);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Gaussian {
        /// Draws `n` samples into a vector.
        fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.sample(rng)).collect()
        }
    }

    impl Zipf {
        /// Probability mass of item `i`.
        fn pmf(&self, i: usize) -> f64 {
            assert!(i < self.cdf.len(), "item out of range");
            if i == 0 {
                self.cdf[0]
            } else {
                self.cdf[i] - self.cdf[i - 1]
            }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_1234)
    }

    #[test]
    fn gaussian_mean_and_stddev_are_close() {
        let g = Gaussian::new(5.0, 2.0);
        let mut r = rng();
        let xs = g.sample_n(&mut r, 200_000);
        let m = crate::summary::mean(&xs);
        let s = crate::summary::stddev(&xs);
        assert!((m - 5.0).abs() < 0.05, "mean off: {m}");
        assert!((s - 2.0).abs() < 0.05, "stddev off: {s}");
    }

    #[test]
    fn gaussian_zero_stddev_is_constant() {
        let g = Gaussian::new(3.0, 0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(g.sample(&mut r), 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation")]
    fn gaussian_rejects_negative_stddev() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn laplace_mean_and_scale_are_close() {
        let l = Laplace::new(-1.0, 3.0);
        let mut r = rng();
        let xs: Vec<f64> = (0..200_000).map(|_| l.sample(&mut r)).collect();
        let m = crate::summary::mean(&xs);
        // Variance of Laplace is 2 b^2.
        let v = crate::summary::stddev(&xs).powi(2);
        assert!((m + 1.0).abs() < 0.05, "mean off: {m}");
        assert!((v - 18.0).abs() < 0.7, "variance off: {v}");
    }

    #[test]
    #[should_panic(expected = "Laplace scale")]
    fn laplace_rejects_zero_scale() {
        let _ = Laplace::new(0.0, 0.0);
    }

    #[test]
    fn rounded_normal_is_truncated_at_zero() {
        let d = RoundedNormal::new(1.0, 5.0);
        let mut r = rng();
        for _ in 0..10_000 {
            // u64 is always >= 0; just exercise the path and check range sanity.
            let x = d.sample(&mut r);
            assert!(x < 100, "implausibly large sample {x}");
        }
    }

    #[test]
    fn rounded_normal_matches_paper_parameters() {
        // D = 10, σ = 2: nearly all mass within [2, 18].
        let d = RoundedNormal::new(10.0, 2.0);
        let mut r = rng();
        let xs: Vec<u64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        let m = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert!((m - 10.0).abs() < 0.1, "mean off: {m}");
        assert!(xs.iter().all(|&x| x <= 25));
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.pmf(0) > 10.0 * z.pmf(100));
        let mut r = rng();
        let samples = z.sample_n(&mut r, 100_000);
        let head = samples.iter().filter(|&&i| i == 0).count();
        let deep_tail = samples.iter().filter(|&&i| i >= 900).count();
        assert!(head > deep_tail, "head {head} should beat tail {deep_tail}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(777, 1.3);
        let total: f64 = (0..777).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(50, 0.8);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 50);
        }
    }

    #[test]
    fn zipf_expected_distinct_is_monotone_and_bounded() {
        let z = Zipf::new(10_000, 1.05);
        let d1 = z.expected_distinct(1_000);
        let d2 = z.expected_distinct(100_000);
        let d3 = z.expected_distinct(10_000_000);
        assert!(d1 < d2 && d2 < d3);
        assert!(d3 <= 10_000.0);
        assert!(d1 > 100.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn samplers_are_deterministic_for_a_fixed_seed() {
        let z = Zipf::new(100, 1.0);
        let g = Gaussian::new(0.0, 1.0);
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(z.sample_n(&mut r1, 64), z.sample_n(&mut r2, 64));
        let a: Vec<f64> = g.sample_n(&mut r1, 16);
        let b: Vec<f64> = g.sample_n(&mut r2, 16);
        assert_eq!(a, b);
    }
}
