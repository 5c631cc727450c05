//! RAPPOR: Bloom-filter encoding with permanent randomized response, plus a
//! candidate-based decoder with significance testing.
//!
//! This is the "one-time RAPPOR" configuration (no instantaneous response),
//! which is the strongest-utility variant and therefore the fairest baseline
//! for Figure 5. The decoder estimates each candidate's count from its Bloom
//! bits and reports a candidate as *recovered* only when the estimate clears
//! a Bonferroni-corrected significance threshold — mirroring how the paper
//! counts "unique words recovered".

use rand::Rng;

use prochlo_crypto::sha256::sha256_concat;

use crate::response::{f_for_epsilon, permanent_response, rappor_epsilon};

/// RAPPOR encoding parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RapporParams {
    /// Bloom filter size in bits.
    pub(crate) bloom_bits: usize,
    /// Number of hash functions (bits set per value).
    pub(crate) hashes: u32,
    /// Permanent-randomized-response flip probability `f`.
    pub(crate) f: f64,
}

impl RapporParams {
    /// The configuration used for the Figure 5 baseline: a 128-bit Bloom
    /// filter with 2 hash functions, with `f` chosen for the requested ε.
    pub fn for_epsilon(epsilon: f64) -> Self {
        Self {
            bloom_bits: 128,
            hashes: 2,
            f: f_for_epsilon(epsilon, 2),
        }
    }

    /// The ε-LDP guarantee of these parameters.
    pub fn epsilon(&self) -> f64 {
        rappor_epsilon(self.f, self.hashes)
    }

    /// The Bloom bits a value maps to.
    fn bits_for(&self, value: &[u8]) -> Vec<usize> {
        (0..self.hashes)
            .map(|i| {
                let digest = sha256_concat(&[b"rappor-bloom", &i.to_le_bytes(), value]);
                let word = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
                (word % self.bloom_bits as u64) as usize
            })
            .collect()
    }
}

/// Client-side encoder.
#[derive(Debug, Clone)]
pub struct RapporEncoder {
    params: RapporParams,
}

impl RapporEncoder {
    /// Creates an encoder.
    pub fn new(params: RapporParams) -> Self {
        Self { params }
    }

    /// Encodes one value into a noisy Bloom filter report.
    pub fn encode<R: Rng + ?Sized>(&self, value: &[u8], rng: &mut R) -> Vec<bool> {
        let mut bloom = vec![false; self.params.bloom_bits];
        for bit in self.params.bits_for(value) {
            bloom[bit] = true;
        }
        bloom
            .into_iter()
            .map(|b| permanent_response(b, self.params.f, rng))
            .collect()
    }
}

/// Server-side aggregation of RAPPOR reports.
#[derive(Debug, Clone)]
pub struct RapporAggregate {
    params: RapporParams,
    bit_counts: Vec<u64>,
    reports: u64,
}

impl RapporAggregate {
    /// Creates an empty aggregate.
    pub fn new(params: RapporParams) -> Self {
        Self {
            params,
            bit_counts: vec![0; params.bloom_bits],
            reports: 0,
        }
    }

    /// Adds one client report.
    pub fn add(&mut self, report: &[bool]) {
        assert_eq!(report.len(), self.params.bloom_bits, "report length");
        for (count, &bit) in self.bit_counts.iter_mut().zip(report) {
            if bit {
                *count += 1;
            }
        }
        self.reports += 1;
    }

    /// Unbiased estimate of how many clients truly had `bit` set.
    fn estimated_true_count(&self, bit: usize) -> f64 {
        let n = self.reports as f64;
        let c = self.bit_counts[bit] as f64;
        (c - (self.params.f / 2.0) * n) / (1.0 - self.params.f)
    }

    /// Standard deviation of the per-bit estimate under the null hypothesis
    /// that no client set the bit.
    fn estimate_stddev(&self) -> f64 {
        let n = self.reports as f64;
        let half_f = self.params.f / 2.0;
        (n * half_f * (1.0 - half_f)).sqrt() / (1.0 - self.params.f)
    }

    /// Estimates the count of a specific candidate value (the minimum over
    /// its Bloom bits, which corrects for collisions with more popular
    /// values better than the mean).
    fn estimate(&self, candidate: &[u8]) -> f64 {
        self.params
            .bits_for(candidate)
            .into_iter()
            .map(|bit| self.estimated_true_count(bit))
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    }

    /// Decodes the aggregate against a candidate list: returns the candidates
    /// whose estimated count is statistically significant, with their
    /// estimates.
    ///
    /// Significance uses a Bonferroni-corrected one-sided z-test at overall
    /// level ~5%: a candidate is recovered only if its estimate exceeds
    /// `z · σ` where `z` grows with the number of candidates tested.
    pub fn decode<'c>(&self, candidates: &'c [Vec<u8>]) -> Vec<(&'c [u8], f64)> {
        if self.reports == 0 || candidates.is_empty() {
            return Vec::new();
        }
        let threshold = self.detection_threshold(candidates.len());
        candidates
            .iter()
            .filter_map(|candidate| {
                let estimate = self.estimate(candidate);
                (estimate > threshold).then_some((candidate.as_slice(), estimate))
            })
            .collect()
    }

    /// The detection threshold (in estimated-count units) used by
    /// [`Self::decode`] for a given candidate-set size: the noise floor that
    /// grows with √N and limits RAPPOR's reach into the tail. Bonferroni:
    /// alpha = 0.05 / |candidates|, and z from the inverse normal tail,
    /// approximated by sqrt(2 ln(1/alpha)).
    fn detection_threshold(&self, num_candidates: usize) -> f64 {
        let alpha = 0.05 / num_candidates.max(1) as f64;
        let z = (2.0 * (1.0 / alpha).ln()).sqrt();
        z * self.estimate_stddev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn word(i: usize) -> Vec<u8> {
        format!("word-{i}").into_bytes()
    }

    #[test]
    fn params_for_epsilon_roundtrip() {
        let params = RapporParams::for_epsilon(2.0);
        assert!((params.epsilon() - 2.0).abs() < 1e-9);
        assert_eq!(params.bits_for(b"x").len(), 2);
        assert_eq!(params.bits_for(b"x"), params.bits_for(b"x"));
    }

    #[test]
    fn frequent_values_are_recovered_rare_ones_are_not() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = RapporParams::for_epsilon(2.0);
        let encoder = RapporEncoder::new(params);
        let mut agg = RapporAggregate::new(params);

        // 20k reports of a popular word, 30 of a rare word, 10k of another.
        for _ in 0..20_000 {
            agg.add(&encoder.encode(&word(0), &mut rng));
        }
        for _ in 0..10_000 {
            agg.add(&encoder.encode(&word(1), &mut rng));
        }
        for _ in 0..30 {
            agg.add(&encoder.encode(&word(2), &mut rng));
        }

        let candidates: Vec<Vec<u8>> = (0..100).map(word).collect();
        let recovered = agg.decode(&candidates);
        let names: Vec<&[u8]> = recovered.iter().map(|(c, _)| *c).collect();
        assert!(names.contains(&word(0).as_slice()));
        assert!(names.contains(&word(1).as_slice()));
        assert!(
            !names.contains(&word(2).as_slice()),
            "rare word below noise floor"
        );
        // Estimates should be in the right ballpark for the popular words.
        let est0 = recovered
            .iter()
            .find(|(c, _)| *c == word(0).as_slice())
            .unwrap()
            .1;
        assert!((est0 - 20_000.0).abs() < 3_000.0, "estimate {est0}");
    }

    #[test]
    fn detection_threshold_grows_with_sqrt_n() {
        let params = RapporParams::for_epsilon(2.0);
        let mut small = RapporAggregate::new(params);
        let mut large = RapporAggregate::new(params);
        let empty = vec![false; params.bloom_bits];
        for _ in 0..1_000 {
            small.add(&empty);
        }
        for _ in 0..100_000 {
            large.add(&empty);
        }
        let ratio = large.detection_threshold(100) / small.detection_threshold(100);
        assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn empty_aggregate_decodes_to_nothing() {
        let params = RapporParams::for_epsilon(2.0);
        let agg = RapporAggregate::new(params);
        assert!(agg.decode(&[word(0)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "report length")]
    fn mismatched_report_length_is_rejected() {
        let params = RapporParams::for_epsilon(2.0);
        let mut agg = RapporAggregate::new(params);
        agg.add(&[true, false]);
    }
}
