//! The Vocab workload (§5.2): a long-tailed word corpus.
//!
//! Word frequencies follow a Zipf distribution over a large vocabulary,
//! mirroring the "heavy head and long tail" of the paper's three-billion-word
//! discussion-board corpus. Only the distribution's shape matters for the
//! Figure 5 experiment, which counts how many *unique* words each collection
//! mechanism can recover.

use rand::Rng;

use prochlo_stats::Zipf;

/// A synthetic Zipfian word corpus.
#[derive(Debug, Clone)]
pub struct VocabCorpus {
    zipf: Zipf,
}

impl VocabCorpus {
    /// Creates a corpus over `vocabulary` distinct words with Zipf exponent
    /// `exponent` (≈1.05 reproduces a natural-language-like tail).
    pub fn new(vocabulary: usize, exponent: f64) -> Self {
        Self {
            zipf: Zipf::new(vocabulary, exponent),
        }
    }

    /// The default corpus used by the Figure 5 benchmark: 100 000 words with
    /// exponent 1.05.
    pub fn figure5_default() -> Self {
        Self::new(100_000, 1.05)
    }

    /// Vocabulary size.
    fn vocabulary(&self) -> usize {
        self.zipf.support()
    }

    /// The canonical spelling of word `id`.
    pub fn word(&self, id: usize) -> String {
        format!("word-{id:06}")
    }

    /// All words as byte strings, usable as a decoder candidate list.
    pub fn candidates(&self) -> Vec<Vec<u8>> {
        (0..self.vocabulary())
            .map(|id| self.word(id).into_bytes())
            .collect()
    }

    /// Draws a sample of `count` word ids.
    fn sample_ids<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        self.zipf.sample_n(rng, count)
    }

    /// Draws a sample of `count` words as byte strings.
    pub fn sample_words<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Vec<u8>> {
        self.sample_ids(count, rng)
            .into_iter()
            .map(|id| self.word(id).into_bytes())
            .collect()
    }

    /// Expected number of distinct words in a sample of the given size
    /// (the "ground truth, no privacy" line of Figure 5).
    pub fn expected_distinct(&self, sample_size: u64) -> f64 {
        self.zipf.expected_distinct(sample_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn sampling_is_long_tailed() {
        let corpus = VocabCorpus::new(10_000, 1.05);
        let mut rng = StdRng::seed_from_u64(1);
        let ids = corpus.sample_ids(50_000, &mut rng);
        let distinct: HashSet<_> = ids.iter().collect();
        let head = ids.iter().filter(|&&i| i == 0).count();
        // The most frequent word dominates any individual tail word, and the
        // sample still covers thousands of distinct words.
        assert!(head > 1_000, "head count {head}");
        assert!(distinct.len() > 2_000, "distinct {}", distinct.len());
        assert!(distinct.len() < 10_000);
    }

    #[test]
    fn expected_distinct_tracks_empirical_distinct() {
        let corpus = VocabCorpus::new(5_000, 1.05);
        let mut rng = StdRng::seed_from_u64(2);
        let ids = corpus.sample_ids(20_000, &mut rng);
        let empirical = ids.iter().collect::<HashSet<_>>().len() as f64;
        let expected = corpus.expected_distinct(20_000);
        assert!(
            (empirical - expected).abs() / expected < 0.05,
            "empirical {empirical} vs expected {expected}"
        );
    }

    #[test]
    fn words_and_candidates_are_consistent() {
        let corpus = VocabCorpus::new(100, 1.0);
        assert_eq!(corpus.candidates().len(), 100);
        assert_eq!(corpus.candidates()[7], corpus.word(7).into_bytes());
        assert_eq!(corpus.word(3), "word-000003");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let corpus = VocabCorpus::figure5_default();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(
            corpus.sample_ids(1_000, &mut a),
            corpus.sample_ids(1_000, &mut b)
        );
    }
}
