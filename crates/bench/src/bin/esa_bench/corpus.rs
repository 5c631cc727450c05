//! Inputs: everything a workload feeds the program is a pure function of
//! `--seed`.
//!
//! Values are words `w1..wV` drawn Zipf(s = 1) and the crowd ID is the word,
//! so the default thresholding (T = 20, D = 10, σ = 2) really drops the tail.
//! Every report of a corpus is sealed under fresh ephemeral keys, so no two
//! ciphertexts of a corpus are equal: a corpus repeats only across epochs
//! (see `README.md`, "Inputs").

use std::sync::Arc;

use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::exec::{chunk_rng, mix_seed, par_chunks, CHUNK_RECORDS};
use prochlo_core::{ClientReport, Encoder};
use prochlo_stats::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host;

/// Seed streams: each consumer of `--seed` derives its own generator with
/// `mix_seed(seed, stream)`, so adding a consumer never shifts another's
/// draws.
pub mod stream {
    pub const DEPLOYMENT: u64 = 1;
    pub const WORDS: u64 = 2;
    pub const SEAL: u64 = 3;
    pub const NONCES: u64 = 4;
    pub const EPOCHS: u64 = 5;
    pub const MICRO: u64 = 6;
}

/// A plaintext report must reach this count inside one epoch before the
/// oracle insists its word shows up in that epoch's histogram: the noisy
/// threshold sits at 20 + 10 with σ = 2 on both draws, so 64 is more than
/// ten standard deviations clear of it.
const HEAVY_WORD_REPORTS: usize = 64;

/// How the encoder wraps a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Plain,
    /// §4.2 secret sharing with this recovery threshold.
    SecretShared(usize),
}

/// How the crowd ID travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crowd {
    Hash,
    /// El Gamal-blinded, for the split topology.
    Blind,
}

/// A sealed corpus and what the harness knows about its plaintext.
#[derive(Debug)]
pub struct Corpus {
    /// `w1..wV`.
    pub words: Vec<Vec<u8>>,
    /// The sealed reports, in corpus order.
    pub reports: Vec<ClientReport>,
    /// The outer ciphertext of each report as it travels on the wire;
    /// shared with the generator threads.
    pub wire: Arc<Vec<Vec<u8>>>,
    /// Index into `words` of each report's value.
    pub word_of: Vec<u32>,
    /// Process CPU spent sealing, per report.
    pub encode_cpu_us: f64,
}

/// Draws `count` Zipf words and seals them on `threads` workers with
/// per-chunk generators, so the corpus does not depend on the worker count.
pub fn seal_corpus(
    encoder: &Encoder,
    count: usize,
    vocabulary: usize,
    encoding: Encoding,
    crowd: Crowd,
    seed: u64,
    threads: usize,
) -> Corpus {
    let words: Vec<Vec<u8>> = (1..=vocabulary)
        .map(|k| format!("w{k}").into_bytes())
        .collect();
    let word_of: Vec<u32> = Zipf::new(vocabulary, 1.0)
        .sample_n(
            &mut StdRng::seed_from_u64(mix_seed(seed, stream::WORDS)),
            count,
        )
        .into_iter()
        .map(|id| id as u32)
        .collect();

    let cpu_before = host::cpu_seconds();
    let seal_seed = mix_seed(seed, stream::SEAL);
    let reports: Vec<ClientReport> = par_chunks(&word_of, threads, CHUNK_RECORDS, |chunk, ids| {
        let mut rng = chunk_rng(seal_seed, chunk as u64);
        ids.iter()
            .enumerate()
            .map(|(offset, &id)| {
                let word = &words[id as usize];
                let strategy = match crowd {
                    Crowd::Hash => CrowdStrategy::Hash(word),
                    Crowd::Blind => CrowdStrategy::Blind(word),
                };
                let client = (chunk * CHUNK_RECORDS + offset) as u64;
                match encoding {
                    Encoding::Plain => encoder.encode_plain(word, strategy, client, &mut rng),
                    Encoding::SecretShared(threshold) => {
                        encoder.encode_secret_shared(word, threshold, strategy, client, &mut rng)
                    }
                }
                .expect("sealing a corpus word")
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let encode_cpu_us = (host::cpu_seconds() - cpu_before) * 1e6 / count.max(1) as f64;

    let wire = Arc::new(reports.iter().map(|r| r.outer.to_bytes()).collect());
    Corpus {
        words,
        reports,
        wire,
        word_of,
        encode_cpu_us,
    }
}

impl Corpus {
    /// Plaintext count of every word among the first `submitted`
    /// submissions, which walk the corpus cyclically.
    pub fn submitted_counts(&self, submitted: u64) -> Vec<u64> {
        let len = self.word_of.len() as u64;
        let mut counts = vec![0u64; self.words.len()];
        if len == 0 {
            return counts;
        }
        let (cycles, partial) = (submitted / len, (submitted % len) as usize);
        for (position, &word) in self.word_of.iter().enumerate() {
            counts[word as usize] += cycles + u64::from(position < partial);
        }
        counts
    }

    /// Words with at least [`HEAVY_WORD_REPORTS`] reports left in **every**
    /// cyclic run of `window` consecutive corpus positions after any
    /// `missing` of them are taken away — so whichever reports an epoch
    /// happened to contain, these words were well above the threshold in it.
    pub fn heavy_words(&self, window: usize, missing: usize) -> Vec<usize> {
        let len = self.word_of.len();
        if window == 0 || window > len {
            return Vec::new();
        }
        (0..self.words.len())
            .filter(|&word| {
                let hit = |position: usize| self.word_of[position % len] as usize == word;
                let mut inside = (0..window).filter(|&p| hit(p)).count();
                let mut fewest = inside;
                for start in 1..len {
                    inside -= usize::from(hit(start - 1));
                    inside += usize::from(hit(start + window - 1));
                    fewest = fewest.min(inside);
                }
                fewest >= HEAVY_WORD_REPORTS + missing
            })
            .collect()
    }
}
