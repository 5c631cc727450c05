//! Figure 5: number of unique words recovered (log-log in the paper) on
//! Zipfian Vocab samples, for:
//!
//! * Ground truth (no privacy) — expected distinct words in the sample,
//! * NoCrowd — secret-share encoding, fixed crowd ID, no thresholding,
//! * *-Crowd — secret-share encoding with hashed crowd IDs and the paper's
//!   randomized thresholding (T = 20, D = 10, σ = 2),
//! * Partition — RAPPOR with hash-based partitions (§2.2),
//! * RAPPOR — plain RAPPOR at ε = 2.
//!
//! Sample sizes default to `PROCHLO_FIG5_SIZES=5000,20000`; the paper sweeps
//! 10 K – 10 M. The expected shape: Prochlo's lines sit 1–2 orders of
//! magnitude above the local-DP lines and track the ground truth's growth.

use prochlo_bench::partition::PartitionedRappor;
use prochlo_bench::rappor::{RapporAggregate, RapporEncoder, RapporParams};
use prochlo_bench::vocab::VocabCorpus;
use prochlo_bench::{env_usize_list, fmt_records, print_header, timed};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, ShufflerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the ESA path and returns the number of distinct words recovered.
fn run_esa(corpus: &VocabCorpus, words: &[Vec<u8>], with_crowds: bool, rng: &mut StdRng) -> usize {
    let config = if with_crowds {
        ShufflerConfig::default()
    } else {
        ShufflerConfig::default().without_thresholding()
    };
    let pipeline = Deployment::builder()
        .config(config)
        .payload_size(32)
        .share_threshold(20)
        .build(rng);
    let encoder = pipeline.encoder();
    let reports: Vec<_> = words
        .iter()
        .enumerate()
        .map(|(i, word)| {
            let crowd = if with_crowds {
                CrowdStrategy::Hash(word)
            } else {
                CrowdStrategy::Hash(b"everyone")
            };
            encoder
                .encode_secret_shared(word, 20, crowd, i as u64, rng)
                .expect("encode")
        })
        .collect();
    let result = pipeline.run(&reports, rng).expect("pipeline");
    let _ = corpus;
    result.database.distinct_values()
}

/// Runs plain RAPPOR and returns the number of candidates recovered.
fn run_rappor(corpus: &VocabCorpus, words: &[Vec<u8>], rng: &mut StdRng) -> usize {
    let params = RapporParams::for_epsilon(2.0);
    let encoder = RapporEncoder::new(params);
    let mut aggregate = RapporAggregate::new(params);
    for word in words {
        aggregate.add(&encoder.encode(word, rng));
    }
    aggregate.decode(&corpus.candidates()).len()
}

/// Runs partitioned RAPPOR (§2.2) and returns candidates recovered.
fn run_partitioned(
    corpus: &VocabCorpus,
    words: &[Vec<u8>],
    partitions: usize,
    rng: &mut StdRng,
) -> usize {
    let params = RapporParams::for_epsilon(2.0);
    let mut aggregate = PartitionedRappor::new(params, partitions);
    for word in words {
        aggregate.report(word, rng);
    }
    aggregate.decode(&corpus.candidates()).len()
}

fn main() {
    let sizes = env_usize_list("PROCHLO_FIG5_SIZES", &[2_000, 10_000]);
    let corpus = VocabCorpus::figure5_default();
    let mut rng = StdRng::seed_from_u64(0xf165);

    print_header(
        "Figure 5: unique words recovered per mechanism",
        &[
            "sample",
            "ground truth",
            "NoCrowd",
            "*-Crowd",
            "Partition",
            "RAPPOR",
            "secs",
        ],
    );

    for &size in &sizes {
        let (row, seconds) = timed(|| {
            let words = corpus.sample_words(size, &mut rng);
            let ground_truth = corpus.expected_distinct(size as u64).round() as usize;
            let nocrowd = run_esa(&corpus, &words, false, &mut rng);
            let crowd = run_esa(&corpus, &words, true, &mut rng);
            // The paper uses between 4 and 256 partitions depending on size.
            let partitions = (size / 2_500).clamp(4, 256);
            let partitioned = run_partitioned(&corpus, &words, partitions, &mut rng);
            let rappor = run_rappor(&corpus, &words, &mut rng);
            (ground_truth, nocrowd, crowd, partitioned, rappor)
        });
        println!(
            "{:>7} | {:>8} | {:>8} | {:>8} | {:>8} | {:>8} | {:>6.1}",
            fmt_records(size),
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            seconds,
        );
    }
    println!();
    println!(
        "Shape check (paper, 10K-10M samples): NoCrowd > *-Crowd >> Partition >= RAPPOR, \
         with the ESA lines within an order of magnitude of the ground truth and the \
         local-DP lines 1-2 orders of magnitude below."
    );
}
