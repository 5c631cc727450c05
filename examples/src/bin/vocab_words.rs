//! The Vocab use case (§5.2) with the strongest protections: secret-share
//! encoding plus blinded crowd IDs and the two-shuffler deployment.
//!
//! Clients report words drawn from a long-tailed distribution. Words are
//! secret-share encoded (the analyzer can only decrypt a word once 20
//! distinct clients have reported it) and crowd IDs are El Gamal-blinded so
//! neither shuffler can dictionary-attack them.
//!
//! Run with: `cargo run -p prochlo-examples --release --bin vocab_words`

use prochlo_bench::vocab::VocabCorpus;
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let clients = 3_000usize;

    let pipeline = Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .share_threshold(20)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let corpus = VocabCorpus::new(5_000, 1.05);

    println!("encoding {clients} secret-shared reports with blinded crowd IDs...");
    let words = corpus.sample_words(clients, &mut rng);
    let reports: Vec<_> = words
        .iter()
        .enumerate()
        .map(|(i, word)| {
            encoder
                .encode_secret_shared(word, 20, CrowdStrategy::Blind(word), i as u64, &mut rng)
                .expect("encode")
        })
        .collect();

    let result = pipeline.run(&reports, &mut rng).expect("pipeline");
    let db = &result.database;
    println!(
        "shuffler 1 + 2: {} crowds seen, {} forwarded, {} reports dropped below threshold",
        result.shuffler_stats.crowds_seen,
        result.shuffler_stats.crowds_forwarded,
        result.shuffler_stats.dropped_threshold,
    );
    println!(
        "analyzer: {} distinct words recovered ({} reports still locked below the share threshold)",
        db.distinct_values(),
        db.pending_secret_reports(),
    );
    println!(
        "ground truth: ~{:.0} distinct words were present in the sample",
        corpus.expected_distinct(clients as u64)
    );

    println!("\nmost frequent recovered words:");
    for (word, count) in db.histogram().top_k(10) {
        println!("  {:>12}: {}", String::from_utf8_lossy(word), count);
    }
    println!(
        "\nwords reported by fewer than ~20 clients remain cryptographically \
         unreadable to the analyzer, and their crowd IDs were never visible in \
         the clear to either shuffler."
    );
}
