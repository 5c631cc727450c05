//! Table 3: execution time of the Vocab pipeline for one shuffler
//! (Secret-Crowd / NoCrowd / Crowd) and for two shufflers with blind
//! thresholding (Blinded-Crowd).
//!
//! The paper measures 10K–10M clients; the client counts here are the
//! paper's divided by `PROCHLO_SCALE_DIV` (default 1000 → 10, 100, 1000,
//! 10000 clients, of which the sub-1K rows are skipped). Every row exercises
//! the real cryptographic path: nested hybrid encryption at the encoder,
//! outer-layer decryption plus thresholding at the shuffler(s), El Gamal
//! blinding/unblinding in the two-shuffler column.

use prochlo_bench::vocab::VocabCorpus;
use prochlo_bench::{env_usize, fmt_records, print_header, timed};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let divisor = env_usize("PROCHLO_SCALE_DIV", 1000).max(1);
    let paper_sizes = [10_000usize, 100_000, 1_000_000, 10_000_000];
    let paper_seconds = [
        (8.0, 15.0, 7.0),
        (71.0, 153.0, 64.0),
        (713.0, 1440.0, 643.0),
        (7200.0, 14760.0, 6480.0),
    ];
    let corpus = VocabCorpus::figure5_default();

    print_header(
        &format!("Table 3: Vocab pipeline execution time (clients scaled by 1/{divisor})"),
        &[
            "clients (paper)",
            "clients (run)",
            "Encoder+Shuffler1 (s)",
            "Shuffler2 blinded (s)",
            "paper Enc+S1 (s)",
            "paper S1 blinded (s)",
            "paper S2 blinded (s)",
        ],
    );

    let mut rng = StdRng::seed_from_u64(0x7ab1e3);
    for (idx, &paper_clients) in paper_sizes.iter().enumerate() {
        let clients = paper_clients / divisor;
        if clients < 100 {
            println!(
                "{:>8} | (skipped: {} clients below minimum batch)",
                fmt_records(paper_clients),
                clients
            );
            continue;
        }
        // Single-shuffler deployment (hashed crowd IDs, secret-share
        // encoding).
        let pipeline = Deployment::builder()
            .payload_size(32)
            .share_threshold(20)
            .build(&mut rng);
        let encoder = pipeline.encoder();
        let words = corpus.sample_words(clients, &mut rng);
        let (_, single_seconds) = timed(|| {
            let reports: Vec<_> = words
                .iter()
                .enumerate()
                .map(|(i, word)| {
                    encoder
                        .encode_secret_shared(
                            word,
                            20,
                            CrowdStrategy::Hash(word),
                            i as u64,
                            &mut rng,
                        )
                        .expect("encode")
                })
                .collect();
            pipeline.run(&reports, &mut rng).expect("pipeline")
        });

        // Two-shuffler deployment with blinded crowd IDs.
        let split = Deployment::builder()
            .shuffler(Topology::Split)
            .payload_size(32)
            .share_threshold(20)
            .build(&mut rng);
        let split_encoder = split.encoder();
        let (_, split_seconds) = timed(|| {
            let reports: Vec<_> = words
                .iter()
                .enumerate()
                .map(|(i, word)| {
                    split_encoder
                        .encode_secret_shared(
                            word,
                            20,
                            CrowdStrategy::Blind(word),
                            i as u64,
                            &mut rng,
                        )
                        .expect("encode")
                })
                .collect();
            split.run(&reports, &mut rng).expect("split pipeline")
        });

        let (p_enc_s1, p_s1_blind, p_s2_blind) = paper_seconds[idx];
        println!(
            "{:>8} | {:>8} | {:>10.2} | {:>10.2} | {:>8.0} | {:>8.0} | {:>8.0}",
            fmt_records(paper_clients),
            fmt_records(clients),
            single_seconds,
            split_seconds,
            p_enc_s1,
            p_s1_blind,
            p_s2_blind,
        );
    }
    println!();
    println!(
        "Shape check: time scales linearly with the number of clients. Per report \
         the client pays four fixed-base comb walks (six with a blinded crowd ID) of \
         7 doublings and at most 32 additions each, and one inversion for both layers, with \
         no variable-base multiplication: its keys' tables are built once per encoder. \
         The shufflers and analyzer add two \
         variable-base multiplications per report in the single-shuffler column and \
         five in the blinded one, so the blinded column costs roughly 1.5-2.5x the \
         single-shuffler column (the paper counts ≈3 vs ≈6+2 public-key operations \
         per report)."
    );
}
