//! End-to-end integration tests spanning the whole workspace: encoder →
//! shuffler (trusted and SGX backends, single and split deployments) →
//! analyzer, on realistic workloads from the data generators.

use prochlo_bench::vocab::VocabCorpus;
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, EngineConfig, ShuffleBackend, ShufflerConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn vocab_pipeline_recovers_frequent_words_and_hides_rare_ones() {
    let mut rng = StdRng::seed_from_u64(1);
    let pipeline = Deployment::builder()
        .payload_size(32)
        .share_threshold(20)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let corpus = VocabCorpus::new(500, 1.2);

    let words = corpus.sample_words(2_000, &mut rng);
    let reports: Vec<_> = words
        .iter()
        .enumerate()
        .map(|(i, word)| {
            encoder
                .encode_secret_shared(word, 20, CrowdStrategy::Hash(word), i as u64, &mut rng)
                .unwrap()
        })
        .collect();
    let result = pipeline.run(&reports, &mut rng).unwrap();

    // The most popular word certainly clears both the crowd threshold and the
    // share threshold.
    let top_word = corpus.word(0).into_bytes();
    assert!(result.database.count(&top_word) > 50);
    // Words sampled fewer than ~10 times cannot appear (threshold + noise).
    let mut truth = std::collections::HashMap::new();
    for word in &words {
        *truth.entry(word.clone()).or_insert(0u64) += 1;
    }
    for (word, count) in &truth {
        if *count < 5 {
            assert_eq!(result.database.count(word), 0, "rare word leaked");
        }
    }
    // Everything the analyzer sees was genuinely reported.
    for (value, count) in result.database.histogram().iter() {
        let true_count = truth.get(value).copied().unwrap_or(0);
        assert!(
            count <= true_count,
            "value counted more often than reported"
        );
    }
}

#[test]
fn every_backend_pipeline_matches_trusted_backend_multiset() {
    let mut rng = StdRng::seed_from_u64(2);
    let run = |backend: ShuffleBackend, rng: &mut StdRng| {
        let pipeline = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .engine(EngineConfig {
                backend,
                num_threads: 0,
            })
            .payload_size(24)
            .build(rng);
        let encoder = pipeline.encoder();
        let reports: Vec<_> = (0..200u64)
            .map(|i| {
                encoder
                    .encode_plain(
                        format!("value-{}", i % 17).as_bytes(),
                        CrowdStrategy::None,
                        i,
                        rng,
                    )
                    .unwrap()
            })
            .collect();
        let result = pipeline.run(&reports, rng).unwrap();
        let mut counts: Vec<(Vec<u8>, u64)> = result
            .database
            .histogram()
            .iter()
            .map(|(v, c)| (v.clone(), c))
            .collect();
        counts.sort();
        counts
    };
    let trusted = run(ShuffleBackend::Trusted, &mut rng);
    assert_eq!(trusted.iter().map(|(_, c)| *c).sum::<u64>(), 200);
    let stash = run(ShuffleBackend::Sgx { params: None }, &mut rng);
    assert_eq!(stash, trusted);
}

#[test]
fn split_pipeline_blinded_crowds_end_to_end() {
    let mut rng = StdRng::seed_from_u64(3);
    let pipeline = Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .share_threshold(5)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let mut reports = Vec::new();
    for i in 0..150u64 {
        reports.push(
            encoder
                .encode_secret_shared(
                    b"popular-url",
                    5,
                    CrowdStrategy::Blind(b"popular-url"),
                    i,
                    &mut rng,
                )
                .unwrap(),
        );
    }
    for i in 0..6u64 {
        reports.push(
            encoder
                .encode_secret_shared(
                    b"secret-url",
                    5,
                    CrowdStrategy::Blind(b"secret-url"),
                    1_000 + i,
                    &mut rng,
                )
                .unwrap(),
        );
    }
    let result = pipeline.run(&reports, &mut rng).unwrap();
    assert!(result.database.count(b"popular-url") >= 120);
    assert_eq!(result.database.count(b"secret-url"), 0);
}

#[test]
fn multiple_batches_merge_into_one_database() {
    let mut rng = StdRng::seed_from_u64(4);
    let pipeline = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(16)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let mut merged = None;
    for day in 0..3u64 {
        let reports: Vec<_> = (0..50u64)
            .map(|i| {
                encoder
                    .encode_plain(
                        b"daily-metric",
                        CrowdStrategy::None,
                        day * 100 + i,
                        &mut rng,
                    )
                    .unwrap()
            })
            .collect();
        let result = pipeline.run(&reports, &mut rng).unwrap();
        match &mut merged {
            None => merged = Some(result.database),
            Some(db) => db.merge_from(&result.database),
        }
    }
    let db = merged.unwrap();
    assert_eq!(db.count(b"daily-metric"), 150);
    assert_eq!(db.rows().len(), 150);
}
