//! Cross-crate tests of the shuffle-engine layer: determinism of the
//! parallel batch path across thread counts, backend selection through the
//! collector, and the phase-timing/stat contract.

use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{
    Deployment, EngineConfig, EpochSpec, ShuffleBackend, ShufflerConfig, ShufflerStats,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One seeded pipeline run: encode a mixed-crowd batch, ingest it as epoch 3
/// with the given backend and worker count, return the canonical histogram
/// bytes and the shuffler stats.
fn seeded_run(backend: &ShuffleBackend, num_threads: usize) -> (Vec<u8>, ShufflerStats) {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let pipeline = Deployment::builder()
        .engine(EngineConfig {
            backend: backend.clone(),
            num_threads,
        })
        .payload_size(32)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let mut reports = Vec::new();
    let mut client = 0u64;
    // Two crowds above the threshold, one far below it (suppressed), plus a
    // handful of no-crowd reports that bypass thresholding.
    for (value, count) in [("alpha", 160usize), ("beta", 90), ("rare", 4)] {
        for _ in 0..count {
            reports.push(
                encoder
                    .encode_plain(
                        value.as_bytes(),
                        CrowdStrategy::Hash(value.as_bytes()),
                        client,
                        &mut rng,
                    )
                    .unwrap(),
            );
            client += 1;
        }
    }
    for _ in 0..10 {
        reports.push(
            encoder
                .encode_plain(b"free", CrowdStrategy::None, client, &mut rng)
                .unwrap(),
        );
        client += 1;
    }
    let report = pipeline
        .ingest(&EpochSpec::new(3, 0xfeed), &reports)
        .unwrap();
    (
        report.database.canonical_histogram_bytes(),
        report.shuffler_stats,
    )
}

#[test]
fn parallel_output_is_byte_identical_to_sequential_for_every_backend() {
    for backend in ShuffleBackend::all() {
        let (sequential, seq_stats) = seeded_run(&backend, 1);
        let (parallel, par_stats) = seeded_run(&backend, 8);
        // num_threads = 0 resolves through the PROCHLO_SHUFFLE_THREADS env
        // knob (CI runs this suite at 1 and at 4): whatever it resolves to
        // must also be byte-identical.
        let (env_resolved, _) = seeded_run(&backend, 0);
        assert_eq!(
            sequential,
            env_resolved,
            "{}: env-resolved thread count must agree with threads=1",
            backend.name()
        );
        assert!(
            !sequential.is_empty(),
            "{}: histogram must not be empty",
            backend.name()
        );
        assert_eq!(
            sequential,
            parallel,
            "{}: threads=1 vs threads=8 must agree byte for byte",
            backend.name()
        );
        // Stats equality ignores wall-clock timings by design.
        assert_eq!(par_stats, seq_stats, "{}", backend.name());
        assert_eq!(par_stats.backend, backend.kind());
        assert!(par_stats.shuffle_attempts >= 1);
        // The suppressed crowd stayed suppressed in both runs.
        assert_eq!(seq_stats.crowds_seen, 3);
        assert!(seq_stats.crowds_forwarded <= 2);
    }
}

#[test]
fn different_backends_agree_on_the_histogram_for_the_same_seed() {
    // The engine consumes exactly one draw from the master epoch stream, so
    // the threshold noise — and therefore the *histogram* — is identical
    // across backends; only the output order differs.
    let reference = seeded_run(&ShuffleBackend::Trusted, 2).0;
    for backend in ShuffleBackend::all() {
        assert_eq!(
            seeded_run(&backend, 2).0,
            reference,
            "{}: histogram must not depend on the engine",
            backend.name()
        );
    }
}

#[test]
fn phase_timings_are_populated_and_excluded_from_equality() {
    let (_, stats) = seeded_run(&ShuffleBackend::Trusted, 2);
    // Phase timings come from obs spans now, so they read zero when the
    // registry is disabled (the PROCHLO_OBS=0 CI leg).
    if prochlo_obs::global().is_enabled() {
        // 264 hybrid decryptions cannot take zero time.
        assert!(stats.timings.peel_seconds > 0.0);
    }
    assert!(stats.timings.total_seconds() >= stats.timings.peel_seconds);

    let mut other = stats.clone();
    other.timings.peel_seconds += 1000.0;
    assert_eq!(stats, other, "timings must not participate in equality");
    other.forwarded += 1;
    assert_ne!(stats, other, "counts must participate in equality");
}

#[test]
fn all_four_backends_are_selectable_through_the_collector() {
    for backend in ShuffleBackend::all() {
        let mut rng = StdRng::seed_from_u64(0xc011);
        let pipeline = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .payload_size(32)
            .build(&mut rng);
        let encoder = pipeline.encoder();
        let config = CollectorConfig {
            worker_threads: 2,
            epoch_deadline: Duration::from_millis(50),
            engine: Some(EngineConfig {
                backend: backend.clone(),
                num_threads: 2,
            }),
            ..CollectorConfig::default()
        };
        let collector = Collector::start(pipeline, config).unwrap();
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..40u64 {
            let report = encoder
                .encode_plain(b"engine-e2e", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            assert!(matches!(
                client.submit(&nonce, &report.outer.to_bytes()).unwrap(),
                Response::Ack { .. }
            ));
        }
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(
            summary.merged_database().count(b"engine-e2e"),
            40,
            "{}: every report must survive the round trip",
            backend.name()
        );
        for epoch in &summary.epochs {
            let report = epoch.outcome.as_ref().expect("epoch ok");
            assert_eq!(report.shuffler_stats.backend, backend.kind());
        }
    }
}
