//! End-to-end tests of the serving layer: concurrent clients over loopback
//! TCP, through the collector's parse/dedup/batch path, into the shuffler
//! and analyzer.

use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::{ClientKeys, CrowdStrategy, Encoder};
use prochlo_core::{Deployment, ShufflerConfig};
use prochlo_crypto::elgamal::ElGamalKeypair;
use prochlo_examples::{run_backpressure_demo, run_live_ingest};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A single-epoch configuration: the count is the exact run total and the
/// deadline is unreachable, so epoch membership — and with it the whole run
/// — is a pure function of the seed.
fn single_epoch_config(total_reports: usize) -> CollectorConfig {
    CollectorConfig {
        worker_threads: 4,
        max_epoch_reports: total_reports,
        epoch_deadline: Duration::from_secs(600),
        ..CollectorConfig::default()
    }
}

#[test]
fn ten_thousand_reports_replay_byte_identically() {
    // ISSUE acceptance: >= 10k simulated sealed reports over loopback TCP,
    // one epoch cut, and the analyzer's histogram byte-identical across two
    // identically-seeded runs.
    const CLIENTS: usize = 10;
    const PER_CLIENT: usize = 1000;
    let first = run_live_ingest(0xe2e, CLIENTS, PER_CLIENT, single_epoch_config(10_000));
    let second = run_live_ingest(0xe2e, CLIENTS, PER_CLIENT, single_epoch_config(10_000));

    assert_eq!(first.summary.stats.ingest.accepted, 10_000);
    assert_eq!(first.summary.stats.reports_processed, 10_000);
    assert_eq!(first.summary.epochs.len(), 1, "one epoch cut");
    let report = first.summary.epochs[0].outcome.as_ref().expect("epoch ok");
    assert_eq!(report.shuffler_stats.received, 10_000);
    assert!(report.shuffler_stats.forwarded > 9_000);

    // The replay agrees byte for byte.
    assert!(!first.histogram_bytes.is_empty());
    assert_eq!(first.histogram_bytes, second.histogram_bytes);
    assert_eq!(
        first.database.rows().len(),
        second.database.rows().len(),
        "row multisets must match too"
    );

    // A different seed produces a different histogram (different noise and
    // different client draws).
    let other = run_live_ingest(0xd1f, CLIENTS, PER_CLIENT, single_epoch_config(10_000));
    assert_ne!(first.histogram_bytes, other.histogram_bytes);
}

#[test]
fn full_queue_yields_retry_after_not_acceptance() {
    // ISSUE acceptance: a full queue answers RetryAfter (bounded memory)
    // rather than accepting the report.
    let outcome = run_backpressure_demo(0xbacc, 8, 12);
    assert_eq!(outcome.acks, 8, "exactly the queue capacity is accepted");
    assert_eq!(outcome.retries, 4, "the overflow is backpressured");
    assert_eq!(
        outcome.summary.stats.ingest.peak_queue_depth, 8,
        "the queue never grew past its capacity"
    );
    assert_eq!(outcome.summary.stats.ingest.backpressured, 4);
    // The drain processed exactly the accepted reports — and the one report
    // of the epoch that kept the epoch manager busy meanwhile.
    assert_eq!(outcome.summary.stats.ingest.accepted, 9);
    assert_eq!(outcome.summary.stats.reports_processed, 9);
    assert_eq!(outcome.summary.merged_database().count(b"pressure"), 8);
}

#[test]
fn replayed_reports_are_counted_once() {
    let mut rng = StdRng::seed_from_u64(77);
    let pipeline = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(32)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let config = CollectorConfig {
        worker_threads: 1,
        epoch_deadline: Duration::from_millis(50),
        ..CollectorConfig::default()
    };
    let collector = Collector::start(pipeline, config).unwrap();
    let mut client = CollectorClient::connect(collector.local_addr()).unwrap();

    let report = encoder
        .encode_plain(b"once", CrowdStrategy::None, 0, &mut rng)
        .unwrap();
    let bytes = report.outer.to_bytes();
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);

    // An adversary (or a flaky network layer) replays the same submission
    // five times; only the first is accepted.
    assert!(matches!(
        client.submit(&nonce, &bytes).unwrap(),
        Response::Ack { .. }
    ));
    for _ in 0..4 {
        assert_eq!(client.submit(&nonce, &bytes).unwrap(), Response::Duplicate);
    }
    drop(client);
    let summary = collector.shutdown();
    assert_eq!(summary.stats.ingest.accepted, 1);
    assert_eq!(summary.stats.ingest.duplicates, 4);
    assert_eq!(summary.merged_database().count(b"once"), 1);
}

#[test]
fn shutdown_drains_partial_epochs() {
    let mut rng = StdRng::seed_from_u64(88);
    let pipeline = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(32)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    // Neither the count nor the deadline can trigger during the test; only
    // the graceful-shutdown drain can cut the epoch.
    let config = CollectorConfig {
        worker_threads: 2,
        max_epoch_reports: 1_000_000,
        epoch_deadline: Duration::from_secs(600),
        ..CollectorConfig::default()
    };
    let collector = Collector::start(pipeline, config).unwrap();
    let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
    for i in 0..25u64 {
        let report = encoder
            .encode_plain(b"draining", CrowdStrategy::None, i, &mut rng)
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
    assert_eq!(summary.stats.epochs_cut, 1, "the drain cut the final epoch");
    assert_eq!(summary.stats.reports_processed, 25);
    assert_eq!(summary.merged_database().count(b"draining"), 25);
}

#[test]
fn a_hostile_well_formed_report_does_not_fail_the_epoch() {
    // One client among 200 seals a blinded crowd ID the single shuffler
    // cannot count. The collector acknowledged all 201 reports, so the
    // epoch must process all 201: the hostile one is rejected inside the
    // shuffler, and nobody else's acknowledged report is dropped with it.
    let mut rng = StdRng::seed_from_u64(99);
    let pipeline = Deployment::builder().payload_size(32).build(&mut rng);
    let honest = pipeline.encoder();
    let elgamal = ElGamalKeypair::generate(&mut rng);
    let hostile = Encoder::new(
        ClientKeys {
            crowd_blinding: Some(*elgamal.public_key()),
            ..pipeline.client_keys()
        },
        32,
    );
    let registry = Arc::new(prochlo_obs::Registry::new(true));
    let config = CollectorConfig {
        registry: Some(Arc::clone(&registry)),
        ..single_epoch_config(201)
    };
    let collector = Collector::start(pipeline, config).unwrap();
    let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
    for i in 0..201u64 {
        let report = if i == 100 {
            hostile.encode_plain(b"chrome", CrowdStrategy::Blind(b"chrome"), i, &mut rng)
        } else {
            honest.encode_plain(b"chrome", CrowdStrategy::Hash(b"chrome"), i, &mut rng)
        }
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
    assert_eq!(summary.stats.ingest.accepted, 201);
    assert_eq!(summary.stats.reports_processed, 201);
    assert_eq!(registry.snapshot().get("collector.epoch.failed"), Some(0.0));
    assert_eq!(summary.epochs.len(), 1);
    let report = summary.epochs[0].outcome.as_ref().expect("epoch ok");
    assert_eq!(report.shuffler_stats.rejected, 1);
    assert!(report.database.count(b"chrome") > 150);
}
