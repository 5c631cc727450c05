//! End-to-end tests of the telemetry layer: the `STATS` wire request
//! against a live collector, the epoch flight recorder's JSONL export,
//! and the determinism contract (obs on/off changes nothing about
//! pipeline output).

use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, EngineConfig, ShuffleBackend, ShufflerConfig};
use prochlo_examples::run_live_ingest;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn start_collector(seed: u64, config: CollectorConfig) -> (Collector, prochlo_core::Encoder) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pipeline = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(32)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let collector = Collector::start(pipeline, config).expect("start collector");
    (collector, encoder)
}

fn submit_n(
    client: &mut CollectorClient,
    encoder: &prochlo_core::Encoder,
    rng: &mut StdRng,
    n: u64,
) {
    for i in 0..n {
        let report = encoder
            .encode_plain(b"telemetry", CrowdStrategy::None, i, rng)
            .expect("encode");
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let verdict = client
            .submit(&nonce, &report.outer.to_bytes())
            .expect("submit");
        assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
    }
}

/// ISSUE acceptance: a live collector answers `STATS` with its registry
/// snapshot, and the counters agree with the `CollectorSummary` the same
/// run returns at shutdown.
#[test]
fn live_stats_snapshot_matches_collector_summary() {
    let registry = Arc::new(prochlo_obs::Registry::new(true));
    let config = CollectorConfig {
        worker_threads: 2,
        max_epoch_reports: 1_000_000,
        epoch_deadline: Duration::from_secs(600),
        registry: Some(Arc::clone(&registry)),
        ..CollectorConfig::default()
    };
    let (collector, encoder) = start_collector(0x0b5, config);
    let mut rng = StdRng::seed_from_u64(0x0b5 + 1);
    let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
    submit_n(&mut client, &encoder, &mut rng, 17);

    // The wire snapshot, taken while the collector is still serving.
    let entries = client.stats().expect("STATS");
    let get = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(get("collector.ingest.accepted"), 17.0);
    assert_eq!(get("collector.ingest.duplicates"), 0.0);
    assert_eq!(get("collector.ingest.submit.count"), 17.0);
    assert!(get("collector.ingest.submit.sum_seconds") >= 0.0);

    drop(client);
    let summary = collector.shutdown();

    // The live wire counters and the legacy summary describe one run.
    assert_eq!(summary.stats.ingest.accepted, 17);
    assert_eq!(summary.stats.reports_processed, 17);
    let snap = registry.snapshot();
    assert_eq!(
        snap.get("collector.ingest.accepted"),
        Some(summary.stats.ingest.accepted as f64)
    );
    assert_eq!(
        snap.get("collector.epoch.reports"),
        Some(summary.stats.reports_processed as f64)
    );
    assert_eq!(
        snap.get("collector.epoch.cut"),
        Some(summary.stats.epochs_cut as f64)
    );
    // The epoch-processing span fired once per cut epoch.
    assert_eq!(
        snap.get("collector.epoch.process"),
        Some(summary.stats.epochs_cut as f64)
    );
}

/// ISSUE acceptance: with `PROCHLO_OBS_PATH` set, the collector's epoch
/// loop appends one BENCHJSON line per epoch, and `prochlo_bench`'s
/// metric reader parses the file directly.
#[test]
fn flight_log_parses_via_benchjson_reader() {
    let path = std::env::temp_dir().join(format!(
        "prochlo-obs-e2e-flight-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    // The env var is process-global: a concurrently running collector test
    // in this binary could append its own epochs to the same sink while it
    // is set. The assertions below are therefore existential ("our epoch's
    // line is present and correct"), not exhaustive counts.
    std::env::set_var(prochlo_obs::OBS_PATH_ENV, &path);

    let registry = Arc::new(prochlo_obs::Registry::new(true));
    let config = CollectorConfig {
        worker_threads: 2,
        max_epoch_reports: 1_000_000,
        epoch_deadline: Duration::from_secs(600),
        registry: Some(registry),
        ..CollectorConfig::default()
    };
    let (collector, encoder) = start_collector(0xf11, config);
    let mut rng = StdRng::seed_from_u64(0xf11 + 1);
    let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
    submit_n(&mut client, &encoder, &mut rng, 23);
    drop(client);
    let summary = collector.shutdown();
    std::env::remove_var(prochlo_obs::OBS_PATH_ENV);
    assert_eq!(summary.stats.reports_processed, 23);

    let text = std::fs::read_to_string(&path).expect("flight sink exists");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "the epoch cut must leave a record");
    // Every line in the sink is a parseable BENCHJSON metric.
    let parsed: Vec<(String, f64)> = lines
        .iter()
        .map(|line| {
            prochlo_bench::parse_metric_line(line)
                .unwrap_or_else(|| panic!("unparseable flight line: {line}"))
        })
        .collect();
    // Our run's single drain epoch is present with its report count as the
    // headline value.
    assert!(
        parsed
            .iter()
            .any(|(key, value)| key == "flight.collector/epoch_0" && *value == 23.0),
        "missing our epoch record in {parsed:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// The determinism contract: a seeded run produces byte-identical output
/// whether telemetry is recording or not. (CI additionally replays the
/// golden fixtures with `PROCHLO_OBS=0` and `=1` across thread counts;
/// this is the in-process version via the registry switch.)
#[test]
fn pipeline_output_is_identical_with_obs_on_and_off() {
    let config = || CollectorConfig {
        worker_threads: 4,
        max_epoch_reports: 600,
        epoch_deadline: Duration::from_secs(600),
        ..CollectorConfig::default()
    };
    let global = prochlo_obs::global();
    let initially_enabled = global.is_enabled();

    global.set_enabled(true);
    let on = run_live_ingest(0x0b50ff, 3, 200, config());
    // The recorded run drove the analyzer's batched hybrid-open path: its
    // `crypto.open.batch` histogram (the sibling of the decrypt-chunk span,
    // which breaks per-epoch crypto time out of flight records) fired at
    // least once into the global registry.
    let crypto_batches = global
        .snapshot()
        .get("crypto.open.batch")
        .expect("crypto.open.batch histogram must be recorded");
    assert!(crypto_batches >= 1.0, "got {crypto_batches}");
    global.set_enabled(false);
    let off = run_live_ingest(0x0b50ff, 3, 200, config());
    global.set_enabled(initially_enabled);

    assert!(!on.histogram_bytes.is_empty());
    assert_eq!(
        on.histogram_bytes, off.histogram_bytes,
        "telemetry must not perturb the canonical histogram"
    );
    assert!(on.database.rows().eq(off.database.rows()));
    assert_eq!(
        on.summary.stats.reports_processed,
        off.summary.stats.reports_processed
    );

    // The same contract on the Stash engine, whose attempt loop reports
    // each failure kind to the registry: the counters are registered by a
    // recorded run (zeros included) and the shuffled row order — the
    // engine's output — does not depend on whether anyone was counting.
    let stash = || CollectorConfig {
        engine: Some(EngineConfig {
            backend: ShuffleBackend::Sgx { params: None },
            num_threads: 2,
        }),
        ..config()
    };
    global.set_enabled(true);
    let on = run_live_ingest(0x0b50ff, 3, 200, stash());
    let snapshot = global.snapshot();
    for kind in [
        "stash_overflow",
        "stash_undrained",
        "queue_overflow",
        "window_underflow",
    ] {
        let name = format!("shuffle.stash.fail.{kind}");
        assert_eq!(snapshot.get(&name), Some(0.0), "{name}");
    }
    assert!(snapshot.get("shuffle.stash.attempts") >= Some(1.0));
    global.set_enabled(false);
    let off = run_live_ingest(0x0b50ff, 3, 200, stash());
    global.set_enabled(initially_enabled);
    assert_eq!(on.histogram_bytes, off.histogram_bytes);
    assert!(on.database.rows().eq(off.database.rows()));
}
