//! Shared helpers for the runnable examples in `src/bin/`.
//!
//! The quickstart pipeline lives here (rather than only in the binary) so
//! the workspace smoke test can drive the exact encode→shuffle→analyze path
//! the example demonstrates.

use std::sync::mpsc;
use std::thread;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, CollectorSummary, EpochPipeline, LocalPipeline,
    ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{
    AnalyzerDatabase, ClientReport, Deployment, Encoder, EpochSpec, PipelineError, PipelineReport,
    ShufflerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The browser share reported by the quickstart clients: `(value, clients)`.
pub const QUICKSTART_BROWSERS: [(&str, u64); 5] = [
    ("chrome", 600),
    ("firefox", 250),
    ("safari", 100),
    ("edge", 48),
    ("netscape-4.7", 2),
];

/// Runs the quickstart ESA round trip: a thousand clients report their web
/// browser with nested encryption and hashed crowd IDs, the shuffler
/// thresholds and shuffles the batch, and the analyzer materializes a
/// histogram. Deterministic given `seed`.
pub fn run_quickstart(seed: u64) -> PipelineReport {
    let mut rng = StdRng::seed_from_u64(seed);

    // A shuffler (threshold 20, Gaussian noise) and an analyzer, each with
    // their own keypair; payloads are padded to 32 bytes before encryption.
    let deployment = Deployment::builder().payload_size(32).build(&mut rng);
    let encoder = deployment.encoder();

    // Clients encode their reports. The crowd ID is a hash of the reported
    // value, so rare values never reach the analyzer at all.
    let mut reports = Vec::new();
    let mut client = 0u64;
    for (browser, count) in QUICKSTART_BROWSERS {
        for _ in 0..count {
            let jitter: u64 = rng.gen_range(0..1_000_000);
            reports.push(
                encoder
                    .encode_plain(
                        browser.as_bytes(),
                        CrowdStrategy::Hash(browser.as_bytes()),
                        client + jitter,
                        &mut rng,
                    )
                    .expect("encode"),
            );
            client += 1;
        }
    }

    deployment.run(&reports, &mut rng).expect("pipeline run")
}

/// What a live-ingestion run produced.
#[derive(Debug)]
pub struct LiveIngestOutcome {
    /// Collector accounting: ingest counters and per-epoch results.
    pub summary: CollectorSummary,
    /// The analyzer databases of all epochs, merged.
    pub database: AnalyzerDatabase,
    /// Canonical serialization of the merged histogram, for replay diffs.
    pub histogram_bytes: Vec<u8>,
}

/// Drives the full serving path over loopback TCP: `client_threads`
/// concurrent simulated clients each encode and submit
/// `reports_per_client` sealed reports (browser shares drawn from
/// [`QUICKSTART_BROWSERS`]) to a collector, which cuts epochs and runs them
/// through the shuffler and analyzer. Blocks until every client finished
/// and the collector drained.
///
/// All client randomness and every epoch's noise derive from `seed`. With a
/// single-epoch configuration (`max_epoch_reports >= ` total reports and a
/// deadline the run cannot hit), the merged histogram is a pure function of
/// `seed` — byte-identical across runs — because the collector
/// canonicalizes each batch before processing.
pub fn run_live_ingest(
    seed: u64,
    client_threads: usize,
    reports_per_client: usize,
    collector_config: CollectorConfig,
) -> LiveIngestOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let deployment = Deployment::builder().payload_size(32).build(&mut rng);
    let client_keys = deployment.client_keys();
    let payload_size = 32;

    let mut config = collector_config;
    config.seed = seed;
    let collector = Collector::start(deployment, config).expect("start collector");
    let addr = collector.local_addr();

    let clients: Vec<_> = (0..client_threads)
        .map(|c| {
            let keys = client_keys.clone();
            #[expect(clippy::disallowed_methods, reason = "per-thread seeded client load")]
            thread::spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ ((c as u64 + 1).wrapping_mul(0x9E37_79B9)));
                let encoder = Encoder::new(keys, payload_size);
                // Workers serve one connection at a time, so with more
                // clients than workers a client can sit queued behind whole
                // submission runs; give the simulator a timeout that a
                // loaded CI machine cannot hit.
                let mut client = CollectorClient::connect_with_timeout(
                    addr,
                    std::time::Duration::from_secs(120),
                )
                .expect("connect to collector");
                for i in 0..reports_per_client {
                    let browser = weighted_browser(&mut rng);
                    let report = encoder
                        .encode_plain(
                            browser.as_bytes(),
                            CrowdStrategy::Hash(browser.as_bytes()),
                            (c * reports_per_client + i) as u64,
                            &mut rng,
                        )
                        .expect("encode");
                    let mut nonce = [0u8; NONCE_LEN];
                    rng.fill_bytes(&mut nonce);
                    let verdict = client
                        .submit_with_retry(&nonce, &report.outer.to_bytes(), 100)
                        .expect("submit");
                    assert!(
                        matches!(verdict, Response::Ack { .. }),
                        "unexpected verdict {verdict:?}"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let summary = collector.shutdown();
    let database = summary.merged_database();
    LiveIngestOutcome {
        histogram_bytes: database.canonical_histogram_bytes(),
        database,
        summary,
    }
}

/// What the backpressure demonstration observed.
#[derive(Debug)]
pub struct BackpressureOutcome {
    /// Submissions the collector accepted while its epoch manager was busy
    /// (equals the queue capacity).
    pub acks: usize,
    /// Submissions answered with `RetryAfter`.
    pub retries: usize,
    /// Collector accounting after the drain; it also counts the one report
    /// of the epoch that kept the epoch manager busy.
    pub summary: CollectorSummary,
}

/// Holds the first batch it is handed until told to go on — the state a
/// saturated collector's epoch manager is in most of the time: busy with an
/// epoch while the queue behind it fills.
struct HeldPipeline {
    inner: LocalPipeline,
    /// Says "busy" on the first batch, then waits for "go on".
    holding: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
}

impl EpochPipeline for HeldPipeline {
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        if let Some((busy, go_on)) = self.holding.take() {
            // A demo that went away just lets the epoch through.
            let _ = busy.send(());
            let _ = go_on.recv();
        }
        self.inner.process(spec, batch)
    }
}

/// Demonstrates the collector's bounded-memory contract. One report opens
/// an epoch that the pipeline holds, so the epoch manager is busy; the
/// client then pushes `submissions` reports at a report queue that holds
/// only `capacity`. The first `capacity` are acknowledged; every one after
/// that is answered `RetryAfter` (and *not* buffered). Once the epoch is let
/// go, the shutdown drain processes exactly the accepted reports.
///
/// (A queue cannot be kept full by asking for epochs larger than it: a full
/// queue cuts.)
pub fn run_backpressure_demo(
    seed: u64,
    capacity: usize,
    submissions: usize,
) -> BackpressureOutcome {
    assert!(submissions > capacity, "demo needs an overflow");
    let mut rng = StdRng::seed_from_u64(seed);
    let deployment = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(32)
        .build(&mut rng);
    let encoder = deployment.encoder();
    let config = CollectorConfig {
        queue_capacity: capacity,
        // Every report is an epoch, cut by count alone: the opening report
        // goes straight to the pipeline, with no deadline to wait out.
        max_epoch_reports: 1,
        epoch_deadline: std::time::Duration::from_secs(600),
        worker_threads: 1,
        seed,
        ..CollectorConfig::default()
    };
    let (busy, is_busy) = mpsc::channel();
    let (go_on, may_go_on) = mpsc::channel();
    let pipeline = HeldPipeline {
        inner: LocalPipeline::new(deployment),
        holding: Some((busy, may_go_on)),
    };
    let collector =
        Collector::start_with_pipeline(Box::new(pipeline), config).expect("start collector");
    let mut client = CollectorClient::connect(collector.local_addr()).expect("connect");
    let mut submit = |value: &[u8], index: u64| {
        let report = encoder
            .encode_plain(value, CrowdStrategy::None, index, &mut rng)
            .expect("encode");
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        client
            .submit(&nonce, &report.outer.to_bytes())
            .expect("submit")
    };

    assert!(matches!(submit(b"opener", 0), Response::Ack { .. }));
    is_busy.recv().expect("the epoch manager takes the opener");
    let mut acks = 0;
    let mut retries = 0;
    for i in 0..submissions {
        match submit(b"pressure", 1 + i as u64) {
            Response::Ack { .. } => acks += 1,
            Response::RetryAfter { .. } => retries += 1,
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    go_on.send(()).expect("the epoch manager is waiting");
    drop(client);
    let summary = collector.shutdown();
    BackpressureOutcome {
        acks,
        retries,
        summary,
    }
}

/// Samples a browser from the [`QUICKSTART_BROWSERS`] share distribution.
fn weighted_browser(rng: &mut StdRng) -> &'static str {
    let total: u64 = QUICKSTART_BROWSERS.iter().map(|(_, n)| n).sum();
    let mut ticket = rng.gen_range(0..total);
    for (browser, weight) in QUICKSTART_BROWSERS {
        if ticket < weight {
            return browser;
        }
        ticket -= weight;
    }
    unreachable!("weights cover the range")
}
