//! Soak harness: a million sealed reports through a live collector.
//!
//! Hundreds of concurrent connections stream sealed reports at one
//! reactor-based [`prochlo_collector::Collector`] while the epoch manager
//! cuts and processes full-crypto epochs behind it. The harness proves the
//! event-driven serving path at a scale the old thread-per-connection pool
//! could not touch (the default 256 connections are 64× the default
//! four event-loop threads) and under **bounded memory**: nothing is
//! materialized per report. Clients cycle a small pool of pre-sealed
//! reports — replay dedup is nonce-keyed, so every submission carries a
//! fresh random nonce and the ciphertext bytes can repeat — and the
//! collector's report queue is the only buffer, bounded by construction.
//!
//! At the end the harness asserts **zero lost and zero double-counted**
//! reports: every acknowledged submission, and only those, appears once in
//! the epoch accounting and in the merged analyzer database. It prints
//! sustained reports/sec, epoch-cut latency percentiles (via
//! [`prochlo_stats::percentile`] over each epoch's `process_seconds`), and
//! the serving-layer telemetry (`collector.conns.*`, `net.loop.turn`).
//!
//! Scale knobs (all hard-error on invalid values):
//!
//! * `PROCHLO_SOAK_REPORTS` — total reports (default 1 000 000);
//! * `PROCHLO_SOAK_CONNS` — concurrent connections (default 256);
//! * `PROCHLO_SOAK_THREADS` — submitter threads, each multiplexing its
//!   share of the connections (default 8, `0` = every core);
//! * `PROCHLO_SOAK_EPOCH_REPORTS` — reports per epoch cut (default 50 000).
//!
//! Run with: `cargo run -p prochlo-examples --release --bin soak`

use std::sync::Arc;
use std::time::{Duration, Instant};

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, EngineConfig, ShufflerConfig};
use prochlo_examples::knobs;
use prochlo_stats::percentile;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Seed for the deployment, the sealed-report pool, and every epoch's
/// noise.
const SEED: u64 = 0x50AC;

/// Pre-sealed reports the clients cycle through; the whole corpus the
/// harness ever materializes.
const POOL_REPORTS: usize = 1024;

/// Retry budget per submission against a backpressuring queue. At the
/// capped 1 s sleep per retry this is hours of patience — a soak failure
/// here means the collector stopped draining, not that it was slow.
const RETRY_BUDGET: usize = 100_000;

fn knob<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// One BENCHJSON metric line, the format `bench_compare` greps back out.
fn emit_metric(metric: &str, value: f64) {
    println!("BENCHJSON {{\"bench\":\"soak\",\"metric\":\"{metric}\",\"value\":{value:.1}}}");
}

fn main() {
    let total_reports = knob(knobs::soak_reports());
    let conns = knob(knobs::soak_conns());
    let threads = knob(knobs::soak_threads()).min(conns);
    let epoch_reports = knob(knobs::soak_epoch_reports());
    let engine = EngineConfig::default();
    println!(
        "soak: {total_reports} reports over {conns} connections ({threads} submitter threads), \
         epoch cut every {epoch_reports} reports, backend={}",
        engine.backend.name(),
    );

    // The deployment and the sealed pool are a pure function of the seed.
    // Thresholding is off so the final database count is exact: every
    // accepted report must surface, which is the zero-loss assertion.
    let mut rng = StdRng::seed_from_u64(SEED);
    let deployment = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(32)
        .build(&mut rng);
    let encoder = deployment.encoder();
    let pool: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..POOL_REPORTS)
            .map(|i| {
                encoder
                    .encode_plain(b"soak", CrowdStrategy::None, i as u64, &mut rng)
                    .expect("seal report")
                    .outer
                    .to_bytes()
            })
            .collect(),
    );

    let registry = Arc::new(prochlo_obs::Registry::new(true));
    let collector = Collector::start(
        deployment,
        CollectorConfig {
            worker_threads: 4,
            conn_backlog: conns + 64,
            queue_capacity: (2 * epoch_reports).max(1 << 14),
            max_epoch_reports: epoch_reports,
            epoch_deadline: Duration::from_secs(1),
            // Generous progress deadline: a connection can sit idle while
            // its submitter thread waits out backpressure on a sibling.
            io_timeout: Duration::from_secs(60),
            seed: SEED,
            engine: Some(engine),
            registry: Some(Arc::clone(&registry)),
            ..CollectorConfig::default()
        },
    )
    .expect("start collector");
    let addr = collector.local_addr();

    // Submitters: each thread owns `conns / threads` connections and
    // round-robins its share of the stream over them, so every connection
    // stays open and active for the whole run.
    #[expect(clippy::disallowed_methods, reason = "times the submit phase")]
    let started = Instant::now();
    let submitters: Vec<_> = (0..threads)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let my_conns = conns / threads + usize::from(t < conns % threads);
            let my_reports = total_reports / threads + usize::from(t < total_reports % threads);
            #[expect(clippy::disallowed_methods, reason = "per-thread seeded client load")]
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ ((t as u64 + 1) * 0x9E37_79B9));
                let mut clients: Vec<CollectorClient> = (0..my_conns)
                    .map(|_| {
                        CollectorClient::connect_with_timeout(addr, Duration::from_secs(120))
                            .expect("connect")
                    })
                    .collect();
                let mut acks = 0usize;
                for i in 0..my_reports {
                    let client = &mut clients[i % my_conns];
                    let body = &pool[(t + i * threads) % pool.len()];
                    let mut nonce = [0u8; NONCE_LEN];
                    rng.fill_bytes(&mut nonce);
                    let verdict = client
                        .submit_with_retry(&nonce, body, RETRY_BUDGET)
                        .expect("submit");
                    assert!(
                        matches!(verdict, Response::Ack { .. }),
                        "unexpected verdict {verdict:?}"
                    );
                    acks += 1;
                }
                acks
            })
        })
        .collect();
    let acks: usize = submitters
        .into_iter()
        .map(|t| t.join().expect("submitter thread"))
        .sum();
    let submit_seconds = started.elapsed().as_secs_f64();

    let summary = collector.shutdown();
    let stats = &summary.stats;
    let database = summary.merged_database();

    // Zero lost, zero double-counted: every acknowledged report — and only
    // those — appears exactly once in the queue accounting, the epoch
    // accounting, and the merged histogram.
    assert_eq!(acks, total_reports, "every submission must be acknowledged");
    assert_eq!(stats.ingest.accepted, acks as u64, "accepted == acked");
    assert_eq!(stats.ingest.duplicates, 0, "no nonce was double-counted");
    assert_eq!(
        stats.reports_processed, acks as u64,
        "every accepted report reached an epoch"
    );
    let epoch_total: usize = summary.epochs.iter().map(|e| e.reports).sum();
    assert_eq!(epoch_total, acks, "epoch batches account for every report");
    assert_eq!(
        database.count(b"soak"),
        acks as u64,
        "the merged histogram counts every report exactly once"
    );

    let rate = acks as f64 / submit_seconds;
    println!(
        "sustained: {acks} reports in {submit_seconds:.1}s = {rate:.0} reports/sec \
         ({} epochs, {} connections accepted, {} refused, {} evicted, peak queue {})",
        summary.epochs.len(),
        stats.connections,
        stats.connections_refused,
        stats.connections_evicted,
        stats.ingest.peak_queue_depth,
    );

    let cut_ms: Vec<f64> = summary
        .epochs
        .iter()
        .map(|e| e.process_seconds * 1000.0)
        .collect();
    let (p50, p90, p99) = (
        percentile(&cut_ms, 50.0),
        percentile(&cut_ms, 90.0),
        percentile(&cut_ms, 99.0),
    );
    println!("epoch-cut latency: p50 {p50:.1} ms, p90 {p90:.1} ms, p99 {p99:.1} ms");

    // The serving-layer telemetry the reactor threads recorded: connection
    // gauges and the per-turn event-loop span.
    let snap = registry.snapshot();
    println!(
        "serving layer: conns accepted {} / evicted {} / open at exit {}, \
         {} event-loop turns",
        snap.get("collector.conns.accepted").unwrap_or(0.0),
        snap.get("collector.conns.evicted").unwrap_or(0.0),
        snap.get("collector.conns.open").unwrap_or(-1.0),
        snap.get("net.loop.turn").unwrap_or(0.0),
    );

    emit_metric("reports_per_sec", rate);
    emit_metric("epoch_cut_p50_ms", p50);
    emit_metric("epoch_cut_p99_ms", p99);
}
