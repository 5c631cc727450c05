//! Crowd-shaped traffic through the shard router: many blocking clients
//! with **one report in flight each** — the paper's upload pattern, and the
//! opposite of `esa_bench`'s `routed_serve`, whose eight connections
//! pipeline 64 submissions apiece. A client here cannot hand the router a
//! batch; only a reactor turn, which reads every ready connection of its
//! loop, sees enough frames at once to share a forward exchange.
//!
//! It measures, so it is `#[ignore]`d (the exactly-once accounting is still
//! asserted). Uses nothing but the public API, so the same file runs
//! against an older checkout for a paired reading:
//!
//! ```sh
//! cargo test --release -p prochlo-tests --test router_crowd -- --ignored --nocapture
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, EpochPipeline, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::{ClientReport, EpochSpec, PipelineError, PipelineReport};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_fabric::{RouterConfig, ShardRouter};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const ROUTER_LOOPS: usize = 2;
const SHARDS: usize = 2;
const RUN: Duration = Duration::from_secs(3);

/// Drops every epoch batch: the shards only count what they accepted.
struct Discard;

impl EpochPipeline for Discard {
    fn process(
        &mut self,
        _spec: &EpochSpec,
        _batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        Err(PipelineError::MalformedReport("discarded by the driver"))
    }
}

/// Runs `clients` blocking clients against a fresh router for [`RUN`] and
/// returns the acknowledgements per second and the reports per forward
/// exchange (0 under `PROCHLO_OBS=0`, or where the router does not count
/// exchanges).
fn drive(clients: usize) -> (f64, f64) {
    let exchanges = prochlo_obs::counter("fabric.router.exchanges");
    let exchanges_before = exchanges.get();
    let shards: Vec<Collector> = (0..SHARDS)
        .map(|_| {
            let config = CollectorConfig {
                worker_threads: 2,
                queue_capacity: 1 << 20,
                max_epoch_reports: 1 << 16,
                ..CollectorConfig::default()
            };
            Collector::start_with_pipeline(Box::new(Discard), config).expect("start shard")
        })
        .collect();
    let shard_addrs: Vec<_> = shards.iter().map(Collector::local_addr).collect();
    let router = ShardRouter::start(
        RouterConfig {
            worker_threads: ROUTER_LOOPS,
            ..RouterConfig::default()
        },
        Box::new(move || {
            shard_addrs
                .iter()
                .map(|&addr| {
                    CollectorClient::connect(addr)
                        .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
                })
                .collect()
        }),
    )
    .expect("start router");

    let mut rng = StdRng::seed_from_u64(0x50AC);
    let recipient = HybridKeypair::generate(&mut rng);
    let report = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", b"payload")
        .expect("seal")
        .to_bytes();

    let (addr, stop) = (router.local_addr(), AtomicBool::new(false));
    let start = Barrier::new(clients + 1);
    let (acked, elapsed) = std::thread::scope(|scope| {
        let crowd: Vec<_> = (0..clients)
            .map(|id| {
                let (report, start, stop) = (&report, &start, &stop);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(id as u64);
                    let mut client = CollectorClient::connect(addr).expect("connect");
                    let mut nonce = [0u8; NONCE_LEN];
                    nonce[..8].copy_from_slice(&(id as u64).to_le_bytes());
                    start.wait();
                    let mut acked = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        nonce[8..].copy_from_slice(&acked.to_le_bytes());
                        let verdict = client
                            .submit_routed(rng.next_u64(), &nonce, report)
                            .expect("submit");
                        assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
                        acked += 1;
                    }
                    acked
                })
            })
            .collect();
        start.wait();
        let started = Instant::now();
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Relaxed);
        let acked: u64 = crowd
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .sum();
        (acked, started.elapsed())
    });

    let stats = router.shutdown();
    let accepted: u64 = shards
        .into_iter()
        .map(|shard| shard.shutdown().stats.ingest.accepted)
        .sum();
    // Acknowledged means counted, exactly once, whatever the batching.
    assert_eq!((stats.routed, stats.forward_failures), (acked, 0));
    assert_eq!(accepted, acked);
    let per_exchange = match exchanges.get() - exchanges_before {
        0 => 0.0,
        exchanges => acked as f64 / exchanges as f64,
    };
    (acked as f64 / elapsed.as_secs_f64(), per_exchange)
}

#[test]
#[ignore = "a measurement: run it in release, on an idle host, with --nocapture"]
fn a_crowd_with_one_report_in_flight_each() {
    for clients in [64, 256] {
        let (acks_per_s, per_exchange) = drive(clients);
        println!(
            "router_crowd: {clients} clients x 1 in flight, {ROUTER_LOOPS} router loops, \
             {SHARDS} shards: {acks_per_s:.0} acks/s, {per_exchange:.1} reports per exchange"
        );
    }
}
