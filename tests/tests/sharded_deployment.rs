//! End-to-end test of the sharded topology: reports routed by crowd-ID
//! prefix through a `ShardRouter` over loopback TCP to collector shards,
//! each with its own keys, must merge analyzer-side into the same
//! histogram a single deployment produces.

use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{
    crowd_prefix, AnalyzerDatabase, ClientReport, Deployment, EpochSpec, ShardedDeployment,
    ShufflerConfig,
};
use prochlo_fabric::{RouterConfig, ShardRouter};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A workload with enough distinct crowds to populate several shards:
/// `(value, reports)`, each value its own crowd.
const WORKLOAD: [(&str, usize); 6] = [
    ("chrome", 90),
    ("firefox", 70),
    ("safari", 55),
    ("edge", 45),
    ("brave", 40),
    ("netscape", 35),
];

/// Collector shards behind the router.
const SHARDS: usize = 4;

/// The workload's reports, each encoded by `encoder_for(value)`, with the
/// value as its hashed crowd ID.
fn encode<'a>(
    encoder_for: impl Fn(&str) -> &'a Deployment,
    rng: &mut StdRng,
) -> Vec<(&'static str, ClientReport)> {
    let mut reports = Vec::new();
    let mut client = 0u64;
    for (value, count) in WORKLOAD {
        let encoder = encoder_for(value).encoder();
        for _ in 0..count {
            let report = encoder
                .encode_plain(
                    value.as_bytes(),
                    CrowdStrategy::Hash(value.as_bytes()),
                    client,
                    rng,
                )
                .unwrap();
            reports.push((value, report));
            client += 1;
        }
    }
    reports
}

/// One epoch per shard of `reports`, each submitted routed under its
/// crowd's prefix to a `ShardRouter` in front of one collector shard per
/// deployment; the shards' databases merge.
fn ingest_routed(shards: Vec<Deployment>, reports: &[(&str, ClientReport)]) -> AnalyzerDatabase {
    let collectors: Vec<Collector> = shards
        .into_iter()
        .map(|deployment| {
            Collector::start(
                deployment,
                CollectorConfig {
                    worker_threads: 1,
                    epoch_deadline: Duration::from_secs(600),
                    ..CollectorConfig::default()
                },
            )
            .expect("collector shard starts")
        })
        .collect();
    let addrs: Vec<_> = collectors.iter().map(Collector::local_addr).collect();
    let router = ShardRouter::start(
        RouterConfig {
            worker_threads: 1,
            ..RouterConfig::default()
        },
        Box::new(move || {
            addrs
                .iter()
                .map(|&addr| {
                    CollectorClient::connect(addr)
                        .map(|client| Box::new(client) as Box<dyn ReportSink + Send>)
                })
                .collect()
        }),
    )
    .expect("router starts");
    let mut client = CollectorClient::connect(router.local_addr()).expect("router accepts");
    for (index, (value, report)) in reports.iter().enumerate() {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&(index as u64).to_le_bytes());
        let verdict = client
            .submit_routed(
                crowd_prefix(value.as_bytes()),
                &nonce,
                &report.outer.to_bytes(),
            )
            .expect("routed submit");
        assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
    }
    drop(client);
    assert_eq!(router.shutdown().routed, reports.len() as u64);
    let mut merged = AnalyzerDatabase::default();
    for collector in collectors {
        merged.merge_from(&collector.shutdown().merged_database());
    }
    merged
}

#[test]
fn sharded_ingest_merges_to_the_single_deployment_histogram() {
    // Without thresholding there are no noise draws, so the sharded merge
    // must equal a single-shard run *exactly*, not just approximately.
    let config = || ShufflerConfig::default().without_thresholding();
    let shard_of = |value: &str| {
        ShardedDeployment::shard_index_from_prefix(crowd_prefix(value.as_bytes()), SHARDS)
    };

    // The workload must genuinely fan out (>= 3 populated shards) — if the
    // crowd set ever hashes into fewer shards, widen the workload instead
    // of weakening this assertion.
    let mut populated: Vec<usize> = WORKLOAD.iter().map(|(value, _)| shard_of(value)).collect();
    populated.sort_unstable();
    populated.dedup();
    assert!(
        populated.len() >= 3,
        "only {} shards populated",
        populated.len()
    );

    let mut rng = StdRng::seed_from_u64(0x5a4d);
    let shards: Vec<Deployment> = (0..SHARDS)
        .map(|_| Deployment::builder().config(config()).build(&mut rng))
        .collect();
    let reports = encode(|value| &shards[shard_of(value)], &mut rng);
    let merged = ingest_routed(shards, &reports);

    // The same workload through one unsharded deployment.
    let mut rng = StdRng::seed_from_u64(0x0de9);
    let single = Deployment::builder().config(config()).build(&mut rng);
    let reports: Vec<ClientReport> = encode(|_| &single, &mut rng)
        .into_iter()
        .map(|(_, report)| report)
        .collect();
    let single_report = single.ingest(&EpochSpec::new(0, 0xfeed), &reports).unwrap();

    assert_eq!(
        merged.canonical_histogram_bytes(),
        single_report.database.canonical_histogram_bytes(),
        "sharded merge must equal the single-shard histogram"
    );
    let total: usize = WORKLOAD.iter().map(|(_, n)| n).sum();
    assert_eq!(merged.rows().len(), total);
}
