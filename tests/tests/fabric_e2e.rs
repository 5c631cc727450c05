//! End-to-end determinism of the fabric: the wire-level split shuffler
//! (Phase B) reproduces the in-process `ShardedDeployment` split run byte
//! for byte — pinned against the committed golden fixture — and the shard
//! router (Phase A) preserves every report's count through a real
//! multi-collector TCP topology.
//!
//! The fixture line `split <hex>` in
//! `tests/fixtures/golden_epoch_histogram.txt` was captured from the
//! in-process `ShardedDeployment::ingest` run below. If this test fails,
//! the wire topology (or the sharded seed derivation) drifted from the
//! single-process semantics — fix the regression, do not re-capture.

use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::exec::mix_seed;
use prochlo_core::{
    canonicalize, AnalyzerDatabase, ClientReport, Deployment, EpochSpec, PipelineReport,
    ShardedDeployment, ShufflerConfig, Topology,
};
use prochlo_fabric::transport::WireMessage;
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, LoopbackHub, Peer, RemoteSplitPipeline, RouterConfig,
    ShardRouter, ShardSummary, Transport,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const FIXTURE: &str = include_str!("../fixtures/golden_epoch_histogram.txt");

/// The construction seed and epoch spec the fixture was captured under —
/// the same constants as `golden_compat.rs`.
const BUILD_SEED: u64 = 0x601d;
const EPOCH_INDEX: u64 = 9;
const EPOCH_SEED: u64 = 0xfeed;
const NUM_SHARDS: usize = 2;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn expected_hex(line_name: &str) -> String {
    FIXTURE
        .lines()
        .find_map(|line| {
            line.strip_prefix(line_name)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .unwrap_or_else(|| panic!("fixture has no line named {line_name:?}"))
        .trim()
        .to_string()
}

/// The captured sharded workload: two split-topology shards with their own
/// keys, and every report encoded against the shard its crowd routes to.
/// Partitions are pre-canonicalized (sorted by outer-ciphertext bytes) so
/// the in-process reference ingests exactly the order the wire pipeline
/// canonicalizes to.
fn sharded_workload() -> (ShardedDeployment, Vec<Vec<ClientReport>>) {
    let mut rng = StdRng::seed_from_u64(BUILD_SEED);
    let sharded = ShardedDeployment::build(
        Deployment::builder()
            .shuffler(Topology::Split)
            .payload_size(32),
        NUM_SHARDS,
        &mut rng,
    );
    let mut batches = vec![Vec::new(); NUM_SHARDS];
    let mut client = 0u64;
    for (value, count) in [
        ("alpha", 150usize),
        ("beta", 60),
        ("gamma", 90),
        ("rare", 3),
    ] {
        let label = value.as_bytes();
        let shard = sharded.shard_for_crowd(label);
        let encoder = sharded.shard(shard).encoder();
        for _ in 0..count {
            batches[shard].push(
                encoder
                    .encode_plain(label, CrowdStrategy::Blind(label), client, &mut rng)
                    .unwrap(),
            );
            client += 1;
        }
    }
    for batch in &mut batches {
        canonicalize(batch);
    }
    (sharded, batches)
}

/// Runs one shard's epoch through the wire topology: S1 and S2 service
/// loops on their own threads, the shard's `RemoteSplitPipeline` in the
/// caller's. Each `ShardedDeployment` shard has its own keys, so each
/// shard gets its own shuffler pair — a per-shard fabric.
fn wire_epoch(
    deployment: &Deployment,
    spec: &EpochSpec,
    batch: Vec<ClientReport>,
) -> PipelineReport {
    let split = deployment.role().as_split().expect("split topology");
    let one = split.one.clone();
    let elgamal = *split.two.elgamal_public();
    let hub = LoopbackHub::new();
    let s1_transport = hub.endpoint(Peer::ShufflerOne);
    let s2_transport = hub.endpoint(Peer::ShufflerTwo);
    let shard_transport: Arc<dyn Transport> = Arc::new(hub.endpoint(Peer::Shard(0)));
    std::thread::scope(|scope| {
        let s1 = scope.spawn(move || serve_shuffler_one(&s1_transport, &one, &elgamal, 1).unwrap());
        let s2 = scope.spawn(|| {
            serve_shuffler_two(&s2_transport, &deployment.role().as_split().unwrap().two).unwrap()
        });
        let mut pipeline =
            RemoteSplitPipeline::new(shard_transport, 0, deployment.analyzer().clone());
        use prochlo_collector::EpochPipeline;
        let report = pipeline.process(spec, batch).unwrap();
        pipeline.finish().unwrap();
        s1.join().unwrap();
        s2.join().unwrap();
        report
    })
}

#[test]
fn wire_split_topology_matches_the_sharded_reference_and_fixture() {
    let (sharded, batches) = sharded_workload();
    for (index, batch) in batches.iter().enumerate() {
        assert!(
            !batch.is_empty(),
            "workload must populate shard {index}; pick different labels"
        );
    }

    // In-process reference: the sharded split run the fixture pins.
    let spec = EpochSpec::new(EPOCH_INDEX, EPOCH_SEED);
    let reference = sharded.ingest(&spec, &batches).unwrap();
    assert_eq!(
        hex(&reference.database.canonical_histogram_bytes()),
        expected_hex("split"),
        "in-process sharded split run must match the committed fixture"
    );

    // Wire run: each shard ships its canonical batch over its own fabric,
    // under the same derived per-shard seed ShardedDeployment uses.
    let mut merged = AnalyzerDatabase::default();
    for (index, batch) in batches.iter().enumerate() {
        let shard_spec = EpochSpec::new(EPOCH_INDEX, mix_seed(EPOCH_SEED, index as u64));
        let report = wire_epoch(sharded.shard(index), &shard_spec, batch.clone());

        let in_process = reference.shards[index].as_ref().expect("populated shard");
        assert!(
            report.database.rows().eq(in_process.database.rows()),
            "shard {index}: wire database must match the in-process run row for row"
        );
        assert_eq!(report.shuffler_stats, in_process.shuffler_stats);
        assert_eq!(report.stage_stats, in_process.stage_stats);

        // Drive the driver-side merge path: fold the shard result through
        // the ShardSummary wire encoding before merging, like fabric_demo.
        let summary = ShardSummary {
            shard: index as u16,
            epoch_index: EPOCH_INDEX,
            rows: report.database.rows().map(<[u8]>::to_vec).collect(),
            undecryptable: report.database.undecryptable(),
            pending_secret_groups: report.database.pending_secret_groups(),
            pending_secret_reports: report.database.pending_secret_reports(),
            recovered_secrets: report.database.recovered_secrets(),
            stats: report.shuffler_stats.clone(),
        };
        let summary = ShardSummary::from_wire(&summary.to_wire()).unwrap();
        merged.merge_from(&AnalyzerDatabase::from_rows(summary.rows));
    }
    assert_eq!(
        hex(&merged.canonical_histogram_bytes()),
        expected_hex("split"),
        "wire topology must land on the committed fixture byte for byte"
    );
    assert!(merged.rows().eq(reference.database.rows()));
}

#[test]
fn one_shuffler_pair_serves_two_shards_of_one_deployment() {
    // Two collector shards can also front the *same* deployment (shared
    // keys, partitioned ingest). One S1/S2 pair then serves both shard
    // streams — S1 in shard order, with the later shard's batch waiting in
    // its inbox — and the merged result must equal the same partitions
    // ingested in-process.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let deployment = Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .build(&mut rng);
    let encoder = deployment.encoder();
    let mut batches: Vec<Vec<ClientReport>> = vec![Vec::new(), Vec::new()];
    let mut client = 0u64;
    for (value, count) in [("left", 80usize), ("right", 70), ("also-right", 40)] {
        let label = value.as_bytes();
        let shard = ShardedDeployment::shard_index(label, 2);
        for _ in 0..count {
            batches[shard].push(
                encoder
                    .encode_plain(label, CrowdStrategy::Blind(label), client, &mut rng)
                    .unwrap(),
            );
            client += 1;
        }
    }
    assert!(
        batches.iter().all(|b| !b.is_empty()),
        "both shards need traffic"
    );
    for batch in &mut batches {
        canonicalize(batch);
    }

    // In-process reference: each partition under its shard-derived seed.
    let mut reference = AnalyzerDatabase::default();
    for (index, batch) in batches.iter().enumerate() {
        let spec = EpochSpec::new(3, mix_seed(0xabc, index as u64));
        reference.merge_from(&deployment.ingest(&spec, batch).unwrap().database);
    }

    let split = deployment.role().as_split().expect("split topology");
    let one = split.one.clone();
    let elgamal = *split.two.elgamal_public();
    let hub = LoopbackHub::new();
    let s1_transport = hub.endpoint(Peer::ShufflerOne);
    let s2_transport = hub.endpoint(Peer::ShufflerTwo);
    let merged = std::thread::scope(|scope| {
        scope.spawn(move || serve_shuffler_one(&s1_transport, &one, &elgamal, 2).unwrap());
        scope.spawn(|| {
            serve_shuffler_two(&s2_transport, &deployment.role().as_split().unwrap().two).unwrap()
        });
        // Shard 1 submits *before* shard 0: S1 still serves shard 0 first,
        // so shard 1's batch buffers until shard 0's done marker arrives.
        let shard1 = scope.spawn({
            let transport: Arc<dyn Transport> = Arc::new(hub.endpoint(Peer::Shard(1)));
            let analyzer = deployment.analyzer().clone();
            let batch = batches[1].clone();
            move || {
                use prochlo_collector::EpochPipeline;
                let mut pipeline = RemoteSplitPipeline::new(transport, 1, analyzer);
                let spec = EpochSpec::new(3, mix_seed(0xabc, 1));
                let report = pipeline.process(&spec, batch).unwrap();
                pipeline.finish().unwrap();
                report
            }
        });
        let shard0 = scope.spawn({
            let transport: Arc<dyn Transport> = Arc::new(hub.endpoint(Peer::Shard(0)));
            let analyzer = deployment.analyzer().clone();
            let batch = batches[0].clone();
            move || {
                use prochlo_collector::EpochPipeline;
                let mut pipeline = RemoteSplitPipeline::new(transport, 0, analyzer);
                let spec = EpochSpec::new(3, mix_seed(0xabc, 0));
                let report = pipeline.process(&spec, batch).unwrap();
                pipeline.finish().unwrap();
                report
            }
        });
        let mut merged = AnalyzerDatabase::default();
        merged.merge_from(&shard0.join().unwrap().database);
        merged.merge_from(&shard1.join().unwrap().database);
        merged
    });
    assert!(merged.rows().eq(reference.rows()));
    assert_eq!(
        merged.canonical_histogram_bytes(),
        reference.canonical_histogram_bytes()
    );
}

#[test]
fn router_preserves_counts_across_a_real_tcp_topology() {
    // Phase A over real sockets: clients → router → 2 collector shards,
    // each with its own single-topology pipeline; the merged databases
    // account for every accepted report.
    let mut rng = StdRng::seed_from_u64(0x707);
    let deployments: Vec<Deployment> = (0..2u64)
        .map(|i| {
            Deployment::builder()
                .config(ShufflerConfig::default().without_thresholding())
                .payload_size(32)
                .build(&mut StdRng::seed_from_u64(0x707 + i))
        })
        .collect();
    let encoders: Vec<_> = deployments.iter().map(Deployment::encoder).collect();
    let shards: Vec<Collector> = deployments
        .into_iter()
        .map(|deployment| {
            Collector::start(
                deployment,
                CollectorConfig {
                    epoch_deadline: Duration::from_millis(50),
                    ..CollectorConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let shard_addrs: Vec<_> = shards.iter().map(Collector::local_addr).collect();
    let router = ShardRouter::start(
        RouterConfig::default(),
        Box::new(move || {
            shard_addrs
                .iter()
                .map(|&addr| {
                    CollectorClient::connect(addr)
                        .map(|client| Box::new(client) as Box<dyn ReportSink + Send>)
                })
                .collect()
        }),
    )
    .unwrap();

    let mut client = CollectorClient::connect(router.local_addr()).unwrap();
    let workload = [("popular", 40u64), ("niche", 25), ("fringe", 10)];
    let mut submitted = 0u64;
    for (value, count) in workload {
        let label = value.as_bytes();
        let prefix = prochlo_core::crowd_prefix(label);
        let shard = ShardedDeployment::shard_index_from_prefix(prefix, 2);
        for i in 0..count {
            let report = encoders[shard]
                .encode_plain(label, CrowdStrategy::Hash(label), i, &mut rng)
                .unwrap();
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            let verdict = client
                .submit_routed(prefix, &nonce, &report.outer.to_bytes())
                .unwrap();
            assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
            submitted += 1;
        }
    }
    drop(client);

    let router_stats = router.shutdown();
    assert_eq!(router_stats.routed, submitted);
    assert_eq!(router_stats.forward_failures, 0);

    let mut merged = AnalyzerDatabase::default();
    for shard in shards {
        let summary = shard.shutdown();
        merged.merge_from(&summary.merged_database());
    }
    for (value, count) in workload {
        assert_eq!(
            merged.count(value.as_bytes()),
            count,
            "{value}: every routed report must survive a no-thresholding pipeline"
        );
    }
}

/// SHA-256 of Shuffler 1's `BatchToTwo.records` (each record's 64-byte
/// blinded crowd ID followed by its inner ciphertext, in forwarded order)
/// and of Shuffler 2's `ItemsBatch.items` for [`pinned_split_batch`] under
/// [`PINNED_S1_SEED`] / [`PINNED_S2_SEED`]. Captured from the sequential
/// per-record loops of commit 0a85405, the parent of the change that moved
/// both stages onto the chunked executor: "byte-identical to the
/// sequential implementation" is this comparison. If it fails, the stage
/// drifted — fix the regression, do not re-capture.
const PINNED_S1_RECORDS_SHA256: &str =
    "171442b4f896b4d69e4451a9cf7bbca9cbadbde8d6425857a055cefa5e1bc8d1";
const PINNED_S2_ITEMS_SHA256: &str =
    "c337a7d3240c6442f336484f7e7a9f8b1dc48c2ae96ba260cdadcce3fd13e2ca";
const PINNED_S1_SEED: u64 = 0x51ed;
const PINNED_S2_SEED: u64 = 0x52ed;

/// An eighteen-chunk batch (the executor cuts the split stages' draw-free
/// phases at 128 records) that interleaves valid blinded reports with
/// outers sealed to a foreign shuffler and reports carrying a hashed crowd
/// ID, so rejected records fall on both sides of every chunk border.
fn pinned_split_batch() -> (Deployment, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(0x9157);
    let deployment = Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .build(&mut rng);
    let foreign = Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .build(&mut rng);
    let encoder = deployment.encoder();
    let foreign_encoder = foreign.encoder();
    let reports = (0..2_200u64)
        .map(|i| {
            // Forty crowds well above the threshold and a tail of ~200
            // that thresholding must drop.
            let word = if i % 3 == 0 {
                format!("rare{}", i % 211)
            } else {
                format!("w{}", i % 40)
            };
            let label = word.as_bytes();
            let report = if i % 7 == 3 {
                foreign_encoder.encode_plain(label, CrowdStrategy::Blind(label), i, &mut rng)
            } else if i % 11 == 5 {
                encoder.encode_plain(label, CrowdStrategy::Hash(label), i, &mut rng)
            } else {
                encoder.encode_plain(label, CrowdStrategy::Blind(label), i, &mut rng)
            };
            report.unwrap().outer.to_bytes()
        })
        .collect();
    (deployment, reports)
}

#[test]
fn split_stage_wire_bytes_equal_the_sequential_implementation() {
    use prochlo_crypto::sha256::Sha256;
    use prochlo_fabric::{BatchToOne, ChannelId, ItemsBatch, Stage, ToOne, ToTwo, TypedChannel};

    let (deployment, reports) = pinned_split_batch();
    let split = deployment.role().as_split().expect("split topology");

    // Stage 1 on its own hub, with the test standing in for Shuffler 2 so
    // it sees exactly the bytes Shuffler 1 puts on the wire.
    let hub = LoopbackHub::new();
    let shard = hub.endpoint(Peer::Shard(0));
    let to_one =
        TypedChannel::<ToOne>::new(&shard, ChannelId::new(Peer::ShufflerOne, Stage::Batch));
    to_one
        .send(&ToOne::Batch(BatchToOne {
            shard: 0,
            epoch_index: 4,
            s1_seed: PINNED_S1_SEED,
            s2_seed: PINNED_S2_SEED,
            reports,
        }))
        .unwrap();
    to_one.send(&ToOne::Done).unwrap();
    serve_shuffler_one(
        &hub.endpoint(Peer::ShufflerOne),
        &split.one,
        split.two.elgamal_public(),
        1,
    )
    .unwrap();
    let as_two = hub.endpoint(Peer::ShufflerTwo);
    let from_one =
        TypedChannel::<ToTwo>::new(&as_two, ChannelId::new(Peer::ShufflerOne, Stage::Records));
    let ToTwo::Batch(forwarded) = from_one.recv().unwrap() else {
        panic!("Shuffler 1 must forward the batch before its done marker");
    };
    assert_eq!(forwarded.stage_one.received, 2_200);
    assert!(forwarded.stage_one.rejected > 400);
    assert!(forwarded.records.len() > 2 * 1024 - 600);
    let mut hasher = Sha256::new();
    for (crowd, inner) in &forwarded.records {
        hasher.update(crowd);
        hasher.update(inner);
    }
    assert_eq!(hex(&hasher.finalize()), PINNED_S1_RECORDS_SHA256);

    // Stage 2 on a second hub, fed the captured message unchanged.
    let hub = LoopbackHub::new();
    let as_one = hub.endpoint(Peer::ShufflerOne);
    let to_two =
        TypedChannel::<ToTwo>::new(&as_one, ChannelId::new(Peer::ShufflerTwo, Stage::Records));
    to_two.send(&ToTwo::Batch(forwarded)).unwrap();
    to_two.send(&ToTwo::Done).unwrap();
    serve_shuffler_two(&hub.endpoint(Peer::ShufflerTwo), &split.two).unwrap();
    let shard = hub.endpoint(Peer::Shard(0));
    let answer =
        TypedChannel::<ItemsBatch>::new(&shard, ChannelId::new(Peer::ShufflerTwo, Stage::Items))
            .recv()
            .unwrap();
    assert!(answer.stage_two.crowds_forwarded > 0);
    assert!(answer.stage_two.dropped_noise > 0);
    assert!(answer.stage_two.dropped_threshold > 0);
    let mut hasher = Sha256::new();
    for item in &answer.items {
        hasher.update(item);
    }
    assert_eq!(hex(&hasher.finalize()), PINNED_S2_ITEMS_SHA256);
}
