//! End-to-end determinism of the fabric: the wire-level split shuffler
//! (Phase B) reproduces the in-process split run of each shard byte for
//! byte — pinned against the committed golden fixture — and the shard
//! router (Phase A) preserves every report's count through a real
//! multi-collector TCP topology.
//!
//! The fixture line `split <hex>` in
//! `tests/fixtures/golden_epoch_histogram.txt` pins the in-process
//! reference below: two split-topology shards, each ingesting its crowds
//! under `mix_seed(seed, shard)`, merged. If this test fails, the wire
//! topology (or the per-shard seed derivation) drifted from the
//! single-process semantics — fix the regression, do not re-capture.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::exec::mix_seed;
use prochlo_core::{
    canonicalize, crowd_prefix, AnalyzerDatabase, ClientReport, Deployment, EpochSpec,
    PipelineReport, ShardedDeployment, ShufflerConfig, Topology,
};
use prochlo_crypto::edwards::FixedBaseTable;
use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_fabric::transport::WireMessage;
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, LoopbackHub, Peer, RemoteSplitPipeline, RouterConfig,
    ShardRouter, Transport,
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

/// The shard a crowd label routes to among `NUM_SHARDS`.
fn shard_of(label: &[u8]) -> usize {
    ShardedDeployment::shard_index_from_prefix(crowd_prefix(label), NUM_SHARDS)
}

/// The captured sharded workload: two split-topology shards with their own
/// keys, drawn in shard order, and every report encoded against the shard
/// its crowd routes to. Partitions are pre-canonicalized (sorted by
/// outer-ciphertext bytes) so the in-process reference ingests exactly the
/// order the wire pipeline canonicalizes to.
fn sharded_workload() -> (Vec<Deployment>, Vec<Vec<ClientReport>>) {
    let mut rng = StdRng::seed_from_u64(BUILD_SEED);
    let shards: Vec<Deployment> = (0..NUM_SHARDS)
        .map(|_| {
            Deployment::builder()
                .shuffler(Topology::Split)
                .payload_size(32)
                .build(&mut rng)
        })
        .collect();
    let mut batches = vec![Vec::new(); NUM_SHARDS];
    let mut client = 0u64;
    for (value, count) in [
        ("alpha", 150usize),
        ("beta", 60),
        ("gamma", 90),
        ("rare", 3),
    ] {
        let label = value.as_bytes();
        let shard = shard_of(label);
        let encoder = shards[shard].encoder();
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
    (shards, batches)
}

/// Runs one shard's epoch through the wire topology: S1 and S2 service
/// loops on their own threads, the shard's `RemoteSplitPipeline` in the
/// caller's. Each shard has its own keys, so each shard gets its own
/// shuffler pair — a per-shard fabric.
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
    let (shards, batches) = sharded_workload();
    for (index, batch) in batches.iter().enumerate() {
        assert!(
            !batch.is_empty(),
            "workload must populate shard {index}; pick different labels"
        );
    }

    // In-process reference: each shard ingests its partition under its
    // derived seed, and the shards' databases merge in shard order — the
    // sharded split run the fixture pins.
    let shard_spec = |index: usize| EpochSpec::new(EPOCH_INDEX, mix_seed(EPOCH_SEED, index as u64));
    let reference: Vec<PipelineReport> = shards
        .iter()
        .zip(&batches)
        .enumerate()
        .map(|(index, (shard, batch))| shard.ingest(&shard_spec(index), batch).unwrap())
        .collect();
    let mut reference_database = AnalyzerDatabase::default();
    for report in &reference {
        reference_database.merge_from(&report.database);
    }
    assert_eq!(
        hex(&reference_database.canonical_histogram_bytes()),
        expected_hex("split"),
        "in-process sharded split run must match the committed fixture"
    );

    // Wire run: each shard ships its canonical batch over its own fabric,
    // under the same derived per-shard seed.
    let mut merged = AnalyzerDatabase::default();
    for (index, batch) in batches.iter().enumerate() {
        let report = wire_epoch(&shards[index], &shard_spec(index), batch.clone());

        let in_process = &reference[index];
        assert!(
            report.database.rows().eq(in_process.database.rows()),
            "shard {index}: wire database must match the in-process run row for row"
        );
        assert_eq!(report.shuffler_stats, in_process.shuffler_stats);
        assert_eq!(report.stage_stats, in_process.stage_stats);

        // Drive the driver-side merge path: rebuild the shard's database
        // from its rows before merging, as fabric_demo's driver does with
        // the rows a shard prints.
        let rows: Vec<Vec<u8>> = report.database.rows().map(<[u8]>::to_vec).collect();
        merged.merge_from(&AnalyzerDatabase::from_rows(rows));
    }
    assert_eq!(
        hex(&merged.canonical_histogram_bytes()),
        expected_hex("split"),
        "wire topology must land on the committed fixture byte for byte"
    );
    assert!(merged.rows().eq(reference_database.rows()));
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
        let shard = shard_of(label);
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
        let prefix = crowd_prefix(label);
        let shard = shard_of(label);
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
/// [`PINNED_S1_SEED`] / [`PINNED_S2_SEED`]. First captured from the
/// sequential per-record loops of commit 0a85405, the parent of the change
/// that moved both stages onto the chunked executor: "byte-identical to the
/// sequential implementation" is this comparison. Re-captured once, when
/// the AEAD became ChaCha20-Poly1305 and the layer key one SHA-256 (the
/// `prochlo-hybrid-v2` label), which moves every inner ciphertext's bytes;
/// [`WITNESS_S1_ORDER_SHA256`] and [`WITNESS_S2_ORDER_SHA256`] passed
/// unedited on both sides of it. If either fails, the stage drifted — fix
/// the regression, do not re-capture.
const PINNED_S1_RECORDS_SHA256: &str =
    "3745a6d525336d7d05108dc434a6a7b92b4239b6cd636e09ccf5a66d8a09bf13";
const PINNED_S2_ITEMS_SHA256: &str =
    "c45ab5c563468673fe3ed40f11fa96ef53d214b355324898d7fc784b5b29d088";
/// The witnesses beside the two pins: SHA-256 of what the RNG draws fix
/// and no symmetric construction can move. For Shuffler 1, each forwarded
/// record's blinded crowd ID followed by the input position (`u64`, little
/// endian) of the report it came from; for Shuffler 2, the input position
/// of each forwarded item. Positions are found by the inner ciphertext's
/// `ephemeral ‖ nonce` (see [`input_positions`]). Captured under the
/// HMAC-tagged AEAD and unchanged by the move to ChaCha20-Poly1305, so a
/// failing pin with a passing witness is a change of ciphertext bytes
/// alone.
const WITNESS_S1_ORDER_SHA256: &str =
    "1273e03f19f621bbd62d4a45ee31de8cbc72fc30cc5448439ef6a89e3e054514";
const WITNESS_S2_ORDER_SHA256: &str =
    "8ded5d8dc40788966890a5cb4cfdb772c3c75d5b03199824456fbb27f22429a9";
const PINNED_S1_SEED: u64 = 0x51ed;
const PINNED_S2_SEED: u64 = 0x52ed;

/// An eighteen-chunk batch (the executor cuts the split stages' draw-free
/// phases at 128 records) that interleaves valid blinded reports with
/// outers sealed to a foreign shuffler and reports carrying a hashed crowd
/// ID, so rejected records fall on both sides of every chunk border.
fn pinned_split_batch() -> (Deployment, Vec<HybridCiphertext>) {
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
            report.unwrap().outer
        })
        .collect();
    (deployment, reports)
}

/// Maps each report's inner `ephemeral ‖ nonce` to its input position, by
/// peeling the reports one at a time through Shuffler 1 (a one-record batch
/// is forwarded unshuffled). Reports Shuffler 1 rejects have no entry.
fn input_positions(
    split: &prochlo_core::shuffler::split::SplitShuffler,
    reports: &[HybridCiphertext],
) -> BTreeMap<Vec<u8>, u64> {
    let table = FixedBaseTable::new(split.two.elgamal_public());
    let mut rng = StdRng::seed_from_u64(0);
    let mut positions = BTreeMap::new();
    for (position, report) in (0u64..).zip(reports) {
        let (records, _) =
            split
                .one
                .process_batch(1, std::slice::from_ref(report), &table, &mut rng);
        for record in records {
            positions.insert(record.inner[..INNER_DRAWS].to_vec(), position);
        }
    }
    positions
}

/// The inner ciphertext's `ephemeral ‖ nonce`: 32 + 12 bytes.
const INNER_DRAWS: usize = 44;

#[test]
fn split_stage_wire_bytes_equal_the_sequential_implementation() {
    use prochlo_crypto::sha256::Sha256;
    use prochlo_fabric::{BatchToOne, ChannelId, ItemsBatch, Stage, ToOne, ToTwo, TypedChannel};

    let (deployment, reports) = pinned_split_batch();
    let split = deployment.role().as_split().expect("split topology");
    let positions = input_positions(split, &reports);
    let position = |inner: &[u8]| positions[&inner[..INNER_DRAWS]].to_le_bytes();

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
    let frame = from_one.recv_frame().unwrap();
    let ToTwo::Batch(forwarded) = <ToTwo>::from_wire(&frame).unwrap() else {
        panic!("Shuffler 1 must forward the batch before its done marker");
    };
    assert_eq!(forwarded.stage_one.received, 2_200);
    assert!(forwarded.stage_one.rejected > 400);
    assert!(forwarded.records.len() > 2 * 1024 - 600);
    let (mut hasher, mut witness) = (Sha256::new(), Sha256::new());
    for record in &forwarded.records {
        hasher.update(&record.blinded_crowd);
        hasher.update(record.inner);
        witness.update(&record.blinded_crowd);
        witness.update(&position(record.inner));
    }
    assert_eq!(hex(&witness.finalize()), WITNESS_S1_ORDER_SHA256);
    assert_eq!(hex(&hasher.finalize()), PINNED_S1_RECORDS_SHA256);

    // Stage 2 on a second hub, fed the captured message unchanged.
    let hub = LoopbackHub::new();
    let as_one = hub.endpoint(Peer::ShufflerOne);
    let to_two = TypedChannel::new(&as_one, ChannelId::new(Peer::ShufflerTwo, Stage::Records));
    to_two.send(&ToTwo::Batch(forwarded)).unwrap();
    to_two.send(&ToTwo::Done).unwrap();
    serve_shuffler_two(&hub.endpoint(Peer::ShufflerTwo), &split.two).unwrap();
    let shard = hub.endpoint(Peer::Shard(0));
    let frame =
        TypedChannel::<ItemsBatch>::new(&shard, ChannelId::new(Peer::ShufflerTwo, Stage::Items))
            .recv_frame()
            .unwrap();
    let answer = <ItemsBatch>::from_wire(&frame).unwrap();
    assert!(answer.stage_two.crowds_forwarded > 0);
    assert!(answer.stage_two.dropped_noise > 0);
    assert!(answer.stage_two.dropped_threshold > 0);
    let (mut hasher, mut witness) = (Sha256::new(), Sha256::new());
    for item in &answer.items {
        hasher.update(item);
        witness.update(&position(item));
    }
    assert_eq!(hex(&witness.finalize()), WITNESS_S2_ORDER_SHA256);
    assert_eq!(hex(&hasher.finalize()), PINNED_S2_ITEMS_SHA256);
}
