//! The ideal-functionality matrix: with drop and threshold noise off, every
//! deployment shape must publish exactly the histogram an ideal ESA would —
//! a trusted party that counts each crowd, keeps the crowds larger than the
//! threshold T and every crowdless report, and counts the surviving values.
//! With secret-shared payloads it publishes a surviving value only when at
//! least the share threshold of its reports survive. In the forgery mode
//! each value also gets one report whose share lies off its polynomial:
//! the forgery counts toward its crowd, as the shuffler cannot tell it
//! apart, and toward no value.
//!
//! One property drives every shape over worker threads and payload mode:
//! `Deployment::ingest` over topology, shuffle backend and crowd-ID kind;
//! the split pair over the wire — a shard's `RemoteSplitPipeline` and both
//! shuffler services on a loopback hub; and the sharded topology — a
//! `ShardRouter` over loopback TCP in front of collector shards, each with
//! its own keys, whose databases merge. A shape, a path or a thread count
//! that loses, duplicates or misfiles a report shows as a histogram
//! difference.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, EpochPipeline, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::wire::{put_bytes, put_u32, put_u64};
use prochlo_core::{
    crowd_prefix, AnalyzerDatabase, ClientReport, Deployment, Encoder, EngineConfig, EpochSpec,
    ShardedDeployment, ShuffleBackend, ShufflerConfig, Topology,
};
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, LoopbackHub, Peer, RemoteSplitPipeline, RouterConfig,
    ShardRouter, Transport,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ideal ESA's histogram for reports carrying `values[i]` in crowd
/// `crowd_ids[i]`: a crowd survives when its size exceeds `threshold` (the
/// comparison `threshold_crowds` makes, here with no noise and no drops),
/// and a report without a crowd ID always survives. With `Some(shares)`,
/// payloads are secret-shared and a value is counted only when at least
/// `shares` of its reports survive. `crowd_ids` may be longer than
/// `values`: the reports past the last value are forgeries, which count
/// toward their crowd's size and toward no value.
fn ideal_esa<'a>(
    values: &[&'a [u8]],
    crowd_ids: &[Option<usize>],
    threshold: u64,
    shares: Option<usize>,
) -> BTreeMap<&'a [u8], u64> {
    let mut crowd_sizes: BTreeMap<usize, u64> = BTreeMap::new();
    for &crowd in crowd_ids.iter().flatten() {
        *crowd_sizes.entry(crowd).or_default() += 1;
    }
    let mut histogram: BTreeMap<&[u8], u64> = BTreeMap::new();
    for (&value, crowd) in values.iter().zip(crowd_ids) {
        if crowd.is_none_or(|crowd| crowd_sizes[&crowd] > threshold) {
            *histogram.entry(value).or_default() += 1;
        }
    }
    histogram.retain(|_, &mut count| shares.is_none_or(|shares| count >= shares as u64));
    histogram
}

/// The ideal of `shards` collector shards: each shard an ideal ESA over the
/// reports whose crowd (`report_crowds`, one per report, forgeries last)
/// routes to it, the shards' histograms summed; with one shard, the ideal
/// ESA. A crowd never spans two shards, so crowd thresholding is whole;
/// secret-shared values pool their shares per shard, so a value recovers
/// where a shard alone holds the share threshold of its reports.
fn ideal_sharded<'a>(
    values: &[&'a [u8]],
    crowd_ids: &[Option<usize>],
    report_crowds: &[usize],
    threshold: u64,
    shares: Option<usize>,
    shards: usize,
) -> BTreeMap<&'a [u8], u64> {
    let mut merged = BTreeMap::new();
    for shard in 0..shards {
        let on_shard = |index: &usize| shard_of(report_crowds[*index], shards) == shard;
        let shard_values: Vec<&[u8]> = (0..values.len())
            .filter(on_shard)
            .map(|index| values[index])
            .collect();
        let shard_crowd_ids: Vec<Option<usize>> = (0..crowd_ids.len())
            .filter(on_shard)
            .map(|index| crowd_ids[index])
            .collect();
        for (value, count) in ideal_esa(&shard_values, &shard_crowd_ids, threshold, shares) {
            *merged.entry(value).or_default() += count;
        }
    }
    merged
}

/// A histogram's canonical bytes, as `canonical_histogram_bytes` writes
/// them.
fn canonical(histogram: &BTreeMap<&[u8], u64>) -> Vec<u8> {
    let mut canonical = Vec::new();
    put_u32(&mut canonical, histogram.len() as u32);
    for (value, &count) in histogram {
        put_bytes(&mut canonical, value);
        put_u64(&mut canonical, count);
    }
    canonical
}

/// The crowd ID a shape's clients attach.
#[derive(Debug, Clone, Copy)]
enum CrowdKind {
    None,
    Hash,
    Blind,
}

/// How an epoch reaches the shufflers.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `Deployment::ingest`, every stage in one call.
    InProcess,
    /// The split pair over the wire: a shard's `RemoteSplitPipeline` and
    /// both shuffler services on a loopback hub.
    Loopback,
    /// Routed submissions over loopback TCP: a `ShardRouter` in front of
    /// `SHARDS` collector shards, each running its epochs in-process
    /// against its own keys.
    Routed,
}

/// Collector shards behind the router on the routed path.
const SHARDS: usize = 3;

/// What the clients' payloads carry.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Plain,
    /// Secret-shared at this threshold.
    Shared(usize),
    /// Secret-shared at this threshold, plus one forged report per value.
    Forged(usize),
}

impl Payload {
    fn share_threshold(self) -> Option<usize> {
        match self {
            Payload::Plain => None,
            Payload::Shared(shares) | Payload::Forged(shares) => Some(shares),
        }
    }
}

/// Every shape the matrix covers: both backends on the single shuffler
/// with and without hashed crowd IDs, the split pair (trusted only — it
/// refuses the Stash engine) with blinded ones, in-process and over the
/// wire, and the router in front of single-shuffler collector shards with
/// and without hashed crowd IDs.
fn shapes() -> Vec<(Topology, ShuffleBackend, CrowdKind, Path)> {
    let mut shapes = Vec::new();
    for backend in ShuffleBackend::all() {
        for crowd in [CrowdKind::None, CrowdKind::Hash] {
            shapes.push((Topology::Single, backend.clone(), crowd, Path::InProcess));
        }
    }
    for crowd in [CrowdKind::None, CrowdKind::Hash] {
        shapes.push((
            Topology::Single,
            ShuffleBackend::Trusted,
            crowd,
            Path::Routed,
        ));
    }
    for path in [Path::InProcess, Path::Loopback] {
        shapes.push((
            Topology::Split,
            ShuffleBackend::Trusted,
            CrowdKind::Blind,
            path,
        ));
    }
    shapes
}

/// One epoch of `reports` through the wire split path on a loopback hub,
/// each stage on the worker count `deployment` was configured with.
fn ingest_over_loopback(
    deployment: &Deployment,
    spec: &EpochSpec,
    reports: &[ClientReport],
) -> AnalyzerDatabase {
    let split = deployment.role().as_split().expect("split topology");
    let hub = LoopbackHub::new();
    let s1 = hub.endpoint(Peer::ShufflerOne);
    let s2 = hub.endpoint(Peer::ShufflerTwo);
    let shard: Arc<dyn Transport> = Arc::new(hub.endpoint(Peer::Shard(0)));
    std::thread::scope(|scope| {
        let one =
            scope.spawn(|| serve_shuffler_one(&s1, &split.one, split.two.elgamal_public(), 1));
        let two = scope.spawn(|| serve_shuffler_two(&s2, &split.two));
        let mut pipeline = RemoteSplitPipeline::new(shard, 0, deployment.analyzer().clone());
        let report = pipeline
            .process(spec, reports.to_vec())
            .expect("wire epoch");
        pipeline.finish().expect("done marker");
        one.join().expect("shuffler 1").expect("shuffler 1 serves");
        two.join().expect("shuffler 2").expect("shuffler 2 serves");
        report.database
    })
}

/// The label of crowd `crowd`.
fn label(crowd: usize) -> Vec<u8> {
    format!("crowd-{crowd}").into_bytes()
}

/// The shard crowd `crowd` routes to among `shards`.
fn shard_of(crowd: usize, shards: usize) -> usize {
    ShardedDeployment::shard_index_from_prefix(crowd_prefix(&label(crowd)), shards)
}

/// Encodes one report per value, each against the encoder its crowd routes
/// to among `encoders`, attaching its crowd's label as `kind` says. With
/// [`Payload::Forged`] one more report per distinct value follows, in the
/// crowd of the value's first report: the value's message-locked
/// ciphertext beside a share at one more than the threshold, which lies
/// off the value's polynomial — what a forger who guesses the value can
/// send. Returns the reports and the crowd of each.
fn encode(
    encoders: &[Encoder],
    values: &[Vec<u8>],
    crowds: &[usize],
    kind: CrowdKind,
    payload: Payload,
    rng: &mut StdRng,
) -> (Vec<ClientReport>, Vec<usize>) {
    let mut items: Vec<(&[u8], usize, Payload)> = values
        .iter()
        .zip(crowds)
        .map(|(value, &crowd)| (value.as_slice(), crowd, payload))
        .collect();
    if let Payload::Forged(shares) = payload {
        let mut first_crowd: BTreeMap<&[u8], usize> = BTreeMap::new();
        for (value, &crowd) in values.iter().zip(crowds) {
            first_crowd.entry(value).or_insert(crowd);
        }
        items.extend(
            first_crowd
                .into_iter()
                .map(|(value, crowd)| (value, crowd, Payload::Shared(shares + 1))),
        );
    }
    let reports = items
        .iter()
        .enumerate()
        .map(|(client, &(value, crowd, payload))| {
            let label = label(crowd);
            let strategy = match kind {
                CrowdKind::None => CrowdStrategy::None,
                CrowdKind::Hash => CrowdStrategy::Hash(&label),
                CrowdKind::Blind => CrowdStrategy::Blind(&label),
            };
            let encoder = &encoders[shard_of(crowd, encoders.len())];
            match payload.share_threshold() {
                None => encoder.encode_plain(value, strategy, client as u64, rng),
                Some(shares) => {
                    encoder.encode_secret_shared(value, shares, strategy, client as u64, rng)
                }
            }
            .expect("a short value fits the payload")
        })
        .collect();
    (reports, items.iter().map(|&(_, crowd, _)| crowd).collect())
}

/// One epoch of `reports` through the sharded topology: each report is
/// submitted routed, under its crowd's prefix, to a `ShardRouter` over
/// loopback TCP in front of one collector shard per deployment; the shards
/// cut one epoch each at shutdown, and their databases merge.
fn ingest_routed(
    shards: Vec<Deployment>,
    engine: EngineConfig,
    reports: &[ClientReport],
    crowds: &[usize],
) -> AnalyzerDatabase {
    let collectors: Vec<Collector> = shards
        .into_iter()
        .map(|deployment| {
            Collector::start(
                deployment,
                CollectorConfig {
                    worker_threads: 1,
                    epoch_deadline: Duration::from_secs(600),
                    engine: Some(engine.clone()),
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
    for (index, (report, &crowd)) in reports.iter().zip(crowds).enumerate() {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&(index as u64).to_le_bytes());
        let verdict = client
            .submit_routed(
                crowd_prefix(&label(crowd)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_shape_and_thread_count_publishes_the_ideal_histogram(
        seed in any::<u64>(),
        len in 0usize..=300,
        distinct in 1usize..=8,
        crowds in 1usize..=6,
        threshold in 1u64..10,
        share_threshold in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Each report's crowd is drawn independently of its value, and
        // skewed — crowd k with probability falling in k — so that one
        // corpus of a few hundred reports holds crowds on both sides of T
        // and every executor chunk of a stage decides some survivals.
        let values: Vec<Vec<u8>> = (0..len)
            .map(|_| format!("value-{}", rng.gen_range(0..distinct)).into_bytes())
            .collect();
        let crowds: Vec<usize> = (0..len)
            .map(|_| {
                let widest = rng.gen_range(0..crowds);
                rng.gen_range(0..=widest)
            })
            .collect();
        let config = ShufflerConfig {
            cardinality_threshold: threshold,
            threshold_noise_sigma: 0.0,
            drop_mean: 0.0,
            drop_sigma: 0.0,
            min_batch_size: 0,
            ..ShufflerConfig::default()
        };
        for (topology, backend, kind, path) in shapes() {
            for payload in [
                Payload::Plain,
                Payload::Shared(share_threshold),
                Payload::Forged(share_threshold),
            ] {
                // The same keys at every worker count: `ingest` takes its
                // count from the epoch's engine, a stage over the wire from
                // the deployment's configuration, a collector shard from
                // its own. The routed path builds one deployment per shard.
                let keys_seed = rng.gen::<u64>();
                let shards = if matches!(path, Path::Routed) { SHARDS } else { 1 };
                let deployments = |num_threads: usize| {
                    let mut keys = StdRng::seed_from_u64(keys_seed);
                    (0..shards)
                        .map(|_| {
                            Deployment::builder()
                                .shuffler(topology)
                                .config(ShufflerConfig { num_threads, ..config.clone() })
                                .share_threshold(share_threshold)
                                .build(&mut keys)
                        })
                        .collect::<Vec<_>>()
                };
                let in_process = deployments(1);
                let encoders: Vec<Encoder> = in_process.iter().map(Deployment::encoder).collect();
                let (reports, report_crowds) =
                    encode(&encoders, &values, &crowds, kind, payload, &mut rng);
                let crowd_ids: Vec<Option<usize>> = report_crowds
                    .iter()
                    .map(|&crowd| (!matches!(kind, CrowdKind::None)).then_some(crowd))
                    .collect();
                let value_refs: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
                let expected = canonical(&ideal_sharded(
                    &value_refs,
                    &crowd_ids,
                    &report_crowds,
                    threshold,
                    payload.share_threshold(),
                    shards,
                ));
                // The routed path and the forgery mode add no thread-count
                // seam of their own: they run at the two ends of the range.
                let thread_counts: &[usize] =
                    if matches!(path, Path::Routed) || matches!(payload, Payload::Forged(_)) {
                        &[1, 4]
                    } else {
                        &[1, 2, 3, 4]
                    };
                for &num_threads in thread_counts {
                    let engine = EngineConfig {
                        backend: backend.clone(),
                        num_threads,
                    };
                    let spec = EpochSpec::new(0, seed).with_engine(engine.clone());
                    let database = match path {
                        Path::InProcess => {
                            in_process[0].ingest(&spec, &reports).expect("ingest").database
                        }
                        Path::Loopback => {
                            ingest_over_loopback(&deployments(num_threads)[0], &spec, &reports)
                        }
                        Path::Routed => ingest_routed(
                            deployments(num_threads),
                            engine,
                            &reports,
                            &report_crowds,
                        ),
                    };
                    prop_assert_eq!(
                        database.canonical_histogram_bytes(),
                        expected.clone(),
                        "{:?} / {} / {:?} crowd IDs / {:?} / {:?} at {} threads, {} reports, T = {}",
                        topology,
                        backend.name(),
                        kind,
                        path,
                        payload,
                        num_threads,
                        len,
                        threshold
                    );
                }
            }
        }
    }
}
