//! The ideal-functionality matrix: with drop and threshold noise off, every
//! deployment shape must publish exactly the histogram an ideal ESA would —
//! a trusted party that counts each crowd, keeps the crowds larger than the
//! threshold T and every crowdless report, and counts the surviving values.
//! With secret-shared payloads it publishes a surviving value only when at
//! least the share threshold of its reports survive.
//!
//! One property drives every shape over worker threads and payload mode:
//! `Deployment::ingest` over topology, shuffle backend and crowd-ID kind,
//! and the split pair over the wire — a shard's `RemoteSplitPipeline` and
//! both shuffler services on a loopback hub. A shape, a path or a thread
//! count that loses, duplicates or misfiles a report shows as a histogram
//! difference.

use std::collections::BTreeMap;
use std::sync::Arc;

use prochlo_collector::EpochPipeline;
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::wire::{put_bytes, put_u32, put_u64};
use prochlo_core::{
    AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec, ShuffleBackend,
    ShufflerConfig, Topology,
};
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, LoopbackHub, Peer, RemoteSplitPipeline, Transport,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ideal ESA's canonical histogram for reports carrying `values[i]` in
/// crowd `crowd_ids[i]`: a crowd survives when its size exceeds
/// `threshold` (the comparison `threshold_crowds` makes, here with no
/// noise and no drops), and a report without a crowd ID always survives.
/// With `Some(shares)`, payloads are secret-shared and a value is counted
/// only when at least `shares` of its reports survive.
fn ideal_esa(
    values: &[Vec<u8>],
    crowd_ids: &[Option<usize>],
    threshold: u64,
    shares: Option<usize>,
) -> Vec<u8> {
    let mut crowd_sizes: BTreeMap<usize, u64> = BTreeMap::new();
    for &crowd in crowd_ids.iter().flatten() {
        *crowd_sizes.entry(crowd).or_default() += 1;
    }
    let mut histogram: BTreeMap<&[u8], u64> = BTreeMap::new();
    for (value, crowd) in values.iter().zip(crowd_ids) {
        if crowd.is_none_or(|crowd| crowd_sizes[&crowd] > threshold) {
            *histogram.entry(value).or_default() += 1;
        }
    }
    histogram.retain(|_, &mut count| shares.is_none_or(|shares| count >= shares as u64));
    let mut canonical = Vec::new();
    put_u32(&mut canonical, histogram.len() as u32);
    for (value, count) in histogram {
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
}

/// Every shape the matrix covers: both backends on the single shuffler
/// with and without hashed crowd IDs, and the split pair (trusted only —
/// it refuses the Stash engine) with blinded ones, in-process and over
/// the wire.
fn shapes() -> Vec<(Topology, ShuffleBackend, CrowdKind, Path)> {
    let mut shapes = Vec::new();
    for backend in ShuffleBackend::all() {
        for crowd in [CrowdKind::None, CrowdKind::Hash] {
            shapes.push((Topology::Single, backend.clone(), crowd, Path::InProcess));
        }
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

/// Encodes one report per value — plain, or secret-shared at `shares` —
/// attaching its crowd's label as `kind` says, and returns the reports
/// with the crowd IDs they carry.
fn encode(
    deployment: &Deployment,
    values: &[Vec<u8>],
    crowds: &[usize],
    kind: CrowdKind,
    shares: Option<usize>,
    rng: &mut StdRng,
) -> (Vec<ClientReport>, Vec<Option<usize>>) {
    let encoder = deployment.encoder();
    let reports = values
        .iter()
        .zip(crowds)
        .enumerate()
        .map(|(client, (value, &crowd))| {
            let label = format!("crowd-{crowd}").into_bytes();
            let strategy = match kind {
                CrowdKind::None => CrowdStrategy::None,
                CrowdKind::Hash => CrowdStrategy::Hash(&label),
                CrowdKind::Blind => CrowdStrategy::Blind(&label),
            };
            match shares {
                None => encoder.encode_plain(value, strategy, client as u64, rng),
                Some(shares) => {
                    encoder.encode_secret_shared(value, shares, strategy, client as u64, rng)
                }
            }
            .expect("a short value fits the payload")
        })
        .collect();
    let crowd_ids = crowds
        .iter()
        .map(|&crowd| (!matches!(kind, CrowdKind::None)).then_some(crowd))
        .collect();
    (reports, crowd_ids)
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
            for shares in [None, Some(share_threshold)] {
                // The same keys at every worker count: `ingest` takes its
                // count from the epoch's engine, a stage over the wire from
                // the deployment's configuration.
                let keys_seed = rng.gen::<u64>();
                let deployment = |num_threads: usize| {
                    Deployment::builder()
                        .shuffler(topology)
                        .config(ShufflerConfig { num_threads, ..config.clone() })
                        .share_threshold(share_threshold)
                        .build(&mut StdRng::seed_from_u64(keys_seed))
                };
                let in_process = deployment(1);
                let (reports, crowd_ids) =
                    encode(&in_process, &values, &crowds, kind, shares, &mut rng);
                let expected = ideal_esa(&values, &crowd_ids, threshold, shares);
                for num_threads in 1..=4 {
                    let spec = EpochSpec::new(0, seed).with_engine(EngineConfig {
                        backend: backend.clone(),
                        num_threads,
                    });
                    let database = match path {
                        Path::InProcess => in_process.ingest(&spec, &reports).expect("ingest").database,
                        Path::Loopback => {
                            ingest_over_loopback(&deployment(num_threads), &spec, &reports)
                        }
                    };
                    prop_assert_eq!(
                        database.canonical_histogram_bytes(),
                        expected.clone(),
                        "{:?} / {} / {:?} crowd IDs / {:?} / {:?} shares at {} threads, {} reports, T = {}",
                        topology,
                        backend.name(),
                        kind,
                        path,
                        shares,
                        num_threads,
                        len,
                        threshold
                    );
                }
            }
        }
    }
}
