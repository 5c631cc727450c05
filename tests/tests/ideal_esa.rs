//! The ideal-functionality matrix: with drop and threshold noise off, every
//! deployment shape must publish exactly the histogram an ideal ESA would —
//! a trusted party that counts each crowd, keeps the crowds larger than the
//! threshold T and every crowdless report, and counts the surviving values.
//!
//! One property drives `Deployment::ingest` over topology, shuffle backend,
//! worker threads and crowd-ID kind, so a shape or a thread count that
//! loses, duplicates or misfiles a report shows as a histogram difference.
//! Payloads are plain; secret-shared payloads are not covered here.

use std::collections::BTreeMap;

use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::wire::{put_bytes, put_u32, put_u64};
use prochlo_core::{
    ClientReport, Deployment, EngineConfig, EpochSpec, ShuffleBackend, ShufflerConfig, Topology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ideal ESA's canonical histogram for reports carrying `values[i]` in
/// crowd `crowd_ids[i]`: a crowd survives when its size exceeds
/// `threshold` (the comparison `threshold_crowds` makes, here with no
/// noise and no drops), and a report without a crowd ID always survives.
fn ideal_esa(values: &[Vec<u8>], crowd_ids: &[Option<usize>], threshold: u64) -> Vec<u8> {
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

/// Every shape the matrix covers: both backends on the single shuffler
/// with and without hashed crowd IDs, and the split pair (trusted only —
/// it refuses the Stash engine) with blinded ones.
fn shapes() -> Vec<(Topology, ShuffleBackend, CrowdKind)> {
    let mut shapes = Vec::new();
    for backend in ShuffleBackend::all() {
        for crowd in [CrowdKind::None, CrowdKind::Hash] {
            shapes.push((Topology::Single, backend.clone(), crowd));
        }
    }
    shapes.push((Topology::Split, ShuffleBackend::Trusted, CrowdKind::Blind));
    shapes
}

/// Encodes one plain report per value, attaching its crowd's label as
/// `kind` says, and returns the reports with the crowd IDs they carry.
fn encode(
    deployment: &Deployment,
    values: &[Vec<u8>],
    crowds: &[usize],
    kind: CrowdKind,
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
            encoder
                .encode_plain(value, strategy, client as u64, rng)
                .expect("a short plain value fits the payload")
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
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Each report's crowd is drawn independently of its value.
        let values: Vec<Vec<u8>> = (0..len)
            .map(|_| format!("value-{}", rng.gen_range(0..distinct)).into_bytes())
            .collect();
        let crowds: Vec<usize> = (0..len).map(|_| rng.gen_range(0..crowds)).collect();
        let config = ShufflerConfig {
            cardinality_threshold: threshold,
            threshold_noise_sigma: 0.0,
            drop_mean: 0.0,
            drop_sigma: 0.0,
            min_batch_size: 0,
            ..ShufflerConfig::default()
        };
        for (topology, backend, kind) in shapes() {
            let deployment = Deployment::builder()
                .shuffler(topology)
                .config(config.clone())
                .build(&mut rng);
            let (reports, crowd_ids) = encode(&deployment, &values, &crowds, kind, &mut rng);
            let expected = ideal_esa(&values, &crowd_ids, threshold);
            for num_threads in 1..=4 {
                let spec = EpochSpec::new(0, seed).with_engine(EngineConfig {
                    backend: backend.clone(),
                    num_threads,
                });
                let report = deployment.ingest(&spec, &reports).expect("ingest");
                prop_assert_eq!(
                    report.database.canonical_histogram_bytes(),
                    expected,
                    "{:?} / {} / {:?} crowd IDs at {} threads, {} reports, T = {}",
                    topology,
                    backend.name(),
                    kind,
                    num_threads,
                    len,
                    threshold
                );
            }
        }
    }
}
