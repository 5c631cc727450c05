//! Golden compatibility: seeded `EpochSpec` ingestion through the new
//! deployment API reproduces the pre-redesign `Pipeline::ingest_epoch`
//! output byte for byte.
//!
//! The fixture in `tests/fixtures/golden_epoch_histogram.txt` was captured
//! by running the *pre-redesign* code (`Pipeline::new(config, 32, rng)` +
//! `ingest_epoch(9, &reports, 0xfeed)`) on the exact workload below, one
//! line per backend (its `batcher` and `melbourne` lines outlived those
//! backends and are left unread). If this test fails, the deployment API
//! changed the seeded RNG draw order somewhere — a silent break of every
//! deterministic replay guarantee the collector makes — so fix the
//! regression, do not re-capture the fixture.

use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{
    ClientReport, Deployment, DeploymentBuilder, EngineConfig, EpochSpec, ShuffleBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("../fixtures/golden_epoch_histogram.txt");

/// The construction seed and epoch spec the fixture was captured under.
const BUILD_SEED: u64 = 0x601d;
const EPOCH_INDEX: u64 = 9;
const EPOCH_SEED: u64 = 0xfeed;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn expected_hex(backend_name: &str) -> String {
    FIXTURE
        .lines()
        .find_map(|line| {
            line.strip_prefix(backend_name)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .unwrap_or_else(|| panic!("fixture has no line for backend {backend_name:?}"))
        .trim()
        .to_string()
}

/// Rebuilds the captured workload: the deployment (and therefore both
/// keypairs) and every report derive from `BUILD_SEED` exactly as the
/// pre-redesign `Pipeline::new` path drew them.
fn seeded_workload(builder: DeploymentBuilder) -> (Deployment, Vec<ClientReport>) {
    let mut rng = StdRng::seed_from_u64(BUILD_SEED);
    let deployment = builder.payload_size(32).build(&mut rng);
    let encoder = deployment.encoder();
    let mut reports = Vec::new();
    let mut client = 0u64;
    for (value, count) in [("alpha", 150usize), ("beta", 60), ("rare", 3)] {
        for _ in 0..count {
            reports.push(
                encoder
                    .encode_plain(
                        value.as_bytes(),
                        CrowdStrategy::Hash(value.as_bytes()),
                        client,
                        &mut rng,
                    )
                    .unwrap(),
            );
            client += 1;
        }
    }
    for _ in 0..7 {
        reports.push(
            encoder
                .encode_plain(b"free", CrowdStrategy::None, client, &mut rng)
                .unwrap(),
        );
        client += 1;
    }
    (deployment, reports)
}

#[test]
fn ingest_reproduces_pre_redesign_histograms_for_every_backend() {
    for backend in ShuffleBackend::all() {
        let (deployment, reports) = seeded_workload(Deployment::builder().engine(EngineConfig {
            backend: backend.clone(),
            num_threads: 0,
        }));
        let report = deployment
            .ingest(&EpochSpec::new(EPOCH_INDEX, EPOCH_SEED), &reports)
            .unwrap();
        assert_eq!(
            hex(&report.database.canonical_histogram_bytes()),
            expected_hex(backend.name()),
            "{}: EpochSpec ingestion must match the pre-redesign fixture",
            backend.name()
        );
    }
}

#[test]
fn epoch_spec_engine_override_matches_the_fixture_too() {
    // The pre-redesign `ingest_epoch_with_engine` path: default shuffler
    // configuration, backend selected per call. The engine consumes exactly
    // one draw from the master stream regardless of backend, so this must
    // also land on the fixture bytes.
    for backend in ShuffleBackend::all() {
        let (deployment, reports) = seeded_workload(Deployment::builder());
        let spec = EpochSpec::new(EPOCH_INDEX, EPOCH_SEED).with_engine(EngineConfig {
            backend: backend.clone(),
            num_threads: 1,
        });
        let report = deployment.ingest(&spec, &reports).unwrap();
        assert_eq!(
            hex(&report.database.canonical_histogram_bytes()),
            expected_hex(backend.name()),
            "{}: engine-override ingestion must match the pre-redesign fixture",
            backend.name()
        );
    }
}

#[test]
fn epoch_session_lands_on_the_fixture_regardless_of_arrival_order() {
    // A session canonicalizes its batch before ingesting, and every crowd
    // here is derived from the reported value, so the recovered histogram —
    // though not the individual surviving reports — is invariant to the
    // order reports arrived in.
    let (deployment, reports) = seeded_workload(Deployment::builder());
    let mut session = deployment.session(EpochSpec::new(EPOCH_INDEX, EPOCH_SEED));
    session.extend(reports.into_iter().rev());
    let report = session.finish().unwrap();
    assert_eq!(
        hex(&report.database.canonical_histogram_bytes()),
        expected_hex("trusted"),
    );
}
