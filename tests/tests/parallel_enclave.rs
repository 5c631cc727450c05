//! Cross-crate tests of the multi-threaded enclave model: the Stash Shuffle
//! and the analyzer's inner-layer decryption shard across scoped workers
//! with per-worker private-memory sub-budgets, and their output — records,
//! metrics, access traces and the analyzer database — is byte-identical at
//! any worker count.
//!
//! CI runs this suite at `PROCHLO_SHUFFLE_THREADS=1` and `=4`, so the
//! env-resolved path is exercised under real contention too.

use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::{Deployment, EngineConfig, EpochSpec, ShuffleBackend, ShufflerConfig};
use prochlo_sgx::{Enclave, EnclaveConfig, WorkerPool};
use prochlo_shuffle::{StashShuffle, StashShuffleParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn records(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut r = vec![0u8; len];
            r[..8].copy_from_slice(&(i as u64).to_le_bytes());
            r
        })
        .collect()
}

fn tracing_enclave() -> Enclave {
    Enclave::new(EnclaveConfig {
        private_memory_bytes: 16 * 1024 * 1024,
        record_trace: true,
        code_identity: "parallel-enclave".into(),
    })
}

/// The strongest form of the determinism contract: not just the histogram
/// but the raw output record order, the enclave metrics and the full access
/// trace of the Stash Shuffle are invariant to the worker count.
#[test]
fn enclave_engines_are_byte_identical_at_any_worker_count() {
    let input = records(2_000, 32);
    let run = |threads: usize| {
        let shuffler =
            StashShuffle::new(StashShuffleParams::derive(input.len()), tracing_enclave())
                .with_threads(threads);
        let mut rng = StdRng::seed_from_u64(0xA11);
        let out = shuffler.shuffle(&input, &mut rng).unwrap();
        (out.records, out.metrics, shuffler.enclave().trace())
    };

    let sequential = run(1);
    assert_eq!(sequential.0.len(), input.len());
    for threads in [2, 4, 8] {
        let parallel = run(threads);
        assert_eq!(parallel.0, sequential.0, "records @ {threads}");
        assert_eq!(parallel.2, sequential.2, "trace @ {threads}");
        // Byte counters must agree exactly; the private peak may differ
        // (more concurrent workers legitimately hold more at once) but
        // never exceeds the budget, and everything is released.
        assert_eq!(
            (parallel.1.bytes_in, parallel.1.bytes_out),
            (sequential.1.bytes_in, sequential.1.bytes_out),
            "boundary bytes @ {threads}"
        );
        assert_eq!(parallel.1.private_in_use, 0, "@ {threads}");
        assert!(parallel.1.private_peak <= 16 * 1024 * 1024);
    }
}

/// The stash distribution phase charges its bucket working sets against
/// per-worker sub-budgets carved from the enclave budget: a budget that
/// fits the sequential run can be too small per-worker once split.
#[test]
fn stash_sub_budgets_are_carved_from_the_enclave_budget() {
    let input = records(3_000, 64);
    let params = StashShuffleParams::derive(input.len());
    let run = |threads: usize, budget: usize| {
        let enclave = Enclave::new(EnclaveConfig {
            private_memory_bytes: budget,
            record_trace: false,
            code_identity: "sub-budget-e2e".into(),
        });
        let mut rng = StdRng::seed_from_u64(3);
        StashShuffle::new(params, enclave)
            .with_threads(threads)
            .shuffle(&input, &mut rng)
    };
    // Generous budget: succeeds at every worker count, identically.
    let generous = 16 * 1024 * 1024;
    let baseline = run(1, generous).unwrap();
    assert_eq!(run(8, generous).unwrap().records, baseline.records);
    // A budget sized so one bucket fits whole but not an eighth: the
    // 8-worker split must refuse rather than silently exceed its share.
    let bucket_bytes = params.items_per_bucket(input.len()) * 64;
    let err = run(8, bucket_bytes * 4).unwrap_err();
    assert!(
        matches!(err, prochlo_shuffle::ShuffleError::Enclave(_)),
        "{err:?}"
    );
}

/// Concurrent sub-budget workers hammering one enclave: the shared
/// accounting never exceeds the parent budget, the peak reflects real
/// cross-worker overlap, and per-worker release underflow stays detected.
#[test]
fn concurrent_sub_budget_accounting_stays_within_the_parent() {
    let budget = 8 * 1024;
    let enclave = Enclave::new(EnclaveConfig {
        private_memory_bytes: budget,
        record_trace: false,
        code_identity: "accounting-stress".into(),
    });
    let pool = WorkerPool::split(&enclave, 4);
    std::thread::scope(|scope| {
        for unit in 0..32usize {
            let pool = &pool;
            let enclave = &enclave;
            scope.spawn(move || {
                pool.with_exact(unit, |worker| {
                    let bytes = 1 + (unit * 131) % worker.budget();
                    worker.charge_private(bytes).unwrap();
                    // While held, the global usage must respect the budget.
                    assert!(enclave.metrics().private_in_use <= budget);
                    // Releasing more than this worker charged is an
                    // underflow even though the enclave holds more overall.
                    assert_eq!(
                        worker.release_private(bytes + 1),
                        Err(prochlo_sgx::EnclaveError::ReleaseUnderflow)
                    );
                    worker.release_private(bytes).unwrap();
                });
            });
        }
    });
    let metrics = enclave.metrics();
    assert_eq!(metrics.private_in_use, 0);
    assert!(metrics.private_peak > 0);
    assert!(metrics.private_peak <= budget);
}

/// Analyzer decryption through the deployment: the database produced with
/// the decryption pass sharded across workers is identical to the
/// sequential one, for an epoch driven end to end by `EngineConfig`.
#[test]
fn analyzer_decryption_is_worker_count_invariant_end_to_end() {
    let run = |num_threads: usize| {
        let mut rng = StdRng::seed_from_u64(0xDEC);
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .payload_size(32)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let reports: Vec<_> = (0..600u64)
            .map(|i| {
                let value = format!("value-{}", i % 9);
                encoder
                    .encode_plain(value.as_bytes(), CrowdStrategy::None, i, &mut rng)
                    .unwrap()
            })
            .collect();
        let spec = EpochSpec::new(1, 0xfeed).with_engine(EngineConfig {
            backend: ShuffleBackend::Sgx { params: None },
            num_threads,
        });
        let report = deployment.ingest(&spec, &reports).unwrap();
        (
            report.database.canonical_histogram_bytes(),
            report
                .database
                .rows()
                .map(<[u8]>::to_vec)
                .collect::<Vec<_>>(),
        )
    };
    let sequential = run(1);
    assert!(!sequential.1.is_empty());
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), sequential, "{threads} workers");
    }
}

/// The analyzer's decrypt pass itself: payloads come back in item order
/// with per-item failures marked, regardless of the worker count.
#[test]
fn decrypt_batch_preserves_item_order_and_failures() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let deployment = Deployment::builder().payload_size(32).build(&mut rng);
    let encoder = deployment.encoder();
    let reports: Vec<_> = (0..50u64)
        .map(|i| {
            encoder
                .encode_plain(b"ok", CrowdStrategy::None, i, &mut rng)
                .unwrap()
        })
        .collect();
    let outcome = deployment
        .role()
        .process(&deployment.default_engine(), &reports, &mut rng)
        .unwrap();
    let mut items = outcome.items;
    items.insert(7, vec![0u8; 64]); // undecryptable garbage at a known index
    let sequential = deployment.analyzer().decrypt_batch(&items, 1);
    assert_eq!(sequential.len(), items.len());
    assert!(sequential[7].is_none());
    assert_eq!(sequential.iter().filter(|p| p.is_some()).count(), 50);
    for threads in [2, 8] {
        let parallel = deployment.analyzer().decrypt_batch(&items, threads);
        assert_eq!(parallel, sequential, "{threads} workers");
    }
}
