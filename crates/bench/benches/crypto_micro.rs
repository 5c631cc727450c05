//! Criterion micro-benchmarks for the cryptographic substrate: the
//! per-record costs that determine the pipeline-level numbers of Tables 2
//! and 3 (hashing, AEAD, curve scalar multiplication, hybrid seal/open,
//! El Gamal blinding, secret-share encoding), and the client's side of it:
//! a scalar draw, a comb walk over a recipient key's table, a seal through
//! a precomputed recipient key and a whole encoded report.
//!
//! After the criterion pass, a second measurement pass re-times the field,
//! curve and AEAD hot paths and emits `BENCHJSON` lines (operations per second,
//! higher is better; the one `_us` row is a cost) so the nightly
//! `bench_compare` job can diff them against the `crypto/*` rows in
//! `BENCH_baseline.json`.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use prochlo_bench::emit_metric;
use prochlo_core::encoder::{ClientKeys, CrowdStrategy, Encoder};
use prochlo_crypto::aead::{self, AeadKey};
use prochlo_crypto::edwards::{FixedBaseTable, Point};
use prochlo_crypto::elgamal::{BlindingSecret, ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::field::FieldElement;
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::scalar::Scalar;
use prochlo_crypto::sha256::sha256;
use prochlo_crypto::{mle, shamir};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 64;

fn batch_points(rng: &mut StdRng) -> Vec<Point> {
    (0..BATCH)
        .map(|_| Point::mul_base(&Scalar::random(rng)))
        .collect()
}

fn batch_ciphertexts(rng: &mut StdRng, recipient: &HybridKeypair) -> Vec<HybridCiphertext> {
    let payload = vec![0xabu8; 64];
    (0..BATCH)
        .map(|_| HybridCiphertext::seal(rng, recipient.public_key(), b"aad", &payload).unwrap())
        .collect()
}

/// An encoder holding both hybrid keys and an El Gamal key, as a
/// split-topology client does.
fn client_encoder(rng: &mut StdRng) -> Encoder {
    let keys = ClientKeys {
        shuffler: *HybridKeypair::generate(rng).public_key(),
        analyzer: *HybridKeypair::generate(rng).public_key(),
        crowd_blinding: Some(*ElGamalKeypair::generate(rng).public_key()),
    };
    Encoder::new(keys, 64)
}

/// A field element with no structure for the multiplier to exploit.
fn field_operand() -> FieldElement {
    FieldElement::from_u64(0x1234_5678_9abc_def1).invert()
}

fn bench_crypto(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("crypto");
    group.sample_size(20);

    let payload = vec![0xabu8; 64];
    group.bench_function("sha256_64B", |b| b.iter(|| sha256(&payload)));

    let key = AeadKey::random(&mut rng);
    let nonce = [7u8; aead::NONCE_LEN];
    group.bench_function("aead_seal_64B", |b| {
        b.iter(|| aead::seal(&key, &nonce, b"aad", &payload))
    });

    // Dependent chains: each product feeds the next, as in the doubling
    // runs and inversion ladders that dominate a scalar multiplication.
    let operand = field_operand();
    let mut chained = operand;
    group.bench_function("field_mul", |b| {
        b.iter(|| {
            chained = chained.mul(black_box(&operand));
            chained
        })
    });
    group.bench_function("field_square", |b| {
        b.iter(|| {
            chained = chained.square();
            chained
        })
    });

    group.bench_function("scalar_random", |b| {
        b.iter(|| Scalar::random_nonzero(&mut rng))
    });

    let scalar = Scalar::random(&mut rng);
    group.bench_function("point_mul_base", |b| b.iter(|| Point::mul_base(&scalar)));

    let varbase = Point::mul_base(&Scalar::random(&mut rng));
    group.bench_function("point_mul_var", |b| b.iter(|| varbase.mul(&scalar)));

    let compressed = varbase.compress();
    group.bench_function("point_decompress", |b| {
        b.iter(|| black_box(&compressed).decompress().unwrap())
    });

    let points = batch_points(&mut rng);
    group.bench_function("batch_to_affine_64", |b| {
        b.iter(|| Point::batch_to_affine(&points))
    });

    let recipient = HybridKeypair::generate(&mut rng);
    group.bench_function("hybrid_seal_64B", |b| {
        b.iter(|| {
            HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", &payload).unwrap()
        })
    });
    let precomputed = FixedBaseTable::from(recipient.public_key());
    group.bench_function("hybrid_seal_64B_precomputed", |b| {
        b.iter(|| HybridCiphertext::seal(&mut rng, &precomputed, b"aad", &payload).unwrap())
    });
    let encoder = client_encoder(&mut rng);
    group.bench_function("encode_plain_report", |b| {
        b.iter(|| {
            encoder
                .encode_plain(
                    b"www.example.com",
                    CrowdStrategy::Hash(b"crowd"),
                    0,
                    &mut rng,
                )
                .unwrap()
        })
    });
    group.bench_function("encode_blind_report", |b| {
        b.iter(|| {
            encoder
                .encode_plain(
                    b"www.example.com",
                    CrowdStrategy::Blind(b"crowd"),
                    0,
                    &mut rng,
                )
                .unwrap()
        })
    });
    let sealed =
        HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", &payload).unwrap();
    group.bench_function("hybrid_open_64B", |b| {
        b.iter(|| sealed.open(recipient.secret(), b"aad").unwrap())
    });

    let batch = batch_ciphertexts(&mut rng, &recipient);
    group.bench_function("hybrid_open_batch_64", |b| {
        b.iter(|| HybridCiphertext::open_batch(&batch, recipient.secret(), b"aad"))
    });

    let elgamal = ElGamalKeypair::generate(&mut rng);
    let ciphertext = ElGamalCiphertext::encrypt_hashed(&mut rng, elgamal.public_key(), b"crowd");
    let blinding = BlindingSecret::random(&mut rng);
    group.bench_function("elgamal_encrypt_hashed", |b| {
        b.iter(|| ElGamalCiphertext::encrypt_hashed(&mut rng, elgamal.public_key(), b"crowd"))
    });
    group.bench_function("elgamal_blind", |b| b.iter(|| ciphertext.blind(&blinding)));
    // Shuffler 1's whole per-record step: blind with α, then re-randomize
    // with a pre-drawn scalar against the batch's key table.
    let key_table = FixedBaseTable::new(elgamal.public_key());
    group.bench_function("fixed_base_mul", |b| b.iter(|| key_table.mul(&scalar)));
    group.bench_function("elgamal_blind_rerandomize", |b| {
        b.iter(|| ciphertext.blind(&blinding).rerandomize(&scalar, &key_table))
    });
    group.bench_function("fixed_base_table_build", |b| {
        b.iter(|| FixedBaseTable::new(elgamal.public_key()))
    });
    group.bench_function("elgamal_decrypt", |b| {
        b.iter(|| elgamal.decrypt(&ciphertext))
    });
    // The S1→S2 wire encoding: per record, batched (per ciphertext), and
    // Shuffler 2's decode.
    let blinded: Vec<ElGamalCiphertext> = (0..BATCH)
        .map(|_| ciphertext.blind(&BlindingSecret::random(&mut rng)))
        .collect();
    group.bench_function("elgamal_to_bytes", |b| b.iter(|| blinded[0].to_bytes()));
    group.bench_function("elgamal_batch_to_bytes_64", |b| {
        b.iter(|| ElGamalCiphertext::batch_to_bytes(&blinded))
    });
    let encoded = blinded[0].to_bytes();
    group.bench_function("elgamal_from_bytes", |b| {
        b.iter(|| ElGamalCiphertext::from_bytes(&encoded).unwrap())
    });

    let secret = mle::derive_key(b"some reported value");
    group.bench_function("mle_encrypt_64B", |b| b.iter(|| mle::encrypt(&payload)));
    group.bench_function("shamir_share_t20", |b| {
        b.iter(|| shamir::share_secret(&secret, 20, &mut rng))
    });

    group.finish();
}

/// Median-free warm-up-then-sample loop mirroring the vendored criterion's
/// budget semantics (`CRITERION_SAMPLE_MILLIS`), returning ns per op — the
/// vendored harness cannot hand measurements back, so the BENCHJSON pass
/// re-times the hot paths itself.
fn measure_ns<O, F: FnMut() -> O>(mut routine: F) -> f64 {
    let budget_millis = prochlo_bench::env_usize("CRITERION_SAMPLE_MILLIS", 40) as u64;
    for _ in 0..3 {
        black_box(routine());
    }
    let budget = std::time::Duration::from_millis(budget_millis);
    let start = Instant::now();
    let mut iters: u64 = 0;
    let mut batch: u64 = 1;
    while start.elapsed() < budget {
        for _ in 0..batch {
            black_box(routine());
        }
        iters += batch;
        batch = batch.saturating_mul(2).min(1 << 20);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

fn emit_ops_per_sec(metric: &str, ns_per_op: f64, ops_per_iteration: f64) {
    emit_metric(
        "crypto",
        metric,
        ops_per_iteration * 1e9 / ns_per_op.max(1.0),
    );
}

fn emit_benchjson() {
    let mut rng = StdRng::seed_from_u64(2);
    let operand = field_operand();
    let mut chained = operand;
    emit_ops_per_sec(
        "field_mul_ops_per_sec",
        measure_ns(|| {
            chained = chained.mul(black_box(&operand));
            chained
        }),
        1.0,
    );
    emit_ops_per_sec(
        "field_square_ops_per_sec",
        measure_ns(|| {
            chained = chained.square();
            chained
        }),
        1.0,
    );
    emit_ops_per_sec(
        "scalar_random_ops_per_sec",
        measure_ns(|| Scalar::random_nonzero(&mut rng)),
        1.0,
    );
    let scalar = Scalar::random(&mut rng);
    emit_ops_per_sec(
        "point_mul_base_ops_per_sec",
        measure_ns(|| Point::mul_base(&scalar)),
        1.0,
    );
    let varbase = Point::mul_base(&Scalar::random(&mut rng));
    emit_ops_per_sec(
        "point_mul_var_ops_per_sec",
        measure_ns(|| varbase.mul(&scalar)),
        1.0,
    );
    let compressed = varbase.compress();
    emit_ops_per_sec(
        "point_decompress_ops_per_sec",
        measure_ns(|| black_box(&compressed).decompress().unwrap()),
        1.0,
    );
    let points = batch_points(&mut rng);
    emit_ops_per_sec(
        "batch_to_affine_64_points_per_sec",
        measure_ns(|| Point::batch_to_affine(&points)),
        BATCH as f64,
    );
    let payload = vec![0xabu8; 64];
    let key = AeadKey::random(&mut rng);
    let nonce = [7u8; aead::NONCE_LEN];
    emit_ops_per_sec(
        "aead_seal_64B_ops_per_sec",
        measure_ns(|| aead::seal(&key, &nonce, b"aad", &payload)),
        1.0,
    );
    let recipient = HybridKeypair::generate(&mut rng);
    emit_ops_per_sec(
        "hybrid_seal_64B_ops_per_sec",
        measure_ns(|| {
            HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", &payload).unwrap()
        }),
        1.0,
    );
    let precomputed = FixedBaseTable::from(recipient.public_key());
    emit_ops_per_sec(
        "hybrid_seal_64B_precomputed_ops_per_sec",
        measure_ns(|| HybridCiphertext::seal(&mut rng, &precomputed, b"aad", &payload).unwrap()),
        1.0,
    );
    // A whole report: the crowd ID and both layers (three seals' worth of
    // curve work with the El Gamal crowd ID, two without).
    let encoder = client_encoder(&mut rng);
    emit_ops_per_sec(
        "encode_plain_report_ops_per_sec",
        measure_ns(|| {
            encoder
                .encode_plain(
                    b"www.example.com",
                    CrowdStrategy::Hash(b"crowd"),
                    0,
                    &mut rng,
                )
                .unwrap()
        }),
        1.0,
    );
    emit_ops_per_sec(
        "encode_blind_report_ops_per_sec",
        measure_ns(|| {
            encoder
                .encode_plain(
                    b"www.example.com",
                    CrowdStrategy::Blind(b"crowd"),
                    0,
                    &mut rng,
                )
                .unwrap()
        }),
        1.0,
    );
    let mut rng = StdRng::seed_from_u64(3);
    let sealed =
        HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", &payload).unwrap();
    emit_ops_per_sec(
        "hybrid_open_64B_ops_per_sec",
        measure_ns(|| sealed.open(recipient.secret(), b"aad").unwrap()),
        1.0,
    );
    let batch = batch_ciphertexts(&mut rng, &recipient);
    emit_ops_per_sec(
        "hybrid_open_batch_64_records_per_sec",
        measure_ns(|| HybridCiphertext::open_batch(&batch, recipient.secret(), b"aad")),
        BATCH as f64,
    );
    let elgamal = ElGamalKeypair::generate(&mut rng);
    let ciphertext = ElGamalCiphertext::encrypt_hashed(&mut rng, elgamal.public_key(), b"crowd");
    let blinding = BlindingSecret::random(&mut rng);
    emit_ops_per_sec(
        "elgamal_blind_ops_per_sec",
        measure_ns(|| ciphertext.blind(&blinding)),
        1.0,
    );
    let key_table = FixedBaseTable::new(elgamal.public_key());
    emit_ops_per_sec(
        "fixed_base_mul_ops_per_sec",
        measure_ns(|| key_table.mul(&scalar)),
        1.0,
    );
    emit_ops_per_sec(
        "elgamal_blind_rerandomize_ops_per_sec",
        measure_ns(|| ciphertext.blind(&blinding).rerandomize(&scalar, &key_table)),
        1.0,
    );
    // Paid once per Shuffler 1 batch; a cost, so lower is better.
    emit_metric(
        "crypto",
        "fixed_base_table_build_us",
        measure_ns(|| FixedBaseTable::new(elgamal.public_key())) / 1e3,
    );
}

criterion_group!(benches, bench_crypto);

fn main() {
    benches();
    emit_benchjson();
}
