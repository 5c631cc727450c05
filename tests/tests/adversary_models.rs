//! Tests of the §3.1 attack models: what each compromised party can and
//! cannot learn from what it holds.

use prochlo_core::encoder::{ClientKeys, CrowdStrategy, Encoder, ANALYZER_AAD, SHUFFLER_AAD};
use prochlo_core::record::ShufflerEnvelope;
use prochlo_core::{Deployment, EpochSpec, ShufflerConfig};
use prochlo_crypto::elgamal::ElGamalKeypair;
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::{mle, shamir};
use prochlo_sgx::{AttestationAuthority, QuoteVerifier};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn client_keys(rng: &mut StdRng) -> (ClientKeys, HybridKeypair, HybridKeypair) {
    let shuffler = HybridKeypair::generate(rng);
    let analyzer = HybridKeypair::generate(rng);
    (
        ClientKeys {
            shuffler: *shuffler.public_key(),
            analyzer: *analyzer.public_key(),
            crowd_blinding: None,
        },
        shuffler,
        analyzer,
    )
}

#[test]
fn compromised_shuffler_sees_crowd_ids_but_not_payloads() {
    let mut rng = StdRng::seed_from_u64(1);
    let (keys, shuffler, _analyzer) = client_keys(&mut rng);
    let encoder = Encoder::new(keys, 64);
    let report = encoder
        .encode_plain(
            b"embarrassing-but-common-value",
            CrowdStrategy::Hash(b"crowd"),
            0,
            &mut rng,
        )
        .unwrap();

    // The (honest-but-curious) shuffler peels the outer layer...
    let envelope_bytes = report.outer.open(shuffler.secret(), SHUFFLER_AAD).unwrap();
    let envelope = ShufflerEnvelope::from_bytes(&envelope_bytes).unwrap();
    // ...and learns the crowd ID, but the payload stays sealed: decrypting the
    // inner layer with the shuffler's key fails.
    let inner = HybridCiphertext::from_bytes(&envelope.inner).unwrap();
    assert!(inner.open(shuffler.secret(), ANALYZER_AAD).is_err());
    assert!(inner.open(shuffler.secret(), SHUFFLER_AAD).is_err());
}

#[test]
fn compromised_analyzer_cannot_link_reports_to_metadata() {
    // The analyzer only ever receives the shuffled inner ciphertexts; the
    // pipeline output must contain no transport metadata and no arrival
    // ordering correlation.
    let mut rng = StdRng::seed_from_u64(2);
    let pipeline = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .payload_size(16)
        .build(&mut rng);
    let encoder = pipeline.encoder();
    let reports: Vec<_> = (0..300u64)
        .map(|i| {
            encoder
                .encode_plain(
                    format!("user-value-{i}").as_bytes(),
                    CrowdStrategy::None,
                    i,
                    &mut rng,
                )
                .unwrap()
        })
        .collect();
    let result = pipeline.run(&reports, &mut rng).unwrap();
    // Rows are not in arrival order (overwhelmingly likely after a shuffle of
    // 300 distinct items).
    let arrival: Vec<Vec<u8>> = (0..300u64)
        .map(|i| format!("user-value-{i}").into_bytes())
        .collect();
    assert!(!result.database.rows().eq(arrival.iter().map(Vec::as_slice)));
    // And the database type simply has no metadata to expose: all we can do
    // is count values.
    assert_eq!(result.database.rows().len(), 300);
}

#[test]
fn analyzer_cannot_read_secret_shared_values_below_threshold_even_with_shuffler_help() {
    // Even if the analyzer and shuffler collude (so the adversary holds both
    // private keys), a secret-shared value reported by fewer than t clients
    // stays unreadable: recovery needs t distinct shares.
    let mut rng = StdRng::seed_from_u64(3);
    let (keys, shuffler, analyzer) = client_keys(&mut rng);
    let encoder = Encoder::new(keys, 64);
    let mut shares = Vec::new();
    let mut ciphertexts = Vec::new();
    for i in 0..10u64 {
        let report = encoder
            .encode_secret_shared(
                b"hard-to-guess-8f3a9c",
                20,
                CrowdStrategy::None,
                i,
                &mut rng,
            )
            .unwrap();
        let envelope_bytes = report.outer.open(shuffler.secret(), SHUFFLER_AAD).unwrap();
        let envelope = ShufflerEnvelope::from_bytes(&envelope_bytes).unwrap();
        let inner = HybridCiphertext::from_bytes(&envelope.inner).unwrap();
        let payload = inner.open(analyzer.secret(), ANALYZER_AAD).unwrap();
        match prochlo_core::record::AnalyzerPayload::from_bytes(&payload).unwrap() {
            prochlo_core::record::AnalyzerPayload::SecretShared { ciphertext, share } => {
                ciphertexts.push(ciphertext);
                shares.push(shamir::Share::from_bytes(&share).unwrap());
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }
    // All ten ciphertexts are identical (deterministic MLE), but ten shares
    // are not enough for the threshold of twenty.
    assert!(ciphertexts.windows(2).all(|w| w[0] == w[1]));
    assert!(shamir::recover_secret(&shares, 20).is_err());
    // And brute-forcing the AEAD with a guessed-wrong key fails.
    let wrong_key = mle::derive_key(b"hard-to-guess-WRONG");
    let ct = mle::MleCiphertext::from_bytes(&ciphertexts[0]).unwrap();
    assert!(mle::decrypt(&wrong_key, &ct).is_err());
}

#[test]
fn a_forger_who_guesses_a_value_can_neither_erase_nor_inflate_it() {
    // Message-locked encryption lets anyone who guesses a value compute its
    // ciphertext. Shares sealed at one more than the threshold carry that
    // ciphertext but lie off the value's polynomial: forgeries the analyzer
    // must count apart from the value, without losing the honest count.
    let mut rng = StdRng::seed_from_u64(11);
    let deployment = Deployment::builder()
        .config(ShufflerConfig::default().without_thresholding())
        .share_threshold(20)
        .build(&mut rng);
    let encoder = deployment.encoder();
    let reports: Vec<_> = (0..205u64)
        .map(|client| {
            let threshold = if client < 200 { 20 } else { 21 };
            encoder
                .encode_secret_shared(b"popular", threshold, CrowdStrategy::None, client, &mut rng)
                .unwrap()
        })
        .collect();
    let report = deployment.ingest(&EpochSpec::new(0, 7), &reports).unwrap();
    let database = &report.database;
    assert_eq!(database.count(b"popular"), 200);
    assert_eq!(database.forged_shares(), 5);
    assert_eq!(
        database.rows().len()
            + database.pending_secret_reports()
            + database.undecryptable()
            + database.forged_shares(),
        report.shuffler_stats.forwarded
    );
}

#[test]
fn clients_reject_quotes_from_unknown_enclaves() {
    // The client-side trust decision of §4.1.1: a shuffler key is only
    // accepted when the attestation chain verifies and the measurement is a
    // known shuffler build.
    let mut rng = StdRng::seed_from_u64(4);
    let authority = AttestationAuthority::from_seed(b"intel");
    let cpu = authority.provision_cpu(b"cpu-1");
    let shuffler = prochlo_core::Shuffler::new(ShufflerConfig::default(), &mut rng);
    let quote = shuffler.attest(&cpu);

    // A verifier that trusts this build accepts and extracts the key.
    let good = QuoteVerifier::new(authority.root_key(), vec![shuffler.enclave().measurement()]);
    assert_eq!(
        good.verify(&quote).unwrap(),
        shuffler.public_key().to_bytes()
    );

    // A verifier that only trusts some other build refuses to use the key.
    let bad = QuoteVerifier::new(authority.root_key(), vec![[7u8; 32]]);
    assert!(bad.verify(&quote).is_err());
}

#[test]
fn sybil_crowd_inflation_is_visible_in_stats_but_thresholding_still_applies() {
    // Encoder-compromise model: an attacker submits many reports with the
    // same crowd ID to drag a rare value over the threshold. The pipeline
    // cannot prevent this (the paper explicitly scopes Sybil attacks out) but
    // the shuffler statistics expose the inflated crowd, and honest crowds
    // are unaffected.
    let mut rng = StdRng::seed_from_u64(5);
    let pipeline = Deployment::builder().payload_size(32).build(&mut rng);
    let encoder = pipeline.encoder();
    let mut reports = Vec::new();
    for i in 0..40u64 {
        reports.push(
            encoder
                .encode_plain(b"honest-value", CrowdStrategy::Hash(b"honest"), i, &mut rng)
                .unwrap(),
        );
    }
    for i in 0..40u64 {
        reports.push(
            encoder
                .encode_plain(
                    b"sybil-target",
                    CrowdStrategy::Hash(b"sybil"),
                    100 + i,
                    &mut rng,
                )
                .unwrap(),
        );
    }
    let result = pipeline.run(&reports, &mut rng).unwrap();
    assert_eq!(result.shuffler_stats.crowds_seen, 2);
    assert!(result.database.count(b"honest-value") > 20);
}

#[test]
fn one_hostile_well_formed_report_changes_nothing_but_the_rejected_count() {
    // A client of the single-shuffler deployment seals a *blinded* crowd ID
    // — well-formed, built with the public encoder API against the
    // deployment's own public keys, but countable only by the split
    // topology. It must cost the epoch exactly one rejected report: it joins
    // no crowd and consumes no draw, so every honest report fares as it
    // would have without it.
    let mut rng = StdRng::seed_from_u64(6);
    let pipeline = Deployment::builder().payload_size(32).build(&mut rng);
    let encoder = pipeline.encoder();
    let mut reports = Vec::new();
    for (value, count) in [(&b"chrome"[..], 150u64), (b"firefox", 45), (b"lynx", 5)] {
        for i in 0..count {
            let crowd = CrowdStrategy::Hash(value);
            reports.push(encoder.encode_plain(value, crowd, i, &mut rng).unwrap());
        }
    }
    let spec = EpochSpec::new(4, 0xbad);
    let honest = pipeline.ingest(&spec, &reports).unwrap();

    let elgamal = ElGamalKeypair::generate(&mut rng);
    let hostile_keys = ClientKeys {
        crowd_blinding: Some(*elgamal.public_key()),
        ..pipeline.client_keys()
    };
    let hostile = Encoder::new(hostile_keys, 32)
        .encode_plain(b"chrome", CrowdStrategy::Blind(b"chrome"), 999, &mut rng)
        .unwrap();
    reports.insert(77, hostile);
    let attacked = pipeline.ingest(&spec, &reports).unwrap();

    assert_eq!(attacked.shuffler_stats.received, 201);
    assert_eq!(attacked.shuffler_stats.rejected, 1);
    assert_eq!(honest.shuffler_stats.rejected, 0);
    assert_eq!(
        attacked.shuffler_stats.forwarded,
        honest.shuffler_stats.forwarded
    );
    assert!(attacked.database.rows().eq(honest.database.rows()));
    assert_eq!(
        attacked.database.canonical_histogram_bytes(),
        honest.database.canonical_histogram_bytes()
    );
    assert!(honest.database.count(b"chrome") > 100);
}

#[test]
fn a_replayed_report_shows_in_the_duplicate_count() {
    // Anyone who captures one sealed report (or the client who sealed it)
    // can resubmit the same bytes under fresh collector nonces: 61 copies
    // of a rare value alone in its crowd. The epoch's canonical order makes
    // the copies adjacent, and the shuffling stage's statistics count every
    // copy after the first.
    let mut rng = StdRng::seed_from_u64(7);
    let deployment = Deployment::builder().payload_size(32).build(&mut rng);
    let encoder = deployment.encoder();
    let mut reports = Vec::new();
    for (value, count) in [(&b"chrome"[..], 150u64), (b"firefox", 45)] {
        for i in 0..count {
            let crowd = CrowdStrategy::Hash(value);
            reports.push(encoder.encode_plain(value, crowd, i, &mut rng).unwrap());
        }
    }
    let rare = encoder
        .encode_plain(b"rare-value", CrowdStrategy::Hash(b"rare"), 999, &mut rng)
        .unwrap();
    let epoch = |copies: usize| {
        let mut session = deployment.session(EpochSpec::new(0, 0x5eed));
        session.extend(reports.iter().cloned());
        session.extend(std::iter::repeat_n(rare.clone(), copies));
        session.finish().unwrap()
    };
    assert_eq!(epoch(1).shuffler_stats.duplicate_reports, 0);
    let replayed = epoch(61);
    assert_eq!(replayed.shuffler_stats.duplicate_reports, 60);
    assert_eq!(replayed.shuffler_stats.received, 256);
}
