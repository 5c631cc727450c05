//! The ESA analyzer: decryption, database materialization, secret-share
//! recovery and differentially-private release (§3.4).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::{mle, sha256, shamir, PublicKey};
use prochlo_stats::{Histogram, Laplace};

use crate::encoder::ANALYZER_AAD;
use crate::error::PipelineError;
use crate::exec;
use crate::record::AnalyzerPayload;
use crate::wire::unpad_payload;

/// Uniform share subsets tried for a secret-shared group that neither its
/// first window nor a leave-one-out subset verifies
/// ([`shamir::recover_verified`]). At t = 20 they leave a group pending with
/// probability ≈ 5·10⁻¹³ when 5 % of its shares are forged, ≈ 2.5·10⁻⁴ at
/// 10 % (the forged fraction this budget holds against) and ≈ 1/2 at 20 %.
const RANDOM_SUBSETS: usize = 64;

/// The analyzer role: holds the inner-layer private key.
#[derive(Debug, Clone)]
pub struct Analyzer {
    keys: HybridKeypair,
    share_threshold: usize,
}

/// The database the analyzer materializes from one or more shuffled batches.
///
/// Rows carry no provenance: the shuffler already stripped metadata and
/// destroyed ordering, so this is exactly the "anonymous, shuffled data"
/// database of the paper, compatible with ordinary SQL/NoSQL-style analysis.
///
/// Each distinct value is stored once and a row is a 4-byte id into the
/// distinct values, kept in shuffled order: a row whose value was seen
/// before costs no allocation, and [`Self::merge_from`] costs one lookup
/// per distinct value of the other database, not one per row.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerDatabase {
    /// Row `i` holds `values[rows[i]]`.
    rows: Vec<u32>,
    /// The distinct values, indexed by id in first-seen order.
    values: Vec<Vec<u8>>,
    /// Each distinct value's id.
    ids: BTreeMap<Vec<u8>, u32>,
    histogram: Histogram<Vec<u8>>,
    undecryptable: usize,
    pending_secret_groups: usize,
    pending_secret_reports: usize,
    recovered_secrets: usize,
    forged_shares: usize,
}

impl Analyzer {
    /// Creates an analyzer with the given keypair and the default
    /// secret-share threshold of 20 (matching the paper's Vocab setup).
    pub(crate) fn new(keys: HybridKeypair) -> Self {
        Self {
            keys,
            share_threshold: 20,
        }
    }

    /// Sets the number of distinct shares required to recover a
    /// secret-shared value.
    pub(crate) fn with_share_threshold(mut self, threshold: usize) -> Self {
        self.share_threshold = threshold.max(1);
        self
    }

    /// The public key clients embed for the inner encryption layer.
    pub(crate) fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// Decrypts a batch of inner ciphertexts, sharding the hybrid
    /// decryptions — the analyzer's hot path — across `num_threads` scoped
    /// workers over fixed-size chunks with an in-order merge, so
    /// `payloads[i]` always corresponds to `items[i]` regardless of the
    /// worker count. `None` marks an item that failed to decrypt or parse.
    /// Items are any byte containers: owned `Vec<u8>`s, or slices of the
    /// fabric frame they arrived in.
    pub fn decrypt_batch(
        &self,
        items: &[impl AsRef<[u8]> + Sync],
        num_threads: usize,
    ) -> Vec<Option<AnalyzerPayload>> {
        exec::par_chunks(
            items,
            num_threads.max(1),
            exec::DRAW_FREE_CHUNK_RECORDS,
            |_chunk_idx, chunk| {
                let span = prochlo_obs::span("analyzer.decrypt.chunk");
                // Parse the wire encodings first so the whole chunk's hybrid
                // opens run as one batch: the ECDH shared points are then
                // normalized with a single field inversion per chunk.
                let mut parseable = Vec::with_capacity(chunk.len());
                let mut valid = Vec::with_capacity(chunk.len());
                for item in chunk {
                    match HybridCiphertext::from_bytes(item.as_ref()) {
                        Ok(ct) => {
                            parseable.push(true);
                            valid.push(ct);
                        }
                        Err(_) => parseable.push(false),
                    }
                }
                let crypto_span = prochlo_obs::span("crypto.open.batch");
                let opened = HybridCiphertext::open_batch(&valid, self.keys.secret(), ANALYZER_AAD);
                crypto_span.finish();
                let mut opened_iter = opened.into_iter();
                let payloads = parseable
                    .iter()
                    .map(|ok| {
                        // One opened slot per parseable item keeps the
                        // iterator aligned with `valid`.
                        if !ok {
                            return None;
                        }
                        let bytes = opened_iter.next().expect("one result per ciphertext")?;
                        AnalyzerPayload::from_bytes(&bytes).ok()
                    })
                    .collect::<Vec<_>>();
                span.finish();
                payloads
            },
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// Decrypts a batch of inner ciphertexts into a database, with the
    /// decryption pass sharded across `num_threads` workers (see
    /// [`Self::decrypt_batch`]). Aggregation runs over the in-order
    /// payloads, so the database is identical at any worker count.
    pub fn ingest_items_parallel(
        &self,
        items: &[impl AsRef<[u8]> + Sync],
        num_threads: usize,
    ) -> Result<AnalyzerDatabase, PipelineError> {
        let mut db = AnalyzerDatabase::default();
        // Secret-shared values grouped by their deterministic ciphertext.
        // BTreeMap so recovered rows land in a deterministic order
        // regardless of the process's hash seed.
        let mut groups: BTreeMap<Vec<u8>, Vec<shamir::Share>> = BTreeMap::new();

        for payload in self.decrypt_batch(items, num_threads) {
            let payload = match payload {
                Some(p) => p,
                None => {
                    db.undecryptable += 1;
                    continue;
                }
            };
            match payload {
                AnalyzerPayload::Plain(padded) => match unpad_payload(&padded) {
                    Ok(data) => db.push_rows(data, 1),
                    Err(_) => db.undecryptable += 1,
                },
                AnalyzerPayload::SecretShared { ciphertext, share } => {
                    match shamir::Share::from_bytes(&share) {
                        Ok(parsed) => groups.entry(ciphertext).or_default().push(parsed),
                        Err(_) => db.undecryptable += 1,
                    }
                }
            }
        }

        // Attempt recovery for each secret-shared group; a recovered value
        // counts one row per share on its polynomial.
        let mut retries = 0;
        for (ciphertext_bytes, shares) in groups {
            let verified = self.recover_group(&ciphertext_bytes, &shares);
            retries += verified.retries;
            match verified.value {
                Some(value) => {
                    db.recovered_secrets += 1;
                    db.forged_shares += verified.forged;
                    db.push_rows(&value, shares.len() - verified.forged);
                }
                None => {
                    db.pending_secret_groups += 1;
                    db.pending_secret_reports += shares.len();
                }
            }
        }
        prochlo_obs::counter("analyzer.shares.forged").add(db.forged_shares as u64);
        prochlo_obs::counter("analyzer.recover.retries").add(retries as u64);
        Ok(db)
    }

    /// Recovers one group's value: a key is taken only when it opens the
    /// group's message-locked ciphertext and re-derives from the plaintext.
    /// Retry subsets come from a stream the ciphertext seeds, so the
    /// database stays a pure function of the items.
    fn recover_group(
        &self,
        ciphertext_bytes: &[u8],
        shares: &[shamir::Share],
    ) -> shamir::Verified<Vec<u8>> {
        let Ok(ciphertext) = mle::MleCiphertext::from_bytes(ciphertext_bytes) else {
            return shamir::Verified::default();
        };
        let mut rng = StdRng::from_seed(sha256(ciphertext_bytes));
        shamir::recover_verified(
            shares,
            self.share_threshold,
            RANDOM_SUBSETS,
            &mut rng,
            |key| {
                let padded = mle::decrypt(key, &ciphertext).ok()?;
                let value = unpad_payload(&padded).ok()?;
                (mle::derive_key(&padded) == *key).then(|| value.to_vec())
            },
        )
    }
}

impl AnalyzerDatabase {
    /// Counts `n` more rows of `value` and returns its id, allocating only
    /// the first time `value` is seen.
    fn intern(&mut self, value: &[u8], n: u64) -> u32 {
        self.histogram.add_n(value, n);
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct values");
        self.values.push(value.to_vec());
        self.ids.insert(value.to_vec(), id);
        id
    }

    fn push_rows(&mut self, value: &[u8], n: usize) {
        let id = self.intern(value, n as u64);
        self.rows.extend(std::iter::repeat_n(id, n));
    }

    /// Builds a database directly from decrypted rows, bypassing the
    /// cryptographic path — for merge tooling and tests that reason about
    /// [`Self::merge_from`] and [`Self::canonical_histogram_bytes`] without
    /// standing up a full deployment.
    pub fn from_rows<I: IntoIterator<Item = Vec<u8>>>(rows: I) -> Self {
        let mut db = Self::default();
        for row in rows {
            db.push_rows(&row, 1);
        }
        db
    }

    /// All decrypted rows in the order they were ingested (the shuffled
    /// order, which carries no meaning), each borrowed from the distinct
    /// values.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.rows
            .iter()
            .map(|&id| self.values[id as usize].as_slice())
    }

    /// Frequency histogram over row values.
    pub fn histogram(&self) -> &Histogram<Vec<u8>> {
        &self.histogram
    }

    /// Number of distinct values observed.
    pub fn distinct_values(&self) -> usize {
        self.histogram.distinct()
    }

    /// A canonical byte serialization of the histogram: `(value, count)`
    /// entries sorted by value, each wire-encoded. Two databases holding the
    /// same multiset of rows serialize identically regardless of ingestion
    /// order or the process's hash seed, which is what deterministic-replay
    /// tests and cross-run comparisons diff against.
    pub fn canonical_histogram_bytes(&self) -> Vec<u8> {
        let mut entries: Vec<(&Vec<u8>, u64)> = self.histogram.iter().collect();
        entries.sort();
        let mut out = Vec::new();
        crate::wire::put_u32(&mut out, entries.len() as u32);
        for (value, count) in entries {
            crate::wire::put_bytes(&mut out, value);
            crate::wire::put_u64(&mut out, count);
        }
        out
    }

    /// Items that failed to decrypt or parse.
    pub fn undecryptable(&self) -> usize {
        self.undecryptable
    }

    /// Shares of recovered groups that lie off the verified polynomial:
    /// forged and not counted. Rows, pending reports, undecryptable items
    /// and forged shares add up to the items ingested.
    pub fn forged_shares(&self) -> usize {
        self.forged_shares
    }

    /// Secret-shared groups that have not yet met the share threshold.
    pub fn pending_secret_groups(&self) -> usize {
        self.pending_secret_groups
    }

    /// Reports belonging to unrecovered secret-shared groups.
    pub fn pending_secret_reports(&self) -> usize {
        self.pending_secret_reports
    }

    /// Secret-shared values successfully recovered.
    pub fn recovered_secrets(&self) -> usize {
        self.recovered_secrets
    }

    /// Merges another database into this one (across daily batches,
    /// shards or epochs), appending its rows after this one's. Each of the
    /// other database's distinct values is looked up once; its rows are
    /// then copied as ids.
    pub fn merge_from(&mut self, other: &AnalyzerDatabase) {
        let remap: Vec<u32> = other
            .values
            .iter()
            .map(|value| self.intern(value, other.histogram.count(value.as_slice())))
            .collect();
        self.rows
            .extend(other.rows.iter().map(|&id| remap[id as usize]));
        self.undecryptable += other.undecryptable;
        self.pending_secret_groups += other.pending_secret_groups;
        self.pending_secret_reports += other.pending_secret_reports;
        self.recovered_secrets += other.recovered_secrets;
        self.forged_shares += other.forged_shares;
    }

    /// The exact count of a value.
    pub fn count(&self, value: &[u8]) -> u64 {
        self.histogram.count(value)
    }

    /// Releases the histogram with ε-differential privacy by adding
    /// Laplace(1/ε) noise to every count (sensitivity 1 per report).
    pub fn dp_histogram<R: Rng + ?Sized>(&self, epsilon: f64, rng: &mut R) -> Vec<(Vec<u8>, f64)> {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let noise = Laplace::new(0.0, 1.0 / epsilon);
        // Sort values before drawing noise: the histogram iterates in
        // process-random HashMap order, and pairing draws with entries in
        // that order would make seeded releases irreproducible.
        let mut entries: Vec<(Vec<u8>, u64)> = self
            .histogram
            .iter()
            .map(|(value, count)| (value.clone(), count))
            .collect();
        entries.sort();
        let mut out: Vec<(Vec<u8>, f64)> = entries
            .into_iter()
            .map(|(value, count)| (value, count as f64 + noise.sample(rng)))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite noise"));
        out
    }

    /// Releases the total row count with ε-differential privacy.
    pub fn dp_total<R: Rng + ?Sized>(&self, epsilon: f64, rng: &mut R) -> f64 {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let noise = Laplace::new(0.0, 1.0 / epsilon);
        self.rows.len() as f64 + noise.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{ClientKeys, CrowdStrategy, Encoder, SHUFFLER_AAD};
    use crate::record::ShufflerEnvelope;
    use rand::RngCore;

    /// Builds inner ciphertexts directly (bypassing a shuffler) for analyzer
    /// unit tests.
    fn inner_items(
        values: &[&[u8]],
        secret_share: Option<usize>,
        rng: &mut StdRng,
    ) -> (Analyzer, Vec<Vec<u8>>) {
        let shuffler_keys = HybridKeypair::generate(rng);
        let analyzer_keys = HybridKeypair::generate(rng);
        let analyzer = Analyzer::new(analyzer_keys.clone());
        let keys = ClientKeys {
            shuffler: *shuffler_keys.public_key(),
            analyzer: *analyzer_keys.public_key(),
            crowd_blinding: None,
        };
        let encoder = Encoder::new(keys, 48);
        let items = values
            .iter()
            .enumerate()
            .map(|(i, value)| {
                let report = match secret_share {
                    Some(t) => encoder
                        .encode_secret_shared(value, t, CrowdStrategy::None, i as u64, rng)
                        .unwrap(),
                    None => encoder
                        .encode_plain(value, CrowdStrategy::None, i as u64, rng)
                        .unwrap(),
                };
                let envelope_bytes = report
                    .outer
                    .open(shuffler_keys.secret(), SHUFFLER_AAD)
                    .unwrap();
                ShufflerEnvelope::from_bytes(&envelope_bytes).unwrap().inner
            })
            .collect();
        (analyzer, items)
    }

    #[test]
    fn plain_items_materialize_into_rows_and_histogram() {
        let mut rng = StdRng::seed_from_u64(1);
        let (analyzer, items) = inner_items(&[b"a", b"b", b"a", b"a"], None, &mut rng);
        let db = analyzer.ingest_items_parallel(&items, 1).unwrap();
        assert_eq!(db.rows().len(), 4);
        assert_eq!(db.count(b"a"), 3);
        assert_eq!(db.count(b"b"), 1);
        assert_eq!(db.count(b"c"), 0);
        assert_eq!(db.distinct_values(), 2);
        assert_eq!(db.undecryptable(), 0);
    }

    #[test]
    fn garbage_items_are_counted_not_fatal() {
        let mut rng = StdRng::seed_from_u64(2);
        let (analyzer, mut items) = inner_items(&[b"x"], None, &mut rng);
        items.push(vec![0u8; 40]);
        items.push(vec![]);
        let db = analyzer.ingest_items_parallel(&items, 1).unwrap();
        assert_eq!(db.rows().len(), 1);
        assert_eq!(db.undecryptable(), 2);
    }

    #[test]
    fn secret_shared_values_recover_only_at_threshold() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<&[u8]> = vec![b"rare-url"; 4];
        let (analyzer, items) = inner_items(&values, Some(5), &mut rng);
        let analyzer = analyzer.with_share_threshold(5);
        // Only 4 of the 5 required shares: nothing recovered.
        let db = analyzer.ingest_items_parallel(&items, 1).unwrap();
        assert_eq!(db.rows().len(), 0);
        assert_eq!(db.pending_secret_groups(), 1);
        assert_eq!(db.pending_secret_reports(), 4);

        // With 6 reports the value is recovered and counted 6 times.
        let values6: Vec<&[u8]> = vec![b"rare-url"; 6];
        let (analyzer6, items6) = inner_items(&values6, Some(5), &mut rng);
        let analyzer6 = analyzer6.with_share_threshold(5);
        let db6 = analyzer6.ingest_items_parallel(&items6, 1).unwrap();
        assert_eq!(db6.recovered_secrets(), 1);
        assert_eq!(db6.count(b"rare-url"), 6);
        assert_eq!(db6.pending_secret_groups(), 0);
    }

    /// An inner item a forger seals to the analyzer: the group's
    /// message-locked ciphertext, which anyone who guesses the value can
    /// compute, beside a share of no polynomial.
    fn forged_item(analyzer: &Analyzer, honest: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let opened = HybridCiphertext::from_bytes(honest)
            .unwrap()
            .open(analyzer.keys.secret(), ANALYZER_AAD)
            .unwrap();
        let AnalyzerPayload::SecretShared { ciphertext, .. } =
            AnalyzerPayload::from_bytes(&opened).unwrap()
        else {
            panic!("a secret-shared item");
        };
        let mut share = vec![0u8; 64];
        rng.fill_bytes(&mut share);
        let forged = AnalyzerPayload::SecretShared { ciphertext, share };
        HybridCiphertext::seal(rng, analyzer.public_key(), ANALYZER_AAD, &forged.to_bytes())
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn one_forged_share_among_the_first_threshold_leaves_the_honest_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let values: Vec<&[u8]> = vec![b"popular-url"; 1_200];
        let (analyzer, mut items) = inner_items(&values, Some(20), &mut rng);
        let analyzer = analyzer.with_share_threshold(20);
        // The forgery lands inside the first window of 20 shares.
        let forged = forged_item(&analyzer, &items[0], &mut rng);
        items.insert(7, forged);
        let db = analyzer.ingest_items_parallel(&items, 2).unwrap();
        assert_eq!(db.count(b"popular-url"), 1_200);
        assert_eq!(db.pending_secret_groups(), 0);
        assert_eq!(db.recovered_secrets(), 1);
        assert_eq!(db.forged_shares(), 1);
        assert_eq!(
            db.rows().len() + db.pending_secret_reports() + db.undecryptable() + db.forged_shares(),
            items.len()
        );
    }

    #[test]
    fn a_group_of_forgeries_alone_stays_pending() {
        let mut rng = StdRng::seed_from_u64(9);
        let (analyzer, honest) = inner_items(&[b"guessable"], Some(3), &mut rng);
        let analyzer = analyzer.with_share_threshold(3);
        let items: Vec<Vec<u8>> = (0..10)
            .map(|_| forged_item(&analyzer, &honest[0], &mut rng))
            .collect();
        let db = analyzer.ingest_items_parallel(&items, 1).unwrap();
        assert_eq!(db.rows().len(), 0);
        assert_eq!(db.pending_secret_groups(), 1);
        assert_eq!(db.pending_secret_reports(), 10);
        assert_eq!(db.forged_shares(), 0);
    }

    #[test]
    fn distinct_secret_values_do_not_mix() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut values: Vec<&[u8]> = vec![b"alpha"; 3];
        values.extend(vec![b"beta" as &[u8]; 3]);
        let (analyzer, items) = inner_items(&values, Some(3), &mut rng);
        let analyzer = analyzer.with_share_threshold(3);
        let db = analyzer.ingest_items_parallel(&items, 1).unwrap();
        assert_eq!(db.count(b"alpha"), 3);
        assert_eq!(db.count(b"beta"), 3);
        assert_eq!(db.recovered_secrets(), 2);
    }

    #[test]
    fn canonical_histogram_bytes_ignore_ingestion_order() {
        let mut rng = StdRng::seed_from_u64(7);
        let (analyzer, items) = inner_items(&[b"a", b"b", b"a", b"c"], None, &mut rng);
        let forward = analyzer.ingest_items_parallel(&items, 1).unwrap();
        let reversed: Vec<Vec<u8>> = items.iter().rev().cloned().collect();
        let backward = analyzer.ingest_items_parallel(&reversed, 1).unwrap();
        assert_eq!(
            forward.canonical_histogram_bytes(),
            backward.canonical_histogram_bytes()
        );
        // The encoding is non-trivial and changes with the contents.
        assert!(!forward.canonical_histogram_bytes().is_empty());
        let (analyzer2, items2) = inner_items(&[b"a"], None, &mut rng);
        assert_ne!(
            analyzer2
                .ingest_items_parallel(&items2, 1)
                .unwrap()
                .canonical_histogram_bytes(),
            forward.canonical_histogram_bytes()
        );
    }

    #[test]
    fn merge_accumulates_batches() {
        let mut rng = StdRng::seed_from_u64(5);
        let (analyzer, items1) = inner_items(&[b"a", b"b"], None, &mut rng);
        let db1 = analyzer.ingest_items_parallel(&items1, 1).unwrap();
        let (_, items2) = {
            // Re-encode to the same analyzer key.
            let shuffler_keys = HybridKeypair::generate(&mut rng);
            let keys = ClientKeys {
                shuffler: *shuffler_keys.public_key(),
                analyzer: *analyzer.public_key(),
                crowd_blinding: None,
            };
            let encoder = Encoder::new(keys, 48);
            let items: Vec<Vec<u8>> = [b"a", b"a"]
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let report = encoder
                        .encode_plain(*v, CrowdStrategy::None, i as u64, &mut rng)
                        .unwrap();
                    let env = report
                        .outer
                        .open(shuffler_keys.secret(), SHUFFLER_AAD)
                        .unwrap();
                    ShufflerEnvelope::from_bytes(&env).unwrap().inner
                })
                .collect();
            (0, items)
        };
        let db2 = analyzer.ingest_items_parallel(&items2, 1).unwrap();
        let mut merged = db1;
        merged.merge_from(&db2);
        assert_eq!(merged.count(b"a"), 3);
        assert_eq!(merged.count(b"b"), 1);
        assert_eq!(merged.rows().len(), 4);
    }

    #[test]
    fn dp_release_is_noisy_but_close() {
        let mut rng = StdRng::seed_from_u64(6);
        let values: Vec<&[u8]> = std::iter::repeat_n(b"popular" as &[u8], 1000)
            .chain(std::iter::repeat_n(b"minor" as &[u8], 50))
            .collect();
        let (analyzer, items) = inner_items(&values, None, &mut rng);
        let db = analyzer.ingest_items_parallel(&items, 1).unwrap();
        let released = db.dp_histogram(1.0, &mut rng);
        assert_eq!(released.len(), 2);
        // Most frequent first, counts within Laplace noise of the truth.
        assert_eq!(released[0].0, b"popular".to_vec());
        assert!((released[0].1 - 1000.0).abs() < 20.0);
        assert!((released[1].1 - 50.0).abs() < 20.0);
        let total = db.dp_total(1.0, &mut rng);
        assert!((total - 1050.0).abs() < 20.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn dp_release_rejects_nonpositive_epsilon() {
        let db = AnalyzerDatabase::default();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = db.dp_histogram(0.0, &mut rng);
    }
}
