//! Property tests for [`AnalyzerDatabase::merge_from`] over the canonical
//! histogram bytes: associativity and order-independence are what make
//! cross-shard merging well-defined — the analyzer may combine the
//! databases of the collector shards behind the shard router in any
//! grouping and any order and always publish the same histogram. A model test holds the database's
//! interned rows (ids into the distinct values) to a plain `Vec<Vec<u8>>`.

use std::collections::BTreeMap;

use prochlo_core::wire::{put_bytes, put_u32, put_u64};
use prochlo_core::AnalyzerDatabase;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deterministic random rows over a tiny value universe: collisions are
/// frequent, which is where merge bugs would hide (counts, not just
/// presence, must combine correctly). A third of the rows are empty.
fn rows_from_seed(seed: u64, len: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let row_len = rng.gen_range(0..3usize);
            (0..row_len).map(|_| rng.gen_range(0u8..4)).collect()
        })
        .collect()
}

fn merged(parts: &[&AnalyzerDatabase]) -> AnalyzerDatabase {
    let mut out = AnalyzerDatabase::default();
    for part in parts {
        out.merge_from(part);
    }
    out
}

/// Asserts that `db` holds exactly the rows of `model`, in order, through
/// every read the database offers.
fn assert_matches_model(db: &AnalyzerDatabase, model: &[Vec<u8>], dp_seed: u64) {
    assert_eq!(
        db.rows().collect::<Vec<_>>(),
        model.iter().map(Vec::as_slice).collect::<Vec<_>>()
    );
    assert_eq!(db.rows().len(), model.len());

    let mut counts: BTreeMap<&[u8], u64> = BTreeMap::new();
    for row in model {
        *counts.entry(row).or_default() += 1;
    }
    for (value, &count) in &counts {
        assert_eq!(db.count(value), count);
    }
    assert_eq!(db.count(&[9]), 0, "a value outside the universe");
    assert_eq!(db.distinct_values(), counts.len());

    // The release adds the same seeded noise to its row basis, so the
    // basis is what an empty database's release differs by.
    let noise = AnalyzerDatabase::default().dp_total(1.0, &mut StdRng::seed_from_u64(dp_seed));
    let released = db.dp_total(1.0, &mut StdRng::seed_from_u64(dp_seed));
    assert!((released - noise - model.len() as f64).abs() < 1e-6);

    let mut canonical = Vec::new();
    put_u32(&mut canonical, counts.len() as u32);
    for (value, count) in counts {
        put_bytes(&mut canonical, value);
        put_u64(&mut canonical, count);
    }
    assert_eq!(db.canonical_histogram_bytes(), canonical);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_merge_is_associative(
        seed in any::<u64>(),
        la in 0usize..12,
        lb in 0usize..12,
        lc in 0usize..12,
    ) {
        let da = AnalyzerDatabase::from_rows(rows_from_seed(seed, la));
        let db = AnalyzerDatabase::from_rows(rows_from_seed(seed ^ 0xb, lb));
        let dc = AnalyzerDatabase::from_rows(rows_from_seed(seed ^ 0xc, lc));
        // (a ⊔ b) ⊔ c
        let mut left = merged(&[&da, &db]);
        left.merge_from(&dc);
        // a ⊔ (b ⊔ c)
        let mut right = da.clone();
        right.merge_from(&merged(&[&db, &dc]));
        prop_assert_eq!(
            left.canonical_histogram_bytes(),
            right.canonical_histogram_bytes()
        );
        prop_assert_eq!(left.rows().len(), right.rows().len());
    }

    #[test]
    fn prop_merge_is_order_independent(
        seed in any::<u64>(),
        parts in 1usize..6,
        shuffle_seed in any::<u64>(),
    ) {
        let mut sizer = StdRng::seed_from_u64(seed ^ 0x512e);
        let dbs: Vec<AnalyzerDatabase> = (0..parts)
            .map(|i| {
                let len = sizer.gen_range(0..10usize);
                AnalyzerDatabase::from_rows(rows_from_seed(seed ^ i as u64, len))
            })
            .collect();
        let forward = merged(&dbs.iter().collect::<Vec<_>>());
        // A seeded permutation of the merge order.
        let mut order: Vec<usize> = (0..dbs.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let permuted = merged(&order.iter().map(|&i| &dbs[i]).collect::<Vec<_>>());
        prop_assert_eq!(
            forward.canonical_histogram_bytes(),
            permuted.canonical_histogram_bytes()
        );
    }

    #[test]
    fn prop_merge_counts_add(
        seed in any::<u64>(),
        la in 0usize..12,
        lb in 0usize..12,
    ) {
        let a = rows_from_seed(seed, la);
        let b = rows_from_seed(seed ^ 0xbeef, lb);
        let da = AnalyzerDatabase::from_rows(a.clone());
        let db = AnalyzerDatabase::from_rows(b.clone());
        let all = merged(&[&da, &db]);
        for row in a.iter().chain(b.iter()) {
            let expected = a.iter().filter(|r| *r == row).count() as u64
                + b.iter().filter(|r| *r == row).count() as u64;
            prop_assert_eq!(all.count(row), expected);
        }
        prop_assert_eq!(all.rows().len(), a.len() + b.len());
        // Merging is the same as ingesting the concatenated rows.
        let concatenated = AnalyzerDatabase::from_rows(a.iter().chain(&b).cloned());
        prop_assert_eq!(
            concatenated.canonical_histogram_bytes(),
            all.canonical_histogram_bytes()
        );
    }

    #[test]
    fn prop_interned_rows_match_a_plain_row_model(
        seed in any::<u64>(),
        steps in 1usize..16,
    ) {
        // Each step either starts a database from seeded rows or merges one
        // database into another — a clone of itself when the two coincide.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dbs: Vec<AnalyzerDatabase> = Vec::new();
        let mut models: Vec<Vec<Vec<u8>>> = Vec::new();
        for _ in 0..steps {
            if dbs.is_empty() || rng.gen_bool(0.4) {
                let rows = rows_from_seed(rng.gen(), rng.gen_range(0..12usize));
                dbs.push(AnalyzerDatabase::from_rows(rows.clone()));
                models.push(rows);
            } else {
                let into = rng.gen_range(0..dbs.len());
                let from = rng.gen_range(0..dbs.len());
                let other = dbs[from].clone();
                dbs[into].merge_from(&other);
                let other_rows = models[from].clone();
                models[into].extend(other_rows);
            }
        }
        for (db, model) in dbs.iter().zip(&models) {
            assert_matches_model(db, model, seed);
        }
    }
}
