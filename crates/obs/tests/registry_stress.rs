//! Registry concurrency and bucket-partition guarantees (ISSUE 7
//! satellite): N writer threads sum exactly, snapshots taken mid-write
//! are internally sane, and the histogram buckets partition `[0, +inf)`
//! with no gaps or overlaps.
#![expect(
    clippy::disallowed_methods,
    reason = "the writer threads are the test's subject"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use prochlo_obs::{bucket_bounds, bucket_index, Registry, SnapshotValue, NUM_BUCKETS};

const THREADS: usize = 8;
const INCREMENTS: u64 = 20_000;

#[test]
fn concurrent_counter_and_histogram_sums_exactly() {
    let registry = Arc::new(Registry::new(true));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let registry = Arc::clone(&registry);
        handles.push(std::thread::spawn(move || {
            // Half the threads look the instruments up fresh each batch,
            // half cache the handle — both paths must sum exactly.
            let cached = registry.counter("stress.counter");
            let hist = registry.histogram("stress.hist");
            for i in 0..INCREMENTS {
                if t % 2 == 0 {
                    cached.inc();
                } else {
                    registry.counter("stress.counter").inc();
                }
                hist.record((i % 7) as f64 * 1e-6);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = (THREADS as u64) * INCREMENTS;
    assert_eq!(registry.counter("stress.counter").get(), total);
    assert_eq!(registry.histogram("stress.hist").count(), total);
}

#[test]
fn snapshot_while_writing_is_safe_and_monotonic() {
    let registry = Arc::new(Registry::new(true));
    let stop = Arc::new(AtomicBool::new(false));
    // Writers and the snapshotting thread start together; on a host with
    // fewer cores than threads the 50 snapshots can still finish before a
    // writer is scheduled, so each writer writes first and checks `stop`
    // after — the final count is then positive on any schedule.
    let start = Arc::new(Barrier::new(5));

    let writers: Vec<_> = (0..4)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let counter = registry.counter("live.counter");
                let hist = registry.histogram("live.hist");
                start.wait();
                // Register new names while snapshots run, to race the
                // name table's write lock too.
                let mut n = 0u64;
                loop {
                    counter.inc();
                    hist.record(1e-6);
                    if n.is_multiple_of(512) && n < 16_384 {
                        registry.counter(&format!("live.extra.{t}.{n}")).inc();
                    }
                    n += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        })
        .collect();

    start.wait();
    let mut last_count = 0f64;
    for _ in 0..50 {
        let snap = registry.snapshot();
        // Counter totals only grow, and every histogram is internally
        // consistent (bucket sum == count used by get()).
        let count = snap.get("live.counter").unwrap_or(0.0);
        assert!(count >= last_count, "counter went backwards");
        last_count = count;
        for entry in &snap.entries {
            if let SnapshotValue::Histogram(h) = &entry.value {
                assert_eq!(h.count(), h.counts.iter().sum::<u64>());
                assert!(h.sum_seconds >= 0.0);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert!(registry.counter("live.counter").get() > 0);
}

#[test]
fn bucket_bounds_partition_with_no_gaps_or_overlaps() {
    // Adjacent buckets share exactly one boundary point...
    assert_eq!(bucket_bounds(0).0, 0.0);
    for i in 0..NUM_BUCKETS - 1 {
        assert_eq!(
            bucket_bounds(i).1,
            bucket_bounds(i + 1).0,
            "gap/overlap between buckets {i} and {}",
            i + 1
        );
    }
    // ...and the last bucket is unbounded, so the union is [0, +inf).
    assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, f64::INFINITY);
}

proptest! {
    /// Any non-negative duration falls in exactly one bucket, and that
    /// bucket is the one `bucket_index` picks.
    #[test]
    fn every_duration_lands_in_exactly_one_bucket(seconds in 0.0f64..10_000.0) {
        let containing: Vec<usize> = (0..NUM_BUCKETS)
            .filter(|&i| {
                let (lo, hi) = bucket_bounds(i);
                lo <= seconds && seconds < hi
            })
            .collect();
        prop_assert_eq!(containing.len(), 1, "duration {} in {} buckets", seconds, containing.len());
        prop_assert_eq!(containing[0], bucket_index(seconds));
    }

    /// Recording any batch of durations accounts for every observation.
    /// (The vendored proptest subset has no collection strategies, so
    /// the batch is derived from two scalars.)
    #[test]
    fn histogram_count_matches_recordings(n in 1usize..64, base in 0.0f64..100.0) {
        let registry = Registry::new(true);
        let hist = registry.histogram("prop.hist");
        for i in 0..n {
            hist.record(base * (i as f64 + 1.0) / n as f64);
        }
        prop_assert_eq!(hist.count(), n as u64);
    }
}
