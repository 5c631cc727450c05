//! The metrics registry: named counters, gauges, and latency histograms.
//!
//! A [`Registry`] is a process-wide (or test-local) table of instruments
//! keyed by dotted name. Lookups hand back cheap `Arc` handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) that callers cache; the registry
//! itself is only locked when an instrument is first created or when a
//! [`Snapshot`] is taken. The name table is one `RwLock`-protected map in
//! name order: lookups share the read lock, and only a name's first
//! registration takes the write lock.
//!
//! A per-report path bumps none of them: it tallies in plain integers,
//! publishes once per batch (a reactor turn) into cells it owns and the
//! registry reads through ([`Registry::read_through`]), and times the batch
//! once ([`Span::finish_over`]).
//!
//! Instruments never touch an RNG stream and never reorder work: every
//! recording is a relaxed atomic on a pre-existing cell. Disabling a
//! registry ([`Registry::set_enabled`]) turns every recording into a
//! single relaxed load-and-skip, which is what keeps the seeded
//! determinism contract trivially intact whether telemetry is on or off.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::snapshot::{HistogramSnapshot, Snapshot, SnapshotEntry, SnapshotValue};
use crate::span::Span;

/// Number of fixed histogram buckets. Bucket `0` covers `[0, 1µs)`;
/// bucket `i >= 1` covers `[2^(i-1), 2^i)` microseconds; the last bucket
/// is unbounded above. See [`bucket_bounds`].
pub const NUM_BUCKETS: usize = 32;

/// Inclusive-lower / exclusive-upper bounds of histogram bucket `index`,
/// in **seconds**. The buckets partition `[0, +inf)`: `lower(0) == 0`,
/// `upper(i) == lower(i + 1)`, and the final bucket's upper bound is
/// `f64::INFINITY`.
///
/// ```
/// let (lo, hi) = prochlo_obs::bucket_bounds(1);
/// assert_eq!((lo, hi), (1e-6, 2e-6)); // [1µs, 2µs)
/// ```
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    let lower = if index == 0 {
        0.0
    } else {
        (1u64 << (index - 1)) as f64 * 1e-6
    };
    let upper = if index == NUM_BUCKETS - 1 {
        f64::INFINITY
    } else {
        (1u64 << index) as f64 * 1e-6
    };
    (lower, upper)
}

/// Bucket index a duration of `seconds` falls into. Total on `[0, +inf)`
/// (negative inputs clamp to bucket 0), matching [`bucket_bounds`].
pub fn bucket_index(seconds: f64) -> usize {
    let micros = seconds * 1e6;
    if micros.is_nan() || micros < 1.0 {
        // Sub-microsecond, zero, negative, and NaN all land in bucket 0.
        return 0;
    }
    let n = micros as u64; // truncation keeps [2^(i-1), 2^i) intact
    let bits = 64 - n.leading_zeros() as usize; // n in [2^(bits-1), 2^bits)
    bits.min(NUM_BUCKETS - 1)
}

/// Shared cell behind a [`Counter`] handle.
#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

/// Shared cell behind a [`Gauge`] handle.
#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
}

/// Shared cell behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCell {
    counts: [AtomicU64; NUM_BUCKETS],
    /// Total recorded time in nanoseconds. Nanosecond integers keep the
    /// sum a single `fetch_add` instead of a CAS loop over f64 bits.
    sum_nanos: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing event count (dedup hits, frames sent,
/// reports accepted). Handles are `Arc`-backed: clone freely, cache in
/// hot structs, and bump lock-free.
#[derive(Clone, Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, EPC bytes in use), set outright or
/// ratcheted up to a peak.
#[derive(Clone, Debug)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Set the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Ratchet the level up to `v` if `v` is higher (peak tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub(crate) fn get(&self) -> i64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (exponential microsecond buckets,
/// see [`bucket_bounds`]). Record durations directly or through a
/// [`Span`].
#[derive(Clone, Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation of `seconds`.
    #[inline]
    pub fn record(&self, seconds: f64) {
        self.record_over(seconds, 1);
    }

    /// Record `n` observations of `seconds / n` (the mean of `n` items
    /// timed together) at the cost of one; nothing when `n` is 0.
    #[inline]
    pub(crate) fn record_over(&self, seconds: f64, n: u64) {
        if n > 0 && self.enabled.load(Ordering::Relaxed) {
            self.cell.counts[bucket_index(seconds / n as f64)].fetch_add(n, Ordering::Relaxed);
            let nanos = (seconds.max(0.0) * 1e9) as u64;
            self.cell.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Start a [`Span`] that records into this histogram when finished —
    /// [`Registry::span`] without the lookup by name, for a handle cached
    /// on a hot path. While the registry is disabled the span never reads
    /// the clock.
    #[inline]
    pub fn start(&self) -> Span {
        if self.enabled.load(Ordering::Relaxed) {
            Span::started(self.clone())
        } else {
            Span::disabled()
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cell
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations, in seconds.
    fn sum_seconds(&self) -> f64 {
        self.cell.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.cell.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum_seconds: self.sum_seconds(),
        }
    }
}

/// One instrument slot in the name table.
#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// The cells [`Registry::read_through`] was handed under this name.
    ReadThrough(Vec<Arc<AtomicU64>>),
}

/// A named-instrument table with on-demand snapshots.
///
/// One process-wide instance lives behind [`crate::global`]; tests that
/// assert exact counts construct their own so concurrently running
/// suites cannot cross-contaminate.
///
/// ```
/// use prochlo_obs::Registry;
///
/// let registry = Registry::new(true);
/// let accepted = registry.counter("collector.ingest.accepted");
/// accepted.add(3);
///
/// let span = registry.span("collector.epoch.process");
/// // ... work ...
/// let elapsed_seconds = span.finish();
/// assert!(elapsed_seconds >= 0.0);
///
/// let snap = registry.snapshot();
/// assert_eq!(snap.get("collector.ingest.accepted"), Some(3.0));
/// ```
pub struct Registry {
    enabled: Arc<AtomicBool>,
    names: RwLock<BTreeMap<String, Instrument>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(true)
    }
}

impl Registry {
    /// Create a registry, initially enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            names: RwLock::new(BTreeMap::new()),
        }
    }

    /// Whether recordings currently land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off. Existing handles observe the change
    /// immediately; disabled handles cost one relaxed load per call.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Look up or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match self.instrument(name, || {
            Instrument::Counter(Counter {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::new(CounterCell::default()),
            })
        }) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Look up or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.instrument(name, || {
            Instrument::Gauge(Gauge {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::new(GaugeCell::default()),
            })
        }) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Look up or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.instrument(name, || {
            Instrument::Histogram(Histogram {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::new(HistogramCell::default()),
            })
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Start a [`Span`] that records into the histogram named `name` when
    /// finished. When the registry is disabled the span never reads the
    /// clock.
    pub fn span(&self, name: &str) -> Span {
        if self.is_enabled() {
            Span::started(self.histogram(name))
        } else {
            Span::disabled()
        }
    }

    /// Exports `cell`, a count its owner keeps, as the counter `name`: a
    /// snapshot reads the sum of every cell registered under the name (one
    /// per owner), enabled or not, and the registry keeps each cell alive.
    pub fn read_through(&self, name: &str, cell: Arc<AtomicU64>) {
        match self
            .names
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::ReadThrough(Vec::new()))
        {
            Instrument::ReadThrough(cells) => cells.push(cell),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    fn instrument(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        if let Some(found) = self.names.read().get(name) {
            return found.clone();
        }
        let mut names = self.names.write();
        names.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Collect a point-in-time [`Snapshot`] of every instrument, sorted
    /// by name. Safe to call while writers are recording; each cell is
    /// read with relaxed atomics, so a snapshot is a consistent *per
    /// instrument* view, not a cross-instrument barrier.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self
            .names
            .read()
            .iter()
            .map(|(name, inst)| SnapshotEntry {
                name: name.clone(),
                value: match inst {
                    Instrument::Counter(c) => SnapshotValue::Counter(c.get()),
                    Instrument::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SnapshotValue::Histogram(Box::new(h.snapshot())),
                    Instrument::ReadThrough(cells) => SnapshotValue::Counter(
                        cells.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
                    ),
                },
            })
            .collect();
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for (secs, want) in [
            (0.0, 0),
            (0.5e-6, 0),
            (1.0e-6, 1),
            (1.5e-6, 1),
            (2.0e-6, 2),
            (3.9e-6, 2),
            (4.0e-6, 3),
            (1.0, 20),
            (1e9, NUM_BUCKETS - 1),
        ] {
            let idx = bucket_index(secs);
            assert_eq!(idx, want, "bucket_index({secs})");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= secs && secs < hi, "{secs} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new(false);
        let c = r.counter("x");
        c.add(5);
        let h = r.histogram("y");
        h.record(1.0);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        let span = r.span("y");
        assert_eq!(span.finish(), 0.0);
    }

    #[test]
    fn reenabling_applies_to_existing_handles() {
        let r = Registry::new(false);
        let c = r.counter("x");
        c.inc();
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new(true);
        r.counter("metric");
        r.gauge("metric");
    }

    #[test]
    fn read_through_sums_its_owners_cells_enabled_or_not() {
        let r = Registry::new(false);
        let (a, b) = (Arc::new(AtomicU64::new(2)), Arc::new(AtomicU64::new(5)));
        r.read_through("owned", Arc::clone(&a));
        r.read_through("owned", b);
        a.fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.snapshot().get("owned"), Some(8.0));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn read_through_over_a_counter_panics() {
        let r = Registry::new(true);
        r.counter("metric");
        r.read_through("metric", Arc::default());
    }

    #[test]
    fn gauge_set_max_ratchets() {
        let r = Registry::new(true);
        let g = r.gauge("peak");
        g.set_max(10);
        g.set_max(4);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn racing_first_registrations_share_one_instrument_in_name_order() {
        let r = Registry::new(true);
        r.counter("zeta");
        r.gauge("alpha");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    r.counter("mid.new").inc();
                });
            }
        });
        assert_eq!(r.counter("mid.new").get(), 4);
        let names: Vec<_> = r.snapshot().entries.into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["alpha", "mid.new", "zeta"]);
    }
}
