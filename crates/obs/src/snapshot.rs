//! Point-in-time views of a registry, with machine- and human-readable
//! renderings.

use std::fmt::Write as _;

use crate::registry::{bucket_bounds, NUM_BUCKETS};

/// Frozen state of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see
    /// [`bucket_bounds`](crate::bucket_bounds) for the ranges).
    pub counts: [u64; NUM_BUCKETS],
    /// Sum of all observations, in seconds.
    pub sum_seconds: f64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observation in seconds, or 0 when empty.
    fn mean_seconds(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_seconds / n as f64
        }
    }

    /// Upper bound (seconds) of the bucket containing the `q`-quantile
    /// (`0 < q <= 1`), or 0 when empty. Bucket-resolution only: good for
    /// order-of-magnitude tail latency, not microsecond precision.
    fn quantile_seconds(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lower, upper) = bucket_bounds(i);
                return if upper.is_finite() { upper } else { lower };
            }
        }
        bucket_bounds(NUM_BUCKETS - 1).0
    }
}

/// The value recorded for one instrument in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's buckets and sum. Boxed: the bucket array dwarfs the
    /// scalar variants, and snapshots are cold read-side data.
    Histogram(Box<HistogramSnapshot>),
}

/// One named instrument in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Dotted instrument name (`layer.component.metric`).
    pub name: String,
    /// The frozen value.
    pub value: SnapshotValue,
}

/// A point-in-time capture of every instrument in a registry, sorted by
/// name.
///
/// Two renderings cover the consumers in this workspace: [`flat`] for
/// programmatic access and the collector's `STATS` wire response, and
/// [`render_table`] for demo binaries.
///
/// ```
/// use prochlo_obs::Registry;
///
/// let registry = Registry::new(true);
/// registry.counter("collector.ingest.accepted").add(41);
/// let snap = registry.snapshot();
///
/// assert_eq!(snap.get("collector.ingest.accepted"), Some(41.0));
/// assert!(snap.render_table().contains("collector.ingest.accepted"));
/// ```
///
/// [`flat`]: Snapshot::flat
/// [`render_table`]: Snapshot::render_table
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All captured instruments, sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Flatten to sorted `(name, value)` pairs. Counters and gauges keep
    /// their name; a histogram contributes `<name>.count` and
    /// `<name>.sum_seconds`.
    pub fn flat(&self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            match &entry.value {
                SnapshotValue::Counter(v) => out.push((entry.name.clone(), *v as f64)),
                SnapshotValue::Gauge(v) => out.push((entry.name.clone(), *v as f64)),
                SnapshotValue::Histogram(h) => {
                    out.push((format!("{}.count", entry.name), h.count() as f64));
                    out.push((format!("{}.sum_seconds", entry.name), h.sum_seconds));
                }
            }
        }
        out
    }

    /// Scalar view of one instrument: counter/gauge value, or a
    /// histogram's observation count. `None` if the name is absent.
    pub fn get(&self, name: &str) -> Option<f64> {
        let entry = self.entries.iter().find(|e| e.name == name)?;
        Some(match &entry.value {
            SnapshotValue::Counter(v) => *v as f64,
            SnapshotValue::Gauge(v) => *v as f64,
            SnapshotValue::Histogram(h) => h.count() as f64,
        })
    }

    /// Render a human-readable table: counters and gauges first, then
    /// histograms with count / mean / p50 / p95 / p99 (milliseconds) and
    /// total seconds.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let scalars: Vec<&SnapshotEntry> = self
            .entries
            .iter()
            .filter(|e| !matches!(e.value, SnapshotValue::Histogram(_)))
            .collect();
        let hists: Vec<(&String, &HistogramSnapshot)> = self
            .entries
            .iter()
            .filter_map(|e| match &e.value {
                SnapshotValue::Histogram(h) => Some((&e.name, h.as_ref())),
                _ => None,
            })
            .collect();

        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        if !scalars.is_empty() {
            let _ = writeln!(out, "  {:width$}  {:>14}", "metric", "value");
            for entry in scalars {
                let value = match &entry.value {
                    SnapshotValue::Counter(v) => *v as i64,
                    SnapshotValue::Gauge(v) => *v,
                    SnapshotValue::Histogram(_) => unreachable!(),
                };
                let _ = writeln!(out, "  {:width$}  {value:>14}", entry.name);
            }
        }
        if !hists.is_empty() {
            let _ = writeln!(
                out,
                "  {:width$}  {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "latency", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "total s"
            );
            for (name, h) in hists {
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    name,
                    h.count(),
                    h.mean_seconds() * 1e3,
                    h.quantile_seconds(0.50) * 1e3,
                    h.quantile_seconds(0.95) * 1e3,
                    h.quantile_seconds(0.99) * 1e3,
                    h.sum_seconds,
                );
            }
        }
        if out.is_empty() {
            out.push_str("  (no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn flat_expands_histograms() {
        let r = Registry::new(true);
        r.counter("a.count").inc();
        r.histogram("b.lat").record(0.002);
        r.histogram("b.lat").record(0.004);
        let flat = r.snapshot().flat();
        assert_eq!(
            flat.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["a.count", "b.lat.count", "b.lat.sum_seconds"]
        );
        assert_eq!(flat[1].1, 2.0);
        assert!((flat[2].1 - 0.006).abs() < 1e-6);
    }

    #[test]
    fn quantiles_track_buckets() {
        let h = HistogramSnapshot {
            counts: {
                let mut c = [0u64; NUM_BUCKETS];
                c[1] = 90; // [1µs, 2µs)
                c[10] = 10; // [512µs, 1024µs)
                c
            },
            sum_seconds: 0.0,
        };
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_seconds(0.5), bucket_bounds(1).1);
        assert_eq!(h.quantile_seconds(0.99), bucket_bounds(10).1);
    }

    #[test]
    fn table_renders_both_sections() {
        let r = Registry::new(true);
        r.gauge("collector.queue.depth").set(7);
        r.histogram("collector.epoch.process").record(0.010);
        let table = r.snapshot().render_table();
        assert!(table.contains("collector.queue.depth"));
        assert!(table.contains("collector.epoch.process"));
        assert!(table.contains("p95 ms"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let empty = Snapshot {
            entries: Vec::new(),
        };
        assert!(empty.render_table().contains("no metrics"));
    }
}
