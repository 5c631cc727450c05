//! `prochlo-obs`: the unified telemetry layer.
//!
//! Every layer of the ESA pipeline — collector ingestion, the shard
//! fabric, the shufflers, the enclave simulator, the analyzer — records
//! into one process-wide [`Registry`] of named counters, gauges, and
//! fixed-bucket latency histograms. Nothing else in the workspace keeps
//! its own ad-hoc timing printfs: demos render [`Snapshot`] tables, the
//! collector answers `STATS` requests with [`Snapshot::flat`], and the
//! epoch [`FlightRecorder`] appends one `BENCHJSON` line per epoch when
//! `PROCHLO_OBS_PATH` is set.
//!
//! ```text
//!  collector ─┐                        ┌─ STATS wire response (flat)
//!  fabric    ─┤   ┌──────────────┐     │
//!  shuffler  ─┼──▶│   Registry   │──▶──┼─ human table (demos)
//!  sgx-sim   ─┤   │ (one table)  │     └─ flight recorder (per epoch)
//!  analyzer  ─┘   └──────────────┘
//!      writes: relaxed atomics         reads: snapshot-on-demand
//! ```
//!
//! Metric names follow `layer.component.metric` (e.g.
//! `collector.ingest.accepted`, `fabric.s1.serve`,
//! `sgx.enclave.shuffler_stage.private_peak`); per-instance metrics
//! append the instance key (`fabric.channel.shard0/records.frames`).
//!
//! # Determinism contract
//!
//! Telemetry must never perturb seeded replay: instruments are relaxed
//! atomics on the side, spans read only the wall clock, and nothing here
//! touches an RNG stream or reorders a merge. CI runs the golden-fixture
//! suite with the registry enabled *and* disabled, at 1 and 4 shuffle
//! threads, and asserts byte-identical histograms.
//!
//! # Knobs
//!
//! * `PROCHLO_OBS` — `1`/`on`/`true` (default) or `0`/`off`/`false`;
//!   anything else is a hard error. When off, the global registry drops
//!   every recording and [`span`] never reads the clock.
//! * `PROCHLO_OBS_PATH` — when set, epoch loops append flight-recorder
//!   lines to this file (see [`FlightRecorder`]).
//!
//! # Quick start
//!
//! ```
//! // Hot path: cache handles, bump lock-free.
//! let accepted = prochlo_obs::counter("collector.ingest.accepted");
//! accepted.inc();
//!
//! // Time a phase; the elapsed seconds also come back for legacy stats.
//! let span = prochlo_obs::span("shuffler.peel");
//! let peel_seconds = span.finish();
//! assert!(peel_seconds >= 0.0);
//!
//! // Render everything recorded so far.
//! let snapshot = prochlo_obs::global().snapshot();
//! println!("{}", snapshot.render_table());
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

mod flight;
pub mod knobs;
mod registry;
mod snapshot;
mod span;
mod unmeasured;

pub use flight::{FlightRecorder, OBS_PATH_ENV};
pub use registry::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, Registry, NUM_BUCKETS};
pub use snapshot::{Snapshot, SnapshotValue};
pub use span::Span;
pub use unmeasured::Unmeasured;

use std::sync::Arc;
use std::sync::OnceLock;

/// Environment variable enabling/disabling the global registry.
const OBS_ENV: &str = "PROCHLO_OBS";

/// The process-wide registry. Initialized on first use from
/// `PROCHLO_OBS` (parsed in the crate's knob module); tests that need
/// isolation construct their own [`Registry`] instead.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new(knobs::switch(OBS_ENV))))
}

/// Counter named `name` in the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Gauge named `name` in the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Histogram named `name` in the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Start a [`Span`] recording into the global registry's histogram
/// `name`. Free when the registry is disabled.
pub fn span(name: &str) -> Span {
    global().span(name)
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_shared() {
        // Don't assert absolute counts: other tests in this binary also
        // write to the global registry.
        let c = super::counter("obs.test.global");
        let before = c.get();
        c.inc();
        assert_eq!(super::counter("obs.test.global").get(), before + 1);
    }
}
