//! Live ingestion: the full serving path over loopback TCP.
//!
//! Concurrent simulated clients encode sealed reports and submit them to a
//! [`prochlo_collector::Collector`]; the collector deduplicates, batches by
//! count-or-deadline, and runs each epoch through the shuffler and the
//! analyzer. The demo then proves two serving-layer properties: replaying
//! identical seeded traffic reproduces the histogram byte for byte, and a
//! full report queue answers `RetryAfter` instead of growing.
//!
//! The live run and the replay run once on each engine of
//! [`ShuffleBackend::all`], trusted then stash. `PROCHLO_SHUFFLE_THREADS`
//! sets the worker threads for the parallel batch phases (`0` or unset:
//! every available core).
//!
//! Run with: `cargo run -p prochlo-examples --release --bin live_ingest`

use std::time::Duration;

use prochlo_collector::CollectorConfig;
use prochlo_core::{exec, EngineConfig, ShuffleBackend};
use prochlo_examples::{run_backpressure_demo, run_live_ingest, QUICKSTART_BROWSERS};

fn main() {
    // A typo'd thread count is fatal: the operator made a selection, so
    // refusing to start beats running with a different one.
    let threads = exec::resolve_threads(0).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for backend in ShuffleBackend::all() {
        // `num_threads: 0` resolves through PROCHLO_SHUFFLE_THREADS in the
        // engine, as above.
        let engine = EngineConfig {
            backend,
            num_threads: 0,
        };
        println!(
            "shuffle engine: backend={}, threads={threads}",
            engine.backend.name()
        );
        live_and_replay(&engine);
        println!();
    }

    // Part 3: backpressure. With the epoch manager busy, a queue of 8
    // facing 12 submissions must answer RetryAfter for the overflow instead
    // of buffering it. The held epoch never reaches a shuffle engine, so
    // this part runs once.
    let pressure = run_backpressure_demo(9, 8, 12);
    println!(
        "backpressure: capacity 8, 12 submissions -> {} acks, {} RetryAfter \
         (peak queue depth {}), {} reports processed (the held epoch's one and the accepted)",
        pressure.acks,
        pressure.retries,
        pressure.summary.stats.ingest.peak_queue_depth,
        pressure.summary.stats.reports_processed,
    );
}

/// Parts 1 and 2 on `engine`: a multi-epoch live run, then two seeded
/// single-epoch runs that must agree byte for byte.
fn live_and_replay(engine: &EngineConfig) {
    // Part 1: a multi-epoch live run. 8 client threads push 3000 reports;
    // the collector cuts an epoch every 1024 reports (or 200 ms).
    let config = CollectorConfig {
        worker_threads: 4,
        max_epoch_reports: 1024,
        epoch_deadline: Duration::from_millis(200),
        engine: Some(engine.clone()),
        ..CollectorConfig::default()
    };
    let outcome = run_live_ingest(42, 8, 375, config);
    let stats = &outcome.summary.stats;
    println!(
        "collector: {} connections, {} reports accepted, {} duplicates, \
         {} backpressured, {} rejected (peak queue depth {})",
        stats.connections,
        stats.ingest.accepted,
        stats.ingest.duplicates,
        stats.ingest.backpressured,
        stats.ingest.rejected,
        stats.ingest.peak_queue_depth,
    );
    for epoch in &outcome.summary.epochs {
        match &epoch.outcome {
            Ok(report) => {
                let s = &report.shuffler_stats;
                println!(
                    "  epoch {}: {} reports -> {} forwarded, {} crowds kept of {} [{}]",
                    epoch.index,
                    epoch.reports,
                    s.forwarded,
                    s.crowds_forwarded,
                    s.crowds_seen,
                    s.backend.name(),
                );
            }
            Err(e) => println!("  epoch {}: failed: {e}", epoch.index),
        }
    }

    // Per-phase timing now lives on the process-wide telemetry registry:
    // one table covers ingest submit latency, epoch processing, and the
    // shuffler phase spans that used to be hand-printed per epoch.
    println!("\nobservability snapshot (PROCHLO_OBS=0 disables collection):");
    print!("{}", prochlo_obs::snapshot().render_table());

    // The analytic price of the selected backend, projected at this run's
    // record count and at paper scale (§4.1.3's comparison metric). Both
    // rows assume the paper's 318-byte records — a projection, not a
    // measurement of the 32-byte-payload run above.
    for records in [stats.ingest.accepted as usize, 10_000_000] {
        let cost = engine.backend.paper_cost_report(records);
        println!(
            "cost model [{}] at {} paper-sized records (318 B): \
             {:.1}x data processed, {} rounds, max N {}, feasible: {}",
            cost.algorithm,
            records,
            cost.overhead_factor,
            cost.rounds,
            cost.max_records
                .map_or("unbounded".to_string(), |m| m.to_string()),
            cost.feasible,
        );
    }

    println!("\nanalyzer database (merged across epochs):");
    for (browser, _) in QUICKSTART_BROWSERS {
        println!(
            "  {:>14}: {}",
            browser,
            outcome.database.count(browser.as_bytes())
        );
    }

    // Part 2: deterministic replay. A single-epoch configuration makes the
    // whole run a pure function of the seed; two runs must agree byte for
    // byte on the canonical histogram, on either engine and at any thread
    // count.
    let replay_config = || CollectorConfig {
        worker_threads: 4,
        max_epoch_reports: 3000,
        epoch_deadline: Duration::from_secs(600),
        engine: Some(engine.clone()),
        ..CollectorConfig::default()
    };
    let first = run_live_ingest(7, 6, 500, replay_config());
    let second = run_live_ingest(7, 6, 500, replay_config());
    assert_eq!(
        first.histogram_bytes, second.histogram_bytes,
        "identically-seeded runs must reproduce the histogram"
    );
    println!(
        "\nreplay: two seeded runs produced byte-identical histograms \
         ({} bytes, {} distinct values)",
        first.histogram_bytes.len(),
        first.database.distinct_values(),
    );
}
