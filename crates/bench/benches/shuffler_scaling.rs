//! Thread-scaling sweep of the shuffler's parallel batch path.
//!
//! Encodes one batch of sealed reports, then runs the *same* batch through
//! the deployment's `ShufflerRole::process` at each requested worker count
//! (ascending), printing per-phase wall-clock and the speedup over the
//! smallest count — with the default sweep, over one thread. The shuffler's
//! output must be byte-identical at every thread count (asserted here on
//! every row): parallelism changes scheduling, never results.
//!
//! Environment knobs:
//!
//! * `PROCHLO_SCALING_RECORDS` — batch size (default 100 000);
//! * `PROCHLO_SCALING_THREADS` — comma-separated worker counts
//!   (default `1,2,4,8`);
//! * `PROCHLO_SHUFFLE_BACKEND` — backend to sweep (default `trusted`).

use prochlo_bench::{
    emit_metric, encode_scaling_batch, env_usize, env_usize_list, fmt_records, print_header, timed,
};
use prochlo_core::{epoch_rng, exec, Deployment, EngineConfig};

fn main() {
    let records = env_usize("PROCHLO_SCALING_RECORDS", 100_000);
    // Ascending and deduplicated, so the first row — the speedup baseline —
    // is always the smallest worker count.
    let mut threads = env_usize_list("PROCHLO_SCALING_THREADS", &[1, 2, 4, 8]);
    threads.sort_unstable();
    threads.dedup();
    let backend = EngineConfig::from_env()
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
        .backend;

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    use rand::SeedableRng;
    let deployment = Deployment::builder().payload_size(32).build(&mut rng);

    // Encode the batch once, in parallel across every available core (setup,
    // not the measurement).
    let encode_cores = exec::available_threads();
    let (reports, encode_secs) =
        timed(|| encode_scaling_batch(&deployment.encoder(), records, false));
    println!(
        "encoded {} reports in {:.1}s on {} cores ({} available)",
        fmt_records(records),
        encode_secs,
        encode_cores,
        exec::available_threads(),
    );

    print_header(
        &format!(
            "Shuffler thread scaling ({} records, backend {})",
            fmt_records(records),
            backend.name()
        ),
        &[
            "threads",
            "total s",
            "peel s",
            "thresh s",
            "shuffle s",
            "speedup",
            "reports/s",
        ],
    );

    let mut baseline_secs = None;
    let mut reference_items: Option<Vec<Vec<u8>>> = None;
    for &num_threads in &threads {
        let engine = EngineConfig {
            backend: backend.clone(),
            num_threads,
        };
        // Every row replays the same epoch stream: identical noise draws,
        // identical output expected.
        let mut rng = epoch_rng(0xbe7c, 0);
        let (outcome, secs) = timed(|| {
            deployment
                .role()
                .process(&engine, &reports, &mut rng)
                .expect("process batch")
        });
        match &reference_items {
            None => reference_items = Some(outcome.items),
            Some(reference) => assert_eq!(
                reference, &outcome.items,
                "parallel output must be byte-identical to sequential"
            ),
        }
        let baseline = *baseline_secs.get_or_insert(secs);
        println!(
            "{:>7} | {:>7.2} | {:>6.2} | {:>8.3} | {:>9.3} | {:>6.2}x | {:>9.0}",
            num_threads,
            secs,
            outcome.stats.timings.peel_seconds,
            outcome.stats.timings.threshold_seconds,
            outcome.stats.timings.shuffle_seconds,
            baseline / secs,
            records as f64 / secs,
        );
        emit_metric(
            "shuffler_scaling",
            &format!("{}_reports_per_sec_t{}", backend.name(), num_threads),
            records as f64 / secs,
        );
    }

    let cost = backend.paper_cost_report(records);
    println!(
        "\ncost model [{}]: {:.1}x data processed, {} rounds, feasible: {}",
        cost.algorithm, cost.overhead_factor, cost.rounds, cost.feasible,
    );
}
