//! Thread scaling of the split shuffler (§4.3): one batch of El
//! Gamal-blinded reports through `ShufflerRole::process` on one worker and
//! on every available core.
//!
//! Only those two rows are measured — a sweep past the host's core count
//! says nothing — and they are reported with `host/cores` and the parallel
//! efficiency `t1 time ÷ (cores × tmax time)`. The output must be
//! byte-identical on both rows (asserted): Shuffler 1's peel and blind and
//! Shuffler 2's unblind run on the chunked executor, every draw stays on
//! the stage RNGs.
//!
//! Environment knob: `PROCHLO_SCALING_RECORDS` — batch size (default
//! 16 384; a split report costs ≈7× a single-shuffler one).

use prochlo_bench::{
    emit_metric, encode_scaling_batch, env_usize, fmt_records, print_header, timed,
};
use prochlo_core::{epoch_rng, exec, Deployment, EngineConfig, Topology};
use rand::SeedableRng;

fn main() {
    let records = env_usize("PROCHLO_SCALING_RECORDS", 16_384);
    let cores = exec::available_threads();

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let deployment = Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .build(&mut rng);

    // Setup, not the measurement.
    let (reports, encode_secs) =
        timed(|| encode_scaling_batch(&deployment.encoder(), records, true));
    println!(
        "encoded {} blinded reports in {:.1}s on {cores} cores",
        fmt_records(records),
        encode_secs,
    );
    emit_metric("host", "cores", cores as f64);

    print_header(
        &format!(
            "Split shuffler thread scaling ({} records)",
            fmt_records(records)
        ),
        &["threads", "total s", "S1 s", "S2 s", "reports/s"],
    );
    let run = |label: &str, num_threads: usize| {
        let engine = EngineConfig {
            num_threads,
            ..EngineConfig::default()
        };
        // Both rows replay the same epoch stream.
        let mut rng = epoch_rng(0xbe7c, 0);
        let (outcome, secs) = timed(|| {
            deployment
                .role()
                .process(&engine, &reports, &mut rng)
                .expect("process batch")
        });
        println!(
            "{:>7} | {:>7.2} | {:>4.2} | {:>4.2} | {:>9.0}",
            num_threads,
            secs,
            outcome.stage_stats[0].timings.total_seconds(),
            outcome.stage_stats[1].timings.total_seconds(),
            records as f64 / secs,
        );
        emit_metric(
            "split_shuffler_scaling",
            &format!("reports_per_sec_{label}"),
            records as f64 / secs,
        );
        (outcome.items, secs)
    };
    let (sequential, t1_secs) = run("t1", 1);
    let (parallel, tmax_secs) = run("tmax", cores);
    assert_eq!(
        sequential, parallel,
        "parallel output must be byte-identical to sequential"
    );
    let efficiency = t1_secs / (cores as f64 * tmax_secs);
    println!("\nparallel efficiency on {cores} cores: {efficiency:.2}");
    // emit_metric prints one decimal; efficiency is reported in percent.
    emit_metric(
        "split_shuffler_scaling",
        "parallel_efficiency_pct",
        100.0 * efficiency,
    );
}
