//! `esa_bench`: the socket-to-histogram benchmark of the ESA pipeline.
//!
//! Six named workloads drive the **unmodified** program through its public
//! APIs — loopback sockets into the collector, the shard router, the split
//! fabric, or `Deployment::ingest` directly — and report the end-to-end
//! metrics `BENCHMARK.json` defines; a traced run decomposes the same
//! workload layer by layer. Every run checks its outputs and exits non-zero
//! if any oracle fails or any report is lost or double-counted.
//!
//! ```text
//! esa_bench --workload <name>|all [--seed <u64>] [--seconds <s>]
//!           [--trace <0|1>] [--sets <n>]
//! ```
//!
//! See `README.md` beside this file for the workloads, the metrics, and
//! how to read the output.

mod corpus;
mod generator;
mod host;
mod layers;
mod oracle;
mod pipelines;
mod services;
mod spec;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use prochlo_stats::percentile;

use spec::Spec;
use trace::Tracer;
use workloads::{Kind, Outcome, Params, Sizes};

const USAGE: &str = "usage: esa_bench --workload <name>|all [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--sets <n>]

  --workload  serve_saturate | routed_serve | live_saturate | live_paced |
              batch_vocab | split_fabric | all
  --seed      every input derives from it (default 0x50AC)
  --seconds   create submissions for this long, as the pipeline asks; without
              it a run creates the workload's fixed count of submissions, so
              every count repeats for a seed
  --trace     1 reports the per-layer metrics instead: an untraced run (half
              of --seconds), then one with the harness's spans on, written
              to target/esa_bench/<workload>.trace.jsonl
  --sets      run that many sets back to back, print each end-to-end metric's
              median, quartiles and spread, and fail if the sets disagree by
              more than the metric's bound or on a count that must repeat

The last line printed for a workload is its result as one JSON object.";

const DEFAULT_SEED: u64 = 0x50AC;

/// An open loop that sent this far behind its schedule no longer measures
/// what it claims; the run is printed as unresolved.
const LATE_LIMIT_MS: f64 = 50.0;

/// The share of a traced run the span recorder may take before the
/// per-layer numbers stop describing the untraced program.
const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

#[derive(Debug)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let names = if value == "all" {
                    spec.workloads.clone()
                } else {
                    vec![value.clone()]
                };
                parsed.workloads = names
                    .iter()
                    .map(|name| Kind::from_name(name).ok_or_else(invalid))
                    .collect::<Result<_, _>>()?
            }
            "--seed" => parsed.seed = parse_seed(value).ok_or_else(invalid)?,
            "--seconds" => {
                parsed.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(invalid)?,
                )
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(invalid()),
                }
            }
            "--sets" => parsed.sets = value.parse().ok().filter(|&n| n > 0).ok_or_else(invalid)?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn trace_path(kind: Kind) -> PathBuf {
    PathBuf::from("target/esa_bench").join(format!("{}.trace.jsonl", kind.name()))
}

/// One measurement of one workload: for `seconds`, or of the workload's
/// fixed count. Traced, an untraced run comes first (each takes half of
/// `seconds`) so the tracing overhead is the difference between two runs of
/// the same process, and the traced run's outcome — with the per-layer
/// metrics — is returned.
fn measure(kind: Kind, seed: u64, seconds: Option<f64>, trace: bool) -> Result<Outcome, String> {
    let params = |share: f64, tracer: Option<Arc<Tracer>>| Params {
        seed,
        measure: seconds.map(|s| Duration::from_secs_f64(s * share)),
        connections: kind.connections(),
        reference: false,
        sizes: Sizes::of(kind),
        tracer,
    };
    if !trace {
        return workloads::run(kind, &params(1.0, None));
    }
    let plain = workloads::run(kind, &params(0.5, None))?;
    let tracer = Arc::new(Tracer::new(true));
    let mut traced = workloads::run(kind, &params(0.5, Some(Arc::clone(&tracer))))?;
    // Wall time per report, traced against untraced.
    let (plain_rate, traced_rate) = (
        plain.metric("reports_per_s"),
        traced.metric("reports_per_s"),
    );
    if let Some(layers) = traced.per_layer.as_mut().filter(|_| traced_rate > 0.0) {
        let overhead = plain_rate / traced_rate - 1.0;
        layers.set("trace.overhead_share", overhead);
        // Two runs of one process differ by more than the limit on a noisy
        // host with the same code, so the difference alone cannot fail a
        // run; what the recorder itself cost can.
        let recorder_s = tracer.records().len() as f64 * trace::span_cost_seconds();
        let recorder_share = recorder_s * traced_rate / traced.counted.max(1) as f64;
        if recorder_share > TRACE_OVERHEAD_LIMIT {
            traced.failures.push(format!(
                "the span recorder took {recorder_share:.4} of the traced run \
                 (limit {TRACE_OVERHEAD_LIMIT})"
            ));
        } else if overhead > TRACE_OVERHEAD_LIMIT {
            traced.unresolved.push(format!(
                "the traced run was {overhead:.4} slower than the untraced one, of which the \
                 span recorder accounts for {recorder_share:.6}"
            ));
        }
    }
    traced.failures.extend(
        plain
            .failures
            .into_iter()
            .map(|f| format!("untraced half: {f}")),
    );
    tracer
        .write_jsonl(&trace_path(kind))
        .map_err(|e| format!("writing {}: {e}", trace_path(kind).display()))?;
    Ok(traced)
}

/// The result object the pipeline reads off the last line.
fn result_json(
    spec: &Spec,
    outcome: &Outcome,
    rows: &[(&'static str, f64)],
) -> Result<String, String> {
    let metrics = rows
        .iter()
        .map(|(name, value)| {
            let unit = spec
                .unit(name)
                .ok_or_else(|| format!("`{name}` is not in BENCHMARK.json"))?;
            Ok(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed(),
        metrics.join(", ")
    ))
}

fn print_outcome(spec: &Spec, kind: Kind, args: &Args, outcome: &Outcome) -> Result<(), String> {
    println!(
        "== {} (seed {:#x}, {}{}, {} of {} cores) ==",
        kind.name(),
        args.seed,
        match args.seconds {
            Some(seconds) => format!("{seconds} s"),
            None => "fixed count".to_string(),
        },
        if args.trace { ", traced" } else { "" },
        host::cores(),
        host::available_cores(),
    );
    println!(
        "  attempted {}  counted {}  failed {}  refused {}",
        outcome.attempted,
        outcome.counted,
        outcome.failed(),
        outcome.refused
    );
    for failure in &outcome.failures {
        println!("  ORACLE FAILED: {failure}");
    }
    for what in &outcome.unresolved {
        println!("  UNRESOLVED: {what}");
    }
    let rows = match &outcome.per_layer {
        Some(layers) => layers.rows(),
        None => outcome.end_to_end.clone(),
    };
    for (name, value) in &rows {
        println!(
            "  {name:<38} {value:>16.4} {}",
            spec.unit(name).unwrap_or("?")
        );
    }
    if let Some(layers) = &outcome.per_layer {
        let late_ms = layers.get("generator.late_max_ms");
        if late_ms > LATE_LIMIT_MS {
            println!("  UNRESOLVED: the generator ran {late_ms:.1} ms behind its schedule");
        }
        println!("  spans: {}", trace_path(kind).display());
    }
    println!("{}", result_json(spec, outcome, &rows)?);
    Ok(())
}

/// `(q1, median, q3)` as `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so the spread printed here is the one the pipeline
/// computes.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let index = (position / 4).clamp(1, n - 1);
        let fraction = position as f64 / 4.0 - index as f64;
        sorted[index - 1] + (sorted[index] - sorted[index - 1]) * fraction
    };
    (at(1), percentile_median(&sorted), at(3))
}

fn percentile_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Why the sets one process ran cannot be held to `metric`'s bound, if they
/// cannot: peak memory is the process's, so after the first run it includes
/// what the allocator kept of the earlier ones.
fn not_compared(metric: &str) -> Option<&'static str> {
    (metric == "peak_rss_mb").then_some("per process: compare single-workload runs")
}

/// Compares the sets of one workload; returns whether they agree within
/// every metric's bound and on every count that must repeat exactly.
fn compare_sets(spec: &Spec, kind: Kind, sets: &[Outcome]) -> bool {
    let mut agree = true;
    println!("-- {}: {} sets --", kind.name(), sets.len());
    for metric in &spec.end_to_end {
        let values: Vec<f64> = sets.iter().map(|o| o.metric(&metric.name)).collect();
        let (q1, median, q3) = quartiles(&values);
        let span = percentile(&values, 100.0) - percentile(&values, 0.0);
        let disagreement = if median != 0.0 {
            span / median.abs()
        } else {
            0.0
        };
        let bound = metric.bound.unwrap_or(f64::INFINITY);
        let verdict = match not_compared(&metric.name) {
            Some(why) => why,
            None if disagreement > bound => {
                agree = false;
                "DISAGREE"
            }
            None => "ok",
        };
        println!(
            "  {:<20} median {median:>14.4} {:<5} q1 {q1:>14.4} q3 {q3:>14.4}  \
             spread {:.4}  max-min {disagreement:.4} (bound {bound})  {verdict}",
            metric.name,
            metric.unit,
            if median != 0.0 {
                (q3 - q1) / median.abs()
            } else {
                0.0
            },
        );
    }
    for (position, (name, first)) in sets[0].repeatable.iter().enumerate() {
        if let Some(other) = sets.iter().find(|o| o.repeatable[position].1 != *first) {
            agree = false;
            println!(
                "  {name}: {first} in one set, {} in another  DISAGREE",
                other.repeatable[position].1
            );
        } else {
            println!("  {name}: {first} in every set  ok");
        }
    }
    agree
}

fn run(args: &Args, spec: &Spec) -> Result<bool, String> {
    let mut all_correct = true;
    let mut by_workload: Vec<Vec<Outcome>> = args.workloads.iter().map(|_| Vec::new()).collect();
    for _ in 0..args.sets {
        for (slot, &kind) in args.workloads.iter().enumerate() {
            let outcome = measure(kind, args.seed, args.seconds, args.trace)?;
            print_outcome(spec, kind, args, &outcome)?;
            all_correct &= outcome.correct();
            by_workload[slot].push(outcome);
        }
    }
    if args.sets > 1 {
        for (&kind, sets) in args.workloads.iter().zip(&by_workload) {
            all_correct &= compare_sets(spec, kind, sets);
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let spec: &Spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("esa_bench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw, spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("esa_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, spec) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("esa_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
