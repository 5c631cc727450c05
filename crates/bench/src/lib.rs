//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Every harness prints the same rows/columns as the paper and accepts
//! environment variables to scale the problem size up towards the paper's
//! full scale (the defaults are sized so that `cargo bench --workspace`
//! finishes in minutes on a laptop):
//!
//! * `PROCHLO_SCALE_DIV` — divide the paper's problem sizes by this factor
//!   (Stash Shuffle execution, Vocab timing); default 1000.
//! * `PROCHLO_FIG5_SIZES` — comma-separated sample sizes for the Figure 5
//!   utility experiment; default `5000,20000`.
//! * `PROCHLO_FLIX_MOVIES` — comma-separated movie counts for Table 5;
//!   default `200,2000`.
//!
//! The crate also holds what only the paper's evaluation needs, so the ESA
//! system crates carry none of it. Each module sits in the directory of its
//! role and is declared at the crate root (`prochlo_bench::vocab`, …):
//!
//! * `data/` — seeded synthetic workload generators for the four §5
//!   pipelines: Vocab ([`vocab`]), Perms ([`perms`]), Suggest ([`views`])
//!   and Flix ([`ratings`]). The paper's datasets are proprietary; every
//!   generator is deterministic given a seed, so the tables reproduce run to
//!   run.
//! * `analytics/` — the analyzer-side models the paper evaluates beyond
//!   plain histograms: an n-gram next-item predictor trainable on anonymous
//!   m-tuples ([`sequence`], §5.4) and the item-item covariance and
//!   collaborative-filtering model ([`covariance`], Table 5).
//! * `ldp/` — Figure 5's local-DP baseline: RAPPOR with its candidate
//!   decoder ([`rappor`]), the partitioned variant of §2.2 ([`partition`])
//!   and the randomized response both build on ([`response`]).
//! * `baselines/` — the four shufflers §4.1.3 rejects, as the analytic
//!   [`ShuffleCostModel`]s the paper compares them by (the
//!   `shuffler_comparison` bench prints the table): Batcher's sort
//!   ([`batcher`]), ColumnSort ([`columnsort`]), the Melbourne Shuffle
//!   ([`melbourne`]) and cascade mix networks ([`cascade`]).
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

use std::time::Instant;

use prochlo_obs::knobs;
use prochlo_shuffle::CostReport;

#[path = "analytics/covariance.rs"]
pub mod covariance;
#[path = "analytics/sequence.rs"]
pub mod sequence;

#[path = "data/perms.rs"]
pub mod perms;
#[path = "data/ratings.rs"]
pub mod ratings;
#[path = "data/views.rs"]
pub mod views;
#[path = "data/vocab.rs"]
pub mod vocab;

#[path = "ldp/partition.rs"]
pub mod partition;
#[path = "ldp/rappor.rs"]
pub mod rappor;
#[path = "ldp/response.rs"]
pub mod response;

#[path = "baselines/batcher.rs"]
pub mod batcher;
#[path = "baselines/cascade.rs"]
pub mod cascade;
#[path = "baselines/columnsort.rs"]
pub mod columnsort;
#[path = "baselines/melbourne.rs"]
pub mod melbourne;

/// An algorithm that can report its analytic cost at arbitrary scale (even
/// scales far beyond what we can execute locally), given the enclave's
/// private-memory budget.
pub trait ShuffleCostModel {
    /// Name used in comparison tables.
    fn name(&self) -> &'static str;

    /// Cost of shuffling `records` items of `record_bytes` bytes each with
    /// `private_memory_bytes` of enclave memory.
    fn cost(&self, records: usize, record_bytes: usize, private_memory_bytes: usize) -> CostReport;
}

/// Reads an integer environment variable with a default. A value that is
/// set but not an integer panics (the workspace's invalid-knob convention):
/// `PROCHLO_SCALE_DIV=1k` must not silently bench the default.
pub fn env_usize(name: &str, default: usize) -> usize {
    knobs::parse(name)
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(default)
}

/// Reads a comma-separated list of integers from the environment; like
/// [`env_usize`], a set value with a non-integer element panics.
pub fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    let Some(raw) = knobs::read(name).unwrap_or_else(|e| panic!("{e}")) else {
        return default.to_vec();
    };
    let invalid = |_| panic!("{name}={raw:?} is not a valid setting");
    let parse = |part: &str| part.trim().parse().unwrap_or_else(invalid);
    raw.split(',').map(parse).collect()
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Prints a table header followed by a separator line.
pub fn print_header(title: &str, columns: &[&str]) {
    println!();
    println!("== {title} ==");
    println!("{}", columns.join(" | "));
    println!(
        "{}",
        "-".repeat(columns.iter().map(|c| c.len() + 3).sum::<usize>().max(20))
    );
}

/// Emits one machine-readable metric line alongside the human table.
///
/// The nightly workflow tees each harness's stdout to a file; the
/// `bench_compare` binary greps these lines back out and compares them
/// against the committed `BENCH_baseline.json`. Metrics are throughputs
/// (higher is better) unless the name ends in `_ms` or `_us`
/// (`lower_is_better`), which marks a latency or a cost.
pub fn emit_metric(bench: &str, metric: &str, value: f64) {
    println!("BENCHJSON {{\"bench\":\"{bench}\",\"metric\":\"{metric}\",\"value\":{value:.1}}}");
}

/// Parses a line produced by [`emit_metric`] back into
/// `(bench/metric, value)`. Returns `None` for every other line, so callers
/// can feed whole output files through it.
pub fn parse_metric_line(line: &str) -> Option<(String, f64)> {
    let body = line.trim().strip_prefix("BENCHJSON ")?;
    let field = |name: &str| -> Option<&str> {
        let key = format!("\"{name}\":");
        let start = body.find(&key)? + key.len();
        let rest = &body[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}'])?;
        Some(&rest[..end])
    };
    let bench = field("bench")?;
    let metric = field("metric")?;
    let value: f64 = field("value")?.trim().parse().ok()?;
    Some((format!("{bench}/{metric}"), value))
}

/// Parses the committed baseline file: a flat JSON object mapping
/// `"bench/metric"` keys to numbers. Hand-rolled (the workspace takes no
/// JSON dependency) and intentionally strict about shape: anything it does
/// not understand is skipped rather than misread.
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(open) = json.find('{') else {
        return out;
    };
    let Some(close) = json.rfind('}') else {
        return out;
    };
    for entry in json[open + 1..close].split(',') {
        let Some((key, value)) = entry.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if let Ok(value) = value.trim().parse::<f64>() {
            out.push((key.to_string(), value));
        }
    }
    out
}

/// Default fraction of baseline below which a throughput metric counts
/// as a regression (CI runners vary wildly night to night, so the bar
/// is deliberately loose).
pub const DEFAULT_REGRESSION_FLOOR: f64 = 0.5;

/// Default multiple of baseline above which a throughput metric counts
/// as an improvement worth surfacing (time to re-baseline).
pub const DEFAULT_IMPROVEMENT_CEILING: f64 = 1.5;

/// Outcome of comparing one measured metric against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Measured below `floor ×` baseline.
    Regressed,
    /// Measured above `ceiling ×` baseline.
    Improved,
    /// Within the [floor, ceiling] band.
    Ok,
    /// Present in the baseline but not measured this run.
    Missing,
}

/// One baseline metric's comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The `bench/metric` key.
    pub key: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value measured this run, if any.
    pub measured: Option<f64>,
    /// measured / baseline, if measured.
    pub ratio: Option<f64>,
    /// How this metric fared.
    pub verdict: Verdict,
}

/// Whether smaller measurements of this metric are better. Latencies and
/// costs carry a time-unit suffix by convention (`_ms`: the soak harness's
/// `epoch_cut_p50_ms`; `_us`: `crypto/fixed_base_table_build_us`);
/// everything else is a throughput.
fn lower_is_better(key: &str) -> bool {
    key.ends_with("_ms") || key.ends_with("_us")
}

/// Compares every baseline metric against this run's measurements.
/// Throughput metrics (higher is better): below `floor ×` baseline is
/// [`Verdict::Regressed`], above `ceiling ×` baseline is
/// [`Verdict::Improved`]. Latency metrics (`lower_is_better`, the `_ms`
/// suffix) mirror the band: above `baseline / floor` regresses, below
/// `baseline / ceiling` improves — the same tolerance, applied in the
/// direction that hurts. Results come back in baseline order.
pub fn compare_metrics(
    baseline: &[(String, f64)],
    measured: &[(String, f64)],
    floor: f64,
    ceiling: f64,
) -> Vec<Comparison> {
    baseline
        .iter()
        .map(|(key, expected)| {
            let found = measured.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            let ratio = found.map(|actual| actual / expected);
            let verdict = match ratio {
                None => Verdict::Missing,
                Some(r) if lower_is_better(key) && r > 1.0 / floor => Verdict::Regressed,
                Some(r) if lower_is_better(key) && r < 1.0 / ceiling => Verdict::Improved,
                Some(_) if lower_is_better(key) => Verdict::Ok,
                Some(r) if r < floor => Verdict::Regressed,
                Some(r) if r > ceiling => Verdict::Improved,
                Some(_) => Verdict::Ok,
            };
            Comparison {
                key: key.clone(),
                baseline: *expected,
                measured: found,
                ratio,
                verdict,
            }
        })
        .collect()
}

/// Formats a number of records compactly (10M, 50K, ...).
pub fn fmt_records(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000 && n.is_multiple_of(1_000) {
        format!("{}K", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Reads one `Key:   N kB` line of a `/proc` file (`VmHWM` in
/// `/proc/self/status`, `MemAvailable` in `/proc/meminfo`) as bytes.
/// `None` where the file or the key is missing, as off Linux.
pub fn proc_bytes(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?;
    let kib: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_apply() {
        assert_eq!(env_usize("PROCHLO_DOES_NOT_EXIST", 7), 7);
        assert_eq!(
            env_usize_list("PROCHLO_DOES_NOT_EXIST", &[1, 2]),
            vec![1, 2]
        );
    }

    #[test]
    fn env_values_parse() {
        std::env::set_var("PROCHLO_BENCH_TEST_USIZE", " 42 ");
        assert_eq!(env_usize("PROCHLO_BENCH_TEST_USIZE", 7), 42);
        std::env::set_var("PROCHLO_BENCH_TEST_LIST", "3, 5,8");
        assert_eq!(env_usize_list("PROCHLO_BENCH_TEST_LIST", &[1]), [3, 5, 8]);
    }

    #[test]
    #[should_panic(expected = "PROCHLO_BENCH_TEST_GARBAGE=\"100k\" is not a valid setting")]
    fn env_usize_garbage_panics_instead_of_benching_the_default() {
        std::env::set_var("PROCHLO_BENCH_TEST_GARBAGE", "100k");
        env_usize("PROCHLO_BENCH_TEST_GARBAGE", 100_000);
    }

    #[test]
    #[should_panic(expected = "is not a valid setting")]
    fn env_usize_list_garbage_element_panics() {
        std::env::set_var("PROCHLO_BENCH_TEST_LIST_GARBAGE", "1,two,3");
        env_usize_list("PROCHLO_BENCH_TEST_LIST_GARBAGE", &[1, 2]);
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "is not a valid setting")]
    fn env_usize_non_unicode_panics_instead_of_reading_unset() {
        use std::os::unix::ffi::OsStringExt;
        let raw = std::ffi::OsString::from_vec(vec![b'4', 0xff]);
        std::env::set_var("PROCHLO_BENCH_TEST_NON_UNICODE", raw);
        env_usize("PROCHLO_BENCH_TEST_NON_UNICODE", 7);
    }

    #[test]
    fn record_formatting() {
        assert_eq!(fmt_records(10_000_000), "10M");
        assert_eq!(fmt_records(50_000), "50K");
        assert_eq!(fmt_records(123), "123");
    }

    #[test]
    fn timed_returns_result() {
        let (value, seconds) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }

    #[test]
    fn metric_lines_round_trip() {
        let line = "BENCHJSON {\"bench\":\"soak\",\"metric\":\"reports_per_sec\",\"value\":1234.5}";
        assert_eq!(
            parse_metric_line(line),
            Some(("soak/reports_per_sec".to_string(), 1234.5))
        );
        assert_eq!(parse_metric_line("collector: 42 reports"), None);
        assert_eq!(parse_metric_line("BENCHJSON {not json"), None);
    }

    #[test]
    fn compare_flags_regressions_below_the_floor() {
        let baseline = vec![("b/m".to_string(), 100.0)];
        let measured = vec![("b/m".to_string(), 40.0)];
        let out = compare_metrics(
            &baseline,
            &measured,
            DEFAULT_REGRESSION_FLOOR,
            DEFAULT_IMPROVEMENT_CEILING,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].verdict, Verdict::Regressed);
        assert_eq!(out[0].measured, Some(40.0));
        assert!((out[0].ratio.unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn compare_flags_improvements_above_the_ceiling() {
        let baseline = vec![("b/m".to_string(), 100.0)];
        let measured = vec![("b/m".to_string(), 180.0)];
        let out = compare_metrics(
            &baseline,
            &measured,
            DEFAULT_REGRESSION_FLOOR,
            DEFAULT_IMPROVEMENT_CEILING,
        );
        assert_eq!(out[0].verdict, Verdict::Improved);
    }

    #[test]
    fn compare_respects_custom_thresholds_and_missing_metrics() {
        let baseline = vec![("b/m".to_string(), 100.0), ("b/gone".to_string(), 5.0)];
        let measured = vec![("b/m".to_string(), 75.0)];
        // With a tight 0.8 floor, 75% of baseline regresses; with the
        // default 0.5 floor it would not.
        let tight = compare_metrics(&baseline, &measured, 0.8, 4.0);
        assert_eq!(tight[0].verdict, Verdict::Regressed);
        assert_eq!(tight[1].verdict, Verdict::Missing);
        let loose = compare_metrics(&baseline, &measured, 0.5, 1.5);
        assert_eq!(loose[0].verdict, Verdict::Ok);
    }

    #[test]
    fn latency_metrics_compare_in_the_lower_is_better_direction() {
        assert!(lower_is_better("crypto/fixed_base_table_build_us"));
        let baseline = vec![
            ("soak/epoch_cut_p50_ms".to_string(), 1000.0),
            ("soak/reports_per_sec".to_string(), 1000.0),
        ];
        // Doubling a latency is fine at the loose default floor; tripling
        // it regresses. The same 3× on a throughput is an improvement.
        let slower = vec![
            ("soak/epoch_cut_p50_ms".to_string(), 3000.0),
            ("soak/reports_per_sec".to_string(), 3000.0),
        ];
        let out = compare_metrics(
            &baseline,
            &slower,
            DEFAULT_REGRESSION_FLOOR,
            DEFAULT_IMPROVEMENT_CEILING,
        );
        assert_eq!(out[0].verdict, Verdict::Regressed);
        assert_eq!(out[1].verdict, Verdict::Improved);

        // And a latency well under baseline is an improvement, not a
        // regression.
        let faster = vec![("soak/epoch_cut_p50_ms".to_string(), 400.0)];
        let out = compare_metrics(
            &baseline,
            &faster,
            DEFAULT_REGRESSION_FLOOR,
            DEFAULT_IMPROVEMENT_CEILING,
        );
        assert_eq!(out[0].verdict, Verdict::Improved);
        assert_eq!(out[1].verdict, Verdict::Missing);
    }

    #[test]
    fn baseline_parses_flat_objects() {
        let baseline = r#"{
            "soak/reports_per_sec": 100000.0,
            "crypto/point_mul_var_us": 2.5e1
        }"#;
        assert_eq!(
            parse_baseline(baseline),
            vec![
                ("soak/reports_per_sec".to_string(), 100000.0),
                ("crypto/point_mul_var_us".to_string(), 2.5e1),
            ]
        );
        assert!(parse_baseline("not json at all").is_empty());
    }
}
