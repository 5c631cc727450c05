//! The epoch flight recorder: one JSON-lines record per processed epoch.
//!
//! When `PROCHLO_OBS_PATH` names a file, the collector's epoch loop and
//! every `RemoteSplitPipeline` append one line per epoch describing what
//! that epoch cost: report count, per-stage timings, queue and EPC
//! peaks. Lines use the same `BENCHJSON` framing the bench harnesses
//! emit, so `prochlo_bench::parse_metric_line` (and therefore
//! `bench_compare`) reads a flight log directly:
//!
//! ```text
//! BENCHJSON {"bench":"flight.collector","metric":"epoch_0","value":1024.0,"epoch":0,"shuffler.peel_seconds":0.0031,...}
//! ```
//!
//! The leading `bench`/`metric`/`value` triple is what the parser keys
//! on (`flight.<source>/epoch_<n>` → report count); the extra fields
//! ride along for humans and richer tooling.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use parking_lot::Mutex;

/// Environment variable naming the flight-recorder sink file.
pub const OBS_PATH_ENV: &str = "PROCHLO_OBS_PATH";

/// An append-only JSON-lines sink for per-epoch records.
///
/// Construction opens the file once; every [`record`](Self::record)
/// appends a single line under a mutex, so multiple epoch loops in one
/// process interleave whole lines, never bytes.
pub struct FlightRecorder {
    file: Mutex<File>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// Open (append/create) the sink at `path`.
    pub(crate) fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FlightRecorder {
            file: Mutex::new(file),
        })
    }

    /// Open the sink named by `PROCHLO_OBS_PATH`, or `None` when the
    /// variable is unset or empty. An unopenable path is a hard error —
    /// the operator asked for a flight log, silently dropping it would
    /// be worse than failing loudly (matching the workspace's
    /// invalid-knob convention).
    pub fn from_env() -> Option<Self> {
        let path = crate::knobs::path(OBS_PATH_ENV)?;
        match Self::open(Path::new(&path)) {
            Ok(recorder) => Some(recorder),
            Err(e) => panic!("{OBS_PATH_ENV}={path}: cannot open flight-recorder sink: {e}"),
        }
    }

    /// Append one epoch record from `source` (e.g. `"collector"`,
    /// `"shard0"`). `value` is the headline number for the epoch — the
    /// report count — and `extras` are additional `"key":number` fields
    /// appended after the parseable triple.
    pub fn record(&self, source: &str, epoch: u64, value: f64, extras: &[(&str, f64)]) {
        let mut line = format!(
            "BENCHJSON {{\"bench\":\"flight.{source}\",\"metric\":\"epoch_{epoch}\",\
             \"value\":{value:.1},\"epoch\":{epoch}"
        );
        for (key, v) in extras {
            let _ = write!(line, ",\"{key}\":{v:.6}");
        }
        line.push('}');
        line.push('\n');
        let mut file = self.file.lock();
        // Telemetry must never take the pipeline down: a full disk logs
        // to stderr and drops the record.
        if let Err(e) = file.write_all(line.as_bytes()) {
            eprintln!("obs: flight-recorder write failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_parseable_benchjson_lines() {
        let dir = std::env::temp_dir().join(format!(
            "prochlo-obs-flight-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let _ = std::fs::remove_file(&path);

        let recorder = FlightRecorder::open(&path).unwrap();
        recorder.record("collector", 0, 1024.0, &[("queue_peak", 7.0)]);
        recorder.record("collector", 1, 2048.0, &[]);
        drop(recorder);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("BENCHJSON {\"bench\":\"flight.collector\""));
        assert!(lines[0].contains("\"queue_peak\":7.000000"));
        assert!(lines[0].ends_with('}'));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
