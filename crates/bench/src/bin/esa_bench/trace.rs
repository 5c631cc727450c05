//! The harness's span recorder: in memory while the run lasts, JSONL at exit.
//!
//! A span is `(id, parent, name, epoch, start, end)`; spans of one epoch
//! share the epoch index as their identifier. Only calls the harness itself
//! makes into the program are wrapped — spans inside the program are a later
//! issue. A disabled tracer never reads the clock, so the end-to-end
//! configuration pays nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span, times in microseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub epoch: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRecord {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    finished: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
}

/// An open span; records itself when finished.
#[derive(Debug)]
pub struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    epoch: u64,
    start: Option<Instant>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            finished: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent` (the id of an open or finished span).
    pub fn span(&self, name: &'static str, epoch: u64, parent: Option<u64>) -> OpenSpan<'_> {
        let (id, start) = if self.enabled {
            (
                self.next_id.fetch_add(1, Ordering::Relaxed),
                Some(Instant::now()),
            )
        } else {
            (0, None)
        };
        OpenSpan {
            tracer: self,
            id,
            parent,
            name,
            epoch,
            start,
        }
    }

    /// Every finished span, in finishing order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.finished.lock().expect("tracer span lock").clone()
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.finished
            .lock()
            .expect("tracer span lock")
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::seconds)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let records = self.records();
        let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
        for span in &records {
            if let Some(parent) = span.parent {
                *child_time.entry(parent).or_default() += span.seconds();
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in &records {
            let own = span.seconds() - child_time.get(&span.id).copied().unwrap_or(0.0);
            *by_name.entry(span.name).or_default() += own.max(0.0);
        }
        by_name
    }

    /// Writes one JSON object per span, creating the parent directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.records() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"epoch\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                span.id, span.name, span.epoch, span.start_us, span.end_us
            )?;
        }
        out.flush()
    }
}

/// What one span costs to open and finish, in seconds, timed over a scratch
/// recorder: with the number of spans a run recorded, what the recorder
/// itself took out of that run.
pub fn span_cost_seconds() -> f64 {
    const SPANS: u32 = 20_000;
    let scratch = Tracer::new(true);
    let started = Instant::now();
    for _ in 0..SPANS {
        scratch.span("trace.calibration", 0, None).finish();
    }
    started.elapsed().as_secs_f64() / f64::from(SPANS)
}

impl OpenSpan<'_> {
    /// The id children name as their parent.
    pub fn id(&self) -> Option<u64> {
        self.start.map(|_| self.id)
    }

    /// Closes the span and returns its duration in seconds (0 when the
    /// tracer is disabled).
    pub fn finish(self) -> f64 {
        let Some(start) = self.start else {
            return 0.0;
        };
        let end = Instant::now();
        let micros = |t: Instant| t.duration_since(self.tracer.origin).as_secs_f64() * 1e6;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            epoch: self.epoch,
            start_us: micros(start),
            end_us: micros(end),
        };
        let seconds = record.seconds();
        self.tracer
            .finished
            .lock()
            .expect("tracer span lock")
            .push(record);
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::new(true);
        let outer = tracer.span("outer", 3, None);
        let inner = tracer.span("inner", 3, outer.id());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = inner.finish();
        let outer_s = outer.finish();
        assert!(outer_s >= inner_s && inner_s > 0.0);
        let own = tracer.self_seconds();
        assert!((own["outer"] - (outer_s - inner_s)).abs() < 1e-9);
        assert!((own["inner"] - inner_s).abs() < 1e-9);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, None).finish(), 0.0);
        assert!(off.records().is_empty());
    }
}
