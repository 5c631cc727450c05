//! The harness's [`EpochPipeline`]s: what stands behind a collector's epoch
//! manager in each workload.
//!
//! * [`Counting`] — serving-only workloads: counts the batch and returns an
//!   empty report, so the collector and the network do all the work.
//! * [`Timed`] — a thin delegating wrapper (two clock reads per epoch) that
//!   is part of the end-to-end configuration of every collector workload;
//!   it is where "epoch result recorded" is observed.
//! * [`Traced`] — the traced run's stand-in for `LocalPipeline`: the
//!   identical steps through public calls, with a span around each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prochlo_collector::EpochPipeline;
use prochlo_core::exec::resolve_threads;
use prochlo_core::{
    epoch_rng, AnalyzerDatabase, ClientReport, Deployment, EpochSpec, PipelineError,
    PipelineReport, ShufflerStats,
};

use crate::trace::Tracer;

/// When one epoch entered and left the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EpochTiming {
    pub index: u64,
    pub entered: Instant,
    pub left: Instant,
}

pub type EpochLog = Arc<Mutex<Vec<EpochTiming>>>;

pub struct Timed<P> {
    inner: P,
    log: EpochLog,
}

impl<P: EpochPipeline> Timed<P> {
    pub fn new(inner: P) -> (Self, EpochLog) {
        let log = EpochLog::default();
        (
            Self {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl<P: EpochPipeline> EpochPipeline for Timed<P> {
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        let entered = Instant::now();
        let outcome = self.inner.process(spec, batch);
        self.log.lock().expect("epoch log lock").push(EpochTiming {
            index: spec.epoch_index,
            entered,
            left: Instant::now(),
        });
        outcome
    }
}

#[derive(Debug, Default)]
pub struct Counting {
    total: Arc<AtomicU64>,
}

impl Counting {
    /// Counts into `total`, which the shards of one workload share.
    pub fn new(total: Arc<AtomicU64>) -> Self {
        Self { total }
    }
}

impl EpochPipeline for Counting {
    fn process(
        &mut self,
        _spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        self.total.fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(PipelineReport {
            database: AnalyzerDatabase::default(),
            shuffler_stats: ShufflerStats::default(),
            stage_stats: Vec::new(),
        })
    }
}

/// One epoch a [`Traced`] pipeline set aside for the checks and extra
/// passes that run after the timed region.
#[derive(Debug)]
pub struct KeptEpoch {
    pub spec: EpochSpec,
    /// The canonical (sorted) batch.
    pub batch: Vec<ClientReport>,
    /// The canonical histogram the traced pipeline computed for it, when
    /// the epoch came out of a live run.
    pub histogram: Option<Vec<u8>>,
}

pub type Kept = Arc<Mutex<Option<KeptEpoch>>>;

/// `LocalPipeline`, spelled out: sort by `outer.to_bytes()`, `epoch_rng`,
/// `role().process`, `analyzer().ingest_items_parallel` — each under a span
/// whose parent is the epoch's `collector.epoch.process` span.
pub struct Traced {
    deployment: Deployment,
    tracer: Arc<Tracer>,
    kept: Kept,
}

impl Traced {
    pub fn new(deployment: Deployment, tracer: Arc<Tracer>) -> (Self, Kept) {
        let kept = Kept::default();
        (
            Self {
                deployment,
                tracer,
                kept: Arc::clone(&kept),
            },
            kept,
        )
    }
}

/// The traced steps of one epoch, shared with the socket-free workload.
/// `batch` must already be canonical.
pub fn traced_epoch(
    deployment: &Deployment,
    tracer: &Tracer,
    spec: &EpochSpec,
    batch: &[ClientReport],
    parent: Option<u64>,
) -> Result<PipelineReport, PipelineError> {
    let engine = spec
        .engine
        .clone()
        .unwrap_or_else(|| deployment.default_engine());
    let mut rng = epoch_rng(spec.seed, spec.epoch_index);
    let span = tracer.span("core.shuffler.process", spec.epoch_index, parent);
    let outcome = deployment.role().process(&engine, batch, &mut rng);
    span.finish();
    let outcome = outcome?;
    let threads = resolve_threads(engine.num_threads)?;
    let span = tracer.span("core.analyzer.ingest", spec.epoch_index, parent);
    let database = deployment
        .analyzer()
        .ingest_items_parallel(&outcome.items, threads);
    span.finish();
    Ok(PipelineReport {
        database: database?,
        shuffler_stats: outcome.stats,
        stage_stats: outcome.stage_stats,
    })
}

impl EpochPipeline for Traced {
    fn process(
        &mut self,
        spec: &EpochSpec,
        mut batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        let epoch = spec.epoch_index;
        let whole = self.tracer.span("collector.epoch.process", epoch, None);
        let span = self
            .tracer
            .span("core.session.canonicalize", epoch, whole.id());
        batch.sort_by_cached_key(|report| report.outer.to_bytes());
        span.finish();
        let outcome = traced_epoch(&self.deployment, &self.tracer, spec, &batch, whole.id());
        whole.finish();
        let report = outcome?;
        let mut kept = self.kept.lock().expect("kept epoch lock");
        if kept.is_none() {
            *kept = Some(KeptEpoch {
                spec: spec.clone(),
                batch,
                histogram: Some(report.database.canonical_histogram_bytes()),
            });
        }
        Ok(report)
    }
}
