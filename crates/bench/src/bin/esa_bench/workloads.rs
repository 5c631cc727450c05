//! The six workloads: what each sets up, runs and accounts for.
//!
//! Names and sizes are fixed here and documented in `README.md`; later
//! issues cite them. A run creates either the workload's fixed count of
//! submissions (the issue's sizing) or, when the pipeline asks for
//! `--seconds`, as many as fit in that time; either way every submission
//! created is driven to its final verdict and into a result.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prochlo_collector::IngestStats;
use prochlo_core::exec::mix_seed;
use prochlo_core::{
    AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec, PipelineReport,
    ShuffleBackend, ShufflerStats, TransportMetadata,
};
use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_fabric::sum_epoch_stats;
use prochlo_stats::percentile;

use crate::corpus::{seal_corpus, Corpus, Crowd, Encoding};
use crate::generator::{self, Load, Pacing, Plan, Stop};
use crate::host;
use crate::layers::{self, Layers};
use crate::oracle::Oracle;
use crate::pipelines::{traced_epoch, EpochTiming, KeptEpoch};
use crate::services::{
    deployment, epoch_seed, Finished, RegistryProbe, ServiceShape, Services, ROUTED_SHARDS,
    ROUTER_WORKERS,
};
use crate::trace::Tracer;

/// The one factor by which every count of the issue's sizing table is
/// scaled so a run fits the pipeline's time cap; see `README.md`, "Sizing".
pub const SCALE: f64 = 0.25;

/// Shares needed to recover a secret-shared value (paper §5.2).
pub const SHARE_THRESHOLD: usize = 20;

/// Epochs one `batch_vocab` cycle ingests: epoch indexes `0..6` of the
/// seed, always the same six, because Stash Shuffle's attempt count is a
/// function of the epoch index.
pub const VOCAB_EPOCHS: u64 = 6;

/// The open-loop workload's offered rate; a rate is not a count and is not
/// scaled.
const PACED_PER_SECOND: f64 = 8000.0;

/// Set-up is repeated this many times per run and the median reported: the
/// pipeline gates `setup_s` on single runs and asks for exactly this.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeSaturate,
    RoutedServe,
    LiveSaturate,
    LivePaced,
    BatchVocab,
    SplitFabric,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ServeSaturate,
        Kind::RoutedServe,
        Kind::LiveSaturate,
        Kind::LivePaced,
        Kind::BatchVocab,
        Kind::SplitFabric,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeSaturate => "serve_saturate",
            Kind::RoutedServe => "routed_serve",
            Kind::LiveSaturate => "live_saturate",
            Kind::LivePaced => "live_paced",
            Kind::BatchVocab => "batch_vocab",
            Kind::SplitFabric => "split_fabric",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether reports are opened (anything but the counting pipeline).
    pub fn opens_reports(self) -> bool {
        !matches!(self, Kind::ServeSaturate | Kind::RoutedServe)
    }

    /// Client connections of a full-scale run: one per core the harness
    /// uses, which with a window of 64 each saturates every server but the
    /// router. A router worker serves one connection at a time and blocks
    /// on the shard's verdict for every report, so there the connections
    /// are as many as the workers (a further one would only wait its turn).
    pub fn connections(self) -> usize {
        if self == Kind::RoutedServe {
            ROUTER_WORKERS
        } else {
            host::cores()
        }
    }

    /// Collector shards behind the workload's endpoint.
    pub fn shards(self) -> usize {
        if self == Kind::RoutedServe {
            ROUTED_SHARDS
        } else {
            1
        }
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Sealed reports set-up produces.
    pub corpus: usize,
    pub vocabulary: usize,
    /// Reports per epoch cut (per shard).
    pub epoch_reports: usize,
    /// Submissions of a fixed-count run (`batch_vocab`: whole cycles of
    /// [`VOCAB_EPOCHS`] epochs over the batch).
    pub submissions: u64,
    /// Reports the throwaway warm-up instance is fed.
    pub warm_up: usize,
    /// Records each micro-pass of a traced run covers.
    pub micro: usize,
}

fn scaled(count: usize) -> usize {
    (count as f64 * SCALE) as usize
}

impl Sizes {
    /// The issue's sizing table times [`SCALE`] — vocabulary included, so a
    /// crowd holds as many reports per epoch as the issue designed for and
    /// thresholding drops the same share. A crypto corpus is two epochs
    /// long: enough that every ciphertext of an epoch is distinct, while
    /// set-up stays about a second.
    pub fn of(kind: Kind) -> Self {
        let (corpus, vocabulary, epoch_reports) = match kind {
            Kind::ServeSaturate | Kind::RoutedServe => (scaled(4096), 2000, scaled(50_000)),
            Kind::LiveSaturate | Kind::LivePaced => (2 * scaled(16_384), 2000, scaled(16_384)),
            Kind::BatchVocab => (scaled(32_768), 2000, scaled(32_768)),
            Kind::SplitFabric => (2 * scaled(16_384), 500, scaled(16_384)),
        };
        let submissions = match kind {
            Kind::ServeSaturate => 4_000_000,
            Kind::RoutedServe => 500_000,
            Kind::LiveSaturate => 4 * 65_536,
            Kind::LivePaced => 20 * PACED_PER_SECOND as usize,
            Kind::BatchVocab => VOCAB_EPOCHS as usize * 32_768,
            Kind::SplitFabric => 3 * 16_384,
        };
        Self {
            corpus,
            vocabulary: scaled(vocabulary),
            epoch_reports,
            submissions: scaled(submissions) as u64,
            warm_up: scaled(2048),
            micro: scaled(4096),
        }
    }

    /// `scale = 0.01` of the issue's table, with a vocabulary small enough
    /// that some crowds still clear the threshold. Two and a half epochs
    /// (`batch_vocab`: two cycles), so a run has full epochs and a short
    /// drain one.
    #[cfg(test)]
    pub fn test(kind: Kind) -> Self {
        let epoch_reports = match kind {
            Kind::ServeSaturate | Kind::RoutedServe => 500,
            Kind::BatchVocab => 328,
            _ => 164,
        };
        Self {
            submissions: match kind {
                Kind::BatchVocab => 2 * VOCAB_EPOCHS * epoch_reports as u64,
                _ => epoch_reports as u64 * 5 / 2,
            },
            corpus: match kind {
                Kind::ServeSaturate | Kind::RoutedServe => 41,
                Kind::BatchVocab => epoch_reports,
                _ => 2 * epoch_reports,
            },
            vocabulary: 6,
            epoch_reports,
            warm_up: 20,
            micro: 41,
        }
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Create submissions for this long; `None` creates exactly
    /// `sizes.submissions`, so every count repeats for a seed.
    pub measure: Option<Duration>,
    /// Client connections (and generator threads).
    pub connections: usize,
    /// Test scale: a queue that never refuses, which with one connection
    /// and a fixed count makes epoch membership deterministic, and the
    /// result compared byte for byte with `Deployment::ingest`.
    pub reference: bool,
    pub sizes: Sizes,
    /// Record spans into this tracer and run the per-layer passes.
    pub tracer: Option<Arc<Tracer>>,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Reports accounted for exactly once by the final result.
    pub counted: u64,
    /// `RetryAfter` responses (each was retried to an acknowledgement).
    pub refused: u64,
    /// Oracle failures; empty means the outputs were correct.
    pub failures: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics; traced runs only.
    pub per_layer: Option<Layers>,
    /// Counts that must repeat exactly for a seed, whatever the host's
    /// speed: `batch_vocab`'s per-cycle counts always, a socket workload's
    /// totals in a fixed-count run. (A time-driven socket run handles as
    /// many reports as fit; its counts are only checked against each other.)
    pub repeatable: Vec<(&'static str, u64)>,
    /// Measurements this run could not resolve; printed, not failed.
    pub unresolved: Vec<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.attempted.abs_diff(self.counted)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed() == 0
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(metric, _)| *metric == name)
            .map_or(0.0, |(_, value)| *value)
    }
}

fn median_ms(durations: &[Duration]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    percentile(&ms, 50.0)
}

/// The five end-to-end metrics, in `BENCHMARK.json` order. Peak memory is
/// read last of all, by [`run`].
fn end_to_end(
    setup_s: f64,
    counted: u64,
    wall_s: f64,
    cpu_s: f64,
    result_lag_p50_ms: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("reports_per_s", counted as f64 / wall_s),
        ("cpu_us_per_report", cpu_s * 1e6 / counted.max(1) as f64),
        ("peak_rss_mb", 0.0),
        ("result_lag_p50_ms", result_lag_p50_ms),
    ]
}

/// Runs `set_up` [`SETUP_REPEATS`] times, keeping the last instance, and
/// returns it with the median set-up time. `discard` takes down an
/// instance that will not be used.
fn repeat_set_up<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            discard(previous)?;
        }
        let started = Instant::now();
        last = Some(set_up()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up"),
        percentile(&seconds, 50.0),
    ))
}

struct Prepared {
    corpus: Corpus,
    services: Services,
}

fn plan(
    kind: Kind,
    params: &Params,
    addr: SocketAddr,
    pool: &Arc<Vec<Vec<u8>>>,
    stop: Stop,
    connections: usize,
) -> Plan {
    Plan {
        addr,
        connections,
        pacing: match kind {
            Kind::LivePaced => Pacing::Open {
                per_second: PACED_PER_SECOND,
            },
            _ => Pacing::Closed,
        },
        stop,
        pool: Arc::clone(pool),
        shards: kind.shards(),
        epoch_reports: params.sizes.epoch_reports as u64,
        seed: params.seed,
    }
}

/// Builds the deployment, seals the corpus, starts the services, and warms
/// the path through a throwaway instance — so the comb tables, the
/// allocator and the loopback sockets are warm before the clock starts,
/// while the timed instance's accounting stays exact.
fn set_up_socket(kind: Kind, params: &Params, threads: usize) -> Result<Prepared, String> {
    let sizes = params.sizes;
    let corpus = seal_corpus(
        &deployment(kind, params.seed, threads).encoder(),
        sizes.corpus,
        sizes.vocabulary,
        Encoding::Plain,
        if kind == Kind::SplitFabric {
            Crowd::Blind
        } else {
            Crowd::Hash
        },
        params.seed,
        threads,
    );
    let shape = ServiceShape {
        kind,
        seed: params.seed,
        threads,
        epoch_reports: sizes.epoch_reports,
        // Two epochs of queue, as the soak sizes it. Against the reference
        // nothing may be refused, or one connection's order would not be
        // the collector's.
        queue_capacity: if params.reference {
            sizes.submissions as usize
        } else {
            2 * sizes.epoch_reports
        },
    };

    let throwaway = Services::start(&shape, None)?;
    let warm_up = Stop {
        after: None,
        submissions: Some(sizes.warm_up as u64),
    };
    let warm = generator::run(&plan(
        kind,
        params,
        throwaway.addr,
        &corpus.wire,
        warm_up,
        1,
    ));
    throwaway.finish()?;
    if warm.acked != sizes.warm_up as u64 {
        return Err(format!(
            "warm-up acknowledged {} of {} ({:?})",
            warm.acked, sizes.warm_up, warm.errors
        ));
    }

    let services = Services::start(&shape, params.tracer.as_ref())?;
    Ok(Prepared { corpus, services })
}

fn sum_ingest(finished: &Finished) -> IngestStats {
    let mut total = IngestStats::default();
    for summary in &finished.summaries {
        let ingest = &summary.stats.ingest;
        total.accepted += ingest.accepted;
        total.duplicates += ingest.duplicates;
        total.backpressured += ingest.backpressured;
        total.rejected += ingest.rejected;
        total.peak_queue_depth = total.peak_queue_depth.max(ingest.peak_queue_depth);
    }
    total
}

fn epoch_reports_of(finished: &Finished) -> Vec<&PipelineReport> {
    finished
        .summaries
        .iter()
        .flat_map(|s| &s.epochs)
        .filter_map(|e| e.outcome.as_ref().ok())
        .collect()
}

/// The shuffling stage's own accounting, summed over epochs.
fn sum_stats<'s>(stats: impl IntoIterator<Item = &'s ShufflerStats>) -> ShufflerStats {
    let stats: Vec<ShufflerStats> = stats.into_iter().cloned().collect();
    sum_epoch_stats(&stats)
}

/// Everything a socket workload's accounting is checked against.
struct SocketRun<'r> {
    kind: Kind,
    params: &'r Params,
    corpus: &'r Corpus,
    load: &'r Load,
    finished: &'r Finished,
}

impl SocketRun<'_> {
    /// The chain `attempted == acks == accepted == processed ==
    /// Σ epoch.reports == reports in the result`; any broken link is a lost
    /// or double-counted report. Returns the reports the final result
    /// accounts for.
    fn account(&self, oracle: &mut Oracle) -> u64 {
        let (load, finished) = (self.load, self.finished);
        let ingest = sum_ingest(finished);
        let processed: u64 = finished
            .summaries
            .iter()
            .map(|s| s.stats.reports_processed)
            .sum();
        let in_epochs: u64 = finished
            .summaries
            .iter()
            .flat_map(|s| &s.epochs)
            .map(|e| e.reports as u64)
            .sum();
        let counted = if self.kind.opens_reports() {
            epoch_reports_of(finished)
                .iter()
                .map(|r| r.shuffler_stats.received as u64)
                .sum()
        } else {
            finished.counted.unwrap_or(0)
        };
        oracle.equal("attempted == acks", load.attempted, load.acked);
        oracle.equal("acks == ingest.accepted", load.acked, ingest.accepted);
        oracle.equal("accepted == reports_processed", ingest.accepted, processed);
        oracle.equal("reports_processed == Σ epoch.reports", processed, in_epochs);
        oracle.equal(
            "Σ epoch.reports == reports in the result",
            in_epochs,
            counted,
        );
        oracle.equal("ingest.duplicates", ingest.duplicates, 0);
        oracle.equal("ingest.rejected", ingest.rejected, 0);
        oracle.equal("verdicts other than Ack and RetryAfter", load.lost, 0);
        oracle.equal(
            "RetryAfter responses == ingest.backpressured",
            load.refused,
            ingest.backpressured,
        );
        for error in &load.errors {
            oracle.fail(format!("generator: {error}"));
        }
        for summary in &finished.summaries {
            oracle.equal("connections evicted", summary.stats.connections_evicted, 0);
            for epoch in &summary.epochs {
                if let Err(e) = &epoch.outcome {
                    oracle.fail(format!("epoch {} failed: {e}", epoch.index));
                }
            }
            // Epochs are cut by count alone, so only the drain's last cut
            // may be short — which is what lets the generator name the
            // acknowledgement that completed each epoch.
            let all_but_last = summary.epochs.len().saturating_sub(1);
            for epoch in &summary.epochs[..all_but_last] {
                oracle.equal(
                    "reports in a non-final epoch",
                    epoch.reports,
                    self.params.sizes.epoch_reports,
                );
            }
        }
        if let Some(router) = &finished.router {
            oracle.equal(
                "RouterStats.routed == Σ shard verdicts",
                router.routed,
                ingest.accepted + ingest.backpressured + ingest.duplicates,
            );
            oracle.equal("RouterStats.forward_failures", router.forward_failures, 0);
            oracle.equal("RouterStats.rejected", router.rejected, 0);
        }
        counted
    }

    /// Conservation inside every epoch, and the histogram against the
    /// plaintext the harness knows it submitted.
    fn check_results(&self, oracle: &mut Oracle, merged: &AnalyzerDatabase) {
        let sizes = self.params.sizes;
        // Positions are claimed in order and every claimed one is accepted
        // or in flight, so an epoch holds a run of consecutive corpus
        // positions at most `in_flight` shorter than itself, with at most
        // `in_flight` of them missing (refused, and retried into a later
        // epoch).
        let in_flight = self.params.connections
            * match self.kind {
                Kind::LivePaced => 1,
                _ => generator::WINDOW,
            };
        let heavy = self
            .corpus
            .heavy_words(sizes.epoch_reports.saturating_sub(in_flight), in_flight);
        for summary in &self.finished.summaries {
            for epoch in &summary.epochs {
                let Ok(report) = &epoch.outcome else { continue };
                oracle.conservation(epoch.index, report);
                if epoch.reports == sizes.epoch_reports {
                    oracle.words_present(epoch.index, &report.database, &self.corpus.words, &heavy);
                }
            }
        }
        oracle.histogram_within(
            merged,
            &self.corpus.words,
            &self.corpus.submitted_counts(self.load.attempted),
        );
    }

    /// Test scale only: one connection and no refusal make the collector's
    /// epochs the consecutive runs of the submission order, so the merged
    /// histogram must equal `Deployment::ingest` of those canonical batches
    /// under the same specs — for `split_fabric`, the in-process
    /// `Topology::Split` result — byte for byte.
    fn check_against_reference(&self, oracle: &mut Oracle, merged: &AnalyzerDatabase) {
        let threads = host::cores();
        let twin = deployment(self.kind, self.params.seed, threads);
        let engine = EngineConfig {
            backend: ShuffleBackend::Trusted,
            num_threads: threads,
        };
        let wire = &self.corpus.wire;
        let submitted: Vec<ClientReport> = (0..self.load.attempted as usize)
            .map(|i| ClientReport {
                outer: HybridCiphertext::from_bytes(&wire[i % wire.len()])
                    .expect("corpus ciphertext"),
                metadata: TransportMetadata::synthetic(i as u64),
            })
            .collect();
        let mut reference = AnalyzerDatabase::default();
        let seed = mix_seed(epoch_seed(self.params.seed), 0);
        for (index, batch) in submitted
            .chunks(self.params.sizes.epoch_reports)
            .enumerate()
        {
            let spec = EpochSpec::new(index as u64, seed).with_engine(engine.clone());
            let mut session = twin.session(spec);
            session.extend(batch.iter().cloned());
            match session.finish() {
                Ok(report) => reference.merge_from(&report.database),
                Err(e) => oracle.fail(format!("reference epoch {index}: {e}")),
            }
        }
        if reference.canonical_histogram_bytes() != merged.canonical_histogram_bytes() {
            oracle.fail("merged histogram differs from the in-process reference".to_string());
        }
    }
}

/// Per full epoch: epoch result recorded − creation of the report whose
/// acknowledgement completed the epoch. Excludes the time the epoch took to
/// fill, includes queue wait; the short shutdown-drain epoch never has a
/// completing acknowledgement and so never a sample.
///
/// `from_first` measures from the epoch's first report instead, which adds
/// the fill time: behind a pipeline that only counts, the lag after the
/// last report is a few scheduler quanta — over the 38 epochs of a
/// `routed_serve` run its median moved by a quarter between identical runs —
/// while the age of the oldest report is the epoch's length.
fn result_lags(load: &Load, epochs: &[Vec<EpochTiming>], from_first: bool) -> Vec<Duration> {
    let completed = |shard: usize, epoch: u64| {
        load.epoch_marks
            .iter()
            .any(|mark| mark.completes && mark.shard == shard && mark.epoch == epoch)
    };
    load.epoch_marks
        .iter()
        .filter(|mark| mark.completes != from_first && completed(mark.shard, mark.epoch))
        .filter_map(|mark| {
            epochs[mark.shard]
                .iter()
                .find(|timing| timing.index == mark.epoch)
                .map(|timing| timing.left.saturating_duration_since(mark.created))
        })
        .collect()
}

fn run_socket(kind: Kind, params: &Params) -> Result<Outcome, String> {
    let threads = host::cores();
    let disabled = Tracer::new(false);
    let tracer = params.tracer.as_deref().unwrap_or(&disabled);
    // Only a traced run reads the telemetry registry.
    let probe = tracer.is_enabled().then(RegistryProbe::start).transpose()?;
    let registry = || probe.as_ref().map_or_else(Vec::new, RegistryProbe::view);
    let (prepared, setup_s) = repeat_set_up(
        || set_up_socket(kind, params, threads),
        |unused: Prepared| unused.services.finish().map(drop),
    )?;
    let Prepared { corpus, services } = prepared;
    let kept = services.kept.clone();

    let registry_before = registry();
    let stop = Stop {
        after: params.measure,
        submissions: params.measure.is_none().then_some(params.sizes.submissions),
    };
    let load = generator::run(&plan(
        kind,
        params,
        services.addr,
        &corpus.wire,
        stop,
        params.connections,
    ));
    let finished = services.finish()?;
    let merge_span = tracer.span("core.analyzer.merge", 0, None);
    let mut merged = AnalyzerDatabase::default();
    for summary in &finished.summaries {
        merged.merge_from(&summary.merged_database());
    }
    let merge_s = merge_span.finish();
    // The result is in hand: the timed region ends here.
    let wall_s = load.started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - load.cpu_at_start;
    let registry_after = registry();
    if let Some(probe) = probe {
        probe.stop();
    }

    let run = SocketRun {
        kind,
        params,
        corpus: &corpus,
        load: &load,
        finished: &finished,
    };
    let mut oracle = Oracle::default();
    let counted = run.account(&mut oracle);
    if kind.opens_reports() {
        run.check_results(&mut oracle, &merged);
        if params.reference {
            run.check_against_reference(&mut oracle, &merged);
        }
    }

    let lag_p50_ms = median_ms(&result_lags(&load, &finished.epochs, !kind.opens_reports()));
    let ingest = sum_ingest(&finished);
    let mut outcome = Outcome {
        attempted: load.attempted,
        counted,
        refused: load.refused,
        end_to_end: end_to_end(setup_s, counted, wall_s, cpu_s, lag_p50_ms),
        ..Outcome::default()
    };
    if params.measure.is_none() {
        outcome.repeatable = vec![
            ("collector.accepted", ingest.accepted),
            ("reports in the result", counted),
        ];
        if let Some(router) = &finished.router {
            // Every refusal was routed once more.
            outcome.repeatable.push((
                "fabric.router.routed - collector.backpressured",
                router.routed.saturating_sub(ingest.backpressured),
            ));
        }
    }

    if tracer.is_enabled() {
        let (before, after) = (&registry_before, &registry_after);
        let reports = epoch_reports_of(&finished);
        let mut layers = Layers::new(threads.max(params.connections), 1.0);
        layers.encoder(&corpus);
        layers.generator(&load, wall_s);
        layers.collector(&ingest, &load);
        layers.epochs(&finished.epochs, wall_s);
        layers.serving(before, after, ingest.accepted);
        if let Some(router) = &finished.router {
            layers.router(router, before, after);
        }
        if kind.opens_reports() {
            layers.shuffler(
                &sum_stats(reports.iter().map(|r| &r.shuffler_stats)),
                reports.len(),
            );
            layers.analyzer(reports.iter().map(|r| &r.database), merge_s);
            if kind == Kind::SplitFabric {
                let report_bytes = corpus.wire.first().map_or(0, Vec::len);
                layers.split(before, after, &finished.epochs, &reports, report_bytes);
            } else {
                layers.pipeline_spans(tracer, &mut oracle);
            }
            let kept = kept
                .and_then(|kept| kept.lock().expect("kept epoch lock").take())
                .unwrap_or_else(|| layers::epoch_from_corpus(&corpus, params));
            let twin = deployment(kind, params.seed, threads);
            layers.extra_epoch_passes(&twin, &kept, threads, &mut oracle);
        }
        layers.micro_passes(&corpus, params);
        outcome.per_layer = Some(layers);
    }
    outcome.failures = oracle.into_failures();
    Ok(outcome)
}

/// `batch_vocab`: no sockets. The same sealed batch is ingested under epoch
/// indexes `0..VOCAB_EPOCHS`, cycle after cycle, until `measure` has passed
/// or `sizes.submissions` reports went in; every cycle must reproduce the
/// first one exactly.
fn run_batch(params: &Params) -> Result<Outcome, String> {
    let kind = Kind::BatchVocab;
    let threads = host::cores();
    let sizes = params.sizes;
    let build = || deployment(kind, params.seed, threads);
    let set_up = || -> Result<(Deployment, Corpus), String> {
        let timed = build();
        let corpus = seal_corpus(
            &timed.encoder(),
            sizes.corpus,
            sizes.vocabulary,
            Encoding::SecretShared(SHARE_THRESHOLD),
            Crowd::Hash,
            params.seed,
            threads,
        );
        // Warm-up through a throwaway instance of the same path.
        build()
            .ingest(
                &EpochSpec::new(0, epoch_seed(params.seed)),
                &corpus.reports[..sizes.warm_up.min(corpus.reports.len())],
            )
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok((timed, corpus))
    };
    let ((deployment, corpus), setup_s) = repeat_set_up(set_up, |_| Ok(()))?;

    let disabled = Tracer::new(false);
    let tracer = params.tracer.as_deref().unwrap_or(&disabled);
    let batch = corpus.reports.len() as u64;
    let mut oracle = Oracle::default();
    // (histogram, stats) of each epoch of the first cycle.
    let mut first_cycle: Vec<(Vec<u8>, ShufflerStats)> = Vec::new();
    let mut reports: Vec<PipelineReport> = Vec::new();
    let mut timings: Vec<EpochTiming> = Vec::new();
    let mut lag = Vec::new();
    let mut merged = AnalyzerDatabase::default();
    let mut merge_s = 0.0;

    let started = Instant::now();
    let cpu_at_start = host::cpu_seconds();
    let mut cycles = 0u64;
    loop {
        for index in 0..VOCAB_EPOCHS {
            let spec = EpochSpec::new(index, epoch_seed(params.seed));
            let entered = Instant::now();
            let report = if tracer.is_enabled() {
                let whole = tracer.span("collector.epoch.process", index, None);
                let report = traced_epoch(&deployment, tracer, &spec, &corpus.reports, whole.id());
                whole.finish();
                report
            } else {
                deployment.ingest(&spec, &corpus.reports)
            }
            .map_err(|e| format!("epoch {index}: {e}"))?;
            let left = Instant::now();
            let span = tracer.span("core.analyzer.merge", index, None);
            merged.merge_from(&report.database);
            merge_s += span.finish();
            // There is no socket: the caller holds the result once the
            // ingest call has returned and the epoch is merged.
            lag.push(entered.elapsed());
            timings.push(EpochTiming {
                index,
                entered,
                left,
            });

            let print = (
                report.database.canonical_histogram_bytes(),
                report.shuffler_stats.clone(),
            );
            if cycles == 0 {
                first_cycle.push(print);
            } else if first_cycle[index as usize] != print {
                oracle.fail(format!(
                    "cycle {cycles} epoch {index}: two ingests of one EpochSpec differ"
                ));
            }
            reports.push(report);
        }
        cycles += 1;
        let done = match params.measure {
            Some(measure) => started.elapsed() >= measure,
            None => cycles * VOCAB_EPOCHS * batch >= sizes.submissions,
        };
        if done {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_at_start;

    let plaintext = corpus.submitted_counts(batch);
    let heavy = corpus.heavy_words(batch as usize, 0);
    for (position, report) in reports.iter().enumerate() {
        let index = position as u64 % VOCAB_EPOCHS;
        oracle.conservation(index, report);
        oracle.secret_shares(index, report, &corpus.words, SHARE_THRESHOLD);
        oracle.histogram_within(&report.database, &corpus.words, &plaintext);
        oracle.words_present(index, &report.database, &corpus.words, &heavy);
    }
    let counted: u64 = reports
        .iter()
        .map(|r| r.shuffler_stats.received as u64)
        .sum();

    // Counts of one cycle: every cycle repeats them (checked above), so
    // they do not depend on how many cycles the host had time for.
    let cycle_stats = sum_stats(first_cycle.iter().map(|(_, stats)| stats));
    let mut outcome = Outcome {
        attempted: cycles * VOCAB_EPOCHS * batch,
        counted,
        end_to_end: end_to_end(setup_s, counted, wall_s, cpu_s, median_ms(&lag)),
        repeatable: vec![
            ("core.shuffler.received", cycle_stats.received as u64),
            ("core.shuffler.forwarded", cycle_stats.forwarded as u64),
            (
                "core.shuffler.dropped",
                (cycle_stats.dropped_noise + cycle_stats.dropped_threshold) as u64,
            ),
            (
                "core.shuffler.crowds_forwarded",
                cycle_stats.crowds_forwarded as u64,
            ),
            ("shuffle.attempts", cycle_stats.shuffle_attempts as u64),
        ],
        ..Outcome::default()
    };

    if tracer.is_enabled() {
        let mut layers = Layers::new(threads, cycles as f64);
        layers.encoder(&corpus);
        layers.epochs(std::slice::from_ref(&timings), wall_s);
        layers.shuffler(
            &sum_stats(reports.iter().map(|r| &r.shuffler_stats)),
            reports.len(),
        );
        layers.analyzer(reports.iter().map(|r| &r.database), merge_s);
        layers.pipeline_spans(tracer, &mut oracle);
        // Epoch 0 as the traced steps computed it, against `Deployment::ingest`.
        let kept = KeptEpoch {
            spec: EpochSpec::new(0, epoch_seed(params.seed)),
            batch: corpus.reports.clone(),
            histogram: Some(first_cycle[0].0.clone()),
        };
        layers.extra_epoch_passes(&deployment, &kept, threads, &mut oracle);
        layers.micro_passes(&corpus, params);
        outcome.per_layer = Some(layers);
    }
    outcome.failures = oracle.into_failures();
    Ok(outcome)
}

/// Sets up, warms, runs and checks one workload.
pub fn run(kind: Kind, params: &Params) -> Result<Outcome, String> {
    host::reset_peak_rss();
    let mut outcome = match kind {
        Kind::BatchVocab => run_batch(params),
        _ => run_socket(kind, params),
    }?;
    for (name, value) in &mut outcome.end_to_end {
        if *name == "peak_rss_mb" {
            *value = host::peak_rss_mib();
        }
    }
    Ok(outcome)
}
