//! Per-layer metrics: one traced run's numbers, by crate and module.
//!
//! Sources, in order of preference: spans the harness recorded around its
//! own calls; numbers those calls returned (`ShufflerStats` with its
//! `PhaseTimings`, `IngestStats`, `RouterStats`); the program's telemetry
//! registry, read as a before/after difference; and, after the timed
//! region, micro-passes that exercise one layer alone. A metric whose layer
//! is not on a workload's path reads 0 there.
//!
//! Totals (`*_s`, counts) cover the traced region; `batch_vocab` divides
//! them by the cycles it ran, so there they read per cycle of six epochs
//! and do not depend on how many cycles the host had time for.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use prochlo_collector::{
    InProcessSink, IngestConfig, IngestCore, IngestStats, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::SHUFFLER_AAD;
use prochlo_core::exec::mix_seed;
use prochlo_core::{
    epoch_rng, AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec, PipelineReport,
    ShufflerStats,
};
use prochlo_crypto::elgamal::{BlindingSecret, ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_fabric::RouterStats;
use prochlo_stats::percentile;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::corpus::{stream, Corpus};
use crate::generator::Load;
use crate::host;
use crate::oracle::Oracle;
use crate::pipelines::{EpochTiming, KeptEpoch};
use crate::services::epoch_seed;
use crate::spec::Spec;
use crate::trace::Tracer;
use crate::workloads::Params;

/// Records per `open_batch` call in the crypto micro-pass, as the analyzer
/// batches them (one chunk of the chunked executor).
const OPEN_BATCH: usize = prochlo_core::exec::CHUNK_RECORDS;

/// One value per `per_layer` row of `BENCHMARK.json`, in the file's order;
/// the file is the only list of the names.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    /// Totals are divided by this: 1 for socket workloads, the number of
    /// cycles for `batch_vocab`.
    divisor: f64,
}

/// Difference of one registry entry between two `Snapshot::flat` views.
fn delta(before: &[(String, f64)], after: &[(String, f64)], name: &str) -> f64 {
    let read = |view: &[(String, f64)]| {
        view.iter()
            .find(|(entry, _)| entry == name)
            .map_or(0.0, |(_, value)| *value)
    };
    read(after) - read(before)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn seconds_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

impl Layers {
    pub fn new(threads: usize, divisor: f64) -> Self {
        let spec = Spec::load().expect("BENCHMARK.json was parsed at start-up");
        let mut layers = Self {
            values: spec
                .per_layer
                .iter()
                .map(|metric| (metric.name.as_str(), 0.0))
                .collect(),
            divisor: divisor.max(1.0),
        };
        layers.set("host.cores", host::available_cores() as f64);
        layers.set("host.threads_used", threads as f64);
        layers
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let (_, slot) = self
            .values
            .iter_mut()
            .find(|(declared, _)| *declared == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of BENCHMARK.json"));
        // An empty float sum is -0.0; print it as plain zero.
        *slot = value + 0.0;
    }

    fn total(&mut self, name: &str, value: f64) {
        self.set(name, value / self.divisor);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(declared, _)| *declared == name)
            .map_or(0.0, |(_, value)| *value)
    }

    /// `(name, value)` in the order `BENCHMARK.json` lists them.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        self.values.clone()
    }

    pub fn encoder(&mut self, corpus: &Corpus) {
        self.set("core.encoder.encode_us", corpus.encode_cpu_us);
        self.set(
            "core.encoder.report_bytes",
            corpus.wire.first().map_or(0.0, |w| w.len() as f64),
        );
    }

    pub fn generator(&mut self, load: &Load, wall_s: f64) {
        self.set("collector.ack_p50_ms", load.ack.quantile_ms(0.50));
        self.set("collector.ack_p90_ms", load.ack.quantile_ms(0.90));
        self.set("collector.ack_p99_ms", load.ack.quantile_ms(0.99));
        self.set("collector.ack_max_ms", load.ack.max_ms());
        self.set("generator.late_max_ms", load.late_max.as_secs_f64() * 1e3);
        let sending = load.last_ack.duration_since(load.started).as_secs_f64();
        self.set(
            "generator.offered_per_s",
            ratio(load.attempted as f64, sending.min(wall_s)),
        );
    }

    pub fn collector(&mut self, ingest: &IngestStats, load: &Load) {
        self.total("collector.accepted", ingest.accepted as f64);
        self.total("collector.duplicates", ingest.duplicates as f64);
        self.total("collector.backpressured", ingest.backpressured as f64);
        self.total("collector.rejected", ingest.rejected as f64);
        self.set(
            "collector.retry_share",
            ratio(load.refused as f64, load.attempted as f64),
        );
        self.set("collector.queue.peak_depth", ingest.peak_queue_depth as f64);
        let acking = load.last_ack.duration_since(load.started).as_secs_f64();
        self.set("collector.acks_per_s", ratio(load.acked as f64, acking));
    }

    /// Epoch count, processing time and idle share from when each epoch
    /// entered and left the pipeline (one log per collector).
    pub fn epochs(&mut self, logs: &[Vec<EpochTiming>], wall_s: f64) {
        let process_ms: Vec<f64> = logs
            .iter()
            .flatten()
            .map(|t| (t.left - t.entered).as_secs_f64() * 1e3)
            .collect();
        self.total("collector.epoch.count", process_ms.len() as f64);
        if process_ms.is_empty() {
            return;
        }
        self.set(
            "collector.epoch.process_p50_ms",
            percentile(&process_ms, 50.0),
        );
        self.set(
            "collector.epoch.process_max_ms",
            percentile(&process_ms, 100.0),
        );
        let gaps: f64 = logs
            .iter()
            .flat_map(|log| log.windows(2))
            .map(|pair| {
                pair[1]
                    .entered
                    .saturating_duration_since(pair[0].left)
                    .as_secs_f64()
            })
            .sum();
        self.set(
            "collector.epoch.idle_share",
            ratio(gaps, wall_s * logs.len() as f64),
        );
    }

    /// The serving loop and connection counters of the telemetry registry.
    pub fn serving(&mut self, before: &[(String, f64)], after: &[(String, f64)], accepted: u64) {
        let turns = delta(before, after, "net.loop.turn.count");
        let turn_seconds = delta(before, after, "net.loop.turn.sum_seconds");
        self.set("net.loop.turns", turns);
        self.set("net.loop.turn_mean_us", ratio(turn_seconds * 1e6, turns));
        self.set("net.reports_per_turn", ratio(accepted as f64, turns));
        self.set(
            "net.conns.accepted",
            delta(before, after, "collector.conns.accepted"),
        );
        self.set(
            "net.conns.evicted",
            delta(before, after, "collector.conns.evicted"),
        );
    }

    pub fn router(
        &mut self,
        stats: &RouterStats,
        before: &[(String, f64)],
        after: &[(String, f64)],
    ) {
        self.set("fabric.router.routed", stats.routed as f64);
        self.set(
            "fabric.router.forward_failures",
            stats.forward_failures as f64,
        );
        self.set(
            "fabric.router.forward_mean_us",
            ratio(
                delta(before, after, "fabric.router.forward.sum_seconds") * 1e6,
                delta(before, after, "fabric.router.forward.count"),
            ),
        );
    }

    /// What the shuffling stage reported about itself, summed over `epochs`.
    pub fn shuffler(&mut self, stats: &ShufflerStats, epochs: usize) {
        self.total("core.shuffler.peel_s", stats.timings.peel_seconds);
        self.total("core.shuffler.threshold_s", stats.timings.threshold_seconds);
        self.total("core.shuffler.shuffle_s", stats.timings.shuffle_seconds);
        self.total("core.shuffler.received", stats.received as f64);
        self.total("core.shuffler.forwarded", stats.forwarded as f64);
        self.total(
            "core.shuffler.dropped",
            (stats.dropped_noise + stats.dropped_threshold) as f64,
        );
        self.total("core.shuffler.rejected", stats.rejected as f64);
        self.set(
            "core.shuffler.crowds_forwarded_share",
            ratio(stats.crowds_forwarded as f64, stats.crowds_seen as f64),
        );
        self.set(
            "shuffle.engine_us_per_item",
            ratio(stats.timings.shuffle_seconds * 1e6, stats.forwarded as f64),
        );
        self.total("shuffle.attempts", stats.shuffle_attempts as f64);
        self.set(
            "shuffle.success_ratio",
            ratio(epochs as f64, stats.shuffle_attempts as f64),
        );
    }

    pub fn analyzer<'d>(
        &mut self,
        databases: impl IntoIterator<Item = &'d AnalyzerDatabase>,
        merge_s: f64,
    ) {
        let (mut recovered, mut pending, mut undecryptable) = (0, 0, 0);
        for database in databases {
            recovered += database.recovered_secrets();
            pending += database.pending_secret_groups();
            undecryptable += database.undecryptable();
        }
        self.total("core.analyzer.recovered_secrets", recovered as f64);
        self.total("core.analyzer.pending_groups", pending as f64);
        self.total("core.analyzer.undecryptable", undecryptable as f64);
        self.total("core.analyzer.merge_s", merge_s);
    }

    /// The spans the harness recorded around its own calls into the
    /// pipeline, and the check that they account for each epoch: the steps
    /// must sum to within 5 % of the enclosing `collector.epoch.process`.
    pub fn pipeline_spans(&mut self, tracer: &Tracer, oracle: &mut Oracle) {
        let canonicalize = tracer.total_seconds("core.session.canonicalize");
        let process = tracer.total_seconds("core.shuffler.process");
        let ingest = tracer.total_seconds("core.analyzer.ingest");
        self.total("core.session.canonicalize_s", canonicalize);
        self.total("core.shuffler.process_s", process);
        self.total("core.analyzer.ingest_s", ingest);
        // What the steps leave uncovered is the enclosing span's self time.
        let whole = tracer.total_seconds("collector.epoch.process");
        let uncovered = tracer
            .self_seconds()
            .get("collector.epoch.process")
            .copied()
            .unwrap_or(0.0);
        if uncovered > 0.05 * whole {
            oracle.fail(format!(
                "spans leave {uncovered:.3} s of {whole:.3} s of epoch processing uncovered"
            ));
        }
    }

    /// `split_fabric`: the remote stages as the program's own spans saw
    /// them. The shard's pipeline is the unmodified `RemoteSplitPipeline`,
    /// so what is left of each `process()` after the round trip — the
    /// batch sort and the analyzer — is reported as analyzer time.
    pub fn split(
        &mut self,
        before: &[(String, f64)],
        after: &[(String, f64)],
        logs: &[Vec<EpochTiming>],
        reports: &[&PipelineReport],
        report_bytes: usize,
    ) {
        let sum = |name: &str| delta(before, after, &format!("{name}.sum_seconds"));
        let roundtrip = sum("fabric.shard.roundtrip");
        let (s1, s2) = (sum("fabric.s1.serve"), sum("fabric.s2.serve"));
        self.set("fabric.split.roundtrip_s", roundtrip);
        self.set("fabric.split.s1_serve_s", s1);
        self.set("fabric.split.s2_serve_s", s2);
        self.set("fabric.split.transit_s", roundtrip - s1 - s2);
        let shipped: usize = reports.iter().map(|r| r.shuffler_stats.received).sum();
        self.set("fabric.split.batch_bytes", (shipped * report_bytes) as f64);
        self.set("core.shuffler.process_s", s1 + s2);
        let processing: f64 = logs
            .iter()
            .flatten()
            .map(|t| (t.left - t.entered).as_secs_f64())
            .sum();
        self.set("core.analyzer.ingest_s", (processing - roundtrip).max(0.0));
    }

    /// One kept epoch, re-run after the timed region: once at one thread
    /// and once at `threads` (the single-threaded baseline and the parallel
    /// efficiency), and its analyzer input decrypted on its own (what share
    /// of analyzer time is decryption). With `kept.histogram`, also checks
    /// that the traced pipeline computed what `Deployment::ingest` computes.
    pub fn extra_epoch_passes(
        &mut self,
        twin: &Deployment,
        kept: &KeptEpoch,
        threads: usize,
        oracle: &mut Oracle,
    ) {
        let with_threads = |num_threads: usize| {
            let engine = EngineConfig {
                num_threads,
                ..kept
                    .spec
                    .engine
                    .clone()
                    .unwrap_or_else(|| twin.default_engine())
            };
            kept.spec.clone().with_engine(engine)
        };
        let timed_ingest = |spec: &EpochSpec| {
            let started = Instant::now();
            let report = twin.ingest(spec, &kept.batch);
            (report, seconds_since(started))
        };
        let reports = kept.batch.len() as f64;
        let (_, single_s) = timed_ingest(&with_threads(1));
        let (parallel, parallel_s) = timed_ingest(&with_threads(threads));
        self.set("core.pipeline.t1_reports_per_s", ratio(reports, single_s));
        self.set(
            "core.pipeline.parallel_efficiency",
            ratio(single_s, threads as f64 * parallel_s),
        );
        match (&parallel, &kept.histogram) {
            (Ok(report), Some(traced)) => {
                if &report.database.canonical_histogram_bytes() != traced {
                    oracle.fail(
                        "the traced pipeline's histogram differs from Deployment::ingest"
                            .to_string(),
                    );
                }
            }
            (Err(e), _) => oracle.fail(format!("re-running the kept epoch: {e}")),
            (Ok(_), None) => {}
        }

        let spec = with_threads(threads);
        let engine = spec.engine.clone().expect("engine set above");
        let mut rng = epoch_rng(spec.seed, spec.epoch_index);
        let Ok(outcome) = twin.role().process(&engine, &kept.batch, &mut rng) else {
            return;
        };
        // One untimed pass first, so neither timed pass pays for cold caches
        // the other then enjoys.
        let analyzer = twin.analyzer();
        std::hint::black_box(analyzer.decrypt_batch(&outcome.items, threads));
        let started = Instant::now();
        std::hint::black_box(analyzer.decrypt_batch(&outcome.items, threads));
        let decrypt_s = seconds_since(started);
        let started = Instant::now();
        std::hint::black_box(
            analyzer
                .ingest_items_parallel(&outcome.items, threads)
                .is_ok(),
        );
        let ingest_s = seconds_since(started);
        let decrypt_share = ratio(decrypt_s, ingest_s).min(1.0);
        let ingest_total = self.get("core.analyzer.ingest_s");
        self.set("core.analyzer.decrypt_s", ingest_total * decrypt_share);
        self.set(
            "core.analyzer.aggregate_s",
            ingest_total * (1.0 - decrypt_share),
        );
    }

    /// Micro-passes over `params.sizes.micro` corpus records: the crypto
    /// primitives on their own, and `InProcessSink::submit` (parse + dedup
    /// + enqueue, no socket).
    pub fn micro_passes(&mut self, corpus: &Corpus, params: &Params) {
        let count = params.sizes.micro.min(corpus.wire.len()).max(1);
        let mut rng = StdRng::seed_from_u64(mix_seed(params.seed, stream::MICRO));
        let per_record_us = |started: Instant| seconds_since(started) * 1e6 / count as f64;

        // The corpus's own outer envelopes are what a shuffler opens, so
        // the payloads sealed here have their size.
        let recipient = HybridKeypair::generate(&mut rng);
        let payloads: Vec<&[u8]> = corpus.reports[..count]
            .iter()
            .map(|r| r.outer.sealed.as_slice())
            .collect();
        let started = Instant::now();
        let sealed: Vec<HybridCiphertext> = payloads
            .iter()
            .map(|payload| {
                HybridCiphertext::seal(&mut rng, recipient.public_key(), SHUFFLER_AAD, payload)
                    .expect("seal")
            })
            .collect();
        self.set("crypto.seal_us", per_record_us(started));
        let started = Instant::now();
        for ciphertext in &sealed {
            std::hint::black_box(ciphertext.open(recipient.secret(), SHUFFLER_AAD).is_ok());
        }
        self.set("crypto.open_us", per_record_us(started));
        let started = Instant::now();
        for batch in sealed.chunks(OPEN_BATCH) {
            std::hint::black_box(HybridCiphertext::open_batch(
                batch,
                recipient.secret(),
                SHUFFLER_AAD,
            ));
        }
        self.set("crypto.open_batch_us", per_record_us(started));

        let elgamal = ElGamalKeypair::generate(&mut rng);
        let blinding = BlindingSecret::random(&mut rng);
        let crowd_ids: Vec<ElGamalCiphertext> = (0..count)
            .map(|i| {
                let word = &corpus.words[corpus.word_of[i] as usize];
                ElGamalCiphertext::encrypt_hashed(&mut rng, elgamal.public_key(), word)
            })
            .collect();
        let started = Instant::now();
        for crowd_id in &crowd_ids {
            std::hint::black_box(crowd_id.blind(&blinding));
        }
        self.set("crypto.elgamal_blind_us", per_record_us(started));

        let ingest = Arc::new(IngestCore::new(IngestConfig {
            queue_capacity: count,
            ..IngestConfig::default()
        }));
        let mut sink = InProcessSink::new(ingest, SocketAddr::from(([127, 0, 0, 1], 9)));
        let nonces: Vec<[u8; NONCE_LEN]> = (0..count)
            .map(|_| {
                let mut nonce = [0u8; NONCE_LEN];
                rng.fill_bytes(&mut nonce);
                nonce
            })
            .collect();
        let started = Instant::now();
        let acked = nonces
            .iter()
            .zip(corpus.wire.iter())
            .filter(|(nonce, report)| {
                matches!(sink.submit(nonce, report), Ok(Response::Ack { .. }))
            })
            .count();
        self.set("collector.ingest_us", per_record_us(started));
        assert_eq!(acked, count, "the ingest micro-pass lost submissions");
    }
}

/// The first epoch's worth of the corpus as a canonical batch under epoch
/// 0 — what the extra passes run on when no live epoch was kept.
pub fn epoch_from_corpus(corpus: &Corpus, params: &Params) -> KeptEpoch {
    let mut batch: Vec<ClientReport> =
        corpus.reports[..params.sizes.epoch_reports.min(corpus.reports.len())].to_vec();
    batch.sort_by_cached_key(|report| report.outer.to_bytes());
    KeptEpoch {
        spec: EpochSpec::new(0, epoch_seed(params.seed)),
        batch,
        histogram: None,
    }
}
