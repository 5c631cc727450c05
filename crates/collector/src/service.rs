//! The collector service: the ingest handler on the shared serving harness,
//! and the epoch manager.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! * **event loops** (N) — a [`prochlo_net::Server`], which owns the whole
//!   serving policy (sockets, connection cap, slow-loris eviction, oversize
//!   rejection) and hands every complete request frame to this crate's
//!   per-loop `Ingest` handler, which parses it in place — the body is a
//!   slice of the connection's read buffer, and validating a submission
//!   makes the one copy an accepted report costs. Per-connection state is
//!   the peer's transport identity, rendered once on accept. A valid
//!   submission is answered [`Answer::Later`]: `finish_turn`
//!   (or a `PING` or `STATS` mid-turn) admits the turn's submissions as one
//!   run and publishes the tally before the turn's answers are queued.
//! * **epoch** — owns the [`Deployment`]; drains the report queue with a
//!   count-or-deadline policy and feeds each batch through an
//!   [`EpochSession`](prochlo_core::deployment::EpochSession), which
//!   canonicalizes it and runs
//!   shuffling + analysis under a deterministic [`EpochSpec`]. The queue
//!   wakes this thread when a batch is complete, not per report
//!   (`collector.epoch.wakeups` tracks `collector.epoch.cut`). A batch the
//!   pipeline fails is recorded with its `Err` and counted under
//!   `collector.epoch.failed`; `reports_processed` counts successes only.
//!
//! Shutdown is ordered: the server first, then the report queue closes so
//! the epoch manager drains every in-flight report into final epochs before
//! exiting. Acknowledged reports are by construction already in the queue,
//! so none are lost.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use prochlo_core::{
    AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec, PipelineError,
    PipelineReport,
};
use prochlo_net::{Answer, Handler, Server, ServerConfig, ServerStats};

use crate::error::CollectorError;
use crate::ingest::{Candidate, IngestConfig, IngestCore, IngestStats, Peer, Tally};
use crate::protocol::{frame_policy, refusal_bodies, RequestRef, Response};

/// Configuration of a running collector.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Event-loop threads, each multiplexing its share of the open
    /// connections; `0` means every available core.
    pub worker_threads: usize,
    /// Maximum concurrently open connections across all event loops;
    /// arrivals past the cap are answered `RetryAfter` and closed.
    pub conn_backlog: usize,
    /// Reports queued but not yet cut into an epoch (the memory bound).
    pub queue_capacity: usize,
    /// Cut an epoch as soon as this many reports are queued.
    pub max_epoch_reports: usize,
    /// Cut an epoch with whatever arrived once this much time passes.
    pub epoch_deadline: Duration,
    /// Per-connection progress deadline: a connection that completes no
    /// frame (and drains no pending response) for this long is evicted.
    pub io_timeout: Duration,
    /// Deployment seed; with the epoch index it fixes every noise draw
    /// (see [`prochlo_core::epoch_rng`]).
    pub seed: u64,
    /// Shuffle-engine override the epoch manager attaches to every
    /// [`EpochSpec`]: backend selection plus worker-thread count. `None`
    /// uses the deployment's own engine. Either way the thread count
    /// resolves through the `PROCHLO_SHUFFLE_THREADS` knob when left at
    /// `0` (see [`prochlo_core::exec::resolve_threads`]).
    pub engine: Option<EngineConfig>,
    /// Telemetry registry the service reports into; `None` (the default)
    /// uses the process-wide [`prochlo_obs::global`] registry. Tests that
    /// assert exact metric counts supply their own so concurrently
    /// running collectors cannot cross-contaminate.
    pub registry: Option<Arc<prochlo_obs::Registry>>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            worker_threads: 4,
            conn_backlog: 1024,
            queue_capacity: 1 << 16,
            max_epoch_reports: 8192,
            epoch_deadline: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            seed: 0,
            engine: None,
            registry: None,
        }
    }
}

/// The processing stage behind the epoch manager: everything that happens
/// to a canonical batch once it has been cut.
///
/// The default is [`LocalPipeline`] — shuffle and analyze in-process via a
/// [`Deployment`] — but a collector shard in a networked topology plugs in
/// a pipeline that ships the batch to out-of-process shufflers (see the
/// fabric crate's `RemoteSplitPipeline`). Implementations receive batches
/// in arrival order and **must canonicalize** (sort by outer-ciphertext
/// bytes) before consuming epoch randomness, so identically-seeded runs
/// replay byte-identically regardless of client scheduling.
pub trait EpochPipeline: Send {
    /// Processes one epoch batch under `spec`.
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError>;
}

/// The in-process pipeline: an
/// [`EpochSession`](prochlo_core::deployment::EpochSession) per batch —
/// canonicalize, shuffle, analyze — against an owned [`Deployment`].
#[derive(Debug)]
pub struct LocalPipeline {
    deployment: Deployment,
}

impl LocalPipeline {
    /// Wraps a deployment; the epoch manager becomes the only thread to
    /// touch it.
    pub fn new(deployment: Deployment) -> Self {
        Self { deployment }
    }
}

impl EpochPipeline for LocalPipeline {
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        // An epoch session canonicalizes the batch at finish() (ordering by
        // ciphertext bytes erases arrival order one stage before the
        // shuffler even sees it, and makes the batch a pure function of its
        // *contents*).
        let mut session = self.deployment.session(spec.clone());
        session.extend(batch);
        session.finish()
    }
}

/// What one epoch produced.
#[derive(Debug)]
pub struct EpochResult {
    /// Epoch index, starting at 0.
    pub index: u64,
    /// Reports the epoch batch contained.
    pub reports: usize,
    /// The pipeline's output for the batch.
    pub outcome: Result<PipelineReport, PipelineError>,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Default)]
pub struct CollectorStats {
    /// Parse/dedup/enqueue counters.
    pub ingest: IngestStats,
    /// Connections accepted.
    pub connections: u64,
    /// Connections evicted at the progress deadline (slow loris, stalled
    /// readers).
    pub connections_evicted: u64,
    /// Epochs cut so far.
    pub epochs_cut: u64,
    /// Reports in epochs the pipeline processed successfully; the reports
    /// of a failed epoch are in [`EpochResult::reports`] of its `Err`
    /// entry (one `collector.epoch.failed` each), not here.
    pub reports_processed: u64,
}

/// Everything the service threads share.
#[derive(Debug)]
struct Shared {
    ingest: IngestCore,
    /// Read through by the registry as `collector.epoch.cut`.
    epochs_cut: Arc<AtomicU64>,
    reports_processed: AtomicU64,
    epochs: Mutex<Vec<EpochResult>>,
}

impl Shared {
    fn stats_snapshot(&self, served: ServerStats) -> CollectorStats {
        CollectorStats {
            ingest: self.ingest.stats(),
            connections: served.accepted,
            connections_evicted: served.evicted,
            epochs_cut: self.epochs_cut.load(Ordering::Relaxed),
            reports_processed: self.reports_processed.load(Ordering::Relaxed),
        }
    }
}

/// The final accounting a shutdown returns.
#[derive(Debug)]
pub struct CollectorSummary {
    /// Counter snapshot at shutdown.
    pub stats: CollectorStats,
    /// Every epoch the service cut, in order.
    pub epochs: Vec<EpochResult>,
}

impl CollectorSummary {
    /// Merges the analyzer databases of all successful epochs, the view a
    /// long-running analyzer accumulates across batch boundaries.
    pub fn merged_database(&self) -> AnalyzerDatabase {
        let mut merged = AnalyzerDatabase::default();
        for epoch in &self.epochs {
            if let Ok(report) = &epoch.outcome {
                merged.merge_from(&report.database);
            }
        }
        merged
    }
}

/// A running collector service bound to a local address.
#[derive(Debug)]
pub struct Collector {
    server: Server,
    shared: Arc<Shared>,
    epoch_thread: JoinHandle<()>,
}

impl Collector {
    /// Binds the listener and spawns the service threads. The deployment
    /// moves into the epoch manager, which becomes the only thread to touch
    /// it.
    pub fn start(deployment: Deployment, config: CollectorConfig) -> Result<Self, CollectorError> {
        Self::start_with_pipeline(Box::new(LocalPipeline::new(deployment)), config)
    }

    /// Like [`Self::start`], but with an explicit [`EpochPipeline`] — the
    /// seam a collector shard uses to run its epochs through
    /// out-of-process shufflers while keeping the whole serving layer
    /// (framing, dedup, backpressure, epoch cutting) unchanged.
    pub fn start_with_pipeline(
        pipeline: Box<dyn EpochPipeline>,
        config: CollectorConfig,
    ) -> Result<Self, CollectorError> {
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::clone(prochlo_obs::global()));
        let shared = Arc::new(Shared {
            ingest: IngestCore::with_registry(
                IngestConfig {
                    queue_capacity: config.queue_capacity,
                    ..IngestConfig::default()
                },
                Arc::clone(&registry),
            ),
            epochs_cut: Arc::default(),
            reports_processed: AtomicU64::new(0),
            epochs: Mutex::new(Vec::new()),
        });

        // The epoch manager starts first: if the server then cannot (a
        // taken address), closing the queue is all it takes to end it.
        let epoch_thread = {
            let (shared, config) = (Arc::clone(&shared), config.clone());
            #[expect(clippy::disallowed_methods, reason = "the one epoch manager thread")]
            std::thread::Builder::new()
                .name("collector-epoch".to_string())
                .spawn(move || epoch_loop(pipeline, &shared, &config))?
        };
        let (busy_body, oversize_body) = refusal_bodies();
        let server = Server::start(
            ServerConfig {
                addr: config.addr,
                loops: config.worker_threads,
                max_conns: config.conn_backlog,
                policy: frame_policy(),
                io_timeout: config.io_timeout,
                busy_body,
                oversize_body,
                registry,
                thread_name: "ingest-loop",
                conns_metric: "collector.conns",
                turn_metric: "net.loop.turn",
            },
            || {
                Ok(Ingest {
                    shared: Arc::clone(&shared),
                    tally: Tally::default(),
                    run: Vec::new(),
                    answered: Vec::new(),
                })
            },
        )
        .inspect_err(|_: &CollectorError| shared.ingest.queue().close())?;
        Ok(Self {
            server,
            shared,
            epoch_thread,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A live snapshot of the service counters.
    pub fn stats(&self) -> CollectorStats {
        self.shared.stats_snapshot(self.server.stats())
    }

    /// A live snapshot of the telemetry registry this collector reports
    /// into — the same view the wire `STATS` request returns.
    pub fn obs_snapshot(&self) -> prochlo_obs::Snapshot {
        self.shared.ingest.registry().snapshot()
    }

    /// Shuts the service down gracefully: stop taking connections, flush
    /// what the open ones will take, then drain every queued report into
    /// final epochs.
    pub fn shutdown(self) -> CollectorSummary {
        let served = self.server.shutdown();
        // No loop can push anymore; the epoch manager drains what is left.
        self.shared.ingest.queue().close();
        let _ = self.epoch_thread.join();

        let stats = self.shared.stats_snapshot(served);
        let epochs = match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.epochs.into_inner(),
            // A caller cloned the Arc (not possible through the public API);
            // fall back to draining the shared vector.
            Err(shared) => std::mem::take(&mut *shared.epochs.lock()),
        };
        CollectorSummary { stats, epochs }
    }
}

/// One event loop's protocol handler: answers request frames from the
/// shared [`IngestCore`].
struct Ingest {
    shared: Arc<Shared>,
    /// This turn's submissions, not yet in the shared books.
    tally: Tally,
    /// This turn's valid submissions not yet admitted, and the answers of
    /// those admitted, in request order.
    run: Vec<Candidate>,
    answered: Vec<Vec<u8>>,
}

impl Ingest {
    /// Admits the run gathered so far and publishes the turn's tally.
    fn admit(&mut self) {
        let ingest = &self.shared.ingest;
        let answered = &mut self.answered;
        ingest.admit_run(&mut self.tally, &mut self.run, |verdict| {
            answered.push(verdict.to_bytes());
        });
        ingest.publish(&mut self.tally);
    }
}

impl Handler for Ingest {
    /// The peer: ingest stamps transport metadata from it.
    type Conn = Peer;

    fn connected(&mut self, peer: SocketAddr) -> Self::Conn {
        Peer::from(peer)
    }

    fn frame(&mut self, peer: &mut Self::Conn, body: &[u8]) -> Result<Answer, Vec<u8>> {
        let request = RequestRef::parse(body);
        if matches!(request, Ok(RequestRef::Ping | RequestRef::Stats)) {
            // PING and STATS read the queue and the books: bring them up to
            // this frame first.
            self.admit();
        }
        let ingest = &self.shared.ingest;
        let response = match request {
            Ok(RequestRef::Submit(submission)) => {
                // Nonce and report still point into the connection's read
                // buffer; validation makes the one copy.
                let (nonce, report) = (submission.nonce, submission.report);
                match ingest.candidate(&mut self.tally, nonce, report, peer) {
                    Ok(candidate) => {
                        self.run.push(candidate);
                        return Ok(Answer::Later);
                    }
                    Err(rejected) => rejected,
                }
            }
            Ok(RequestRef::Ping) => Response::Ack {
                pending: ingest.queue().len() as u32,
            },
            // The live telemetry snapshot, flattened to (name, value)
            // pairs — what an operator dashboard polls.
            Ok(RequestRef::Stats) => Response::Stats {
                entries: ingest.registry().snapshot().flat(),
            },
            // A desynchronized or hostile peer; reject and hang up.
            Err(_) => {
                let reason = "malformed request".to_string();
                return Err(Response::Rejected { reason }.to_bytes());
            }
        };
        Ok(Answer::Now(response.to_bytes()))
    }

    /// Admits the turn's run and publishes its tally: the server calls this
    /// before it queues the turn's answers, so every Ack a client reads is
    /// already counted, and its report already queued.
    fn finish_turn(&mut self, bodies: &mut Vec<Vec<u8>>) {
        self.admit();
        bodies.append(&mut self.answered);
    }
}

fn epoch_loop(mut pipeline: Box<dyn EpochPipeline>, shared: &Shared, config: &CollectorConfig) {
    let queue = shared.ingest.queue();
    let registry = shared.ingest.registry();
    registry.read_through("collector.epoch.cut", Arc::clone(&shared.epochs_cut));
    let epoch_reports = registry.counter("collector.epoch.reports");
    // Registered here so a healthy collector exports them at zero.
    let epochs_failed = registry.counter("collector.epoch.failed");
    let duplicate_reports = registry.counter("collector.epoch.duplicate_reports");
    // How often this thread came back from its wait on the queue: the queue
    // wakes it when a batch is complete, so this tracks `epoch.cut`, not
    // the number of reports.
    let wakeups = registry.counter("collector.epoch.wakeups");
    let mut wakeups_seen = 0;
    // The epoch flight recorder: one JSONL line per cut epoch when
    // PROCHLO_OBS_PATH names a sink.
    let flight = prochlo_obs::FlightRecorder::from_env();
    let mut spec = EpochSpec::new(0, config.seed);
    if let Some(engine) = &config.engine {
        spec = spec.with_engine(engine.clone());
    }
    loop {
        let batch = queue.drain_when(config.max_epoch_reports, config.epoch_deadline);
        let woken = queue.wakeups();
        wakeups.add(woken - wakeups_seen);
        wakeups_seen = woken;
        if batch.is_empty() {
            if queue.is_finished() {
                break;
            }
            continue;
        }
        // The pipeline canonicalizes the batch before consuming epoch
        // randomness, so identically-seeded runs replay identically
        // regardless of client thread scheduling.
        let reports = batch.len();
        let span = registry.span("collector.epoch.process");
        let outcome = pipeline.process(&spec, batch);
        let process_seconds = span.finish();
        // Processed means the pipeline returned a result for them; a failed
        // batch is counted as failed, not as done.
        match &outcome {
            Ok(report) => {
                shared
                    .reports_processed
                    .fetch_add(reports as u64, Ordering::Relaxed);
                duplicate_reports.add(report.shuffler_stats.duplicate_reports as u64);
            }
            Err(_) => epochs_failed.inc(),
        }
        shared.epochs_cut.fetch_add(1, Ordering::Relaxed);
        epoch_reports.add(reports as u64);
        if let Some(flight) = &flight {
            flight.record(
                "collector",
                spec.epoch_index,
                reports as f64,
                &[
                    ("process_seconds", process_seconds),
                    ("queue_depth", queue.len() as f64),
                    ("ok", if outcome.is_ok() { 1.0 } else { 0.0 }),
                ],
            );
        }
        shared.epochs.lock().push(EpochResult {
            index: spec.epoch_index,
            reports,
            outcome,
        });
        // Age the replay filter with the epoch boundary so its memory and
        // its capacity headroom are tied to epochs, not process lifetime.
        shared.ingest.rotate_dedup();
        spec = spec.next();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CollectorClient, ReportSink};
    use crate::protocol::{Request, NONCE_LEN};
    use prochlo_core::encoder::CrowdStrategy;
    use prochlo_core::ShufflerConfig;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn test_config() -> CollectorConfig {
        CollectorConfig {
            worker_threads: 2,
            epoch_deadline: Duration::from_millis(50),
            io_timeout: Duration::from_secs(5),
            ..CollectorConfig::default()
        }
    }

    fn start_collector(seed: u64, config: CollectorConfig) -> (Collector, prochlo_core::Encoder) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .payload_size(32)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let collector = Collector::start(deployment, config).unwrap();
        (collector, encoder)
    }

    fn fresh_nonce(rng: &mut StdRng) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        nonce
    }

    #[test]
    fn submissions_flow_into_epochs_and_shutdown_drains() {
        let (collector, encoder) = start_collector(11, test_config());
        let mut rng = StdRng::seed_from_u64(12);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..20u64 {
            let report = encoder
                .encode_plain(b"value", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            let response = client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap();
            assert!(matches!(response, Response::Ack { .. }));
        }
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 20);
        assert_eq!(summary.stats.reports_processed, 20);
        assert!(summary.stats.epochs_cut >= 1);
        let total: usize = summary.epochs.iter().map(|e| e.reports).sum();
        assert_eq!(total, 20);
        assert_eq!(summary.merged_database().count(b"value"), 20);
    }

    #[test]
    fn ping_reports_queue_depth() {
        let config = CollectorConfig {
            // A deadline long enough that nothing is drained mid-test.
            epoch_deadline: Duration::from_secs(60),
            max_epoch_reports: 1000,
            ..test_config()
        };
        let (collector, encoder) = start_collector(21, config);
        let mut rng = StdRng::seed_from_u64(22);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Ack { pending: 0 });
        let report = encoder
            .encode_plain(b"x", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        client
            .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
            .unwrap();
        assert_eq!(client.ping().unwrap(), Response::Ack { pending: 1 });
        drop(client);
        collector.shutdown();
    }

    #[test]
    fn malformed_submissions_are_rejected_and_connection_survives_reconnect() {
        let (collector, encoder) = start_collector(31, test_config());
        let mut rng = StdRng::seed_from_u64(32);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let response = client.submit(&fresh_nonce(&mut rng), &[1, 2, 3]).unwrap();
        assert!(matches!(response, Response::Rejected { .. }));
        // The protocol stream is still synchronized: a valid submit works.
        let report = encoder
            .encode_plain(b"ok", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        assert!(matches!(
            client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap(),
            Response::Ack { .. }
        ));
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.rejected, 1);
        assert_eq!(summary.stats.ingest.accepted, 1);
    }

    #[test]
    fn shutdown_completes_while_a_client_is_still_connected() {
        let config = CollectorConfig {
            // The only wait shutdown may incur for a silent-but-connected
            // client is one io_timeout; keep it short for the test.
            io_timeout: Duration::from_millis(200),
            ..test_config()
        };
        let (collector, encoder) = start_collector(51, config);
        let mut rng = StdRng::seed_from_u64(52);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let report = encoder
            .encode_plain(b"lingering", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        client
            .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
            .unwrap();
        // The client stays connected and idle; shutdown must not wait on it
        // beyond the io_timeout.
        let start = std::time::Instant::now();
        let summary = collector.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must not hang on a connected client"
        );
        assert_eq!(summary.stats.reports_processed, 1);
        drop(client);
    }

    #[test]
    fn configured_engine_overrides_the_pipeline_backend() {
        let config = CollectorConfig {
            engine: Some(EngineConfig {
                backend: prochlo_core::ShuffleBackend::Sgx { params: None },
                num_threads: 2,
            }),
            ..test_config()
        };
        let (collector, encoder) = start_collector(61, config);
        let mut rng = StdRng::seed_from_u64(62);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..10u64 {
            let report = encoder
                .encode_plain(b"value", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            assert!(matches!(
                client
                    .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                    .unwrap(),
                Response::Ack { .. }
            ));
        }
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.merged_database().count(b"value"), 10);
        assert!(!summary.epochs.is_empty());
        for epoch in &summary.epochs {
            let report = epoch.outcome.as_ref().expect("epoch ok");
            // The deployment's shuffler defaults to "trusted"; the
            // collector's engine override must win.
            assert_eq!(
                report.shuffler_stats.backend,
                prochlo_core::BackendKind::Stash
            );
        }
    }

    #[test]
    fn stats_request_reflects_the_live_registry() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let (collector, encoder) = start_collector(71, config);
        let mut rng = StdRng::seed_from_u64(72);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..5u64 {
            let report = encoder
                .encode_plain(b"value", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap();
        }
        let entries = client.stats().unwrap();
        let get = |name: &str| {
            entries
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(get("collector.ingest.accepted"), 5.0);
        assert_eq!(get("collector.ingest.submit.count"), 5.0);
        // Names arrive sorted, mirroring Snapshot::flat.
        let names: Vec<&String> = entries.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        drop(client);
        let summary = collector.shutdown();
        // The wire snapshot and the legacy summary agree.
        assert_eq!(summary.stats.ingest.accepted, 5);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("collector.epoch.reports"),
            Some(summary.stats.reports_processed as f64)
        );
        assert_eq!(
            snap.get("collector.epoch.cut"),
            Some(summary.stats.epochs_cut as f64)
        );
    }

    #[test]
    fn idle_connection_is_evicted_at_the_deadline() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            io_timeout: Duration::from_millis(150),
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let (collector, encoder) = start_collector(91, config);
        let mut rng = StdRng::seed_from_u64(92);
        // A slow loris: connects, never completes a frame.
        let loris = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        // A healthy client on the same service keeps being served while the
        // loris sits idle past its deadline.
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let report = encoder
                .encode_plain(b"alive", CrowdStrategy::None, 0, &mut rng)
                .unwrap();
            assert!(matches!(
                client
                    .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                    .unwrap(),
                Response::Ack { .. }
            ));
            if collector.stats().connections_evicted >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "loris was never evicted"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(loris);
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.connections_evicted, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.get("collector.conns.evicted"), Some(1.0));
        assert_eq!(
            snap.get("collector.conns.accepted"),
            Some(summary.stats.connections as f64)
        );
    }

    /// Counts what it is handed; fails the calls listed in `failing`.
    struct Scripted {
        calls: usize,
        failing: &'static [usize],
    }

    impl EpochPipeline for Scripted {
        fn process(
            &mut self,
            _spec: &EpochSpec,
            _batch: Vec<ClientReport>,
        ) -> Result<PipelineReport, PipelineError> {
            self.calls += 1;
            if self.failing.contains(&self.calls) {
                return Err(PipelineError::MalformedReport("scripted failure"));
            }
            Ok(PipelineReport {
                database: AnalyzerDatabase::default(),
                shuffler_stats: prochlo_core::ShufflerStats::default(),
                stage_stats: Vec::new(),
            })
        }
    }

    fn sealed_report(rng: &mut StdRng) -> Vec<u8> {
        let recipient = prochlo_crypto::hybrid::HybridKeypair::generate(rng);
        prochlo_crypto::hybrid::HybridCiphertext::seal(rng, recipient.public_key(), b"aad", b"v")
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn a_failed_epoch_is_counted_as_failed_not_as_processed() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            // Epochs of exactly three reports, cut by count alone.
            max_epoch_reports: 3,
            epoch_deadline: Duration::from_secs(60),
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let pipeline = Scripted {
            calls: 0,
            failing: &[2],
        };
        let collector = Collector::start_with_pipeline(Box::new(pipeline), config).unwrap();
        let mut rng = StdRng::seed_from_u64(101);
        let report = sealed_report(&mut rng);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for _ in 0..9 {
            let response = client.submit(&fresh_nonce(&mut rng), &report).unwrap();
            assert!(matches!(response, Response::Ack { .. }));
        }
        drop(client);
        let summary = collector.shutdown();
        let failed: Vec<&EpochResult> = summary
            .epochs
            .iter()
            .filter(|epoch| epoch.outcome.is_err())
            .collect();
        assert_eq!(summary.epochs.len(), 3);
        assert_eq!(failed.len(), 1);
        assert_eq!((failed[0].index, failed[0].reports), (1, 3));
        // accepted == processed + the failed batch's reports.
        assert_eq!(summary.stats.ingest.accepted, 9);
        assert_eq!(summary.stats.reports_processed, 6);
        assert_eq!(summary.stats.epochs_cut, 3);
        let snap = registry.snapshot();
        assert_eq!(snap.get("collector.epoch.failed"), Some(1.0));
        assert_eq!(snap.get("collector.epoch.cut"), Some(3.0));
        assert_eq!(snap.get("collector.epoch.reports"), Some(9.0));
    }

    #[test]
    fn the_epoch_thread_wakes_per_epoch_not_per_report() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            max_epoch_reports: 500,
            epoch_deadline: Duration::from_secs(60),
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let pipeline = Scripted {
            calls: 0,
            failing: &[],
        };
        let collector = Collector::start_with_pipeline(Box::new(pipeline), config).unwrap();
        let mut rng = StdRng::seed_from_u64(111);
        let report = sealed_report(&mut rng);
        let requests: Vec<Request> = (0..2_000)
            .map(|_| Request::Submit {
                nonce: fresh_nonce(&mut rng),
                report: report.clone(),
            })
            .collect();
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let verdicts = client.submit_batch(&requests).unwrap();
        assert!(verdicts.iter().all(|v| matches!(v, Response::Ack { .. })));
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.epochs_cut, 4);
        assert_eq!(summary.stats.reports_processed, 2_000);
        // One wake per completed batch, plus the one `close()` gives the
        // final, empty wait. The parent design read about 2 000 here.
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("collector.epoch.failed"),
            Some(0.0),
            "exported at zero while nothing fails"
        );
        let wakeups = snap.get("collector.epoch.wakeups");
        assert!(
            wakeups.is_some_and(|w| w <= 5.0),
            "collector.epoch.wakeups = {wakeups:?}"
        );
    }

    /// Writes `requests` as one burst and reads one response per request.
    fn burst(stream: &mut std::net::TcpStream, requests: &[Request]) -> Vec<Response> {
        use crate::protocol::{read_frame, write_frame};
        use std::io::Write;
        let mut wire = Vec::new();
        for request in requests {
            write_frame(&mut wire, &request.to_bytes()).unwrap();
        }
        stream.write_all(&wire).unwrap();
        requests
            .iter()
            .map(|_| Response::from_bytes(&read_frame(stream, 1 << 20).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn two_connections_on_one_loop_each_get_their_own_verdicts_in_order() {
        let config = CollectorConfig {
            worker_threads: 1,
            max_epoch_reports: 100_000,
            epoch_deadline: Duration::from_secs(60),
            ..test_config()
        };
        let pipeline = Scripted {
            calls: 0,
            failing: &[],
        };
        let collector = Collector::start_with_pipeline(Box::new(pipeline), config).unwrap();
        let mut rng = StdRng::seed_from_u64(131);
        let report = sealed_report(&mut rng);
        // Per connection: runs of five — fresh, a repeat of it, fresh,
        // garbage, fresh — over nonces the other connection never uses, so
        // a connection's verdict kinds do not depend on how the two bursts
        // interleave, while the depths in the acks do.
        let mut script = |count: usize| -> Vec<Request> {
            let mut last = [0u8; NONCE_LEN];
            (0..count)
                .map(|i| {
                    let nonce = if i % 5 == 1 {
                        last
                    } else {
                        fresh_nonce(&mut rng)
                    };
                    last = nonce;
                    let report = if i % 5 == 3 {
                        vec![0u8; 10]
                    } else {
                        report.clone()
                    };
                    Request::Submit { nonce, report }
                })
                .collect()
        };
        let scripts = [script(400), script(400)];
        let kinds = |verdicts: &[Response]| -> Vec<u8> {
            verdicts.iter().map(|v| v.to_bytes()[0]).collect()
        };
        let (ack, rejected, duplicate) = (0u8, 2, 3);
        let expected: Vec<u8> = (0..400)
            .map(|i| match i % 5 {
                1 => duplicate,
                3 => rejected,
                _ => ack,
            })
            .collect();
        // Both bursts are in flight at once and far larger than one read, so
        // the loop walks frames of both connections out of read buffers
        // that are refilled mid-burst.
        let addr = collector.local_addr();
        let answers: Vec<Vec<Response>> = std::thread::scope(|scope| {
            let clients: Vec<_> = scripts
                .iter()
                .map(|script| {
                    scope.spawn(move || {
                        let mut stream = std::net::TcpStream::connect(addr).unwrap();
                        stream
                            .set_read_timeout(Some(Duration::from_secs(10)))
                            .unwrap();
                        burst(&mut stream, script)
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let mut depths = Vec::new();
        for answers in &answers {
            assert_eq!(kinds(answers), expected);
            depths.extend(answers.iter().filter_map(|v| match v {
                Response::Ack { pending } => Some(*pending),
                _ => None,
            }));
        }
        // Nothing drained: across both connections every depth from 1 to
        // the number accepted was acknowledged exactly once.
        depths.sort_unstable();
        assert_eq!(depths, (1..=480).collect::<Vec<u32>>());
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 480);
        assert_eq!(summary.stats.ingest.duplicates, 160);
        assert_eq!(summary.stats.ingest.rejected, 160);
        assert_eq!(summary.stats.reports_processed, 480);
    }

    #[test]
    fn a_flushed_window_and_a_flush_per_frame_each_get_one_ack_per_submit() {
        use crate::protocol::{read_frame, write_frame};
        use std::io::{BufReader, BufWriter, Write};
        const WINDOW: usize = 64;
        let config = CollectorConfig {
            worker_threads: 1,
            max_epoch_reports: 100_000,
            epoch_deadline: Duration::from_secs(60),
            ..test_config()
        };
        let pipeline = Scripted {
            calls: 0,
            failing: &[],
        };
        let collector = Collector::start_with_pipeline(Box::new(pipeline), config).unwrap();
        let mut rng = StdRng::seed_from_u64(151);
        let report = sealed_report(&mut rng);
        let mut submit = || {
            Request::Submit {
                nonce: fresh_nonce(&mut rng),
                report: report.clone(),
            }
            .to_bytes()
        };
        // The benchmark client's two idioms: framed into a buffered socket,
        // which `write_frame` leaves to the caller to flush.
        let stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::with_capacity(64 << 10, stream);
        let mut acks = 0;
        let mut read_verdict = |reader: &mut BufReader<_>| {
            let body = read_frame(reader, 1 << 20).expect("a verdict, not a stall");
            acks += usize::from(matches!(
                Response::from_bytes(&body).unwrap(),
                Response::Ack { .. }
            ));
        };
        // Closed loop: a whole window, one flush, then its verdicts.
        for _ in 0..WINDOW {
            write_frame(&mut writer, &submit()).unwrap();
        }
        writer.flush().unwrap();
        for _ in 0..WINDOW {
            read_verdict(&mut reader);
        }
        // Open loop: one frame, one flush, one verdict.
        for _ in 0..WINDOW {
            write_frame(&mut writer, &submit()).unwrap();
            writer.flush().unwrap();
            read_verdict(&mut reader);
        }
        assert_eq!(acks, 2 * WINDOW);
        drop((reader, writer));
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 2 * WINDOW as u64);
        assert_eq!(summary.stats.reports_processed, 2 * WINDOW as u64);
    }

    /// A one-loop collector whose epochs are cut only at shutdown, so queue
    /// depths and counts stay put while a test reads them.
    fn one_loop_collector(registry: Option<Arc<prochlo_obs::Registry>>) -> Collector {
        let config = CollectorConfig {
            worker_threads: 1,
            max_epoch_reports: 100_000,
            epoch_deadline: Duration::from_secs(60),
            registry,
            ..test_config()
        };
        let pipeline = Scripted {
            calls: 0,
            failing: &[],
        };
        Collector::start_with_pipeline(Box::new(pipeline), config).unwrap()
    }

    /// `count` fresh submissions of one sealed report.
    fn submits(rng: &mut StdRng, count: usize) -> Vec<Request> {
        let report = sealed_report(rng);
        (0..count)
            .map(|_| Request::Submit {
                nonce: fresh_nonce(rng),
                report: report.clone(),
            })
            .collect()
    }

    #[test]
    fn a_hangup_inside_a_pipelined_window_is_counted_once() {
        use crate::protocol::write_frame;
        use std::io::Write;
        let collector = one_loop_collector(None);
        let mut rng = StdRng::seed_from_u64(161);
        let mut wire = Vec::new();
        for request in submits(&mut rng, 64) {
            write_frame(&mut wire, &request.to_bytes()).unwrap();
        }
        // One flushed write, then a hang-up before any verdict is read: the
        // loop reads the window and the end of the stream in one turn, and
        // the connection closes in the turn that counts its submissions.
        let mut stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream.write_all(&wire).unwrap();
        stream.shutdown(std::net::Shutdown::Both).unwrap();
        // The loop serves a fresh connection as usual, and has queued the
        // whole window.
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.ping().unwrap() != (Response::Ack { pending: 64 }) {
            assert!(std::time::Instant::now() < deadline, "window never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop((stream, client));
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 64);
        assert_eq!(summary.stats.reports_processed, 64);
    }

    #[test]
    fn a_stats_behind_a_window_reads_the_window_counted() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let collector = one_loop_collector(Some(Arc::clone(&registry)));
        let mut rng = StdRng::seed_from_u64(171);
        let mut requests = submits(&mut rng, 63);
        requests.push(Request::Stats);
        let mut stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The STATS arrives in the same turn as (some of) the window, after
        // every submission of it: its answer counts all 63.
        let answers = burst(&mut stream, &requests);
        let Some(Response::Stats { entries }) = answers.last() else {
            panic!("the last answer is not STATS: {:?}", answers.last());
        };
        let accepted = entries
            .iter()
            .find(|(name, _)| name == "collector.ingest.accepted")
            .map(|(_, value)| *value);
        assert_eq!(accepted, Some(63.0));
        drop(stream);
        assert_eq!(collector.shutdown().stats.ingest.accepted, 63);
    }

    #[test]
    fn every_ack_a_client_reads_is_already_counted() {
        use crate::protocol::{read_frame, write_frame};
        use std::io::Write;
        const WINDOW: usize = 64;
        let collector = one_loop_collector(None);
        let mut rng = StdRng::seed_from_u64(181);
        let mut stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut acks = 0u64;
        for _ in 0..16 {
            let mut wire = Vec::new();
            for request in submits(&mut rng, WINDOW) {
                write_frame(&mut wire, &request.to_bytes()).unwrap();
            }
            stream.write_all(&wire).unwrap();
            // Read the verdicts one by one and look at the books between
            // reads: a turn that queued its Acks before publishing its tally
            // would show fewer accepted than Acks here.
            for _ in 0..WINDOW {
                let verdict = Response::from_bytes(&read_frame(&mut stream, 1 << 20).unwrap());
                assert!(matches!(verdict, Ok(Response::Ack { .. })), "{verdict:?}");
                acks += 1;
                let accepted = collector.stats().ingest.accepted;
                assert!(accepted >= acks, "{acks} Acks read, {accepted} counted");
            }
        }
        drop(stream);
        assert_eq!(collector.shutdown().stats.ingest.accepted, acks);
    }

    /// Keeps the outer ciphertext of every report it is handed.
    struct Recording(Arc<Mutex<Vec<Vec<u8>>>>);

    impl EpochPipeline for Recording {
        fn process(
            &mut self,
            _spec: &EpochSpec,
            batch: Vec<ClientReport>,
        ) -> Result<PipelineReport, PipelineError> {
            let mut seen = self.0.lock();
            seen.extend(batch.iter().map(|report| report.outer.to_bytes()));
            Ok(PipelineReport {
                database: AnalyzerDatabase::default(),
                shuffler_stats: prochlo_core::ShufflerStats::default(),
                stage_stats: Vec::new(),
            })
        }
    }

    #[test]
    fn every_ack_read_while_shutdown_runs_is_counted_once() {
        use crate::protocol::{read_frame, write_frame};
        use std::io::Write;
        const WINDOW: u64 = 64;
        // Each round lets four clients pipeline windows for a little longer
        // before the shutdown lands, so it cuts windows at different
        // points: mid-read, mid-turn, between a turn's admission and its
        // answers, and after the loops stopped reading.
        for round in 0..6u64 {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let config = CollectorConfig {
                max_epoch_reports: 500,
                epoch_deadline: Duration::from_millis(20),
                io_timeout: Duration::from_secs(2),
                ..test_config()
            };
            let pipeline = Box::new(Recording(Arc::clone(&seen)));
            let collector = Collector::start_with_pipeline(pipeline, config).unwrap();
            let addr = collector.local_addr();
            // Every report is unique: the client and its sequence number
            // open the ciphertext bytes.
            let report = |client: u64, seq: u64| -> Vec<u8> {
                let mut bytes = vec![0u8; 64];
                bytes[..8].copy_from_slice(&client.to_le_bytes());
                bytes[8..16].copy_from_slice(&seq.to_le_bytes());
                bytes
            };
            let clients: Vec<_> = (0..4u64)
                .map(|client| {
                    std::thread::spawn(move || {
                        let mut acked = Vec::new();
                        let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
                            return acked;
                        };
                        stream
                            .set_read_timeout(Some(Duration::from_secs(5)))
                            .unwrap();
                        for window in 0.. {
                            let mut wire = Vec::new();
                            for seq in window * WINDOW..(window + 1) * WINDOW {
                                let mut nonce = [0u8; NONCE_LEN];
                                nonce[..8].copy_from_slice(&client.to_le_bytes());
                                nonce[8..].copy_from_slice(&seq.to_le_bytes());
                                let report = report(client, seq);
                                let request = Request::Submit { nonce, report };
                                write_frame(&mut wire, &request.to_bytes()).unwrap();
                            }
                            if stream.write_all(&wire).is_err() {
                                return acked;
                            }
                            for seq in window * WINDOW..(window + 1) * WINDOW {
                                let Ok(body) = read_frame(&mut stream, 1 << 20) else {
                                    return acked;
                                };
                                match Response::from_bytes(&body).unwrap() {
                                    Response::Ack { .. } => acked.push(report(client, seq)),
                                    other => panic!("unexpected verdict {other:?}"),
                                }
                            }
                        }
                        acked
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(30 + 40 * round));
            let summary = collector.shutdown();
            let acked: Vec<Vec<u8>> = clients
                .into_iter()
                .flat_map(|client| client.join().unwrap())
                .collect();
            let mut counted = std::mem::take(&mut *seen.lock());
            let total: usize = summary.epochs.iter().map(|epoch| epoch.reports).sum();
            assert_eq!(total, counted.len());
            assert_eq!(summary.stats.ingest.accepted, total as u64);
            counted.sort_unstable();
            let before = counted.len();
            counted.dedup();
            assert_eq!(
                counted.len(),
                before,
                "round {round}: a report counted twice"
            );
            for report in &acked {
                assert!(
                    counted.binary_search(report).is_ok(),
                    "round {round}: an Ack read for a report no epoch counted"
                );
            }
            assert!(
                acked.len() as u64 >= WINDOW,
                "round {round}: no window served"
            );
        }
    }

    #[test]
    fn duplicate_nonce_over_the_wire_is_flagged() {
        let (collector, encoder) = start_collector(41, test_config());
        let mut rng = StdRng::seed_from_u64(42);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let report = encoder
            .encode_plain(b"v", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        let nonce = fresh_nonce(&mut rng);
        let bytes = report.outer.to_bytes();
        assert!(matches!(
            client.submit(&nonce, &bytes).unwrap(),
            Response::Ack { .. }
        ));
        assert_eq!(client.submit(&nonce, &bytes).unwrap(), Response::Duplicate);
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 1);
        assert_eq!(summary.stats.ingest.duplicates, 1);
        assert_eq!(summary.stats.reports_processed, 1);
    }

    #[test]
    fn a_captured_report_under_fresh_nonces_shows_in_the_duplicate_reports() {
        // The nonce filter sees three submissions; the epoch sees one
        // ciphertext three times.
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            // One epoch, cut at shutdown.
            epoch_deadline: Duration::from_secs(60),
            max_epoch_reports: 1000,
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let (collector, encoder) = start_collector(43, config);
        let mut rng = StdRng::seed_from_u64(44);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let captured = encoder
            .encode_plain(b"v", CrowdStrategy::None, 0, &mut rng)
            .unwrap()
            .outer
            .to_bytes();
        for _ in 0..3 {
            let response = client.submit(&fresh_nonce(&mut rng), &captured).unwrap();
            assert!(matches!(response, Response::Ack { .. }));
        }
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.duplicates, 0);
        let [epoch] = &summary.epochs[..] else {
            panic!("one epoch expected, got {}", summary.epochs.len());
        };
        let report = epoch.outcome.as_ref().unwrap();
        assert_eq!(report.shuffler_stats.duplicate_reports, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.get("collector.epoch.duplicate_reports"), Some(2.0));
    }
}
