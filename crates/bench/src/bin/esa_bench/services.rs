//! Standing the program up and taking it down: collectors, the shard
//! router, and the split-shuffler fabric over loopback TCP — unmodified, and
//! only through their public APIs.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, CollectorSummary, EpochPipeline, LocalPipeline,
    ReportSink,
};
use prochlo_core::exec::mix_seed;
use prochlo_core::{Deployment, EngineConfig, ShuffleBackend, ShufflerConfig, Topology};
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, ChannelId, FabricError, Peer, RemoteSplitPipeline,
    RouterConfig, RouterStats, ShardRouter, Stage, TcpTransportBuilder, ToOne, Transport,
    TypedChannel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::corpus::stream;
use crate::pipelines::{Counting, EpochLog, EpochTiming, Kept, Timed, Traced};
use crate::trace::Tracer;
use crate::workloads::Kind;

/// Collector event loops and router workers are fixed, not derived from the
/// host, so the serving configuration is the same on every machine.
const EVENT_LOOPS: usize = 2;
/// Eight, not the issue's two: a worker blocks on the shard for every
/// report, so two workers leave a core idle between wake-ups and the rate
/// then follows the hypervisor's wake-up latency (±14–28 % between identical
/// runs on the 2-core reference host); eight keep every core runnable (±4 %).
pub const ROUTER_WORKERS: usize = 8;
pub const ROUTED_SHARDS: usize = 2;

/// Epochs are cut by count only: a deadline cut would make epoch sizes
/// depend on timing.
const NO_EPOCH_DEADLINE: Duration = Duration::from_secs(3600);

/// Progress deadline generous enough that a connection parked behind
/// back-pressure is never evicted (evictions must read 0).
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// The deployment a workload runs against; a pure function of the seed, so
/// the harness can rebuild the same keys wherever it needs a twin.
pub fn deployment(kind: Kind, seed: u64, threads: usize) -> Deployment {
    let engine = EngineConfig {
        backend: match kind {
            Kind::BatchVocab => ShuffleBackend::Sgx { params: None },
            _ => ShuffleBackend::Trusted,
        },
        num_threads: threads,
    };
    let mut builder = Deployment::builder()
        .config(ShufflerConfig {
            num_threads: threads,
            ..ShufflerConfig::default()
        })
        .payload_size(32)
        .engine(engine);
    if kind == Kind::SplitFabric {
        builder = builder.shuffler(Topology::Split);
    }
    if kind == Kind::BatchVocab {
        builder = builder.share_threshold(crate::workloads::SHARE_THRESHOLD);
    }
    builder.build(&mut StdRng::seed_from_u64(mix_seed(
        seed,
        stream::DEPLOYMENT,
    )))
}

/// The seed every epoch's noise derives from.
pub fn epoch_seed(seed: u64) -> u64 {
    mix_seed(seed, stream::EPOCHS)
}

/// How one instance of a workload's serving path is sized.
#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    pub kind: Kind,
    pub seed: u64,
    pub threads: usize,
    pub epoch_reports: usize,
    pub queue_capacity: usize,
}

struct Fabric {
    shard_transport: Arc<dyn Transport>,
    shufflers: Vec<JoinHandle<Result<(), FabricError>>>,
}

/// One running instance of a socket workload's path.
pub struct Services {
    /// Where clients connect.
    pub addr: SocketAddr,
    collectors: Vec<Collector>,
    router: Option<ShardRouter>,
    fabric: Option<Fabric>,
    logs: Vec<EpochLog>,
    counted: Option<Arc<AtomicU64>>,
    pub kept: Option<Kept>,
}

/// What an instance did, once it has been shut down.
pub struct Finished {
    pub summaries: Vec<CollectorSummary>,
    pub router: Option<RouterStats>,
    /// Per collector: when each epoch entered and left the pipeline.
    pub epochs: Vec<Vec<EpochTiming>>,
    /// Reports the counting pipelines saw, for serving-only workloads.
    pub counted: Option<u64>,
}

fn collector(
    shape: &ServiceShape,
    shard: u64,
    pipeline: Box<dyn EpochPipeline>,
) -> Result<Collector, String> {
    Collector::start_with_pipeline(
        pipeline,
        CollectorConfig {
            worker_threads: EVENT_LOOPS,
            queue_capacity: shape.queue_capacity,
            max_epoch_reports: shape.epoch_reports,
            epoch_deadline: NO_EPOCH_DEADLINE,
            io_timeout: IO_TIMEOUT,
            seed: mix_seed(epoch_seed(shape.seed), shard),
            engine: Some(EngineConfig {
                backend: ShuffleBackend::Trusted,
                num_threads: shape.threads,
            }),
            ..CollectorConfig::default()
        },
    )
    .map_err(|e| format!("start collector: {e}"))
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// Shuffler 2 and Shuffler 1 on their own threads, each behind its own
/// `TcpTransport` on 127.0.0.1, and the shard's transport dialled into both.
/// Like the separate processes they stand in for, each stage rebuilds the
/// deployment from the shared seed and keeps only its own half.
fn start_fabric(seed: u64, threads: usize) -> Result<Fabric, String> {
    let fabric_err = |e: FabricError| e.to_string();
    const NOT_SPLIT: FabricError = FabricError::Malformed("split_fabric needs the split topology");

    let (s2_addr_tx, s2_addr_rx) = mpsc::channel();
    // prochlo-lint: allow(thread-spawn-discipline, "stands in for the Shuffler 2 process of the split topology; its randomness arrives as a per-batch seed on the wire")
    let s2 = std::thread::spawn(move || {
        let deployment = deployment(Kind::SplitFabric, seed, threads);
        let split = deployment.role().as_split().ok_or(NOT_SPLIT)?;
        let mut builder = TcpTransportBuilder::new(Peer::ShufflerTwo);
        s2_addr_tx
            .send(builder.listen(loopback()))
            .map_err(|_| FabricError::Malformed("harness went away"))?;
        builder.accept(2)?;
        serve_shuffler_two(&builder.build()?, &split.two)
    });
    let s2_addr = s2_addr_rx
        .recv()
        .map_err(|e| e.to_string())?
        .map_err(fabric_err)?;

    let (s1_addr_tx, s1_addr_rx) = mpsc::channel();
    // prochlo-lint: allow(thread-spawn-discipline, "stands in for the Shuffler 1 process of the split topology; its randomness arrives as a per-batch seed on the wire")
    let s1 = std::thread::spawn(move || {
        let deployment = deployment(Kind::SplitFabric, seed, threads);
        let split = deployment.role().as_split().ok_or(NOT_SPLIT)?;
        let mut builder = TcpTransportBuilder::new(Peer::ShufflerOne);
        s1_addr_tx
            .send(builder.listen(loopback()))
            .map_err(|_| FabricError::Malformed("harness went away"))?;
        builder.connect(Peer::ShufflerTwo, s2_addr)?;
        builder.accept(1)?;
        serve_shuffler_one(&builder.build()?, &split.one, split.two.elgamal_public(), 1)
    });
    let s1_addr = s1_addr_rx
        .recv()
        .map_err(|e| e.to_string())?
        .map_err(fabric_err)?;

    let mut builder = TcpTransportBuilder::new(Peer::Shard(0));
    builder
        .connect(Peer::ShufflerOne, s1_addr)
        .map_err(fabric_err)?;
    builder
        .connect(Peer::ShufflerTwo, s2_addr)
        .map_err(fabric_err)?;
    Ok(Fabric {
        shard_transport: Arc::new(builder.build().map_err(fabric_err)?),
        shufflers: vec![s1, s2],
    })
}

impl Services {
    /// Puts `pipeline`, behind the [`Timed`] wrapper every collector
    /// workload runs with, under a new collector.
    fn add_collector<P: EpochPipeline + 'static>(
        &mut self,
        shape: &ServiceShape,
        pipeline: P,
    ) -> Result<(), String> {
        let (timed, log) = Timed::new(pipeline);
        let shard = self.collectors.len() as u64;
        self.collectors
            .push(collector(shape, shard, Box::new(timed))?);
        self.logs.push(log);
        Ok(())
    }

    /// Starts one instance. With a tracer, live workloads run the
    /// harness's [`Traced`] pipeline in place of `LocalPipeline`.
    pub fn start(shape: &ServiceShape, tracer: Option<&Arc<Tracer>>) -> Result<Self, String> {
        let mut services = Services {
            addr: loopback(),
            collectors: Vec::new(),
            router: None,
            fabric: None,
            logs: Vec::new(),
            counted: None,
            kept: None,
        };
        match shape.kind {
            Kind::ServeSaturate | Kind::RoutedServe => {
                let total = Arc::new(AtomicU64::new(0));
                for _ in 0..shape.kind.shards() {
                    services.add_collector(shape, Counting::new(Arc::clone(&total)))?;
                }
                services.counted = Some(total);
            }
            Kind::LiveSaturate | Kind::LivePaced => {
                let deployment = deployment(shape.kind, shape.seed, shape.threads);
                match tracer {
                    Some(tracer) => {
                        let (traced, kept) = Traced::new(deployment, Arc::clone(tracer));
                        services.kept = Some(kept);
                        services.add_collector(shape, traced)?;
                    }
                    None => services.add_collector(shape, LocalPipeline::new(deployment))?,
                }
            }
            Kind::SplitFabric => {
                let analyzer = deployment(shape.kind, shape.seed, shape.threads)
                    .analyzer()
                    .clone();
                let fabric = start_fabric(shape.seed, shape.threads)?;
                let transport = Arc::clone(&fabric.shard_transport);
                services.fabric = Some(fabric);
                services.add_collector(shape, RemoteSplitPipeline::new(transport, 0, analyzer))?;
            }
            Kind::BatchVocab => return Err("batch_vocab has no serving path".to_string()),
        }
        services.addr = services.collectors[0].local_addr();
        if shape.kind == Kind::RoutedServe {
            let shard_addrs: Vec<SocketAddr> = services
                .collectors
                .iter()
                .map(Collector::local_addr)
                .collect();
            let router = ShardRouter::start(
                RouterConfig {
                    worker_threads: ROUTER_WORKERS,
                    io_timeout: IO_TIMEOUT,
                    ..RouterConfig::default()
                },
                Box::new(move || {
                    shard_addrs
                        .iter()
                        .map(|&addr| {
                            CollectorClient::connect_with_timeout(addr, IO_TIMEOUT)
                                .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
                        })
                        .collect()
                }),
            )
            .map_err(|e| format!("start router: {e}"))?;
            services.addr = router.local_addr();
            services.router = Some(router);
        }
        Ok(services)
    }

    /// Shuts everything down in dependency order — router, collectors (the
    /// drain runs the last epochs), then the fabric — and returns the
    /// accounting. Clients must have disconnected.
    pub fn finish(self) -> Result<Finished, String> {
        let router = self.router.map(ShardRouter::shutdown);
        let summaries: Vec<CollectorSummary> = self
            .collectors
            .into_iter()
            .map(Collector::shutdown)
            .collect();
        if let Some(fabric) = self.fabric {
            // No more epochs can be cut: release Shuffler 1, which then
            // releases Shuffler 2.
            TypedChannel::<ToOne>::new(
                fabric.shard_transport.as_ref(),
                ChannelId::new(Peer::ShufflerOne, Stage::Batch),
            )
            .send(&ToOne::Done)
            .map_err(|e| e.to_string())?;
            for shuffler in fabric.shufflers {
                shuffler
                    .join()
                    .map_err(|_| "a shuffler thread panicked".to_string())?
                    .map_err(|e| format!("shuffler stage: {e}"))?;
            }
        }
        Ok(Finished {
            summaries,
            router,
            epochs: self
                .logs
                .iter()
                .map(|log| log.lock().expect("epoch log lock").clone())
                .collect(),
            counted: self.counted.map(|c| c.load(Ordering::Relaxed)),
        })
    }
}

/// A window onto the process-wide telemetry registry every service reports
/// into. The harness may not name `prochlo-obs` (it adds no dependency), and
/// a collector's own view dies with its `shutdown()` — before the drain
/// epochs are on record — so an idle collector is kept just to be asked.
pub struct RegistryProbe(Collector);

impl RegistryProbe {
    pub fn start() -> Result<Self, String> {
        Collector::start_with_pipeline(
            Box::new(Counting::new(Arc::default())),
            CollectorConfig {
                worker_threads: 1,
                epoch_deadline: NO_EPOCH_DEADLINE,
                ..CollectorConfig::default()
            },
        )
        .map(Self)
        .map_err(|e| format!("start registry probe: {e}"))
    }

    /// `(name, value)` pairs as `Snapshot::flat` gives them.
    pub fn view(&self) -> Vec<(String, f64)> {
        self.0.obs_snapshot().flat()
    }

    pub fn stop(self) {
        self.0.shutdown();
    }
}
