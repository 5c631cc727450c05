//! The shard router: one submission endpoint in front of N collector
//! shards.
//!
//! Clients speak the ordinary collector protocol to the router, but must
//! use routed submissions (`SUBMIT_ROUTED`, carrying the crowd-routing
//! prefix): the router reduces the prefix with
//! [`ShardedDeployment::shard_index_from_prefix`] and forwards the report
//! to that shard through a [`ReportSink`], relaying the shard's verdict
//! verbatim — backpressure and replay dedup remain end to end. Plain
//! `SUBMIT` is rejected loudly: silently routing it (e.g. round-robin)
//! would break the per-crowd shard affinity thresholding depends on.
//!
//! The router never sees crowd labels, payloads, or the inside of a report
//! — only the prefix, which a hashed crowd ID already exposes to any
//! shuffler.
//!
//! The serving side is the workspace's one harness, [`prochlo_net::Server`]
//! — the same event loops, open-connection cap, slow-loris eviction and
//! oversize rejection the collector runs on — with a per-loop `Route`
//! handler that owns its own forwarding legs.
//!
//! The forward leg is group-committed per reactor turn. `Route` answers a
//! routed submission [`Answer::Later`] and parks it on its shard's batch;
//! when the harness ends the turn — every ready connection of this loop
//! read — each shard with a batch gets one [`ReportSink::submit_batch`]
//! (over TCP: one pipelined exchange) and the verdicts go back in arrival
//! order. The cost of the hop is per-exchange syscalls and wake-ups on
//! both sides of it, so it is paid once per shard per turn instead of once
//! per report — whether the turn's frames came from one pipelining client
//! or from a crowd with one report in flight each. Nothing parked outlives
//! the turn, so there is no ticket to expire, no verdict to match up later
//! and no state a dead connection can strand. The exchange still blocks
//! its loop: a stalled shard stalls every loop that routes to it.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::protocol::{
    frame_policy, refusal_bodies, Request, Response, RETRY_AFTER_MS,
};
use prochlo_collector::{CollectorError, ReportSink};
use prochlo_core::ShardedDeployment;
use prochlo_net::{Answer, Handler, Server, ServerConfig, ServerStats};

/// Configuration of a running router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Event-loop threads, each multiplexing its share of the open
    /// connections and holding its own sinks to every shard, over which it
    /// forwards one batch per shard per turn; `0` means every available
    /// core.
    pub worker_threads: usize,
    /// Maximum concurrently open connections across all event loops;
    /// arrivals past the cap are answered `RetryAfter` and closed.
    pub conn_backlog: usize,
    /// Per-connection progress deadline: a connection that completes no
    /// frame (and drains no pending response) for this long is evicted.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            worker_threads: 4,
            conn_backlog: 1024,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Builds one event loop's forwarding legs: a [`ReportSink`] per shard, in
/// shard order. Called once per loop, so TCP-backed sinks get one
/// connection per loop per shard with no cross-loop locking.
type SinkFactory =
    Box<dyn Fn() -> Result<Vec<Box<dyn ReportSink + Send>>, CollectorError> + Send + Sync>;

/// A point-in-time snapshot of the router counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because the open-connection cap was reached.
    pub connections_refused: u64,
    /// Shard verdicts relayed to clients.
    pub routed: u64,
    /// Requests rejected (plain submits, malformed frames).
    pub rejected: u64,
    /// Reports answered `RetryAfter` because the exchange carrying them
    /// failed: what clients must retry on the router's account.
    pub forward_failures: u64,
}

#[derive(Default)]
struct Counters {
    routed: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    forward_failures: Arc<AtomicU64>,
}

impl Counters {
    fn snapshot(&self, served: ServerStats) -> RouterStats {
        RouterStats {
            connections: served.accepted,
            connections_refused: served.refused,
            routed: self.routed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            forward_failures: self.forward_failures.load(Ordering::Relaxed),
        }
    }
}

/// A running shard router bound to a local address.
///
/// ```no_run
/// use prochlo_collector::{CollectorClient, ReportSink};
/// use prochlo_fabric::router::{RouterConfig, ShardRouter};
///
/// let shard_addrs = vec!["127.0.0.1:7101".parse().unwrap()];
/// let router = ShardRouter::start(
///     RouterConfig::default(),
///     Box::new(move || {
///         shard_addrs
///             .iter()
///             .map(|&addr| {
///                 CollectorClient::connect(addr)
///                     .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
///             })
///             .collect()
///     }),
/// )
/// .unwrap();
/// println!("routing on {}", router.local_addr());
/// # router.shutdown();
/// ```
pub struct ShardRouter {
    server: Server,
    counters: Arc<Counters>,
}

impl ShardRouter {
    /// Binds the listener and spawns the event loops. `make_sinks` is
    /// called once per loop to build that loop's own forwarding legs; the
    /// vector length fixes the shard count every prefix is reduced by. A
    /// factory that fails, or returns no sink, fails the start.
    pub fn start(config: RouterConfig, make_sinks: SinkFactory) -> Result<Self, CollectorError> {
        let counters = Arc::new(Counters::default());
        for (name, cell) in [
            ("fabric.router.routed", &counters.routed),
            ("fabric.router.rejected", &counters.rejected),
            ("fabric.router.forward_failures", &counters.forward_failures),
        ] {
            prochlo_obs::global().read_through(name, Arc::clone(cell));
        }
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
                registry: Arc::clone(prochlo_obs::global()),
                thread_name: "router-loop",
                conns_metric: "fabric.router.conns",
                turn_metric: "fabric.router.loop.turn",
            },
            || {
                let sinks = make_sinks()?;
                if sinks.is_empty() {
                    return Err(CollectorError::Io(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "a shard router needs at least one shard",
                    )));
                }
                Ok(Route {
                    batches: sinks.iter().map(|_| Vec::new()).collect(),
                    sinks,
                    arrivals: Vec::new(),
                    counters: Arc::clone(&counters),
                    obs_exchanges: prochlo_obs::counter("fabric.router.exchanges"),
                    obs_forward: prochlo_obs::histogram("fabric.router.forward"),
                })
            },
        )?;
        Ok(Self { server, counters })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A live snapshot of the router counters.
    pub fn stats(&self) -> RouterStats {
        self.counters.snapshot(self.server.stats())
    }

    /// Stops taking connections, flushes what the open ones will take,
    /// closes them and returns the final counters.
    pub fn shutdown(self) -> RouterStats {
        let served = self.server.shutdown();
        self.counters.snapshot(served)
    }
}

/// One event loop's protocol handler: its own sink per shard, this turn's
/// parked submissions, and the counters behind [`RouterStats`], which the
/// process-wide registry reads through as `fabric.router.*`.
struct Route {
    sinks: Vec<Box<dyn ReportSink + Send>>,
    /// Per shard, the routed submissions parked this turn. Empty between
    /// turns; the allocations are reused.
    batches: Vec<Vec<Request>>,
    /// The shard of every parked submission, in arrival order: the order
    /// the harness wants the verdicts back in.
    arrivals: Vec<usize>,
    counters: Arc<Counters>,
    /// `submit_batch` calls, so `routed / exchanges` reads as reports per
    /// exchange.
    obs_exchanges: prochlo_obs::Counter,
    /// Times each exchange (`fabric.router.forward`).
    obs_forward: prochlo_obs::Histogram,
}

impl Route {
    fn reject(&self, reason: &str) -> Response {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Response::Rejected {
            reason: reason.to_string(),
        }
    }

    /// Forwards this turn's batch for `shard` in one exchange and returns
    /// one verdict per report, the shard's own verbatim. A failed exchange
    /// (the leg died, or answered out of step) may have landed any part of
    /// the batch, so every report in it is answered `RetryAfter`: the
    /// client retries under the same nonce, and the shard's dedup answers
    /// `Duplicate` for whatever did land instead of counting it twice.
    fn forward(&mut self, shard: usize) -> Vec<Response> {
        let batch = &mut self.batches[shard];
        if batch.is_empty() {
            return Vec::new();
        }
        // The span covers an exchange, not a report: its mean is the cost
        // of the hop per batch, and `routed / exchanges` the batch size.
        let span = self.obs_forward.start();
        let forwarded = self.sinks[shard].submit_batch(batch);
        span.finish();
        self.obs_exchanges.inc();
        let reports = batch.len();
        batch.clear();
        match forwarded {
            Ok(verdicts) if verdicts.len() == reports => {
                self.counters
                    .routed
                    .fetch_add(reports as u64, Ordering::Relaxed);
                verdicts
            }
            _ => {
                self.counters
                    .forward_failures
                    .fetch_add(reports as u64, Ordering::Relaxed);
                let retry = Response::RetryAfter {
                    millis: RETRY_AFTER_MS,
                };
                vec![retry; reports]
            }
        }
    }
}

impl Handler for Route {
    type Conn = ();

    fn connected(&mut self, _peer: SocketAddr) {}

    fn frame(&mut self, (): &mut (), body: &[u8]) -> Result<Answer, Vec<u8>> {
        let response = match Request::from_bytes(body) {
            Ok(request @ Request::SubmitRouted { crowd_prefix, .. }) => {
                let shard =
                    ShardedDeployment::shard_index_from_prefix(crowd_prefix, self.sinks.len());
                self.batches[shard].push(request);
                self.arrivals.push(shard);
                return Ok(Answer::Later);
            }
            Ok(Request::Submit { .. }) => {
                self.reject("router requires routed submissions (SUBMIT_ROUTED)")
            }
            Ok(Request::Ping) => Response::Ack { pending: 0 },
            // The router has no ingest core of its own; answer with the
            // process-wide registry (its fabric.router.* counters live
            // there).
            Ok(Request::Stats) => Response::Stats {
                entries: prochlo_obs::snapshot().flat(),
            },
            // A desynchronized or hostile peer; reject and hang up.
            Err(_) => return Err(self.reject("malformed request").to_bytes()),
        };
        Ok(Answer::Now(response.to_bytes()))
    }

    fn finish_turn(&mut self, bodies: &mut Vec<Vec<u8>>) {
        if self.arrivals.is_empty() {
            return;
        }
        let mut verdicts: Vec<_> = (0..self.sinks.len())
            .map(|shard| self.forward(shard).into_iter())
            .collect();
        // `forward` returns one verdict per parked report, so every arrival
        // finds its own.
        let relayed = self
            .arrivals
            .drain(..)
            .map_while(|shard| verdicts[shard].next());
        bodies.extend(relayed.map(|verdict| verdict.to_bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_collector::protocol::NONCE_LEN;
    use prochlo_collector::{
        Collector, CollectorClient, CollectorConfig, InProcessSink, IngestConfig, IngestCore,
    };
    use prochlo_core::framing::{FrameRead, FrameWrite};
    use prochlo_core::{crowd_prefix, Deployment, ShufflerConfig};
    use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;

    fn fresh_nonce(rng: &mut StdRng) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        nonce
    }

    #[test]
    fn routes_by_prefix_and_rejects_plain_submits() {
        let mut rng = StdRng::seed_from_u64(70);
        // Two real collector shards.
        let shards: Vec<Collector> = (0..2u64)
            .map(|i| {
                let deployment = Deployment::builder()
                    .config(ShufflerConfig::default().without_thresholding())
                    .build(&mut StdRng::seed_from_u64(70 + i));
                Collector::start(
                    deployment,
                    CollectorConfig {
                        epoch_deadline: Duration::from_millis(50),
                        ..CollectorConfig::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
        let factory_addrs = shard_addrs.clone();
        let router = ShardRouter::start(
            RouterConfig::default(),
            Box::new(move || {
                factory_addrs
                    .iter()
                    .map(|&addr| {
                        CollectorClient::connect(addr)
                            .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
                    })
                    .collect()
            }),
        )
        .unwrap();

        // The shards have different keys; encode against the shard the
        // crowd routes to, like a real sharded client would.
        let mut client = CollectorClient::connect(router.local_addr()).unwrap();
        let label: &[u8] = b"crowd-a";
        let prefix = crowd_prefix(label);
        let shard = ShardedDeployment::shard_index_from_prefix(prefix, 2);
        // A fresh deployment per shard was built above with seed 70 + i;
        // rebuild the matching encoder.
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .build(&mut StdRng::seed_from_u64(70 + shard as u64));
        let encoder = deployment.encoder();
        for i in 0..5u64 {
            let report = encoder
                .encode_plain(label, prochlo_core::CrowdStrategy::Hash(label), i, &mut rng)
                .unwrap();
            let verdict = client
                .submit_routed(prefix, &fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap();
            assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
        }
        // Plain submits are rejected, not misrouted.
        let report = encoder
            .encode_plain(
                label,
                prochlo_core::CrowdStrategy::Hash(label),
                99,
                &mut rng,
            )
            .unwrap();
        let verdict = client
            .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
            .unwrap();
        assert!(matches!(verdict, Response::Rejected { .. }));
        // Ping answers locally.
        assert!(matches!(client.ping().unwrap(), Response::Ack { .. }));

        drop(client);
        let stats = router.shutdown();
        assert_eq!(stats.routed, 5);
        assert_eq!(stats.rejected, 1);

        // The reports landed on exactly the shard the prefix names.
        let mut summaries: Vec<_> = shards.into_iter().map(Collector::shutdown).collect();
        let on_shard = summaries.remove(shard).stats.ingest.accepted;
        assert_eq!(on_shard, 5);
        for other in summaries {
            assert_eq!(other.stats.ingest.accepted, 0);
        }
    }

    fn sealed_report() -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(71);
        let recipient = HybridKeypair::generate(&mut rng);
        HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", b"payload")
            .unwrap()
            .to_bytes()
    }

    fn nonce(i: usize) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
        nonce
    }

    #[test]
    fn a_router_with_no_shard_refuses_to_start() {
        let started = ShardRouter::start(RouterConfig::default(), Box::new(|| Ok(Vec::new())));
        match started {
            Err(CollectorError::Io(error)) => {
                assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{error}");
            }
            Err(other) => panic!("wrong refusal: {other}"),
            Ok(router) => {
                router.shutdown();
                panic!("a router with no shard started");
            }
        }
    }

    /// A crowd prefix that routes to `shard` of `shards`.
    fn prefix_for(shard: usize, shards: usize) -> u64 {
        (0..u64::MAX)
            .find(|&prefix| ShardedDeployment::shard_index_from_prefix(prefix, shards) == shard)
            .unwrap()
    }

    /// Pipelines `requests` to the router as one burst, then reads one
    /// response per request.
    fn pipeline(stream: &mut TcpStream, requests: &[Request]) -> Vec<Response> {
        let policy = frame_policy();
        let mut wire = Vec::new();
        for request in requests {
            wire.write_frame(&policy, &request.to_bytes()).unwrap();
        }
        stream.write_all(&wire).unwrap();
        requests
            .iter()
            .map(|_| Response::from_bytes(&stream.read_frame(&policy).unwrap()).unwrap())
            .collect()
    }

    fn connect(router: &ShardRouter) -> TcpStream {
        let stream = TcpStream::connect(router.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    #[test]
    fn one_burst_interleaving_shards_pings_and_a_plain_submit_is_answered_in_order() {
        let shards: Vec<Collector> = (0..2u64)
            .map(|i| {
                let deployment = Deployment::builder().build(&mut StdRng::seed_from_u64(72 + i));
                Collector::start(deployment, CollectorConfig::default()).unwrap()
            })
            .collect();
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(Collector::local_addr).collect();
        let router = ShardRouter::start(
            RouterConfig::default(),
            Box::new(move || {
                shard_addrs
                    .iter()
                    .map(|&addr| {
                        CollectorClient::connect(addr)
                            .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
                    })
                    .collect()
            }),
        )
        .unwrap();

        // 240 routed submissions alternating shards; in runs of six the
        // fifth replays the nonce two back (same shard) and the sixth
        // carries garbage. Half way: a ping and a plain submit.
        let (report, prefixes) = (sealed_report(), [prefix_for(0, 2), prefix_for(1, 2)]);
        let (ack, rejected, duplicate) = (0u8, 2u8, 3u8);
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        let mut accepted = [0u64; 2];
        for i in 0..240 {
            if i == 120 {
                requests.push(Request::Ping);
                requests.push(Request::Submit {
                    nonce: nonce(1000),
                    report: report.clone(),
                });
                expected.extend([ack, rejected]);
            }
            let (nonce, report, code) = match i % 6 {
                4 => (nonce(i - 2), report.clone(), duplicate),
                5 => (nonce(i), vec![0u8; 10], rejected),
                _ => (nonce(i), report.clone(), ack),
            };
            accepted[i % 2] += u64::from(code == ack);
            expected.push(code);
            requests.push(Request::SubmitRouted {
                crowd_prefix: prefixes[i % 2],
                nonce,
                report,
            });
        }

        let mut client = connect(&router);
        let responses = pipeline(&mut client, &requests);
        let codes: Vec<u8> = responses.iter().map(|r| r.to_bytes()[0]).collect();
        assert_eq!(codes, expected);
        // The two answers the router gave itself, in their places.
        assert_eq!(responses[120], Response::Ack { pending: 0 });
        assert!(
            matches!(&responses[121], Response::Rejected { reason } if reason.contains("SUBMIT_ROUTED"))
        );

        drop(client);
        let stats = router.shutdown();
        assert_eq!(
            (stats.routed, stats.rejected, stats.forward_failures),
            (240, 1, 0)
        );
        for (shard, accepted) in shards.into_iter().zip(accepted) {
            assert_eq!(shard.shutdown().stats.ingest.accepted, accepted);
        }
    }

    /// A forwarding leg onto an in-process shard that, while `failing`,
    /// lands the first half of every batch and then dies.
    struct Flaky {
        shard: InProcessSink,
        failing: Arc<AtomicBool>,
    }

    impl ReportSink for Flaky {
        fn submit(
            &mut self,
            nonce: &[u8; NONCE_LEN],
            report: &[u8],
        ) -> Result<Response, CollectorError> {
            self.shard.submit(nonce, report)
        }

        fn submit_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, CollectorError> {
            if self.failing.load(Ordering::SeqCst) {
                self.shard
                    .submit_batch(&requests[..requests.len().div_ceil(2)])?;
                return Err(CollectorError::ConnectionClosed);
            }
            self.shard.submit_batch(requests)
        }
    }

    #[test]
    fn a_failed_exchange_answers_retry_after_and_the_retry_counts_each_report_once() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let ingest = Arc::new(IngestCore::with_registry(IngestConfig::default(), registry));
        let failing = Arc::new(AtomicBool::new(true));
        let (shard, leg_failing) = (Arc::clone(&ingest), Arc::clone(&failing));
        let router = ShardRouter::start(
            RouterConfig {
                worker_threads: 1,
                ..RouterConfig::default()
            },
            Box::new(move || {
                Ok(vec![Box::new(Flaky {
                    shard: InProcessSink::new(Arc::clone(&shard), "127.0.0.1:9".parse().unwrap()),
                    failing: Arc::clone(&leg_failing),
                }) as Box<dyn ReportSink + Send>])
            }),
        )
        .unwrap();

        let report = sealed_report();
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::SubmitRouted {
                crowd_prefix: i as u64,
                nonce: nonce(i),
                report: report.clone(),
            })
            .collect();
        let mut client = connect(&router);
        // The leg dies mid-exchange: every report in it must be retried,
        // the ones that landed included — the router cannot tell which did.
        let retry = Response::RetryAfter {
            millis: RETRY_AFTER_MS,
        };
        assert_eq!(pipeline(&mut client, &requests), vec![retry; 10]);
        let landed = ingest.stats().accepted;
        assert!((1..10).contains(&landed), "{landed} landed");
        assert_eq!(router.stats().forward_failures, 10);
        assert_eq!(router.stats().routed, 0);

        // The same nonces through a healthy leg: what landed reads
        // `Duplicate`, the rest `Ack`, and nothing is counted twice.
        failing.store(false, Ordering::SeqCst);
        let verdicts = pipeline(&mut client, &requests);
        let duplicates = verdicts
            .iter()
            .filter(|v| **v == Response::Duplicate)
            .count();
        let acks = verdicts
            .iter()
            .filter(|v| matches!(v, Response::Ack { .. }))
            .count();
        assert_eq!((duplicates as u64, acks as u64), (landed, 10 - landed));
        assert_eq!(ingest.stats().accepted, 10);

        drop(client);
        let stats = router.shutdown();
        assert_eq!((stats.routed, stats.forward_failures), (10, 10));
    }
}
