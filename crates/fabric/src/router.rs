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
//! handler that owns its own forwarding legs. The forward itself is a
//! blocking [`ReportSink`] call, so each loop has one submission in flight
//! at a time while its other connections wait in their socket buffers.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::protocol::{frame_policy, Request, Response};
use prochlo_collector::{CollectorError, ReportSink};
use prochlo_core::ShardedDeployment;
use prochlo_net::{Handler, Server, ServerConfig, ServerStats};

/// Back-off hint the router sends on its own behalf (connection cap reached,
/// forwarding leg down); shard verdicts carry the shard's own hint.
const RETRY_AFTER_MS: u32 = 100;

/// Configuration of a running router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Event-loop threads, each multiplexing its share of the open
    /// connections and holding its own sinks to every shard; `0` means
    /// every available core.
    pub worker_threads: usize,
    /// Maximum concurrently open connections across all event loops;
    /// arrivals past the cap are answered `RetryAfter` and closed.
    pub conn_backlog: usize,
    /// Maximum frame size accepted from a peer.
    pub max_frame_len: usize,
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
            max_frame_len: 64 << 10,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Builds one event loop's forwarding legs: a [`ReportSink`] per shard, in
/// shard order. Called once per loop, so TCP-backed sinks get one
/// connection per loop per shard with no cross-loop locking.
pub type SinkFactory =
    Box<dyn Fn() -> Result<Vec<Box<dyn ReportSink + Send>>, CollectorError> + Send + Sync>;

/// A point-in-time snapshot of the router counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because the open-connection cap was reached.
    pub connections_refused: u64,
    /// Routed submissions forwarded to a shard.
    pub routed: u64,
    /// Requests rejected (plain submits, malformed frames).
    pub rejected: u64,
    /// Forwarding legs that failed mid-submission.
    pub forward_failures: u64,
}

#[derive(Default)]
struct Counters {
    routed: AtomicU64,
    rejected: AtomicU64,
    forward_failures: AtomicU64,
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
    /// called once per loop to build that loop's own forwarding legs (a
    /// factory that fails fails the start); the vector length fixes the
    /// shard count every prefix is reduced by.
    pub fn start(config: RouterConfig, make_sinks: SinkFactory) -> Result<Self, CollectorError> {
        let counters = Arc::new(Counters::default());
        let busy = Response::RetryAfter {
            millis: RETRY_AFTER_MS,
        };
        let oversize = Response::Rejected {
            reason: "frame exceeds maximum size".to_string(),
        };
        let server = Server::start(
            ServerConfig {
                addr: config.addr,
                loops: config.worker_threads,
                max_conns: config.conn_backlog,
                policy: frame_policy(config.max_frame_len),
                io_timeout: config.io_timeout,
                busy_body: busy.to_bytes(),
                oversize_body: oversize.to_bytes(),
                registry: Arc::clone(prochlo_obs::global()),
                thread_name: "router-loop",
                conns_metric: "fabric.router.conns",
                turn_metric: "fabric.router.loop.turn",
            },
            || {
                Ok::<_, CollectorError>(Route {
                    sinks: make_sinks()?,
                    counters: Arc::clone(&counters),
                    obs_routed: prochlo_obs::counter("fabric.router.routed"),
                    obs_rejected: prochlo_obs::counter("fabric.router.rejected"),
                    obs_forward_failures: prochlo_obs::counter("fabric.router.forward_failures"),
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

/// One event loop's protocol handler: its own sink per shard, and the
/// obs mirrors of the [`RouterStats`] counters.
struct Route {
    sinks: Vec<Box<dyn ReportSink + Send>>,
    counters: Arc<Counters>,
    obs_routed: prochlo_obs::Counter,
    obs_rejected: prochlo_obs::Counter,
    obs_forward_failures: prochlo_obs::Counter,
}

impl Route {
    fn reject(&self, reason: &str) -> Response {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.obs_rejected.inc();
        Response::Rejected {
            reason: reason.to_string(),
        }
    }
}

impl Handler for Route {
    type Conn = ();

    fn connected(&mut self, _peer: SocketAddr) {}

    fn frame(&mut self, (): &mut (), body: &[u8]) -> Result<Vec<u8>, Vec<u8>> {
        let response = match Request::from_bytes(body) {
            Ok(Request::SubmitRouted {
                crowd_prefix,
                nonce,
                report,
            }) => {
                let shard =
                    ShardedDeployment::shard_index_from_prefix(crowd_prefix, self.sinks.len());
                let span = prochlo_obs::span("fabric.router.forward");
                let forwarded = self.sinks[shard].submit_routed(crowd_prefix, &nonce, &report);
                span.finish();
                match forwarded {
                    Ok(verdict) => {
                        self.counters.routed.fetch_add(1, Ordering::Relaxed);
                        self.obs_routed.inc();
                        verdict
                    }
                    Err(_) => {
                        // The forwarding leg died; tell the client to retry
                        // (the next attempt may land on a healthy loop).
                        self.counters
                            .forward_failures
                            .fetch_add(1, Ordering::Relaxed);
                        self.obs_forward_failures.inc();
                        Response::RetryAfter {
                            millis: RETRY_AFTER_MS,
                        }
                    }
                }
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
        Ok(response.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_collector::protocol::NONCE_LEN;
    use prochlo_collector::{Collector, CollectorClient, CollectorConfig};
    use prochlo_core::{crowd_prefix, Deployment, ShufflerConfig};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
}
