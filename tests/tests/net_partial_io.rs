//! Partial-I/O behavior of the event-driven serving path.
//!
//! Both servers — the collector, and the `ShardRouter` fronting one — are
//! the same `prochlo_net::Server` harness under a different handler, so
//! every test here drives both with raw sockets that fragment, dribble, and
//! lie, and asserts the same protocol behavior:
//!
//! * a frame delivered one byte at a time is served like any other;
//! * frames split at arbitrary byte boundaries across writes are served
//!   in order;
//! * an oversized length announcement is rejected from the 4-byte prefix
//!   alone — before any body arrives — and the connection is closed;
//! * the frame ceiling is `protocol::MAX_FRAME_LEN` on both: a frame of
//!   exactly that length is read, one byte more is refused, and both
//!   answer a refused connection and an oversize announcement with the
//!   same bytes;
//! * a slow-loris connection that never completes a frame is evicted at
//!   the progress deadline while healthy clients on the same event loops
//!   keep being served.
//!
//! The router-only tests at the end pin what the port off the accept
//! thread + worker pool bought: more connections than loops served at once,
//! a shutdown that does not wait on idle clients, and the connection cap.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prochlo_collector::protocol::{read_frame, refusal_bodies, MAX_FRAME_LEN};
use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Request, Response, PROTOCOL_VERSION,
};
use prochlo_core::Deployment;
use prochlo_fabric::{RouterConfig, ShardRouter};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which server the raw sockets talk to.
#[derive(Debug, Clone, Copy)]
enum Front {
    Collector,
    Router,
}

const FRONTS: [Front; 2] = [Front::Collector, Front::Router];

/// The serving settings a test varies; they apply to the front server.
#[derive(Clone, Copy)]
struct Serving {
    loops: usize,
    max_conns: usize,
    io_timeout: Duration,
}

impl Default for Serving {
    fn default() -> Self {
        Self {
            loops: 2,
            max_conns: 1024,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// A live service: a collector, and for [`Front::Router`] a router whose
/// every loop forwards to it.
struct Service {
    collector: Collector,
    router: Option<ShardRouter>,
}

impl Service {
    fn start(front: Front, serving: Serving) -> Self {
        let mut config = CollectorConfig {
            worker_threads: 2,
            epoch_deadline: Duration::from_millis(50),
            ..CollectorConfig::default()
        };
        if matches!(front, Front::Collector) {
            config.worker_threads = serving.loops;
            config.conn_backlog = serving.max_conns;
            config.io_timeout = serving.io_timeout;
        }
        let mut rng = StdRng::seed_from_u64(7);
        let deployment = Deployment::builder().payload_size(32).build(&mut rng);
        let collector = Collector::start(deployment, config).expect("start collector");
        let router = matches!(front, Front::Router).then(|| {
            let shard = collector.local_addr();
            ShardRouter::start(
                RouterConfig {
                    worker_threads: serving.loops,
                    conn_backlog: serving.max_conns,
                    io_timeout: serving.io_timeout,
                    ..RouterConfig::default()
                },
                Box::new(move || {
                    let sink = CollectorClient::connect(shard)?;
                    Ok(vec![Box::new(sink) as Box<dyn ReportSink + Send>])
                }),
            )
            .expect("start router")
        });
        Self { collector, router }
    }

    fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.local_addr(),
            None => self.collector.local_addr(),
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// Connections the front server evicted at the progress deadline. The
    /// router reports them only in the process-wide registry, which sums
    /// every router's cell and which other tests in this binary never bump:
    /// none of them lets a router connection expire.
    fn evicted(&self) -> u64 {
        match &self.router {
            Some(_) => process_wide("fabric.router.conns.evicted"),
            None => self.collector.stats().connections_evicted,
        }
    }

    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.collector.shutdown();
    }
}

/// A count the process-wide registry holds under `name`, 0 before anything
/// registered it.
fn process_wide(name: &str) -> u64 {
    prochlo_obs::global().snapshot().get(name).unwrap_or(0.0) as u64
}

/// Serializes `body` as one collector frame: `[u32 le length][version][body]`.
fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&u32::try_from(1 + body.len()).unwrap().to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(body);
    out
}

fn read_response(stream: &mut TcpStream) -> Response {
    Response::from_bytes(&read_body(stream)).unwrap()
}

fn read_body(stream: &mut TcpStream) -> Vec<u8> {
    read_frame(stream, MAX_FRAME_LEN).unwrap()
}

/// Held by every test that makes a router refuse a connection: they assert
/// on the process-wide refusal count, which every router adds to.
static ROUTER_REFUSALS: Mutex<()> = Mutex::new(());

fn assert_eof(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no frames may follow the final response");
}

#[test]
fn a_frame_dribbled_one_byte_at_a_time_is_served() {
    for front in FRONTS {
        let service = Service::start(front, Serving::default());
        let mut stream = service.connect();
        for byte in &frame_bytes(&Request::Ping.to_bytes()) {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let response = read_response(&mut stream);
        assert!(matches!(response, Response::Ack { .. }), "{front:?}");
        drop(stream);
        service.shutdown();
    }
}

#[test]
fn frames_split_across_writes_are_served_in_order() {
    for front in FRONTS {
        let service = Service::start(front, Serving::default());
        let mut stream = service.connect();

        // Two pipelined pings, cut at a boundary that leaves the second
        // frame's length prefix torn across writes.
        let mut wire = frame_bytes(&Request::Ping.to_bytes());
        wire.extend_from_slice(&frame_bytes(&Request::Ping.to_bytes()));
        let cut = wire.len() / 2 + 2;
        stream.write_all(&wire[..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(&wire[cut..]).unwrap();
        stream.flush().unwrap();

        for _ in 0..2 {
            let response = read_response(&mut stream);
            assert!(matches!(response, Response::Ack { .. }), "{front:?}");
        }
        drop(stream);
        service.shutdown();
    }
}

#[test]
fn oversized_announcement_is_rejected_before_the_body_arrives() {
    for front in FRONTS {
        let service = Service::start(front, Serving::default());
        let mut stream = service.connect();

        // Announce 1 MiB against a 64 KiB ceiling and send only a sliver of
        // the body: the rejection must come from the prefix alone,
        // mid-accumulation.
        stream.write_all(&(1u32 << 20).to_le_bytes()).unwrap();
        stream.write_all(&[PROTOCOL_VERSION, 0, 0, 0]).unwrap();
        stream.flush().unwrap();

        match read_response(&mut stream) {
            Response::Rejected { reason } => assert!(
                reason.contains("maximum size"),
                "{front:?}: unexpected reason {reason:?}"
            ),
            other => panic!("{front:?}: expected rejection, got {other:?}"),
        }
        // The stream is unrecoverable past a hostile announcement: after
        // the rejection the server hangs up.
        assert_eof(&mut stream);
        service.shutdown();
    }
}

#[test]
fn a_frame_of_exactly_the_ceiling_is_read_and_one_byte_more_is_refused() {
    // A routed submit whose frame (version byte + body) is exactly
    // MAX_FRAME_LEN: the front reads it whole and the ingest path, not the
    // framing layer, turns its oversized report away.
    let empty = Request::SubmitRouted {
        crowd_prefix: 0,
        nonce: [1; 16],
        report: Vec::new(),
    };
    let report = vec![0; MAX_FRAME_LEN - 1 - empty.to_bytes().len()];
    let at_ceiling = frame_bytes(
        &Request::SubmitRouted {
            crowd_prefix: 0,
            nonce: [1; 16],
            report,
        }
        .to_bytes(),
    );
    assert_eq!(at_ceiling.len(), 4 + MAX_FRAME_LEN);
    for front in FRONTS {
        let service = Service::start(front, Serving::default());
        let mut stream = service.connect();
        stream.write_all(&at_ceiling).unwrap();
        match read_response(&mut stream) {
            Response::Rejected { reason } => assert_eq!(
                reason, "report exceeds maximum size",
                "{front:?}: the frame was refused at framing"
            ),
            other => panic!("{front:?}: expected the report's rejection, got {other:?}"),
        }
        stream
            .write_all(&frame_bytes(&Request::Ping.to_bytes()))
            .unwrap();
        assert!(
            matches!(read_response(&mut stream), Response::Ack { .. }),
            "{front:?}: the connection outlives a frame at the ceiling"
        );

        // One byte more is refused from the announcement alone.
        let mut over = service.connect();
        let len = u32::try_from(MAX_FRAME_LEN + 1).unwrap();
        over.write_all(&len.to_le_bytes()).unwrap();
        over.write_all(&[PROTOCOL_VERSION]).unwrap();
        assert_eq!(read_body(&mut over), refusal_bodies().1, "{front:?}");
        assert_eof(&mut over);
        drop(stream);
        service.shutdown();
    }
}

#[test]
fn both_fronts_refuse_with_the_same_bytes() {
    let _refusals = ROUTER_REFUSALS.lock().unwrap_or_else(|e| e.into_inner());
    let (busy, oversize) = refusal_bodies();
    for front in FRONTS {
        let serving = Serving {
            max_conns: 1,
            ..Serving::default()
        };
        let service = Service::start(front, serving);
        let mut held = CollectorClient::connect(service.addr()).unwrap();
        assert!(matches!(held.ping().unwrap(), Response::Ack { .. }));
        let mut refused = service.connect();
        assert_eq!(
            read_body(&mut refused),
            busy,
            "{front:?}: refused connection"
        );
        assert_eof(&mut refused);
        drop(held);
        service.shutdown();

        let service = Service::start(front, Serving::default());
        let mut stream = service.connect();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert_eq!(read_body(&mut stream), oversize, "{front:?}: oversize");
        assert_eof(&mut stream);
        service.shutdown();
    }
}

#[test]
fn slow_loris_is_evicted_while_healthy_clients_keep_being_served() {
    for front in FRONTS {
        let serving = Serving {
            // One event loop: the loris and the healthy client share a
            // thread, so a blocking read on the loris would starve the
            // healthy client.
            loops: 1,
            io_timeout: Duration::from_millis(200),
            ..Serving::default()
        };
        let service = Service::start(front, serving);
        let evicted_before = service.evicted();

        // The loris sends a torn frame prefix and then stalls forever;
        // partial bytes must not count as progress.
        let mut loris = service.connect();
        loris.write_all(&[9, 0]).unwrap();
        loris.flush().unwrap();

        // The evicted socket is closed server-side: the loris sees EOF.
        loris
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut healthy = CollectorClient::connect(service.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(loris.read(&mut [0u8; 16]), Ok(0)) {
            assert!(
                matches!(healthy.ping().unwrap(), Response::Ack { .. }),
                "{front:?}: healthy client must keep being served during the loris stall"
            );
            assert!(Instant::now() < deadline, "{front:?}: loris never evicted");
        }
        // And the healthy client is still fine afterwards.
        assert!(matches!(healthy.ping().unwrap(), Response::Ack { .. }));

        drop(healthy);
        if matches!(front, Front::Collector) || prochlo_obs::global().is_enabled() {
            assert_eq!(service.evicted(), evicted_before + 1, "{front:?}");
        }
        service.shutdown();
    }
}

#[test]
fn one_router_loop_serves_two_connections_at_once() {
    let serving = Serving {
        loops: 1,
        ..Serving::default()
    };
    let service = Service::start(Front::Router, serving);
    // Under the worker pool the second client waited in the hand-off queue
    // until the first one closed.
    let mut first = CollectorClient::connect(service.addr()).unwrap();
    let mut second = CollectorClient::connect(service.addr()).unwrap();
    for _ in 0..2 {
        assert!(matches!(first.ping().unwrap(), Response::Ack { .. }));
        assert!(matches!(second.ping().unwrap(), Response::Ack { .. }));
    }
    drop((first, second));
    service.shutdown();
}

#[test]
fn router_shutdown_does_not_wait_on_an_idle_client() {
    let service = Service::start(Front::Router, Serving::default());
    let mut idle = CollectorClient::connect(service.addr()).unwrap();
    assert!(matches!(idle.ping().unwrap(), Response::Ack { .. }));
    // The client stays connected and silent across the shutdown.
    let start = Instant::now();
    service.shutdown();
    assert!(
        start.elapsed() < Serving::default().io_timeout / 4,
        "shutdown waited {:?} on an idle client",
        start.elapsed()
    );
    drop(idle);
}

#[test]
fn router_connection_cap_answers_retry_after_and_closes() {
    let serving = Serving {
        max_conns: 1,
        ..Serving::default()
    };
    let _refusals = ROUTER_REFUSALS.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start(Front::Router, serving);
    // The router reports into the process-wide registry; the other test
    // that makes a router refuse a connection waits on ROUTER_REFUSALS.
    let refused_before = process_wide("fabric.router.conns.refused");
    let mut held = CollectorClient::connect(service.addr()).unwrap();
    assert!(matches!(held.ping().unwrap(), Response::Ack { .. }));

    let mut extra = service.connect();
    let response = read_response(&mut extra);
    assert!(
        matches!(response, Response::RetryAfter { .. }),
        "{response:?}"
    );
    assert_eof(&mut extra);

    drop(held);
    let stats = service.router.as_ref().unwrap().stats();
    assert_eq!((stats.connections, stats.connections_refused), (1, 1));
    assert_eq!(
        process_wide("fabric.router.conns.refused"),
        refused_before + 1
    );
    service.shutdown();
}
