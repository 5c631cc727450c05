//! Report submission: the [`ReportSink`] trait and its implementations.
//!
//! Everything that pushes sealed reports at a collector — the client
//! simulator, the integration tests, the shard router's per-shard
//! forwarding legs — goes through one submission API instead of reaching
//! into connection internals:
//!
//! * [`CollectorClient`] — the blocking TCP client speaking the collector
//!   frame protocol; what a production client device would embed behind
//!   its upload scheduler. A batch ([`ReportSink::submit_batch`]) travels
//!   as pipelined exchanges: many request frames in one write, then one
//!   verdict read per request — the shard router's forwarding leg.
//! * [`InProcessSink`] — feeds an [`IngestCore`] directly, for tests and
//!   single-process deployments that want the exact ingest semantics
//!   (dedup, backpressure) without a socket.

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::error::CollectorError;
use crate::ingest::{IngestCore, Peer};
use crate::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME_LEN, NONCE_LEN};

/// A destination for sealed report submissions.
///
/// The verdict vocabulary is the collector protocol's [`Response`]
/// regardless of transport, so callers handle backpressure and replay
/// dedup the same way against a socket or an in-process queue.
pub trait ReportSink {
    /// Submits one sealed report under `nonce` and returns the verdict.
    fn submit(
        &mut self,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
    ) -> Result<Response, CollectorError>;

    /// Submits one sealed report together with its cleartext crowd-routing
    /// prefix (see [`prochlo_core::deployment::crowd_prefix`]), for sinks
    /// that route by crowd before ingesting. Sinks that do not route
    /// ignore the prefix.
    fn submit_routed(
        &mut self,
        crowd_prefix: u64,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
    ) -> Result<Response, CollectorError> {
        let _ = crowd_prefix;
        self.submit(nonce, report)
    }

    /// Submits a batch of `Submit` / `SubmitRouted` requests and returns one
    /// verdict per request, in request order — the same verdicts as calling
    /// [`Self::submit`] / [`Self::submit_routed`] on each in turn, which is
    /// what the default does. Transports with a per-call cost override it.
    /// Any other request kind fails the call. On `Err` the caller knows
    /// nothing about the batch: any part of it may have been ingested, so
    /// every report in it must be retried under its nonce.
    fn submit_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, CollectorError> {
        requests
            .iter()
            .map(|request| match request {
                Request::Submit { nonce, report } => self.submit(nonce, report),
                Request::SubmitRouted {
                    crowd_prefix,
                    nonce,
                    report,
                } => self.submit_routed(*crowd_prefix, nonce, report),
                Request::Ping | Request::Stats => Err(NOT_A_SUBMISSION),
            })
            .collect()
    }

    /// Submits a report, sleeping out `RetryAfter` responses (with the same
    /// nonce, so a raced submission is never double-counted) until the sink
    /// gives a final verdict or `max_attempts` is exhausted.
    fn submit_with_retry(
        &mut self,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
        max_attempts: usize,
    ) -> Result<Response, CollectorError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match self.submit(nonce, report)? {
                Response::RetryAfter { millis } if attempts < max_attempts => {
                    // Cap the server hint so a test misconfiguration cannot
                    // park a client thread for minutes.
                    std::thread::sleep(Duration::from_millis(u64::from(millis).min(1000)));
                }
                Response::RetryAfter { .. } => {
                    return Err(CollectorError::RetriesExhausted { attempts })
                }
                verdict => return Ok(verdict),
            }
        }
    }
}

const NOT_A_SUBMISSION: CollectorError =
    CollectorError::Protocol("only submissions can be batched");

/// Most request frames one pipelined exchange writes before it reads a
/// verdict. The exchange is blocking writes, then blocking reads, so it
/// completes only if the server reads every request while none of its
/// answers is being read. The serving harness keeps reading a connection
/// until that connection's unsent responses exceed
/// [`prochlo_net::WRITE_PAUSE_BYTES`] (256 KiB; whatever the socket buffers
/// absorb only helps), and a submission verdict is at most
/// [`MAX_VERDICT_BYTES`] on the wire, so 1024 of them (64 KiB) never trip
/// the pause: the server drains the whole exchange and the writes finish.
/// Uncapped, a large enough batch would park the server on its full
/// response buffer and this client on its full request buffer, for good. A
/// batch over the cap is simply several exchanges.
const EXCHANGE_FRAMES: usize = 1024;

/// Upper bound on one framed submission verdict: `Ack`, `RetryAfter` and
/// `Duplicate` are 10, 10 and 6 bytes; `Rejected` is 10 plus a reason, and
/// the longest the ingest path gives ("report is not a hybrid ciphertext")
/// is 33.
const MAX_VERDICT_BYTES: usize = 64;

const _: () = assert!(EXCHANGE_FRAMES * MAX_VERDICT_BYTES <= prochlo_net::WRITE_PAUSE_BYTES);

/// One client connection to a collector over TCP.
#[derive(Debug)]
pub struct CollectorClient {
    /// Buffers reads only; requests go straight to the stream underneath.
    reader: BufReader<TcpStream>,
    /// The request frames of the exchange in progress, reused across calls.
    wire: Vec<u8>,
    /// An exchange failed part-way: responses to it may still arrive, and
    /// the next call would read them as its own verdicts. Set for good.
    failed: bool,
}

impl CollectorClient {
    /// Connects to a collector with a 10-second I/O timeout.
    pub fn connect(addr: SocketAddr) -> Result<Self, CollectorError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit I/O timeout.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<Self, CollectorError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
            wire: Vec::new(),
            failed: false,
        })
    }

    /// One pipelined exchange: every request frame in a single write, then
    /// one response per request appended to `responses`. Any I/O or decode
    /// error fails the client for good (see [`Self::failed`]).
    fn exchange(
        &mut self,
        requests: &[Request],
        responses: &mut Vec<Response>,
    ) -> Result<(), CollectorError> {
        if self.failed {
            return Err(CollectorError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "an earlier exchange on this connection failed",
            )));
        }
        let outcome = self.try_exchange(requests, responses);
        if outcome.is_err() {
            self.failed = true;
            // Tell the server now rather than when the client is dropped.
            let _ = self.reader.get_ref().shutdown(Shutdown::Both);
        }
        outcome
    }

    fn try_exchange(
        &mut self,
        requests: &[Request],
        responses: &mut Vec<Response>,
    ) -> Result<(), CollectorError> {
        self.wire.clear();
        for request in requests {
            write_frame(&mut self.wire, &request.to_bytes())?;
        }
        self.reader.get_mut().write_all(&self.wire)?;
        for _ in requests {
            let body = read_frame(&mut self.reader, MAX_FRAME_LEN)?;
            responses.push(Response::from_bytes(&body)?);
        }
        Ok(())
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, CollectorError> {
        let mut responses = Vec::with_capacity(1);
        self.exchange(std::slice::from_ref(request), &mut responses)?;
        Ok(responses.remove(0))
    }

    /// Probes the collector, returning the `Ack` queue-depth hint.
    pub fn ping(&mut self) -> Result<Response, CollectorError> {
        self.round_trip(&Request::Ping)
    }

    /// Fetches the collector's live telemetry snapshot: sorted
    /// `(metric name, value)` pairs, exactly what
    /// [`prochlo_obs::Snapshot::flat`] produced on the server.
    pub fn stats(&mut self) -> Result<Vec<(String, f64)>, CollectorError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { entries } => Ok(entries),
            _ => Err(CollectorError::Protocol("unexpected response to STATS")),
        }
    }
}

impl ReportSink for CollectorClient {
    fn submit(
        &mut self,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
    ) -> Result<Response, CollectorError> {
        self.round_trip(&Request::Submit {
            nonce: *nonce,
            report: report.to_vec(),
        })
    }

    fn submit_routed(
        &mut self,
        crowd_prefix: u64,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
    ) -> Result<Response, CollectorError> {
        self.round_trip(&Request::SubmitRouted {
            crowd_prefix,
            nonce: *nonce,
            report: report.to_vec(),
        })
    }

    fn submit_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, CollectorError> {
        if requests
            .iter()
            .any(|request| matches!(request, Request::Ping | Request::Stats))
        {
            return Err(NOT_A_SUBMISSION);
        }
        let mut verdicts = Vec::with_capacity(requests.len());
        for exchange in requests.chunks(EXCHANGE_FRAMES) {
            self.exchange(exchange, &mut verdicts)?;
        }
        Ok(verdicts)
    }
}

/// A sink that feeds an [`IngestCore`] directly — the collector's parse,
/// dedup and enqueue semantics without a socket.
#[derive(Debug, Clone)]
pub struct InProcessSink {
    ingest: Arc<IngestCore>,
    peer: Peer,
}

impl InProcessSink {
    /// Wraps an ingest core; `peer` is recorded as the transport metadata
    /// the shuffler later strips (rendered here, once, as a serving loop
    /// does per connection).
    pub fn new(ingest: Arc<IngestCore>, peer: SocketAddr) -> Self {
        let peer = Peer::from(peer);
        Self { ingest, peer }
    }
}

impl ReportSink for InProcessSink {
    fn submit(
        &mut self,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
    ) -> Result<Response, CollectorError> {
        Ok(self.ingest.ingest_from(nonce, report, &self.peer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestConfig;
    use crate::service::{Collector, CollectorConfig};
    use prochlo_core::Deployment;
    use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::TcpListener;

    fn nonce(i: usize) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
        nonce
    }

    /// `count` submissions, plain and routed alternating, in runs of five:
    /// fresh, a repeat of the nonce just before it, fresh, fresh, garbage.
    fn script(count: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(17);
        let recipient = HybridKeypair::generate(&mut rng);
        let sealed = HybridCiphertext::seal(&mut rng, recipient.public_key(), b"aad", b"payload")
            .unwrap()
            .to_bytes();
        (0..count)
            .map(|i| {
                let nonce = nonce(if i % 5 == 1 { i - 1 } else { i });
                let report = if i % 5 == 4 {
                    vec![0u8; 10]
                } else {
                    sealed.clone()
                };
                if i % 2 == 0 {
                    Request::Submit { nonce, report }
                } else {
                    Request::SubmitRouted {
                        crowd_prefix: i as u64,
                        nonce,
                        report,
                    }
                }
            })
            .collect()
    }

    /// The response codes [`script`] must draw, whatever the transport.
    fn script_codes(count: usize) -> Vec<u8> {
        let (ack, rejected, duplicate) = (0, 2, 3);
        (0..count)
            .map(|i| match i % 5 {
                1 => duplicate,
                4 => rejected,
                _ => ack,
            })
            .collect()
    }

    fn codes(verdicts: &[Response]) -> Vec<u8> {
        verdicts.iter().map(|v| v.to_bytes()[0]).collect()
    }

    fn in_process_sink() -> InProcessSink {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let ingest = IngestCore::with_registry(IngestConfig::default(), registry);
        InProcessSink::new(Arc::new(ingest), "127.0.0.1:9999".parse().unwrap())
    }

    #[test]
    fn the_default_batch_equals_per_report_calls() {
        let requests = script(40);
        let batched = in_process_sink().submit_batch(&requests).unwrap();
        let mut sink = in_process_sink();
        let one_by_one: Vec<Response> = requests
            .iter()
            .map(|request| match request {
                Request::Submit { nonce, report } => sink.submit(nonce, report).unwrap(),
                Request::SubmitRouted {
                    crowd_prefix,
                    nonce,
                    report,
                } => sink.submit_routed(*crowd_prefix, nonce, report).unwrap(),
                other => panic!("not a submission: {other:?}"),
            })
            .collect();
        assert_eq!(batched, one_by_one);
        assert_eq!(codes(&batched), script_codes(40));
        // A nonce repeated inside one batch is a duplicate of its first use.
        assert_eq!(batched[1], Response::Duplicate);
        assert!(matches!(
            sink.submit_batch(&[Request::Ping]),
            Err(CollectorError::Protocol(_))
        ));
    }

    #[test]
    fn a_batch_over_the_exchange_cap_returns_every_verdict_in_order() {
        let deployment = Deployment::builder().build(&mut StdRng::seed_from_u64(18));
        let collector = Collector::start(deployment, CollectorConfig::default()).unwrap();
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let count = 2 * EXCHANGE_FRAMES + 100;
        let verdicts = client.submit_batch(&script(count)).unwrap();
        assert_eq!(codes(&verdicts), script_codes(count));
        // Still in step with the server afterwards.
        assert!(matches!(client.ping().unwrap(), Response::Ack { .. }));
        assert!(matches!(
            client.submit_batch(&[Request::Stats]),
            Err(CollectorError::Protocol(_))
        ));
        assert!(matches!(client.ping().unwrap(), Response::Ack { .. }));
        drop(client);
        let accepted = script_codes(count).iter().filter(|&&c| c == 0).count();
        let stats = collector.shutdown().stats;
        assert_eq!(stats.ingest.accepted, accepted as u64);
    }

    #[test]
    fn a_client_that_failed_mid_exchange_never_hands_out_the_late_verdict() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (gave_up, has_given_up) = std::sync::mpsc::channel::<()>();
        // A peer that answers the first request only once the client has
        // timed out on it, then serves whatever else arrives.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
            has_given_up.recv().unwrap();
            let _ = write_frame(&mut stream, &Response::Duplicate.to_bytes());
            while read_frame(&mut stream, MAX_FRAME_LEN).is_ok() {
                let _ = write_frame(&mut stream, &Response::Ack { pending: 0 }.to_bytes());
            }
        });
        let mut client =
            CollectorClient::connect_with_timeout(addr, Duration::from_millis(100)).unwrap();
        assert!(client.submit(&nonce(1), b"first").is_err());
        gave_up.send(()).unwrap();
        // The late `Duplicate` is the first report's verdict; handing it to
        // the second would acknowledge a report nobody judged.
        assert!(client.submit(&nonce(2), b"second").is_err());
        assert!(client.submit_batch(&script(3)).is_err());
        assert!(client.ping().is_err());
        drop(client);
        peer.join().unwrap();
    }
}
