//! The socket-free ingestion core: validate, dedup, enqueue.
//!
//! Protocol workers hand every `SUBMIT` here; the benchmark harness drives
//! it directly to measure ingestion throughput without socket noise. The
//! core owns the report queue and the replay filter, and maps each
//! submission to exactly one wire [`Response`].
//!
//! Admission is by the run: a serving loop's reactor turn, or one
//! `IngestCore::ingest_from`. A submission is validated on arrival,
//! making the one heap copy between the socket and the queue (the sealed
//! bytes, into the [`HybridCiphertext`] that sits in the queue). The run's
//! valid submissions are then admitted in order: queue room is reserved
//! once, the replay filter checks and records each nonce in one step up to
//! that room, the accepted reports are pushed under one more queue lock,
//! and arrival order and time are stamped once. A reserved slot cannot be
//! refused, so a recorded nonce is never rolled back.
//!
//! The caller counts the run in a `Tally` of plain integers and publishes
//! it once (`IngestCore::publish`): a serving loop per reactor turn, before
//! the turn's answers are queued, so every Ack a client reads is already
//! counted. Publishing adds the run to the cells [`IngestStats`] and the
//! registry read (`collector.ingest.*`), and records one
//! `collector.ingest.submit` observation per submission: the run's time
//! over its submissions. A `Peer` is rendered once per connection.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use prochlo_core::record::TransportMetadata;
use prochlo_core::ClientReport;
use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_obs::{Gauge, Histogram, Registry, Span};

use crate::dedup::{NonceCheck, ReplayFilter};
use crate::protocol::{Response, MAX_REPORT_LEN, NONCE_LEN, RETRY_AFTER_MS};
use crate::queue::BoundedQueue;

/// Tuning knobs for [`IngestCore`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Reports queued but not yet cut into an epoch (the memory bound).
    pub queue_capacity: usize,
    /// Nonces remembered for replay dedup.
    pub dedup_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1 << 16,
            dedup_capacity: 1 << 20,
        }
    }
}

/// Monotonic counters describing what the ingestion path did so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Reports accepted into the queue.
    pub accepted: u64,
    /// Submissions answered `Duplicate`.
    pub duplicates: u64,
    /// Submissions answered `RetryAfter`: the queue or the replay filter
    /// was full.
    pub backpressured: u64,
    /// Submissions answered `Rejected` (malformed).
    pub rejected: u64,
    /// Highest queue depth observed right after a push.
    pub peak_queue_depth: usize,
}

/// The published books; the registry reads the four counts through.
#[derive(Debug, Default)]
struct StatsCells {
    accepted: Arc<AtomicU64>,
    duplicates: Arc<AtomicU64>,
    backpressured: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    peak_queue_depth: AtomicUsize,
}

/// One run of submissions — a serving loop's reactor turn, or one
/// [`IngestCore::ingest_from`] — counted in plain integers by the thread
/// that admits it, until [`IngestCore::publish`] adds it to the books.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    counts: IngestStats,
    /// Submissions validated, and the queue depth the last accepted run
    /// left.
    submissions: u64,
    last_depth: usize,
    /// Started by the run's first submission; reads no clock while the
    /// registry is disabled.
    span: Option<Span>,
}

impl Tally {
    /// Counts one submission refused for want of room and answers it
    /// `RetryAfter`.
    fn backpressure(&mut self) -> Response {
        self.counts.backpressured += 1;
        Response::RetryAfter {
            millis: RETRY_AFTER_MS,
        }
    }

    fn rejected(&mut self, reason: &str) -> Response {
        self.counts.rejected += 1;
        let reason = reason.to_string();
        Response::Rejected { reason }
    }
}

/// A connection's transport identity — exactly the linkable information
/// the shuffler must strip — rendered once when the connection is accepted
/// and shared by every report that arrives on it.
#[derive(Debug, Clone)]
pub(crate) struct Peer {
    label: Arc<str>,
    source_ip: [u8; 4],
}

impl From<SocketAddr> for Peer {
    fn from(addr: SocketAddr) -> Self {
        Self {
            label: addr.to_string().into(),
            source_ip: match addr {
                SocketAddr::V4(v4) => v4.ip().octets(),
                SocketAddr::V6(_) => [0u8; 4],
            },
        }
    }
}

/// A submission that passed validation and waits for its run's admission.
#[derive(Debug)]
pub(crate) struct Candidate {
    nonce: [u8; NONCE_LEN],
    outer: HybridCiphertext,
    peer: Peer,
}

/// Validate + dedup + enqueue, shared by every protocol worker.
#[derive(Debug)]
pub struct IngestCore {
    queue: BoundedQueue<ClientReport>,
    dedup: ReplayFilter,
    arrival: AtomicU64,
    stats: StatsCells,
    registry: Arc<Registry>,
    /// The last depth a published run pushed to (`collector.queue.depth`).
    queue_depth: Gauge,
    submit: Histogram,
}

impl IngestCore {
    /// Creates the core with its bounded queue and replay filter,
    /// reporting telemetry through the global obs registry.
    pub fn new(config: IngestConfig) -> Self {
        Self::with_registry(config, Arc::clone(prochlo_obs::global()))
    }

    /// Like [`Self::new`], but reporting into an explicit registry —
    /// what tests use to assert exact counts without cross-suite
    /// contamination of the process-wide registry.
    pub fn with_registry(config: IngestConfig, registry: Arc<Registry>) -> Self {
        let stats = StatsCells::default();
        for (name, cell) in [
            ("collector.ingest.accepted", &stats.accepted),
            ("collector.ingest.duplicates", &stats.duplicates),
            ("collector.ingest.backpressured", &stats.backpressured),
            ("collector.ingest.rejected", &stats.rejected),
        ] {
            registry.read_through(name, Arc::clone(cell));
        }
        Self {
            queue: BoundedQueue::new(config.queue_capacity),
            dedup: ReplayFilter::new(config.dedup_capacity),
            arrival: AtomicU64::new(0),
            stats,
            queue_depth: registry.gauge("collector.queue.depth"),
            submit: registry.histogram("collector.ingest.submit"),
            registry,
        }
    }

    /// The registry this core reports into.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The report queue the epoch manager drains.
    pub(crate) fn queue(&self) -> &BoundedQueue<ClientReport> {
        &self.queue
    }

    /// Handles one submission end to end and returns the wire response: a
    /// run of one, published before it returns.
    pub(crate) fn ingest_from(
        &self,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
        peer: &Peer,
    ) -> Response {
        let mut tally = Tally::default();
        let response = match self.candidate(&mut tally, nonce, report, peer) {
            Ok(candidate) => {
                // Overwritten: a run answers each of its candidates.
                let mut response = Response::Duplicate;
                let run = &mut vec![candidate];
                self.admit_run(&mut tally, run, |verdict| response = verdict);
                response
            }
            Err(rejected) => rejected,
        };
        self.publish(&mut tally);
        response
    }

    /// Validates one submission for [`Self::admit_run`], counting it in
    /// `tally`; a malformed one is answered `Rejected` here.
    pub(crate) fn candidate(
        &self,
        tally: &mut Tally,
        nonce: &[u8; NONCE_LEN],
        report: &[u8],
        peer: &Peer,
    ) -> Result<Candidate, Response> {
        if tally.submissions == 0 {
            tally.span = Some(self.submit.start());
        }
        tally.submissions += 1;
        if report.len() > MAX_REPORT_LEN {
            return Err(tally.rejected("report exceeds maximum size"));
        }
        let Ok(outer) = HybridCiphertext::from_bytes(report) else {
            return Err(tally.rejected("report is not a hybrid ciphertext"));
        };
        let (nonce, peer) = (*nonce, peer.clone());
        Ok(Candidate { nonce, outer, peer })
    }

    /// Admits `run`, draining it, and hands `answer` one response per
    /// candidate, in order; counts them in `tally` only. A replay of an
    /// accepted nonce answers `Duplicate`, within the run or across runs,
    /// on any loop; a fresh one past the reserved room, `RetryAfter`.
    pub(crate) fn admit_run(
        &self,
        tally: &mut Tally,
        run: &mut Vec<Candidate>,
        mut answer: impl FnMut(Response),
    ) {
        if run.is_empty() {
            return;
        }
        let room = self.queue.reserve(run.len());
        let verdicts = self
            .dedup
            .record(run.iter().map(|candidate| &candidate.nonce), room.slots());
        let accepted = verdicts.iter().filter(|&&v| v == NonceCheck::Fresh).count();
        // What the shuffler strips: address, arrival order and time.
        let first_arrival = self.arrival.fetch_add(accepted as u64, Ordering::Relaxed);
        #[expect(clippy::disallowed_methods, reason = "metadata the shuffler strips")]
        let now = SystemTime::now().duration_since(UNIX_EPOCH);
        let timestamp_secs = now.map(|d| d.as_secs()).unwrap_or(0);
        let reports = run
            .drain(..)
            .zip(&verdicts)
            .filter(|(_, &verdict)| verdict == NonceCheck::Fresh)
            .zip(first_arrival..)
            .map(|((candidate, _), arrival_order)| ClientReport {
                outer: candidate.outer,
                metadata: TransportMetadata {
                    client_label: candidate.peer.label,
                    arrival_order,
                    source_ip: candidate.peer.source_ip,
                    timestamp_secs,
                },
            });
        let depth = room.fill(reports);
        if accepted > 0 {
            tally.counts.accepted += accepted as u64;
            tally.counts.peak_queue_depth = tally.counts.peak_queue_depth.max(depth);
            tally.last_depth = depth;
        }
        let mut pending = (depth - accepted) as u32;
        for verdict in verdicts {
            answer(match verdict {
                NonceCheck::Fresh => {
                    pending += 1;
                    Response::Ack { pending }
                }
                NonceCheck::Duplicate => {
                    tally.counts.duplicates += 1;
                    Response::Duplicate
                }
                NonceCheck::Full => tally.backpressure(),
            });
        }
    }

    /// Adds `tally` to the shared books and empties it for the next run:
    /// one atomic per nonzero count, and one histogram recording.
    pub(crate) fn publish(&self, tally: &mut Tally) {
        let Tally {
            counts,
            submissions,
            last_depth,
            span,
        } = std::mem::take(tally);
        for (cell, n) in [
            (&self.stats.accepted, counts.accepted),
            (&self.stats.duplicates, counts.duplicates),
            (&self.stats.backpressured, counts.backpressured),
            (&self.stats.rejected, counts.rejected),
        ] {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        if counts.accepted > 0 {
            let peak = &self.stats.peak_queue_depth;
            peak.fetch_max(counts.peak_queue_depth, Ordering::Relaxed);
            self.queue_depth.set(last_depth as i64);
        }
        if let Some(span) = span {
            span.finish_over(submissions);
        }
    }

    /// Ages the replay filter one generation; the epoch manager calls this
    /// at every epoch cut so long-running collectors neither grow the
    /// filter unboundedly nor wedge at capacity. Replays are detected for
    /// the epoch a nonce was accepted in plus the following one.
    pub(crate) fn rotate_dedup(&self) {
        self.dedup.rotate();
    }

    /// A snapshot of the ingestion counters.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            duplicates: self.stats.duplicates.load(Ordering::Relaxed),
            backpressured: self.stats.backpressured.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            peak_queue_depth: self.stats.peak_queue_depth.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_crypto::hybrid::HybridKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    impl IngestCore {
        /// [`Self::ingest_from`], rendering the peer's transport label for
        /// this one call.
        fn ingest(&self, nonce: &[u8; NONCE_LEN], report: &[u8], peer: SocketAddr) -> Response {
            self.ingest_from(nonce, report, &Peer::from(peer))
        }
    }

    fn peer() -> SocketAddr {
        "127.0.0.1:9999".parse().unwrap()
    }

    fn sealed_report(rng: &mut StdRng) -> Vec<u8> {
        let recipient = HybridKeypair::generate(rng);
        HybridCiphertext::seal(rng, recipient.public_key(), b"aad", b"payload")
            .unwrap()
            .to_bytes()
    }

    fn nonce(i: u64) -> [u8; NONCE_LEN] {
        let mut n = [0u8; NONCE_LEN];
        n[..8].copy_from_slice(&i.to_le_bytes());
        n
    }

    #[test]
    fn valid_reports_are_acked_and_queued() {
        let mut rng = StdRng::seed_from_u64(1);
        let core = IngestCore::new(IngestConfig::default());
        let report = sealed_report(&mut rng);
        assert!(matches!(
            core.ingest(&nonce(1), &report, peer()),
            Response::Ack { pending: 1 }
        ));
        assert_eq!(core.queue().len(), 1);
        assert_eq!(core.stats().accepted, 1);
    }

    #[test]
    fn malformed_reports_are_rejected_permanently() {
        let core = IngestCore::new(IngestConfig::default());
        assert!(matches!(
            core.ingest(&nonce(1), &[0u8; 10], peer()),
            Response::Rejected { .. }
        ));
        let oversized = vec![0u8; MAX_REPORT_LEN + 1];
        assert!(matches!(
            core.ingest(&nonce(2), &oversized, peer()),
            Response::Rejected { .. }
        ));
        assert_eq!(core.stats().rejected, 2);
        assert_eq!(core.queue().len(), 0);
    }

    #[test]
    fn replayed_nonces_are_deduplicated() {
        let mut rng = StdRng::seed_from_u64(2);
        let core = IngestCore::new(IngestConfig::default());
        let report = sealed_report(&mut rng);
        assert!(matches!(
            core.ingest(&nonce(7), &report, peer()),
            Response::Ack { .. }
        ));
        assert_eq!(core.ingest(&nonce(7), &report, peer()), Response::Duplicate);
        assert_eq!(core.queue().len(), 1, "a replay must not enqueue twice");
        assert_eq!(core.stats().duplicates, 1);
    }

    #[test]
    fn full_queue_backpressures_with_bounded_memory() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = IngestConfig {
            queue_capacity: 3,
            ..IngestConfig::default()
        };
        let core = IngestCore::new(config);
        let report = sealed_report(&mut rng);
        for i in 0..3 {
            assert!(matches!(
                core.ingest(&nonce(i), &report, peer()),
                Response::Ack { .. }
            ));
        }
        // The fourth submission is refused, not buffered.
        assert_eq!(
            core.ingest(&nonce(3), &report, peer()),
            Response::RetryAfter {
                millis: RETRY_AFTER_MS
            }
        );
        assert_eq!(core.queue().len(), 3);
        assert_eq!(core.stats().peak_queue_depth, 3);
        // The refused nonce was rolled back: the retry succeeds once a slot
        // frees up, and is deduplicated after that.
        assert_eq!(core.queue().drain_when(1, Duration::ZERO).len(), 1);
        assert!(matches!(
            core.ingest(&nonce(3), &report, peer()),
            Response::Ack { .. }
        ));
        assert_eq!(core.ingest(&nonce(3), &report, peer()), Response::Duplicate);
    }

    #[test]
    fn full_dedup_filter_backpressures() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = IngestConfig {
            dedup_capacity: 2,
            ..IngestConfig::default()
        };
        let core = IngestCore::new(config);
        let report = sealed_report(&mut rng);
        core.ingest(&nonce(0), &report, peer());
        core.ingest(&nonce(1), &report, peer());
        assert!(matches!(
            core.ingest(&nonce(2), &report, peer()),
            Response::RetryAfter { .. }
        ));
        assert_eq!(core.stats().backpressured, 1);
    }

    #[test]
    fn obs_counters_mirror_ingest_stats() {
        let mut rng = StdRng::seed_from_u64(6);
        let registry = Arc::new(Registry::new(true));
        let core = IngestCore::with_registry(IngestConfig::default(), Arc::clone(&registry));
        let report = sealed_report(&mut rng);
        core.ingest(&nonce(0), &report, peer());
        core.ingest(&nonce(0), &report, peer()); // duplicate
        core.ingest(&nonce(1), &[0u8; 4], peer()); // rejected
        core.ingest(&nonce(2), &report, peer());

        let snap = registry.snapshot();
        let stats = core.stats();
        assert_eq!(
            snap.get("collector.ingest.accepted"),
            Some(stats.accepted as f64)
        );
        assert_eq!(
            snap.get("collector.ingest.duplicates"),
            Some(stats.duplicates as f64)
        );
        assert_eq!(
            snap.get("collector.ingest.rejected"),
            Some(stats.rejected as f64)
        );
        assert_eq!(snap.get("collector.queue.depth"), Some(2.0));
        // Every submission — accepted or not — lands in the latency
        // histogram exactly once.
        assert_eq!(snap.get("collector.ingest.submit"), Some(4.0));
    }

    #[test]
    fn disabled_registry_keeps_legacy_stats_working() {
        let mut rng = StdRng::seed_from_u64(7);
        let registry = Arc::new(Registry::new(false));
        let core = IngestCore::with_registry(IngestConfig::default(), Arc::clone(&registry));
        let report = sealed_report(&mut rng);
        core.ingest(&nonce(0), &report, peer());
        assert_eq!(core.stats().accepted, 1, "legacy stats are unconditional");
        // The registry reads the ingest books through, so it agrees with
        // them while recording is off; the latency histogram, registered
        // at construction, recorded nothing.
        let snap = registry.snapshot();
        assert_eq!(snap.get("collector.ingest.accepted"), Some(1.0));
        assert_eq!(snap.get("collector.ingest.submit"), Some(0.0));
    }

    #[test]
    fn a_connection_s_label_is_rendered_once_and_shared_by_its_reports() {
        let mut rng = StdRng::seed_from_u64(9);
        let core = IngestCore::new(IngestConfig::default());
        let report = sealed_report(&mut rng);
        let connection = Peer::from(peer());
        core.ingest_from(&nonce(0), &report, &connection);
        core.ingest_from(&nonce(1), &report, &connection);
        let queued = core.queue().drain_when(2, Duration::ZERO);
        let labels: Vec<&Arc<str>> = queued.iter().map(|r| &r.metadata.client_label).collect();
        assert_eq!(&**labels[0], "127.0.0.1:9999");
        assert!(Arc::ptr_eq(labels[0], labels[1]));
        assert_eq!(queued[1].metadata.source_ip, [127, 0, 0, 1]);
    }

    #[test]
    fn arrival_order_is_monotonic_across_submissions() {
        let mut rng = StdRng::seed_from_u64(5);
        let core = IngestCore::new(IngestConfig::default());
        let report = sealed_report(&mut rng);
        core.ingest(&nonce(0), &report, peer());
        core.ingest(&nonce(1), &report, peer());
        let queued = core.queue().drain_when(2, Duration::ZERO);
        assert!(queued[0].metadata.arrival_order < queued[1].metadata.arrival_order);
        assert_eq!(queued[0].metadata.source_ip, [127, 0, 0, 1]);
    }
}
