//! The load generator: blocking clients on the collector wire protocol.
//!
//! One connection per thread, at most `cores` threads. A **closed** loop
//! keeps the server busy by pipelining a fixed window of submissions per
//! connection (write the window, flush, read one response per frame); an
//! **open** loop sends on a fixed schedule with one submission in flight
//! per connection and times every acknowledgement from the moment the
//! submission was *due*, so a stall charges the submissions queued behind
//! it. A `RetryAfter` is re-sent under the **same nonce** after the hinted
//! back-off (capped), and still counts as a refusal.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use prochlo_collector::protocol::{read_frame, write_frame, Request, Response, NONCE_LEN};
use prochlo_core::exec::mix_seed;
use prochlo_core::ShardedDeployment;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::corpus::stream;
use crate::host;

/// Submissions in flight per connection in a closed loop.
pub const WINDOW: usize = 64;

/// Ceiling on the back-off a generator honours, so a saturated queue is
/// re-probed often enough to refill it as soon as an epoch is cut.
const MAX_BACKOFF: Duration = Duration::from_millis(20);

/// A generator that hears nothing for this long reports the run as failed
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

const MAX_RESPONSE_LEN: usize = 64 << 10;

/// Acknowledgement latencies as a log-linear histogram: 64 buckets per
/// power of two (1.6 % wide), so millions of samples cost a few tens of KiB
/// and the harness's own memory stays out of `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Latencies {
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
}

const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

impl Default for Latencies {
    fn default() -> Self {
        Self {
            buckets: vec![0; ((64 - SUB_BUCKET_BITS as usize) + 1) * SUB_BUCKETS as usize],
            count: 0,
            max_ns: 0,
        }
    }
}

impl Latencies {
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BUCKET_BITS;
        ((u64::from(shift) + 1) * SUB_BUCKETS + ((ns >> shift) - SUB_BUCKETS)) as usize
    }

    /// `(lowest value, width)` of a bucket, in nanoseconds.
    fn bounds_of(bucket: usize) -> (f64, f64) {
        let (row, column) = (bucket as u64 / SUB_BUCKETS, bucket as u64 % SUB_BUCKETS);
        if row == 0 {
            return (column as f64, 1.0);
        }
        let shift = row - 1;
        (
            ((SUB_BUCKETS + column) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    fn absorb(&mut self, other: &Latencies) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q`-quantile (nearest rank, interpolated inside its bucket) in
    /// milliseconds; 0 when nothing was recorded.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0u64;
        for (bucket, &here) in self.buckets.iter().enumerate() {
            if below + here >= rank {
                let (lowest, width) = Self::bounds_of(bucket);
                let within = ((rank - below) as f64 - 0.5) / here as f64;
                return (lowest + width * within).min(self.max_ns as f64) / 1e6;
            }
            below += here;
        }
        self.max_ms()
    }

    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Each connection keeps [`WINDOW`] submissions in flight.
    Closed,
    /// All connections together offer this many submissions per second on
    /// a fixed schedule, one in flight per connection.
    Open { per_second: f64 },
}

/// When the generator stops creating submissions; whichever comes first.
/// Submissions already created are always driven to a final verdict.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub after: Option<Duration>,
    pub submissions: Option<u64>,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub addr: SocketAddr,
    pub connections: usize,
    pub pacing: Pacing,
    pub stop: Stop,
    /// Sealed reports, walked cyclically in creation order.
    pub pool: Arc<Vec<Vec<u8>>>,
    /// More than one: submit `SubmitRouted` with uniform random prefixes.
    pub shards: usize,
    /// Reports per full epoch of each shard, to find the acknowledgement
    /// that completed an epoch.
    pub epoch_reports: u64,
    pub seed: u64,
}

/// The acknowledgement that opened or completed one shard's `epoch`-th
/// epoch: the `epoch·E + 1`-th or the `(epoch + 1)·E`-th of that shard.
#[derive(Debug, Clone, Copy)]
pub struct EpochMark {
    pub shard: usize,
    pub epoch: u64,
    /// Whether it filled the epoch (otherwise it was the epoch's first).
    pub completes: bool,
    /// When that report was created: due (open loop) or first written.
    pub created: Instant,
}

#[derive(Debug)]
pub struct Load {
    /// The first send: where the timed region starts.
    pub started: Instant,
    pub cpu_at_start: f64,
    pub last_ack: Instant,
    /// Distinct submissions created.
    pub attempted: u64,
    pub acked: u64,
    /// `RetryAfter` responses received.
    pub refused: u64,
    /// Rejected, duplicate or unintelligible verdicts, and submissions
    /// abandoned on an I/O error.
    pub lost: u64,
    /// Acknowledgement latency of every acknowledged submission, from its
    /// creation.
    pub ack: Latencies,
    pub epoch_marks: Vec<EpochMark>,
    /// How far behind its schedule an open loop sent, at worst.
    pub late_max: Duration,
    pub errors: Vec<String>,
}

struct Shared<'p> {
    plan: &'p Plan,
    next: AtomicU64,
    stopped: AtomicBool,
    acks_by_shard: Vec<AtomicU64>,
    ready: Barrier,
}

struct Pending {
    frame: Vec<u8>,
    shard: usize,
    created: Option<Instant>,
}

#[derive(Default)]
struct ThreadLoad {
    attempted: u64,
    acked: u64,
    refused: u64,
    lost: u64,
    ack: Latencies,
    epoch_marks: Vec<EpochMark>,
    last_ack: Option<Instant>,
    late_max: Duration,
}

impl Shared<'_> {
    /// Claims the next corpus position, or `None` once the plan's
    /// submission budget is spent.
    fn claim(&self) -> Option<u64> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        match self.plan.stop.submissions {
            Some(limit) if index >= limit => {
                self.stopped.store(true, Ordering::Relaxed);
                None
            }
            _ => Some(index),
        }
    }

    fn submission(&self, index: u64, rng: &mut StdRng) -> Pending {
        let pool = &self.plan.pool;
        let report = pool[(index % pool.len() as u64) as usize].clone();
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let (request, shard) = if self.plan.shards > 1 {
            let crowd_prefix = rng.next_u64();
            (
                Request::SubmitRouted {
                    crowd_prefix,
                    nonce,
                    report,
                },
                ShardedDeployment::shard_index_from_prefix(crowd_prefix, self.plan.shards),
            )
        } else {
            (Request::Submit { nonce, report }, 0)
        };
        Pending {
            frame: request.to_bytes(),
            shard,
            created: None,
        }
    }

    fn acknowledged(
        &self,
        pending: &Pending,
        created: Instant,
        now: Instant,
        out: &mut ThreadLoad,
    ) {
        out.acked += 1;
        out.last_ack = Some(now);
        out.ack.record(now.duration_since(created));
        let before = self.acks_by_shard[pending.shard].fetch_add(1, Ordering::Relaxed);
        let epoch_reports = self.plan.epoch_reports;
        for (completes, count) in [(false, before), (true, before + 1)] {
            if count.is_multiple_of(epoch_reports) {
                out.epoch_marks.push(EpochMark {
                    shard: pending.shard,
                    epoch: before / epoch_reports,
                    completes,
                    created,
                });
            }
        }
    }
}

type Wire = (BufReader<TcpStream>, BufWriter<TcpStream>);

fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok((
        BufReader::new(stream.try_clone()?),
        BufWriter::with_capacity(64 << 10, stream),
    ))
}

fn read_verdict(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let body = read_frame(reader, MAX_RESPONSE_LEN).map_err(|e| e.to_string())?;
    Response::from_bytes(&body).map_err(|e| e.to_string())
}

fn backoff(millis: u32) {
    std::thread::sleep(Duration::from_millis(u64::from(millis)).min(MAX_BACKOFF));
}

fn closed_loop(
    shared: &Shared<'_>,
    wire: &mut Wire,
    deadline: Option<Instant>,
    rng: &mut StdRng,
    out: &mut ThreadLoad,
) -> Result<(), String> {
    let (reader, writer) = wire;
    let mut window: Vec<Pending> = Vec::with_capacity(WINDOW);
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared.stopped.store(true, Ordering::Relaxed);
        }
        while window.len() < WINDOW && !shared.stopped.load(Ordering::Relaxed) {
            let Some(index) = shared.claim() else { break };
            window.push(shared.submission(index, rng));
            out.attempted += 1;
        }
        if window.is_empty() {
            return Ok(());
        }
        let written = Instant::now();
        for pending in &mut window {
            pending.created.get_or_insert(written);
            write_frame(writer, &pending.frame).map_err(|e| e.to_string())?;
        }
        writer.flush().map_err(|e| e.to_string())?;
        let mut hinted = 0u32;
        let mut refused = Vec::new();
        for pending in window.drain(..) {
            let verdict = read_verdict(reader)?;
            let now = Instant::now();
            match verdict {
                Response::Ack { .. } => {
                    let created = pending.created.expect("stamped before the write");
                    shared.acknowledged(&pending, created, now, out);
                }
                Response::RetryAfter { millis } => {
                    out.refused += 1;
                    hinted = hinted.max(millis.max(1));
                    refused.push(pending);
                }
                _ => out.lost += 1,
            }
        }
        window = refused;
        if hinted > 0 {
            backoff(hinted);
        }
    }
}

fn open_loop(
    shared: &Shared<'_>,
    wire: &mut Wire,
    schedule: (Instant, Duration, Duration),
    deadline: Option<Instant>,
    rng: &mut StdRng,
    out: &mut ThreadLoad,
) -> Result<(), String> {
    let (reader, writer) = wire;
    let (start, offset, period) = schedule;
    for slot in 0u32.. {
        let due = start + offset + period * slot;
        if deadline.is_some_and(|d| due >= d) || shared.stopped.load(Ordering::Relaxed) {
            break;
        }
        let Some(index) = shared.claim() else { break };
        let pending = shared.submission(index, rng);
        out.attempted += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_max = out
            .late_max
            .max(Instant::now().saturating_duration_since(due));
        loop {
            write_frame(writer, &pending.frame).map_err(|e| e.to_string())?;
            writer.flush().map_err(|e| e.to_string())?;
            match read_verdict(reader)? {
                Response::Ack { .. } => {
                    shared.acknowledged(&pending, due, Instant::now(), out);
                    break;
                }
                Response::RetryAfter { millis } => {
                    out.refused += 1;
                    backoff(millis.max(1));
                }
                _ => {
                    out.lost += 1;
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Runs the plan to completion and returns what the clients saw.
pub fn run(plan: &Plan) -> Load {
    let shared = Shared {
        plan,
        next: AtomicU64::new(0),
        stopped: AtomicBool::new(false),
        acks_by_shard: (0..plan.shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        ready: Barrier::new(plan.connections + 1),
    };
    let nonce_seed = mix_seed(plan.seed, stream::NONCES);
    let mut started = Instant::now();
    let mut cpu_at_start = 0.0;
    // prochlo-lint: allow(thread-spawn-discipline, "client load simulator: one blocking connection per thread with its own seeded nonce stream; the pipeline output does not depend on submission interleaving")
    let results: Vec<(ThreadLoad, Option<String>)> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..plan.connections)
            .map(|thread| {
                scope.spawn(move || {
                    let mut out = ThreadLoad::default();
                    let mut rng = StdRng::seed_from_u64(mix_seed(nonce_seed, thread as u64));
                    let wire = connect(plan.addr);
                    // Every thread reaches the barrier, connected or not, so
                    // a refused connection fails the run instead of hanging it.
                    shared.ready.wait();
                    let start = Instant::now();
                    let deadline = plan.stop.after.map(|d| start + d);
                    let outcome =
                        wire.map_err(|e| e.to_string())
                            .and_then(|mut wire| match plan.pacing {
                                Pacing::Closed => {
                                    closed_loop(shared, &mut wire, deadline, &mut rng, &mut out)
                                }
                                Pacing::Open { per_second } => {
                                    let period = Duration::from_secs_f64(
                                        plan.connections as f64 / per_second,
                                    );
                                    let offset =
                                        period.mul_f64(thread as f64 / plan.connections as f64);
                                    open_loop(
                                        shared,
                                        &mut wire,
                                        (start, offset, period),
                                        deadline,
                                        &mut rng,
                                        &mut out,
                                    )
                                }
                            });
                    if outcome.is_err() {
                        // Nobody will finish this thread's share: stop the
                        // others creating work that would only inflate the loss.
                        shared.stopped.store(true, Ordering::Relaxed);
                    }
                    (out, outcome.err())
                })
            })
            .collect();
        shared.ready.wait();
        started = Instant::now();
        cpu_at_start = host::cpu_seconds();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });

    let mut load = Load {
        started,
        cpu_at_start,
        last_ack: started,
        attempted: 0,
        acked: 0,
        refused: 0,
        lost: 0,
        ack: Latencies::default(),
        epoch_marks: Vec::new(),
        late_max: Duration::ZERO,
        errors: Vec::new(),
    };
    for (thread, error) in results {
        load.attempted += thread.attempted;
        load.acked += thread.acked;
        load.refused += thread.refused;
        load.lost += thread.lost;
        load.ack.absorb(&thread.ack);
        load.epoch_marks.extend(thread.epoch_marks);
        load.late_max = load.late_max.max(thread.late_max);
        if let Some(at) = thread.last_ack {
            load.last_ack = load.last_ack.max(at);
        }
        load.errors.extend(error);
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_stay_within_a_bucket_of_the_exact_ones() {
        let mut latencies = Latencies::default();
        // 1 µs .. 10 ms in 1 µs steps: the exact q-quantile is q × 10 ms.
        for micros in 1..=10_000u64 {
            latencies.record(Duration::from_micros(micros));
        }
        for q in [0.01, 0.5, 0.9, 0.99] {
            let exact_ms = q * 10.0;
            let got = latencies.quantile_ms(q);
            assert!(
                (got - exact_ms).abs() <= exact_ms / 64.0,
                "{q}: {got} vs {exact_ms}"
            );
        }
        assert_eq!(latencies.max_ms(), 10.0);
        assert_eq!(Latencies::default().quantile_ms(0.5), 0.0);
        // Buckets tile the range: each value falls inside its own bucket.
        for ns in [0u64, 1, 63, 64, 65, 127, 128, 1_000_003, u64::MAX] {
            let (lowest, width) = Latencies::bounds_of(Latencies::bucket_of(ns));
            assert!(lowest <= ns as f64 && (ns as f64) < lowest + width.max(1.0) * 1.000_001);
        }
    }
}
