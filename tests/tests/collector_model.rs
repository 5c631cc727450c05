//! The collector's run admission held to a sequential per-frame model.
//!
//! A one-loop collector admits a reactor turn's submissions as one run: it
//! reserves queue room once, checks and records each nonce in one step, and
//! answers them at the end of the turn, or before a `PING` or `STATS` in the
//! middle of it. Whatever the turns look like, each connection must read
//! what a collector admitting one frame at a time would have answered it:
//!
//! * `Rejected` for an oversize report or one that is not a ciphertext;
//! * `Duplicate` for a nonce accepted before, on either connection;
//! * `RetryAfter` for a fresh nonce while the queue is full;
//! * otherwise `Ack` with the queue depth after the push.
//!
//! `PING` reads the depth and `STATS` the four ingest counts.
//!
//! Two scripts run at once on two connections of one loop. Their bytes are
//! written in arbitrary splits, with the queue a few slots from full, and
//! one script may hang up (a half-close) inside its last frame. The loop
//! interleaves the two connections as it pleases, so the check searches for
//! an interleaving of the two verdict sequences, in each connection's
//! order, that the model reproduces answer for answer. The epoch manager
//! cuts the queue when it fills — at most once here, because the pipeline
//! holds its first batch until the scripts end — and the search may place
//! that cut anywhere the queue is full. Acks, `accepted` and the reports
//! drained must all agree: every acknowledged report, and only those, comes
//! out of the queue once, labelled with its connection, in arrival order.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use prochlo_collector::protocol::{read_frame, write_frame, MAX_REPORT_LEN, RETRY_AFTER_MS};
use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, EpochPipeline, ReportSink, Request, Response,
    NONCE_LEN,
};
use prochlo_core::{
    AnalyzerDatabase, ClientReport, EpochSpec, PipelineError, PipelineReport, ShufflerStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reports queued before the scripts start; their nonces are the first of
/// the pool, so the scripts replay them across turns.
const PREFILL: usize = 4;
/// Nonces the scripts draw from: few enough that they repeat within a turn
/// and across turns, on one connection and across both.
const POOL: u8 = 24;

#[derive(Debug, Clone, Copy)]
enum Body {
    Valid,
    Oversize,
    NotCiphertext,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Submit { nonce: u8, body: Body },
    Ping,
    Stats,
}

fn nonce(k: u8) -> [u8; NONCE_LEN] {
    [k; NONCE_LEN]
}

/// A parseable report, unique to its connection and step.
fn valid_report(conn: usize, index: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; 64];
    bytes[0] = 0xc0 | conn as u8;
    bytes[1..9].copy_from_slice(&(index as u64).to_le_bytes());
    bytes
}

fn request(conn: usize, index: usize, step: Step) -> Request {
    match step {
        Step::Submit { nonce: k, body } => Request::Submit {
            nonce: nonce(k),
            report: match body {
                Body::Valid => valid_report(conn, index),
                Body::Oversize => vec![7u8; MAX_REPORT_LEN + 1],
                // Shorter than a hybrid ciphertext's fixed fields.
                Body::NotCiphertext => vec![1u8; 10],
            },
        },
        Step::Ping => Request::Ping,
        Step::Stats => Request::Stats,
    }
}

fn step(rng: &mut StdRng) -> Step {
    match rng.gen_range(0..12) {
        0 => Step::Ping,
        1 => Step::Stats,
        _ => Step::Submit {
            nonce: rng.gen_range(0..POOL),
            body: match rng.gen_range(0..10) {
                0 => Body::Oversize,
                1 => Body::NotCiphertext,
                _ => Body::Valid,
            },
        },
    }
}

/// One connection's side of a case.
#[derive(Debug, Clone)]
struct Script {
    steps: Vec<Step>,
    /// Sizes of the writes the wire bytes are cut into, used in turn.
    splits: Vec<usize>,
    /// Sleep briefly after each write, so turns end between writes.
    pause: bool,
}

fn script(rng: &mut StdRng) -> Script {
    let steps = (0..rng.gen_range(1..40)).map(|_| step(rng)).collect();
    let splits = (0..rng.gen_range(1..8))
        .map(|_| rng.gen_range(1..400))
        .collect();
    let pause = rng.gen_bool(0.5);
    Script {
        steps,
        splits,
        pause,
    }
}

/// Holds the first batch it is handed until released, so the queue is cut
/// at most once while the scripts run; records every batch.
#[derive(Clone, Default)]
struct Held {
    batches: Arc<Mutex<Vec<Vec<ClientReport>>>>,
    released: Arc<(Mutex<bool>, Condvar)>,
}

impl Held {
    fn release(&self) {
        *self.released.0.lock().unwrap() = true;
        self.released.1.notify_all();
    }
}

impl EpochPipeline for Held {
    fn process(
        &mut self,
        _spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        self.batches.lock().unwrap().push(batch);
        let (released, signal) = &*self.released;
        let mut released = released.lock().unwrap();
        while !*released {
            released = signal.wait(released).unwrap();
        }
        Ok(PipelineReport {
            database: AnalyzerDatabase::default(),
            shuffler_stats: ShufflerStats::default(),
            stage_stats: Vec::new(),
        })
    }
}

/// What one connection sent and read.
struct Observed {
    /// The frames it completed, in order (a hang-up's partial frame is
    /// not one of them).
    steps: Vec<Step>,
    verdicts: Vec<Response>,
    label: String,
}

impl Observed {
    /// The first step whose nonce `k` was acknowledged, if any.
    fn first_ack(&self, k: u8) -> Option<usize> {
        self.steps
            .iter()
            .zip(&self.verdicts)
            .position(|(step, verdict)| {
                matches!(step, Step::Submit { nonce, .. } if *nonce == k)
                    && matches!(verdict, Response::Ack { .. })
            })
    }

    /// Submissions among the first `i` whose verdict is of a kind.
    fn count(&self, i: usize, kind: fn(&Response) -> bool) -> u64 {
        let submits = self.steps[..i].iter().zip(&self.verdicts);
        let submits = submits.filter(|(step, _)| matches!(step, Step::Submit { .. }));
        submits.filter(|(_, v)| kind(v)).count() as u64
    }
}

fn is_ack(v: &Response) -> bool {
    matches!(v, Response::Ack { .. })
}
fn is_duplicate(v: &Response) -> bool {
    matches!(v, Response::Duplicate)
}
fn is_busy(v: &Response) -> bool {
    matches!(v, Response::RetryAfter { .. })
}
fn is_rejected(v: &Response) -> bool {
    matches!(v, Response::Rejected { .. })
}

/// The sequential model at the state where `done[c]` frames of connection
/// `c` are answered and the queue was cut `cut` times: does it answer
/// `step` with `seen`?
fn model_agrees(
    conns: &[Observed; 2],
    done: [usize; 2],
    cut: bool,
    capacity: usize,
    step: Step,
    seen: &Response,
) -> bool {
    let acked: usize = (0..2)
        .map(|c| conns[c].count(done[c], is_ack) as usize)
        .sum();
    let depth = PREFILL + acked - if cut { capacity } else { 0 };
    let counted = |kind: fn(&Response) -> bool| -> f64 {
        (0..2).map(|c| conns[c].count(done[c], kind)).sum::<u64>() as f64
    };
    match step {
        Step::Submit {
            body: Body::Oversize,
            ..
        } => *seen == rejected("report exceeds maximum size"),
        Step::Submit {
            body: Body::NotCiphertext,
            ..
        } => *seen == rejected("report is not a hybrid ciphertext"),
        Step::Submit { nonce: k, .. } => {
            let known = usize::from(k) < PREFILL
                || (0..2).any(|c| conns[c].first_ack(k).is_some_and(|at| at < done[c]));
            let expected = if known {
                Response::Duplicate
            } else if depth == capacity {
                Response::RetryAfter {
                    millis: RETRY_AFTER_MS,
                }
            } else {
                Response::Ack {
                    pending: depth as u32 + 1,
                }
            };
            *seen == expected
        }
        Step::Ping => {
            *seen
                == Response::Ack {
                    pending: depth as u32,
                }
        }
        Step::Stats => {
            let Response::Stats { entries } = seen else {
                return false;
            };
            let read = |name: &str| entries.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            read("collector.ingest.accepted") == Some(PREFILL as f64 + counted(is_ack))
                && read("collector.ingest.duplicates") == Some(counted(is_duplicate))
                && read("collector.ingest.backpressured") == Some(counted(is_busy))
                && read("collector.ingest.rejected") == Some(counted(is_rejected))
        }
    }
}

fn rejected(reason: &str) -> Response {
    Response::Rejected {
        reason: reason.to_string(),
    }
}

/// Whether some interleaving of the two connections' frames, with at most
/// one cut of a full queue placed anywhere, makes the model answer every
/// frame as the connection read it.
fn linearizable(conns: &[Observed; 2], capacity: usize) -> bool {
    let (a, b) = (conns[0].steps.len(), conns[1].steps.len());
    // reached[i][j][cut]: i of A's and j of B's frames answered as read.
    let mut reached = vec![vec![[false; 2]; b + 1]; a + 1];
    reached[0][0][0] = true;
    for i in 0..=a {
        for j in 0..=b {
            for cut in [false, true] {
                if !reached[i][j][usize::from(cut)] {
                    continue;
                }
                let done = [i, j];
                let acked = conns[0].count(i, is_ack) + conns[1].count(j, is_ack);
                if !cut && PREFILL + acked as usize == capacity {
                    reached[i][j][1] = true;
                }
                for c in 0..2 {
                    let k = done[c];
                    if k < conns[c].steps.len()
                        && model_agrees(
                            conns,
                            done,
                            cut,
                            capacity,
                            conns[c].steps[k],
                            &conns[c].verdicts[k],
                        )
                    {
                        let next = if c == 0 { (i + 1, j) } else { (i, j + 1) };
                        reached[next.0][next.1][usize::from(cut)] = true;
                    }
                }
            }
        }
    }
    reached[a][b].iter().any(|&r| r)
}

/// Writes `script` in its splits, half-closing after `hangup` bytes of the
/// last frame if set, and reads one verdict per completed frame.
fn drive(stream: TcpStream, conn: usize, script: &Script, hangup: Option<usize>) -> Observed {
    let label = stream.local_addr().unwrap().to_string();
    let frames: Vec<Vec<u8>> = (script.steps.iter().enumerate())
        .map(|(index, &step)| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &request(conn, index, step).to_bytes()).unwrap();
            frame
        })
        .collect();
    let mut steps = script.steps.clone();
    let mut wire: Vec<u8> = frames.concat();
    if let Some(cut) = hangup {
        let last = frames.last().unwrap();
        wire.truncate(wire.len() - last.len() + cut % (last.len() - 1) + 1);
        steps.pop();
    }
    let mut writer = stream.try_clone().unwrap();
    let (splits, pause) = (script.splits.clone(), script.pause);
    let writing = std::thread::spawn(move || {
        let mut rest = &wire[..];
        for &size in splits.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, after) = rest.split_at(size.min(rest.len()));
            writer.write_all(piece).unwrap();
            rest = after;
            if pause {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        if hangup.is_some() {
            writer.shutdown(Shutdown::Write).unwrap();
        }
    });
    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let verdicts = (0..steps.len())
        .map(|_| Response::from_bytes(&read_frame(&mut reader, 1 << 20).unwrap()).unwrap())
        .collect();
    writing.join().unwrap();
    Observed {
        steps,
        verdicts,
        label,
    }
}

fn run_case(scripts: [Script; 2], room: usize, hangup: Option<(usize, usize)>) {
    let registry = Arc::new(prochlo_obs::Registry::new(true));
    let capacity = PREFILL + room;
    let config = CollectorConfig {
        worker_threads: 1,
        queue_capacity: capacity,
        max_epoch_reports: 100_000,
        epoch_deadline: Duration::from_secs(60),
        registry: Some(Arc::clone(&registry)),
        ..CollectorConfig::default()
    };
    let held = Held::default();
    let collector = Collector::start_with_pipeline(Box::new(held.clone()), config).unwrap();
    let addr = collector.local_addr();
    let prefill: Vec<Request> = (0..PREFILL)
        .map(|k| Request::Submit {
            nonce: nonce(k as u8),
            report: [0xaa, k as u8].repeat(32),
        })
        .collect();
    let mut setup = CollectorClient::connect(addr).unwrap();
    let acks = setup.submit_batch(&prefill).unwrap();
    assert!(acks.iter().all(is_ack), "prefill: {acks:?}");
    drop(setup);

    let observed: Vec<Observed> = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..2)
            .map(|conn| {
                let script = &scripts[conn];
                let cut = hangup.filter(|&(who, _)| who == conn).map(|(_, at)| at);
                scope.spawn(move || drive(TcpStream::connect(addr).unwrap(), conn, script, cut))
            })
            .collect();
        drivers.into_iter().map(|d| d.join().unwrap()).collect()
    });
    let conns: [Observed; 2] = observed.try_into().ok().unwrap();
    held.release();
    let summary = collector.shutdown();

    assert!(
        linearizable(&conns, capacity),
        "no interleaving explains the verdicts (capacity {capacity}):\nA {:?}\n  {:?}\nB {:?}\n  {:?}",
        conns[0].steps,
        conns[0].verdicts,
        conns[1].steps,
        conns[1].verdicts
    );
    // Acks, the books and the drained reports agree.
    let acked =
        conns[0].count(conns[0].steps.len(), is_ack) + conns[1].count(conns[1].steps.len(), is_ack);
    assert_eq!(summary.stats.ingest.accepted, PREFILL as u64 + acked);
    let drained: Vec<ClientReport> = held.batches.lock().unwrap().concat();
    assert_eq!(drained.len(), PREFILL + acked as usize);
    let mut expected: Vec<(Vec<u8>, String)> = Vec::new();
    for (conn, observed) in conns.iter().enumerate() {
        for (index, (step, verdict)) in observed.steps.iter().zip(&observed.verdicts).enumerate() {
            if matches!(step, Step::Submit { .. }) && is_ack(verdict) {
                expected.push((valid_report(conn, index), observed.label.clone()));
            }
        }
    }
    let mut got: Vec<(Vec<u8>, String)> = drained[PREFILL..]
        .iter()
        .map(|r| (r.outer.to_bytes(), r.metadata.client_label.to_string()))
        .collect();
    expected.sort();
    got.sort();
    assert_eq!(
        got, expected,
        "the drained reports are the acknowledged ones"
    );
    let arrivals: Vec<u64> = drained.iter().map(|r| r.metadata.arrival_order).collect();
    assert!(
        arrivals.windows(2).all(|w| w[0] < w[1]),
        "arrival order follows the queue: {arrivals:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn each_connection_reads_what_a_per_frame_collector_would_answer(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts = [script(&mut rng), script(&mut rng)];
        let room = rng.gen_range(0..12);
        let hangup = rng
            .gen_bool(0.5)
            .then(|| (rng.gen_range(0..2), rng.gen::<usize>()));
        run_case(scripts, room, hangup);
    }
}
