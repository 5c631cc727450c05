//! The networked shard fabric, end to end, as real processes.
//!
//! This binary re-executes itself in four roles and wires them together
//! over TCP:
//!
//! ```text
//!   clients ──▶ ShardRouter ──▶ collector shard 0 ──▶ Shuffler 1 ──▶ Shuffler 2
//!                  (driver)  └─▶ collector shard 1 ──▶    │              │
//!                                       ▲  ▲              └── records ───┘
//!                                       └──┴──────────────── items ◀─────┘
//! ```
//!
//! The driver routes every sealed report to its crowd's shard, each shard
//! collector cuts one epoch and ships it through the out-of-process split
//! shufflers ([`RemoteSplitPipeline`]), and the driver merges the shards'
//! databases in shard order. The run then recomputes the same epochs
//! in-process and asserts the canonical histograms are **byte-identical**
//! — the fabric's determinism contract, live.
//!
//! The fabric carries only the shuffle. The driver talks to each child
//! over its pipes: a child advertises its addresses on stdout, and a shard
//! waits for a `shutdown` line on stdin, then answers on stdout with one
//! `ROW <hex>` line per database row and a closing `STATS` line. A shard
//! whose stdin closes before `shutdown` exits non-zero rather than wait.
//!
//! Every process rebuilds the same deployment from a shared seed so keys
//! match across roles; a real deployment would provision keys instead of
//! deriving them, but the wire protocol is identical.
//!
//! `PROCHLO_SHUFFLE_THREADS` selects the analyzer worker threads; the split
//! topology shuffles inline on the trusted backend. The asserted histogram
//! must not depend on the thread count.
//!
//! Run with: `cargo run -p prochlo-examples --release --bin fabric_demo`

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, ReportSink, Response, NONCE_LEN,
};
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::exec::mix_seed;
use prochlo_core::{
    canonicalize, AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec,
    ShardedDeployment, Topology,
};
use prochlo_crypto::util::{from_hex, to_hex};
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, sum_epoch_stats, ChannelId, Peer, RemoteSplitPipeline,
    RouterConfig, ShardRouter, Stage, TcpTransportBuilder, ToOne, Transport, TypedChannel,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Every process derives the same deployment (hence the same keys) from
/// this seed; the collector shards share it and partition ingest by crowd.
const BUILD_SEED: u64 = 0x0fab_de40;
/// Base seed for the per-shard epoch seeds (`mix_seed(EPOCH_SEED, shard)`).
const EPOCH_SEED: u64 = 0x1717;
const NUM_SHARDS: u16 = 2;
/// Labels chosen so the crowd-prefix routing populates both shards; the
/// rare label stays under the default crowd threshold and must vanish.
const WORKLOAD: [(&str, u64); 4] = [("left", 80), ("right", 70), ("also-right", 40), ("rare", 4)];

const LOCALHOST: &str = "127.0.0.1:0";

fn build_deployment() -> Deployment {
    Deployment::builder()
        .shuffler(Topology::Split)
        .payload_size(32)
        .build(&mut StdRng::seed_from_u64(BUILD_SEED))
}

/// The epoch spec a shard collector derives for its first (and only)
/// epoch: index 0 under the shard's configured seed. The driver's
/// in-process reference must mirror this exactly.
fn shard_spec(shard: u16, engine: &EngineConfig) -> EpochSpec {
    EpochSpec::new(0, mix_seed(EPOCH_SEED, u64::from(shard))).with_engine(engine.clone())
}

fn parse_addr(s: &str) -> SocketAddr {
    s.parse().unwrap_or_else(|e| {
        eprintln!("error: bad address {s:?}: {e}");
        std::process::exit(2);
    })
}

/// Advertise an address to the parent on stdout. The parent blocks on this
/// line, so flush — a buffered line is a deadlocked topology.
fn advertise(kind: &str, addr: SocketAddr) {
    println!("{kind} {addr}");
    std::io::stdout().flush().expect("flush stdout");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] => drive(),
        ["s1", "--s2", s2] => run_shuffler_one(parse_addr(s2)),
        ["s2"] => run_shuffler_two(),
        ["shard", index, "--s1", s1, "--s2", s2] => {
            let index: u16 = index.parse().expect("shard index");
            run_shard(index, parse_addr(s1), parse_addr(s2));
        }
        _ => {
            eprintln!("usage: fabric_demo [s1 --s2 ADDR | s2 | shard N --s1 ADDR --s2 ADDR]");
            std::process::exit(2);
        }
    }
}

/// Shuffler 2: accept links from Shuffler 1 and every shard, then serve
/// the record stream until Shuffler 1's done marker.
fn run_shuffler_two() {
    let deployment = build_deployment();
    let two = &deployment.role().as_split().expect("split topology").two;
    let mut builder = TcpTransportBuilder::new(Peer::ShufflerTwo);
    let addr = builder.listen(parse_addr(LOCALHOST)).expect("listen");
    advertise("FABRIC", addr);
    builder
        .accept(1 + usize::from(NUM_SHARDS))
        .expect("accept s1 + shards");
    let transport = builder.build().expect("transport pump");
    serve_shuffler_two(&transport, two).expect("serve shuffler two");
}

/// Shuffler 1: dial Shuffler 2, accept every shard, then serve shard
/// batch streams in shard order.
fn run_shuffler_one(s2: SocketAddr) {
    let deployment = build_deployment();
    let split = deployment.role().as_split().expect("split topology");
    let one = split.one.clone();
    let elgamal = *split.two.elgamal_public();
    let mut builder = TcpTransportBuilder::new(Peer::ShufflerOne);
    let addr = builder.listen(parse_addr(LOCALHOST)).expect("listen");
    builder.connect(Peer::ShufflerTwo, s2).expect("dial s2");
    advertise("FABRIC", addr);
    builder
        .accept(usize::from(NUM_SHARDS))
        .expect("accept shards");
    let transport = builder.build().expect("transport pump");
    serve_shuffler_one(&transport, &one, &elgamal, NUM_SHARDS).expect("serve shuffler one");
}

/// A collector shard: a full `Collector` service whose epochs run through
/// the wire shufflers via `RemoteSplitPipeline`. Waits for the driver's
/// `shutdown` line, cuts the final epoch, and answers on stdout with its
/// database rows and summed stage statistics.
fn run_shard(index: u16, s1: SocketAddr, s2: SocketAddr) {
    let engine = EngineConfig::default();
    let deployment = build_deployment();
    let mut builder = TcpTransportBuilder::new(Peer::Shard(index));
    builder.connect(Peer::ShufflerOne, s1).expect("dial s1");
    builder.connect(Peer::ShufflerTwo, s2).expect("dial s2");
    let transport: Arc<dyn Transport> = Arc::new(builder.build().expect("transport pump"));

    let pipeline =
        RemoteSplitPipeline::new(Arc::clone(&transport), index, deployment.analyzer().clone());
    // Single-epoch configuration: the epoch is cut by the shutdown drain,
    // so the whole shard run is a pure function of the seed.
    let collector = Collector::start_with_pipeline(
        Box::new(pipeline),
        CollectorConfig {
            worker_threads: 2,
            max_epoch_reports: 1 << 20,
            epoch_deadline: Duration::from_secs(600),
            seed: mix_seed(EPOCH_SEED, u64::from(index)),
            engine: Some(engine),
            ..CollectorConfig::default()
        },
    )
    .expect("start collector");
    advertise("COLLECTOR", collector.local_addr());

    // Block until the driver says the workload is fully routed. End of
    // file means the driver is gone: exit, releasing Shuffler 1 with a
    // closed link, rather than wait forever.
    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        Ok(_) if line.trim_end() == "shutdown" => {}
        Ok(0) => {
            eprintln!("shard {index}: stdin closed before `shutdown`");
            std::process::exit(1);
        }
        other => {
            eprintln!("shard {index}: expected `shutdown` on stdin, got {line:?} ({other:?})");
            std::process::exit(1);
        }
    }
    // Draining cuts the final epoch, which runs through the shufflers —
    // this blocks until Shuffler 1 reaches this shard's turn.
    let summary = collector.shutdown();

    // No more epochs can be cut; release Shuffler 1 from this shard.
    TypedChannel::<ToOne>::new(
        transport.as_ref(),
        ChannelId::new(Peer::ShufflerOne, Stage::Batch),
    )
    .send(&ToOne::Done)
    .expect("send done");

    let database = summary.merged_database();
    let epoch_stats: Vec<_> = summary
        .epochs
        .iter()
        .filter_map(|epoch| epoch.outcome.as_ref().ok())
        .map(|report| report.shuffler_stats.clone())
        .collect();
    let stats = sum_epoch_stats(&epoch_stats);
    let mut out = std::io::stdout().lock();
    for row in database.rows() {
        writeln!(out, "ROW {}", to_hex(row)).expect("write row");
    }
    writeln!(
        out,
        "STATS {} {} {} {} {}",
        stats.received,
        stats.forwarded,
        stats.crowds_seen,
        stats.crowds_forwarded,
        stats.dropped_threshold,
    )
    .expect("write stats");
    out.flush().expect("flush stdout");
}

/// The stage counters a shard reports and the driver sums, in `STATS`
/// line order: received, forwarded, crowds seen, crowds forwarded,
/// dropped by threshold.
type StageTotals = [usize; 5];

struct Role {
    name: &'static str,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Role {
    fn spawn(name: &'static str, args: &[String]) -> Self {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        Self {
            name,
            child,
            stdin,
            stdout,
        }
    }

    /// Reads the child's next stdout line, without its line ending.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => panic!("{}: stdout closed", self.name),
            Ok(_) => line.trim_end().to_string(),
            Err(e) => panic!("{}: read stdout: {e}", self.name),
        }
    }

    /// Reads the next advertised `<kind> <addr>` line from the child.
    fn read_addr(&mut self, kind: &str) -> SocketAddr {
        let line = self.read_line();
        let addr = line
            .strip_prefix(kind)
            .and_then(|rest| rest.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{}: expected `{kind} <addr>`, got {line:?}", self.name));
        parse_addr(addr)
    }

    /// Tells a shard to shut down and reads its answer: the database rows,
    /// then the stage counters.
    fn shut_down_shard(&mut self) -> (Vec<Vec<u8>>, StageTotals) {
        writeln!(self.stdin, "shutdown")
            .and_then(|()| self.stdin.flush())
            .unwrap_or_else(|e| panic!("{}: write stdin: {e}", self.name));
        let mut rows = Vec::new();
        loop {
            let line = self.read_line();
            if let Some(row) = line.strip_prefix("ROW ") {
                let row = from_hex(row);
                rows.push(row.unwrap_or_else(|| panic!("{}: bad row {line:?}", self.name)));
            } else if let Some(counts) = line.strip_prefix("STATS ") {
                let counts: Option<Vec<usize>> =
                    counts.split(' ').map(|count| count.parse().ok()).collect();
                let totals = counts.and_then(|counts| StageTotals::try_from(counts).ok());
                return (
                    rows,
                    totals.unwrap_or_else(|| panic!("{}: bad stats {line:?}", self.name)),
                );
            } else {
                panic!("{}: expected `ROW` or `STATS`, got {line:?}", self.name);
            }
        }
    }

    fn wait(mut self) {
        let status = self.child.wait().expect("wait child");
        assert!(status.success(), "{} exited with {status}", self.name);
    }
}

/// The driver: spawn the topology, route the workload, collect summaries,
/// and assert byte-identity against the in-process reference.
fn drive() {
    let engine = EngineConfig::default();
    println!(
        "fabric demo: {NUM_SHARDS} collector shards, split shufflers as \
         separate processes (analyzer threads: {})",
        prochlo_core::exec::resolve_threads(engine.num_threads).expect("threads"),
    );

    // Spawn the shuffler pair, then the shards (which dial the shufflers).
    let mut s2 = Role::spawn("s2", &[String::from("s2")]);
    let s2_addr = s2.read_addr("FABRIC");
    let mut s1 = Role::spawn(
        "s1",
        &["s1", "--s2", &s2_addr.to_string()].map(String::from),
    );
    let s1_addr = s1.read_addr("FABRIC");

    let mut shards = Vec::new();
    let mut collector_addrs = Vec::new();
    for index in 0..NUM_SHARDS {
        let mut shard = Role::spawn(
            "shard",
            &[
                "shard",
                &index.to_string(),
                "--s1",
                &s1_addr.to_string(),
                "--s2",
                &s2_addr.to_string(),
            ]
            .map(String::from),
        );
        collector_addrs.push(shard.read_addr("COLLECTOR"));
        shards.push(shard);
    }

    // Phase A: the shard router fronts the collectors; clients submit
    // routed reports and never learn the shard layout.
    let sink_addrs = collector_addrs.clone();
    let router = ShardRouter::start(
        RouterConfig::default(),
        Box::new(move || {
            sink_addrs
                .iter()
                .map(|&addr| {
                    CollectorClient::connect(addr)
                        .map(|client| Box::new(client) as Box<dyn ReportSink + Send>)
                })
                .collect()
        }),
    )
    .expect("start router");

    // Encode and submit the workload. Partitions are kept for the
    // in-process reference, pre-sorted to the canonical epoch order.
    let deployment = build_deployment();
    let encoder = deployment.encoder();
    let mut rng = StdRng::seed_from_u64(0xc11e);
    let mut partitions: Vec<Vec<ClientReport>> = vec![Vec::new(); usize::from(NUM_SHARDS)];
    let mut client = CollectorClient::connect(router.local_addr()).expect("dial router");
    let mut submitted = 0u64;
    let mut client_index = 0u64;
    for (value, count) in WORKLOAD {
        let label = value.as_bytes();
        let prefix = prochlo_core::crowd_prefix(label);
        let shard = ShardedDeployment::shard_index_from_prefix(prefix, usize::from(NUM_SHARDS));
        for _ in 0..count {
            let report = encoder
                .encode_plain(label, CrowdStrategy::Blind(label), client_index, &mut rng)
                .expect("encode");
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            let verdict = client
                .submit_routed(prefix, &nonce, &report.outer.to_bytes())
                .expect("submit");
            assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
            partitions[shard].push(report);
            submitted += 1;
            client_index += 1;
        }
    }
    drop(client);
    assert!(
        partitions.iter().all(|p| !p.is_empty()),
        "workload must populate every shard; pick different labels"
    );

    let router_stats = router.shutdown();
    println!(
        "router: {} reports routed across {NUM_SHARDS} shards \
         ({} forward failures)",
        router_stats.routed, router_stats.forward_failures,
    );
    assert_eq!(router_stats.routed, submitted);
    assert_eq!(router_stats.forward_failures, 0);

    // Each shard collector is still live: ask it for its telemetry
    // snapshot over the wire (the STATS request) and check the obs
    // counters agree with what the driver routed to it.
    let mut obs_accepted = 0u64;
    for (index, &addr) in collector_addrs.iter().enumerate() {
        let mut stats_client = CollectorClient::connect(addr).expect("dial shard for stats");
        let entries = stats_client.stats().expect("shard STATS");
        let get = |name: &str| {
            entries
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let accepted = get("collector.ingest.accepted");
        println!(
            "shard {index} live obs: {} accepted, {} submit spans, \
             {} metrics exported",
            accepted,
            get("collector.ingest.submit.count"),
            entries.len(),
        );
        obs_accepted += accepted as u64;
    }
    // Shard processes inherit PROCHLO_OBS from this environment, so the
    // driver's own enabled flag tells us whether their counters ran.
    if prochlo_obs::global().is_enabled() {
        assert_eq!(
            obs_accepted, submitted,
            "wire STATS counters must account for every routed report"
        );
    }

    // Phase B: shut the shards down sequentially in shard order — the same
    // order Shuffler 1 serves them — and merge their databases in order.
    let mut merged = AnalyzerDatabase::default();
    let mut totals: StageTotals = [0; 5];
    for mut shard in shards {
        let (rows, counts) = shard.shut_down_shard();
        merged.merge_from(&AnalyzerDatabase::from_rows(rows));
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
        shard.wait();
    }
    s1.wait();
    s2.wait();
    let [received, forwarded, crowds_seen, crowds_forwarded, dropped_threshold] = totals;

    // The in-process reference: the same partitions, canonicalized, under
    // the exact epoch spec each shard collector derived (index 0, the
    // shard's configured seed). Byte-identity is the acceptance bar.
    let mut reference = AnalyzerDatabase::default();
    for (index, partition) in partitions.iter_mut().enumerate() {
        canonicalize(partition);
        let spec = shard_spec(index as u16, &engine);
        reference.merge_from(
            &deployment
                .ingest(&spec, partition)
                .expect("reference ingest")
                .database,
        );
    }
    let wire_hex = to_hex(&merged.canonical_histogram_bytes());
    assert_eq!(
        merged.canonical_histogram_bytes(),
        reference.canonical_histogram_bytes(),
        "wire topology must reproduce the in-process run byte for byte"
    );
    assert!(
        merged.rows().eq(reference.rows()),
        "wire topology must reproduce the in-process row order"
    );

    println!("\nmerged analyzer database (wire == in-process, byte for byte):");
    for (value, _) in WORKLOAD {
        println!("  {:>12}: {}", value, merged.count(value.as_bytes()));
    }
    println!(
        "totals: {received} received -> {forwarded} forwarded, {crowds_forwarded} crowds \
         kept of {crowds_seen} ({dropped_threshold} dropped by threshold)",
    );
    println!("canonical histogram: {wire_hex}");

    // The driver's own telemetry: router throughput (the driver holds no
    // fabric link). The shard per-epoch detail was already fetched live
    // via the STATS request above, so no ad-hoc printing is needed here.
    println!("\ndriver observability snapshot:");
    print!("{}", prochlo_obs::snapshot().render_table());
    println!("PASS: distributed run matches the in-process reference");
}
