//! The kernel keeps 15 bytes of a thread's name, and `top`, `perf` and
//! `/proc/<pid>/task/*/comm` show only those: the serving loops and the
//! epoch thread are told apart there only if their names fit whole, up to
//! a two-digit loop index. The fabric's TCP transport reads on its callers'
//! threads and starts none of its own.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use prochlo_collector::{Collector, CollectorClient, CollectorConfig, ReportSink};
use prochlo_core::Deployment;
use prochlo_fabric::{
    ChannelId, Peer, RouterConfig, ShardRouter, Stage, TcpTransportBuilder, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every thread name of this process as the kernel holds it.
fn kernel_thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list tasks")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Every thread id of this process.
fn kernel_thread_ids() -> Vec<String> {
    let mut ids: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list tasks")
        .filter_map(|task| Some(task.ok()?.file_name().to_string_lossy().into_owned()))
        .collect();
    ids.sort();
    ids
}

/// Builds a connected pair of `TcpTransport`s, makes one round trip, and
/// returns both ends still open.
fn one_tcp_round_trip() -> impl Sized {
    let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerOne);
    let addr = acceptor
        .listen("127.0.0.1:0".parse().expect("address"))
        .expect("listen");
    let mut dialer = TcpTransportBuilder::new(Peer::Shard(0));
    dialer.connect(Peer::ShufflerOne, addr).expect("dial");
    acceptor.accept(1).expect("accept");
    let shard = dialer.build().expect("build");
    let shuffler = acceptor.build().expect("build");
    shard
        .send(Peer::ShufflerOne, Stage::Batch, b"batch")
        .expect("send");
    let batch = shuffler
        .recv(ChannelId::new(Peer::Shard(0), Stage::Batch))
        .expect("recv");
    shuffler
        .send(Peer::Shard(0), Stage::Items, &batch)
        .expect("answer");
    let answer = shard
        .recv(ChannelId::new(Peer::ShufflerOne, Stage::Items))
        .expect("recv answer");
    assert_eq!(answer, b"batch");
    (shard, shuffler)
}

/// One test, so that no other test's threads come and go while the
/// transport's are counted.
#[test]
fn serving_loops_keep_their_whole_names_and_a_tcp_transport_starts_no_thread() {
    let before = kernel_thread_ids();
    let transports = one_tcp_round_trip();
    assert_eq!(
        kernel_thread_ids(),
        before,
        "the transport started a thread"
    );
    drop(transports);

    // Twelve loops a server, so the loop indices reach two digits.
    const LOOPS: usize = 12;
    let mut rng = StdRng::seed_from_u64(3);
    let deployment = Deployment::builder().payload_size(32).build(&mut rng);
    let collector = Collector::start(
        deployment,
        CollectorConfig {
            worker_threads: LOOPS,
            epoch_deadline: Duration::from_millis(50),
            ..CollectorConfig::default()
        },
    )
    .expect("start collector");
    let shard = collector.local_addr();
    let router = ShardRouter::start(
        RouterConfig {
            worker_threads: LOOPS,
            ..RouterConfig::default()
        },
        Box::new(move || {
            let sink = CollectorClient::connect(shard)?;
            Ok(vec![Box::new(sink) as Box<dyn ReportSink + Send>])
        }),
    )
    .expect("start router");

    let loops = (0..LOOPS).flat_map(|i| [format!("ingest-loop-{i}"), format!("router-loop-{i}")]);
    let expected: Vec<String> = loops.chain(["collector-epoch".into()]).collect();
    // A new thread sets its own name once it runs, so the names show up
    // shortly after the start calls return.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut names = kernel_thread_names();
    while !expected.iter().all(|name| names.contains(name)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        names = kernel_thread_names();
    }
    for name in &expected {
        assert!(names.contains(name), "{name:?} not in {names:?}");
    }

    router.shutdown();
    collector.shutdown();
}
