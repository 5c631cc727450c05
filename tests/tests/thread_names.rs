//! The kernel keeps 15 bytes of a thread's name, and `top`, `perf` and
//! `/proc/<pid>/task/*/comm` show only those: the serving loops, the epoch
//! thread and the fabric's frame pump are told apart there only if their
//! names fit whole, up to a two-digit loop index.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::{Duration, Instant};

use prochlo_collector::{Collector, CollectorClient, CollectorConfig, ReportSink};
use prochlo_core::Deployment;
use prochlo_fabric::{Peer, RouterConfig, ShardRouter, TcpTransportBuilder};
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

#[test]
fn serving_loops_the_epoch_thread_and_the_pump_keep_their_whole_names() {
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
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut builder = TcpTransportBuilder::new(Peer::Shard(0));
    builder
        .connect(Peer::ShufflerOne, listener.local_addr().expect("address"))
        .expect("dial");
    let transport = builder.build().expect("start the pump");

    let loops = (0..LOOPS).flat_map(|i| [format!("ingest-loop-{i}"), format!("router-loop-{i}")]);
    let expected: Vec<String> = loops
        .chain(["collector-epoch".into(), "pump-fabric".into()])
        .collect();
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

    drop(transport);
    router.shutdown();
    collector.shutdown();
}
