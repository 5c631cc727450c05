//! Heap use of the fabric, counted with a process-wide counting allocator.
//!
//! * Batch-sized copies per hop: one 1 MiB typed message crosses a
//!   `TcpTransport` pair and a loopback hub, and every allocation of at
//!   least half the payload between the `send` and the returned `recv` is
//!   counted. Two are unavoidable — the sender's encoding and the
//!   receiver's frame buffer — and two is the pin. Building an envelope
//!   around a copy of the payload, a frame around a copy of the envelope,
//!   growing an encoding by doubling, growing a read buffer to frame size
//!   or copying a received body out of it each add at least one.
//! * Hostile frames: a 1 MiB frame whose element count claims more than
//!   its bytes can hold is refused before anything is reserved for it,
//!   and no decode of such a frame makes an allocation larger than 8 MiB.
//! * One split epoch: 4 096 blinded reports through `RemoteSplitPipeline`
//!   and both shuffler services on a loopback hub, with the peak live heap
//!   above the epoch's start and the allocation count pinned per report.
//!   A stage that keeps a second copy of the batch to translate it between
//!   its wire form and its working form shows here.
//!
//! Counted process-wide, not per thread, because a hop's receiver runs on
//! its own thread while the sender sends, and the shufflers on theirs; the
//! tests take one lock so that only one measurement runs at a time in this
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use prochlo_collector::EpochPipeline;
use prochlo_core::encoder::CrowdStrategy;
use prochlo_core::shuffler::split::BlindedRecord;
use prochlo_core::shuffler::ShufflerStats;
use prochlo_core::{
    ClientReport, Deployment, EngineConfig, EpochSpec, ShuffleBackend, ShufflerConfig, Topology,
};
use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_fabric::loopback::LoopbackHub;
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, BatchToOne, BatchToTwo, ChannelId, FabricError,
    ItemsBatch, Peer, RemoteSplitPipeline, Stage, TcpTransportBuilder, Transport, TypedChannel,
    WireMessage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAYLOAD: usize = 1 << 20;
const REPORT: usize = 4 << 10;

/// Allocations (and reallocations) of at least `PAYLOAD / 2` bytes so far.
static LARGE: AtomicUsize = AtomicUsize::new(0);
/// Allocations and reallocations of any size so far.
static COUNT: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has read since the last [`reset_peaks`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The largest single allocation since the last [`reset_peaks`].
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Delegates every call to [`System`] and keeps the books above.
struct Counting;

fn grow(size: usize) {
    if size >= PAYLOAD / 2 {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
    COUNT.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

/// Starts a measurement: the peak restarts at the current live heap.
fn reset_peaks() {
    LARGEST.store(0, Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around each call is a
// few atomic operations and never allocates. This is the only way to
// observe heap use from inside the process, and it lives in its own test
// binary so no other test or program runs under it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving and the old one leaving, which
        // is what a moving reallocation briefly holds.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A 1 MiB batch of 4 KiB reports, each a different byte pattern.
fn batch() -> BatchToOne {
    // The ephemeral key and the nonce take 44 of each report's bytes.
    let sealed = REPORT - 44;
    BatchToOne {
        shard: 0,
        epoch_index: 7,
        s1_seed: 1,
        s2_seed: 2,
        reports: (0..PAYLOAD / REPORT)
            .map(|i| HybridCiphertext {
                ephemeral: [i as u8; 32],
                nonce: [i as u8; 12],
                sealed: vec![i as u8; sealed],
            })
            .collect(),
    }
}

/// Sends `batch` from `sender` to `receiver` on the batch stage and returns
/// how many large allocations the hop took. The receiver reads on a scoped
/// thread while the sender writes, so the hop completes whatever the
/// socket buffers hold.
fn large_allocations_per_hop(sender: &dyn Transport, receiver: &dyn Transport) -> usize {
    let batch = batch();
    let out =
        TypedChannel::<BatchToOne>::new(sender, ChannelId::new(receiver.identity(), Stage::Batch));
    let into =
        TypedChannel::<BatchToOne>::new(receiver, ChannelId::new(sender.identity(), Stage::Batch));
    let before = LARGE.load(Ordering::Relaxed);
    let received = std::thread::scope(|scope| {
        let receiving = scope.spawn(|| into.recv().expect("recv"));
        out.send(&batch).expect("send");
        receiving.join().expect("receiver")
    });
    let counted = LARGE.load(Ordering::Relaxed) - before;
    assert_eq!(received, batch);
    counted
}

#[test]
fn a_tcp_hop_costs_the_encoding_and_the_received_frame() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerOne);
    let addr = acceptor
        .listen("127.0.0.1:0".parse::<SocketAddr>().expect("addr"))
        .expect("listen");
    let mut dialer = TcpTransportBuilder::new(Peer::Shard(0));
    dialer.connect(Peer::ShufflerOne, addr).expect("connect");
    acceptor.accept(1).expect("accept");
    let shard = dialer.build().expect("build");
    let shuffler = acceptor.build().expect("build");
    let counted = large_allocations_per_hop(&shard, &shuffler);
    eprintln!(
        "tcp hop: {counted} allocations of at least {} bytes",
        PAYLOAD / 2
    );
    assert!(
        counted <= 2,
        "a 1 MiB TCP hop took {counted} large allocations"
    );
}

#[test]
fn a_loopback_hop_costs_the_encoding_and_the_queued_frame() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let hub = LoopbackHub::new();
    let shard = hub.endpoint(Peer::Shard(0));
    let shuffler = hub.endpoint(Peer::ShufflerOne);
    let counted = large_allocations_per_hop(&shard, &shuffler);
    eprintln!(
        "loopback hop: {counted} allocations of at least {} bytes",
        PAYLOAD / 2
    );
    assert!(
        counted <= 2,
        "a 1 MiB loopback hop took {counted} large allocations"
    );
}

/// A 1 MiB frame of `message`'s encoding (which must end in its element
/// count, empty) padded with zero bytes, claiming `count` elements.
fn hostile_frame(message: Vec<u8>, count: u32) -> Vec<u8> {
    let mut frame = message;
    let at = frame.len() - 4;
    frame[at..].copy_from_slice(&count.to_le_bytes());
    frame.resize(PAYLOAD, 0);
    frame
}

/// Decodes `frame` with `decode` and returns the result's error, if any,
/// with the largest single allocation the decode made.
fn decode_hostile(
    frame: &[u8],
    decode: impl Fn(&[u8]) -> Result<(), FabricError>,
) -> (Option<String>, usize) {
    reset_peaks();
    let result = decode(frame);
    (
        result.err().map(|e| e.to_string()),
        LARGEST.load(Ordering::Relaxed),
    )
}

#[test]
fn hostile_counts_reserve_nothing_before_the_check() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Each message's empty encoding, the smallest encoded element behind
    // its count, and the refusal an over-claiming count must meet.
    type Decode = fn(&[u8]) -> Result<(), FabricError>;
    let messages: [(&str, Vec<u8>, usize, Decode); 3] = [
        (
            "report",
            BatchToOne::<HybridCiphertext> {
                shard: 0,
                epoch_index: 0,
                s1_seed: 0,
                s2_seed: 0,
                reports: vec![],
            }
            .to_wire(),
            4 + HybridCiphertext::layer_overhead(),
            |bytes| <BatchToOne>::from_wire(bytes).map(drop),
        ),
        (
            "record",
            BatchToTwo::<Vec<u8>> {
                shard: 0,
                epoch_index: 0,
                s2_seed: 0,
                received: 0,
                stage_one: ShufflerStats::default(),
                records: Vec::<BlindedRecord>::new(),
            }
            .to_wire(),
            64 + 4,
            |bytes| <BatchToTwo>::from_wire(bytes).map(drop),
        ),
        (
            "item",
            ItemsBatch::<Vec<u8>> {
                shard: 0,
                epoch_index: 0,
                received: 0,
                stage_one: ShufflerStats::default(),
                stage_two: ShufflerStats::default(),
                items: vec![],
            }
            .to_wire(),
            4,
            |bytes| <ItemsBatch>::from_wire(bytes).map(drop),
        ),
    ];
    for (what, empty, min_len, decode) in messages {
        let remaining = (PAYLOAD - empty.len()) as u32;
        let fits = remaining / min_len as u32;
        for count in [fits + 1, remaining, u32::MAX] {
            let (error, largest) = decode_hostile(&hostile_frame(empty.clone(), count), decode);
            assert_eq!(
                error.as_deref(),
                Some(format!("malformed fabric message: {what} count exceeds message").as_str()),
                "{what} count {count}"
            );
            assert!(
                largest < 4096,
                "a refused {what} count {count} allocated {largest} bytes"
            );
        }
        // A count the bytes can hold, over zero bytes that do not make the
        // elements it claims: whatever the decoder makes of it, it reserves
        // a small multiple of the frame at most.
        let (_, largest) = decode_hostile(&hostile_frame(empty, fits), decode);
        eprintln!("{what}: a {PAYLOAD}-byte frame claiming {fits} allocated at most {largest} bytes at once");
        assert!(
            largest <= 8 << 20,
            "decoding a hostile 1 MiB {what} frame allocated {largest} bytes at once"
        );
    }
}

/// Reports in the pinned epoch, as in `split_fabric`'s epochs.
const EPOCH_REPORTS: usize = 4096;

/// A peak live heap above the epoch's start of at most this many bytes per
/// report. The epoch reads 749; the design that copied each batch into
/// per-report buffers and curve points between its wire form and each
/// stage read 2 003.
const PEAK_BYTES_PER_REPORT: usize = 1200;

/// At most this many allocations per report over the epoch: its reading,
/// 12.07, plus 10 %. The batch-copying design read 18.66.
const ALLOCATIONS_PER_REPORT: f64 = 13.3;

/// `count` blinded reports over a 125-word vocabulary, `split_fabric`'s
/// shape: a 32-byte payload and the word as its crowd.
fn blinded_reports(deployment: &Deployment, count: usize, rng: &mut StdRng) -> Vec<ClientReport> {
    let encoder = deployment.encoder();
    (0..count)
        .map(|i| {
            let word = format!("word-{}", i % 125);
            encoder
                .encode_plain(
                    word.as_bytes(),
                    CrowdStrategy::Blind(word.as_bytes()),
                    i as u64,
                    rng,
                )
                .expect("a short word fits the payload")
        })
        .collect()
}

#[test]
fn one_split_epoch_holds_less_than_a_second_copy_of_its_batch() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(35);
    // Two workers per stage, fixed: the worker count must not follow the
    // environment, or the pins would.
    let threads = 2;
    let deployment = Deployment::builder()
        .shuffler(Topology::Split)
        .config(ShufflerConfig {
            num_threads: threads,
            ..ShufflerConfig::default()
        })
        .payload_size(32)
        .build(&mut rng);
    let split = deployment.role().as_split().expect("split topology");
    let engine = EngineConfig {
        backend: ShuffleBackend::Trusted,
        num_threads: threads,
    };
    let hub = LoopbackHub::new();
    let s1 = hub.endpoint(Peer::ShufflerOne);
    let s2 = hub.endpoint(Peer::ShufflerTwo);
    let shard: Arc<dyn Transport> = Arc::new(hub.endpoint(Peer::Shard(0)));
    let mut pipeline = RemoteSplitPipeline::new(shard, 0, deployment.analyzer().clone());
    let warm_up = blinded_reports(&deployment, 256, &mut rng);
    let batch = blinded_reports(&deployment, EPOCH_REPORTS, &mut rng);

    let (peak, allocations, forwarded) = std::thread::scope(|scope| {
        let one =
            scope.spawn(|| serve_shuffler_one(&s1, &split.one, split.two.elgamal_public(), 1));
        let two = scope.spawn(|| serve_shuffler_two(&s2, &split.two));
        // A first epoch builds everything a service keeps across epochs
        // (comb tables, telemetry handles), so the pinned one measures
        // only what a batch costs.
        let spec = EpochSpec::new(0, 0x35).with_engine(engine.clone());
        pipeline.process(&spec, warm_up).expect("warm-up epoch");

        let spec = EpochSpec::new(1, 0x35).with_engine(engine.clone());
        let start = LIVE.load(Ordering::Relaxed);
        let allocations = COUNT.load(Ordering::Relaxed);
        reset_peaks();
        let report = pipeline.process(&spec, batch).expect("pinned epoch");
        let peak = PEAK.load(Ordering::Relaxed) - start;
        let allocations = COUNT.load(Ordering::Relaxed) - allocations;
        pipeline.finish().expect("finish");
        one.join().expect("shuffler 1").expect("shuffler 1 serves");
        two.join().expect("shuffler 2").expect("shuffler 2 serves");
        (peak, allocations, report.shuffler_stats.forwarded)
    });
    assert!(forwarded > EPOCH_REPORTS / 2, "{forwarded} forwarded");
    let peak_per_report = peak / EPOCH_REPORTS;
    let allocations_per_report = allocations as f64 / EPOCH_REPORTS as f64;
    eprintln!(
        "split epoch of {EPOCH_REPORTS}: peak live heap {peak_per_report} B per report above \
         the start, {allocations_per_report:.2} allocations per report"
    );
    assert!(
        peak_per_report <= PEAK_BYTES_PER_REPORT,
        "one split epoch peaked {peak_per_report} B per report above its start"
    );
    assert!(
        allocations_per_report <= ALLOCATIONS_PER_REPORT,
        "one split epoch made {allocations_per_report:.2} allocations per report"
    );
}
