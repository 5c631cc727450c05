//! Batch-sized copies per fabric hop, counted with a process-wide counting
//! allocator: one 1 MiB typed message crosses a `TcpTransport` pair and a
//! loopback hub, and every allocation of at least half the payload between
//! the `send` and the returned `recv` is counted. Two are unavoidable — the
//! sender's encoding and the receiver's frame buffer — and two is the pin.
//! Building an envelope around a copy of the payload, a frame around a copy
//! of the envelope, growing an encoding by doubling, growing a read buffer
//! to frame size or copying a received body out of it each add at least one.
//!
//! Counted process-wide, not per thread, because the TCP receive side runs
//! on the fabric's pump thread; the tests take one lock so that only one
//! measurement runs at a time in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use prochlo_fabric::loopback::LoopbackHub;
use prochlo_fabric::{
    BatchToOne, ChannelId, Peer, Stage, TcpTransportBuilder, Transport, TypedChannel,
};

const PAYLOAD: usize = 1 << 20;
const REPORT: usize = 4 << 10;

/// Allocations (and reallocations) of at least `PAYLOAD / 2` bytes so far.
static LARGE: AtomicUsize = AtomicUsize::new(0);
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Delegates every call to [`System`] and counts the large blocks.
struct Counting;

fn record(size: usize) {
    if size >= PAYLOAD / 2 {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around each call is
// one atomic add and never allocates. This is the only way to observe heap
// use from inside the process, and it lives in its own test binary so no
// other test or program runs under it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A 1 MiB batch of 4 KiB reports, each a different byte pattern.
fn batch() -> BatchToOne {
    BatchToOne {
        shard: 0,
        epoch_index: 7,
        s1_seed: 1,
        s2_seed: 2,
        reports: (0..PAYLOAD / REPORT)
            .map(|i| vec![i as u8; REPORT])
            .collect(),
    }
}

/// Sends `batch` from `sender` to `receiver` on the batch stage and returns
/// how many large allocations the hop took.
fn large_allocations_per_hop(sender: &dyn Transport, receiver: &dyn Transport) -> usize {
    let batch = batch();
    let out =
        TypedChannel::<BatchToOne>::new(sender, ChannelId::new(receiver.identity(), Stage::Batch));
    let into =
        TypedChannel::<BatchToOne>::new(receiver, ChannelId::new(sender.identity(), Stage::Batch));
    let before = LARGE.load(Ordering::Relaxed);
    out.send(&batch).expect("send");
    let received = into.recv().expect("recv");
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
