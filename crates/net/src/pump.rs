//! One shared demux thread multiplexing many framed streams.
//!
//! [`FramePump`] replaces the thread-per-peer blocking read loops services
//! grew before the reactor existed: it owns one [`Reactor`] and one event
//! thread, drains complete frames off every registered stream, and hands
//! them to a single callback tagged with the caller's stream id. Terminal
//! conditions (peer close, framing violation, I/O error) are delivered
//! exactly once per stream, after which the stream is dropped from the
//! poll set. Dropping the pump stops and joins the thread.
//!
//! Frames are handed over by value with one buffer each: a small frame is
//! copied out of the connection's read chunk, a frame longer than the chunk
//! arrives in the exactly-sized buffer it was read into and moves to the
//! callback as it is. So a fabric link that carries a multi-MiB batch keeps
//! no batch-sized read buffer afterwards — its standing memory stays near
//! two read chunks however large the frames it has carried.
use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use prochlo_core::framing::{FrameError, FramePolicy};

use crate::conn::{Conn, ConnStatus};
use crate::reactor::{Interest, Reactor, Token, Waker};

/// What the pump observed on one stream.
#[derive(Debug)]
pub enum PumpEvent {
    /// One complete inbound frame body.
    Frame(Vec<u8>),
    /// The peer closed cleanly; no further events for this stream.
    Closed,
    /// The stream failed (I/O or framing violation); no further events for
    /// this stream.
    Failed(FrameError),
}

/// Handle to the demux thread; dropping it stops and joins the thread.
pub struct FramePump {
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<JoinHandle<()>>,
}

impl FramePump {
    /// Spawns the demux thread over `streams`, each identified by the
    /// caller-chosen `usize` id passed back with every event. Streams are
    /// switched to nonblocking mode here; their write halves (shared fds)
    /// become nonblocking too, so writers must use
    /// [`crate::conn::send_frame`]-style offset loops from then on.
    ///
    /// `on_event` runs on the pump thread; it must not block for long, or
    /// it stalls every multiplexed stream. The thread is named
    /// `pump-<name>`: a `name` of at most 10 bytes stays whole in the
    /// kernel's 15.
    pub fn spawn<F>(
        name: &str,
        policy: FramePolicy,
        streams: Vec<(usize, TcpStream)>,
        mut on_event: F,
    ) -> io::Result<Self>
    where
        F: FnMut(usize, PumpEvent) + Send + 'static,
    {
        let mut reactor = Reactor::new()?;
        let mut conns: BTreeMap<Token, (usize, Conn)> = BTreeMap::new();
        for (id, stream) in streams {
            let conn = Conn::new(stream, policy)?;
            let token = reactor.register(conn.stream(), Interest::READ);
            conns.insert(token, (id, conn));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let waker = reactor.waker();
        let stop_flag = Arc::clone(&stop);
        #[expect(clippy::disallowed_methods, reason = "the pump's one reader thread")]
        let handle = std::thread::Builder::new()
            .name(format!("pump-{name}"))
            .spawn(move || {
                let mut events = Vec::new();
                while !stop_flag.load(Ordering::Acquire) && !conns.is_empty() {
                    if reactor.poll(&mut events, None).is_err() {
                        // A failed poll turn cannot be attributed to one
                        // stream; fail everything and stop.
                        for (_, (id, _)) in std::mem::take(&mut conns) {
                            on_event(
                                id,
                                PumpEvent::Failed(FrameError::Protocol("reactor poll failed")),
                            );
                        }
                        break;
                    }
                    for event in &events {
                        let Some((id, conn)) = conns.get_mut(&event.token) else {
                            continue;
                        };
                        let id = *id;
                        if !event.readable {
                            continue;
                        }
                        let outcome = drain(conn, |body| on_event(id, PumpEvent::Frame(body)));
                        match outcome {
                            Ok(ConnStatus::Open) => {}
                            Ok(ConnStatus::PeerClosed) => {
                                reactor.deregister(event.token);
                                conns.remove(&event.token);
                                on_event(id, PumpEvent::Closed);
                            }
                            Err(e) => {
                                reactor.deregister(event.token);
                                conns.remove(&event.token);
                                on_event(id, PumpEvent::Failed(e));
                            }
                        }
                    }
                }
            })?;
        Ok(Self {
            stop,
            waker,
            handle: Some(handle),
        })
    }
}

/// One readable event on `conn`: reads what the socket holds, then hands
/// every completed frame to `deliver` by value.
fn drain(conn: &mut Conn, mut deliver: impl FnMut(Vec<u8>)) -> Result<ConnStatus, FrameError> {
    let status = conn.on_readable()?;
    while let Some(body) = conn.take_frame()? {
        deliver(body);
    }
    Ok(status)
}

impl Drop for FramePump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::send_frame;
    use parking_lot::Mutex;
    use prochlo_core::framing::FrameWrite;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    const POLICY: FramePolicy = FramePolicy::new(1, 1024);

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn frames_from_many_streams_demux_with_their_ids() {
        let (mut c1, s1) = pair();
        let (mut c2, s2) = pair();
        #[expect(clippy::type_complexity, reason = "the sink's (stream id, frame) log")]
        let seen: Arc<Mutex<Vec<(usize, Vec<u8>)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let closed: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let closed_sink = Arc::clone(&closed);
        let pump =
            FramePump::spawn(
                "test",
                POLICY,
                vec![(7, s1), (9, s2)],
                move |id, event| match event {
                    PumpEvent::Frame(body) => sink.lock().push((id, body)),
                    PumpEvent::Closed => closed_sink.lock().push(id),
                    PumpEvent::Failed(e) => panic!("stream {id} failed: {e}"),
                },
            )
            .expect("pump");

        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"from one").expect("frame");
        c1.write_all(&wire).expect("write");
        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"from two").expect("frame");
        c2.write_all(&wire).expect("write");
        drop(c1);
        drop(c2);

        let deadline = Instant::now() + Duration::from_secs(10);
        while closed.lock().len() < 2 {
            assert!(Instant::now() < deadline, "streams never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(pump);
        let mut got = seen.lock().clone();
        got.sort();
        assert_eq!(got, [(7, b"from one".to_vec()), (9, b"from two".to_vec())]);
    }

    #[test]
    fn framing_violation_surfaces_as_failed() {
        let (mut client, server) = pair();
        let failures: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&failures);
        let _pump = FramePump::spawn("test-fail", POLICY, vec![(1, server)], move |id, event| {
            if matches!(event, PumpEvent::Failed(FrameError::TooLarge { .. })) {
                sink.lock().push(id);
            }
        })
        .expect("pump");
        client
            .write_all(&(1u32 << 30).to_le_bytes())
            .expect("write oversized announcement");
        let deadline = Instant::now() + Duration::from_secs(10);
        while failures.lock().is_empty() {
            assert!(Instant::now() < deadline, "violation never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*failures.lock(), [1]);
    }

    #[test]
    fn a_large_frame_leaves_no_large_read_buffer_behind() {
        let (client, server) = pair();
        let policy = FramePolicy::new(1, 8 << 20);
        let mut conn = Conn::new(server, policy).expect("conn");
        let body: Vec<u8> = (0..4u32 << 20).map(|i| i as u8).collect();
        let expected = body.clone();
        let writer = std::thread::spawn(move || {
            client.set_nonblocking(true).expect("nonblocking");
            send_frame(&client, &policy, [&[], &body]).expect("send");
            send_frame(&client, &policy, [&[], b"after"]).expect("send");
            client
        });
        let mut frames = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while frames.len() < 2 {
            assert!(Instant::now() < deadline, "frames never arrived");
            drain(&mut conn, |body| frames.push(body)).expect("drain");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _client = writer.join().expect("join");
        // The frame leaves in the buffer it was read into; the read room
        // left behind is bounded by `framing`'s own tests at READ_CHUNK.
        assert_eq!(frames[0], expected);
        assert_eq!(frames[0].capacity(), expected.len(), "one exact buffer");
        assert_eq!(frames[1], b"after");
    }

    #[test]
    fn dropping_the_pump_joins_the_thread() {
        let (_client, server) = pair();
        let pump =
            FramePump::spawn("test-drop", POLICY, vec![(1, server)], |_, _| {}).expect("pump");
        drop(pump); // must not hang despite the idle stream
    }
}
