//! Nonblocking connection state machine: incremental frame reads, buffered
//! partial writes.
//!
//! A `Conn` owns one nonblocking `TcpStream` and carries the two pieces
//! of state an event loop must persist between readiness events: a
//! [`FrameAccumulator`] resuming frame parses across partial reads, and an
//! offset-tracked write buffer resuming flushes across partial writes.
//! The frame layout is exactly the workspace-wide blocking framing
//! ([`FrameWrite`] serializes the outbound frames), so a `Conn` speaks
//! byte-identical wire protocol to the blocking `FrameRead`/`FrameWrite`
//! path it replaces.
//!
//! Every frame leaves through the one frame writer,
//! [`prochlo_core::framing::write_frame_vectored`]: `Conn::queue_body`
//! copies a body into the write buffer once, and [`send_frame`] hands the
//! stack-held header and the caller's bytes to the socket as one vectored
//! write per attempt, with no intermediate frame. Reads keep one `READ_CHUNK` of room; a frame longer than that is
//! read into its own exactly-sized buffer (see [`FrameAccumulator`]) and
//! `Conn::take_frame` hands it over without a copy.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use prochlo_core::framing::{
    write_frame_vectored, FrameAccumulator, FrameError, FramePolicy, FrameWrite,
};

use crate::reactor::wait_writable;

/// How big a chunk one readable event pulls off the socket per `read` call.
/// Also the read room every connection keeps allocated between events, so
/// it is the per-connection memory floor of a serving loop; frames longer
/// than this are assembled outside it.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Result of draining a readable socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnStatus {
    /// The peer may still send more bytes.
    Open,
    /// The peer closed its write side; frames drained before the close are
    /// still delivered, then the connection is done reading.
    PeerClosed,
}

/// Result of flushing the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushStatus {
    /// Everything queued has reached the socket; write interest can drop.
    Drained,
    /// The socket would block with bytes still queued; keep write interest.
    Pending,
}

/// One nonblocking connection: stream + resumable read/write state.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    acc: FrameAccumulator,
    write_policy: FramePolicy,
    write_buf: Vec<u8>,
    write_pos: usize,
}

impl Conn {
    /// Wraps `stream`, switching it to nonblocking mode. `policy` bounds
    /// inbound frames; outbound frames are checked only against the wire
    /// format's own `u32` ceiling, mirroring the blocking protocol writers
    /// (a service must be able to answer with frames larger than the
    /// inbound cap, e.g. stats snapshots).
    pub(crate) fn new(stream: TcpStream, policy: FramePolicy) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            acc: FrameAccumulator::new(policy),
            write_policy: policy.with_max_frame_len(u32::MAX as usize),
            write_buf: Vec::new(),
            write_pos: 0,
        })
    }

    /// The underlying stream (for reactor registration and peer lookup).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads what the socket holds into the frame accumulator, straight
    /// into its buffer (or a large frame's own): one `read` of at least
    /// `READ_CHUNK` at a time until one comes back short. A short read means the socket is drained — the
    /// reactor is level-triggered, so anything that lands afterwards is
    /// reported on the next turn, and no second `read` is spent on
    /// learning `WouldBlock`. Walk the completed frames with
    /// [`Self::next_frame`] afterwards; on [`ConnStatus::PeerClosed`] the
    /// frames received before the close are still there to walk.
    pub(crate) fn on_readable(&mut self) -> Result<ConnStatus, FrameError> {
        loop {
            match self.acc.read_from(&mut self.stream, READ_CHUNK) {
                Ok(0) => return Ok(ConnStatus::PeerClosed),
                Ok(n) if n >= READ_CHUNK => continue,
                Ok(_) => return Ok(ConnStatus::Open),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ConnStatus::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// The next completed frame body, borrowed from the read buffer (valid
    /// until the next [`Self::on_readable`]); `None` once the buffered bytes
    /// hold no further complete frame. Policy violations (oversized
    /// announcement, wrong version) surface as sticky errors where they sit
    /// in the stream: the frames completed before one are returned first.
    pub(crate) fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        self.acc.next_frame()
    }

    /// [`Self::next_frame`] by value: a body from the shared read buffer is
    /// copied out, a frame longer than the read chunk is handed over in the
    /// exactly-sized buffer it was read into.
    pub(crate) fn take_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        self.acc.take_frame()
    }

    /// Queues one outbound frame (`[u32 len][version][body]`) behind any
    /// bytes still awaiting flush.
    pub(crate) fn queue_body(&mut self, body: &[u8]) -> Result<(), FrameError> {
        self.write_buf.write_frame(&self.write_policy, body)
    }

    /// Whether queued bytes are still waiting on the socket — the signal
    /// for keeping write interest registered.
    pub(crate) fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Bytes queued but not yet accepted by the socket.
    pub(crate) fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Pushes queued bytes into the socket until drained or it would
    /// block. A peer that stopped accepting bytes and closed surfaces as
    /// [`FrameError::Closed`].
    pub(crate) fn flush(&mut self) -> Result<FlushStatus, FrameError> {
        while let Some(pending) = self
            .write_buf
            .get(self.write_pos..)
            .filter(|p| !p.is_empty())
        {
            match self.stream.write(pending) {
                Ok(0) => return Err(FrameError::Closed),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(FlushStatus::Pending),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(FlushStatus::Drained)
    }
}

/// Sends one frame over a *nonblocking* stream with blocking-call
/// semantics: the frame writer's vectored writes resume at their offset,
/// parking on `wait_writable` whenever the socket pushes back. This is
/// the only safe way to write a stream whose read half is reactor-managed —
/// `set_nonblocking` applies to the shared fd, so a plain `write_all`
/// could lose its position mid-frame on `WouldBlock`. The body is
/// `body[0]` followed by `body[1]` — a message header and the payload it
/// describes go out without being joined first — and the ceiling is
/// checked before any byte is written.
pub fn send_frame(
    stream: &TcpStream,
    policy: &FramePolicy,
    body: [&[u8]; 2],
) -> Result<(), FrameError> {
    write_frame_vectored(&mut &*stream, policy, body, |_| {
        wait_writable(stream, Duration::from_millis(100)).map(drop)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_core::framing::FrameRead;
    use std::net::{TcpListener, TcpStream};

    const POLICY: FramePolicy = FramePolicy::new(1, 1024);

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    /// One readable event: fill, then copy out every completed frame.
    fn read_frames(conn: &mut Conn, frames: &mut Vec<Vec<u8>>) -> ConnStatus {
        let status = conn.on_readable().expect("read");
        while let Some(body) = conn.next_frame().expect("frame") {
            frames.push(body.to_vec());
        }
        status
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, POLICY).expect("conn");
        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"alpha").expect("frame");
        wire.write_frame(&POLICY, b"beta").expect("frame");
        let cut = wire.len() / 2;

        client.write_all(&wire[..cut]).expect("write");
        client.flush().expect("flush");
        let mut frames = Vec::new();
        // Wait until the first chunk has crossed the loopback.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while conn.acc.buffered() == 0 && frames.is_empty() {
            assert!(std::time::Instant::now() < deadline, "no bytes arrived");
            read_frames(&mut conn, &mut frames);
        }

        client.write_all(&wire[cut..]).expect("write");
        client.flush().expect("flush");
        while frames.len() < 2 {
            assert!(std::time::Instant::now() < deadline, "frames incomplete");
            read_frames(&mut conn, &mut frames);
        }
        assert_eq!(frames, [b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn peer_close_still_delivers_buffered_frames() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, POLICY).expect("conn");
        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"last words").expect("frame");
        client.write_all(&wire).expect("write");
        drop(client);

        let mut frames = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "close not observed");
            if read_frames(&mut conn, &mut frames) == ConnStatus::PeerClosed {
                break;
            }
        }
        assert_eq!(frames, [b"last words".to_vec()]);
    }

    #[test]
    fn queued_responses_flush_and_roundtrip() {
        let (client, server) = pair();
        let mut conn = Conn::new(server, POLICY).expect("conn");
        conn.queue_body(b"response").expect("queue");
        assert!(conn.wants_write());
        // Loopback send buffers are far larger than one small frame.
        assert_eq!(conn.flush().expect("flush"), FlushStatus::Drained);
        assert!(!conn.wants_write());

        let mut client = client;
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let body = client.read_frame(&POLICY).expect("read frame");
        assert_eq!(body, b"response");
    }

    #[test]
    fn send_frame_survives_nonblocking_backpressure() {
        let (client, mut server) = pair();
        client.set_nonblocking(true).expect("nonblocking");
        // A body big enough to overwhelm the socket buffers and force at
        // least one WouldBlock park while the reader lags.
        let body = vec![0xabu8; 4 << 20];
        let expected = body.clone();
        let policy = FramePolicy::new(1, 8 << 20);
        let writer = std::thread::spawn(move || send_frame(&client, &policy, [&[], &body]));
        server
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let got = server.read_frame(&policy).expect("read frame");
        writer.join().expect("join").expect("send");
        assert_eq!(got.len(), expected.len());
        assert_eq!(got, expected);

        // Where the socket pushes back is the kernel's choice; the writer
        // loop `send_frame` runs must resume anywhere, the 5-byte header
        // included. This sink takes three bytes per call and refuses every
        // other call, so the first refusal lands inside the header and
        // later ones straddle both piece boundaries.
        let mut sink = Stingy::default();
        let mut parks = 0;
        write_frame_vectored(&mut sink, &policy, [b"head", b"payload"], |e| {
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
            parks += 1;
            Ok(())
        })
        .expect("resumes after every refusal");
        let mut reference = Vec::new();
        reference
            .write_frame(&policy, b"headpayload")
            .expect("frame");
        assert_eq!(sink.taken, reference);
        assert_eq!(sink.refused_at[0], 3, "first refusal is inside the header");
        assert_eq!(parks, sink.refused_at.len());
    }

    /// A sink that accepts three bytes, then refuses one call with
    /// `WouldBlock`, and so on.
    #[derive(Default)]
    struct Stingy {
        taken: Vec<u8>,
        refused_at: Vec<usize>,
        refuse_next: bool,
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.refuse_next = !self.refuse_next;
            if !self.refuse_next {
                self.refused_at.push(self.taken.len());
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let before = self.taken.len();
            for buf in bufs {
                let n = buf.len().min(3 - (self.taken.len() - before));
                self.taken.extend_from_slice(&buf[..n]);
            }
            Ok(self.taken.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
