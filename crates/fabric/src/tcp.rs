//! TCP transport: one socket per peer pair, stages multiplexed over it.
//!
//! Connection establishment is explicit and happens before the transport
//! is handed to protocol code: the process that *listens* calls
//! [`TcpTransportBuilder::listen`] + [`TcpTransportBuilder::accept`], the
//! process that *dials* calls [`TcpTransportBuilder::connect`]. The dialer
//! introduces itself with a `HELLO` frame carrying its [`Peer`] encoding,
//! so the acceptor learns who is on the socket without guessing from
//! addresses.
//!
//! Receiving is event-driven: [`TcpTransportBuilder::build`] hands every
//! established socket to one [`prochlo_net::FramePump`] thread, which
//! multiplexes all links on a readiness reactor and files each complete
//! frame into its link's per-stage inbox — a receiver blocked on
//! [`Stage::Items`] will find an interleaved [`Stage::Control`] frame
//! buffered rather than dropped, and no thread is parked per peer.
//! Sequence numbers are checked per `(peer, stage)` stream exactly as in
//! the loopback transport; a violated check fails the link for every
//! waiter.
//!
//! The pump shares each socket's file description with the send half, so
//! the sockets are nonblocking on both sides; sends go through
//! [`prochlo_net::send_frame`], which parks on writability rather than
//! busy-spinning when the kernel buffer is full.
//!
//! **Copy discipline.** A hop costs one batch-sized buffer on each side.
//! The sender encodes its message once (the typed messages reserve their
//! exact length) and the frame header, the 18-byte envelope header and the
//! payload leave as one vectored write — no envelope is built around a
//! copy of the payload and no frame around a copy of the envelope. The
//! frame ceiling is checked before the stage's sequence number is taken, so
//! a refused oversize send leaves the stream intact. The receiver reads a
//! frame longer than the pump's read chunk into an exactly-sized buffer
//! the pump hands over by value; the envelope header is checked in place
//! and the buffer is filed as it is, its header dropped from the front on
//! `recv` without reallocating.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use prochlo_core::framing::{FrameRead, FrameWrite};
use prochlo_core::wire::Reader;
use prochlo_net::{send_frame, FramePump, PumpEvent};

use crate::transport::{
    check_frame_len, frame_policy, metrics, ChannelId, Envelope, FabricError, Peer, Stage,
    Transport, ENVELOPE_HEADER_LEN,
};

struct LinkInbox {
    /// Buffered frame bodies per incoming stage: each is an envelope whose
    /// header was checked on arrival and is stripped on `recv`.
    stages: BTreeMap<Stage, VecDeque<Vec<u8>>>,
    /// Next expected sequence number per incoming stage.
    recv_seq: BTreeMap<Stage, u64>,
    /// Set when the socket dies so every waiter fails instead of hanging.
    /// `None` in the string means the link closed cleanly.
    failed: Option<Option<String>>,
}

/// One established socket to a peer: the send half plus the inbox the
/// pump thread files incoming frames into.
struct Link {
    peer: Peer,
    /// Send half and per-stage send sequence numbers, under one lock so
    /// concurrent senders never interleave partial frames on the socket.
    writer: Mutex<(TcpStream, BTreeMap<Stage, u64>)>,
    inbox: Mutex<LinkInbox>,
    arrived: Condvar,
}

impl Link {
    fn new(peer: Peer, stream: TcpStream) -> Self {
        Self {
            peer,
            writer: Mutex::new((stream, BTreeMap::new())),
            inbox: Mutex::new(LinkInbox {
                stages: BTreeMap::new(),
                recv_seq: BTreeMap::new(),
                failed: None,
            }),
            arrived: Condvar::new(),
        }
    }

    fn send(&self, from: Peer, stage: Stage, payload: &[u8]) -> Result<(), FabricError> {
        check_frame_len(payload.len())?;
        let mut guard = self.writer.lock();
        let (stream, send_seq) = &mut *guard;
        let seq = send_seq.entry(stage).or_insert(0);
        let mut header = Vec::with_capacity(ENVELOPE_HEADER_LEN);
        Envelope::put_header(&mut header, from, stage, *seq, payload.len());
        *seq += 1;
        send_frame(stream, &frame_policy(), [&header, payload])?;
        metrics::frame_sent(self.peer, stage, payload.len());
        Ok(())
    }

    /// Checks the envelope header of one frame the pump read off the
    /// socket, in place, and files the frame in the inbox. Any violation
    /// fails the link: the byte stream past a desynchronized envelope
    /// cannot be trusted.
    fn file_frame(&self, body: Vec<u8>) {
        let filed: Result<(), FabricError> = (|| {
            let (from, stage, seq) = Envelope::parse_header(&body)?;
            if from != self.peer {
                return Err(FabricError::WrongPeer {
                    expected: self.peer,
                    actual: from,
                });
            }
            let channel = ChannelId::new(from, stage);
            let mut inbox = self.inbox.lock();
            let expected = inbox.recv_seq.entry(stage).or_insert(0);
            if seq != *expected {
                metrics::out_of_order(channel);
                return Err(FabricError::OutOfOrder {
                    channel,
                    expected: *expected,
                    actual: seq,
                });
            }
            *expected += 1;
            metrics::frame_received(channel, body.len() - ENVELOPE_HEADER_LEN);
            inbox.stages.entry(stage).or_default().push_back(body);
            drop(inbox);
            self.arrived.notify_all();
            Ok(())
        })();
        if let Err(e) = filed {
            self.fail(Some(e.to_string()));
        }
    }

    /// Records a link failure (`None` = clean close) and wakes every
    /// blocked receiver.
    fn fail(&self, failure: Option<String>) {
        let mut inbox = self.inbox.lock();
        if inbox.failed.is_none() {
            inbox.failed = Some(failure);
        }
        drop(inbox);
        self.arrived.notify_all();
    }

    fn recv(&self, stage: Stage) -> Result<Vec<u8>, FabricError> {
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(mut body) = inbox.stages.get_mut(&stage).and_then(VecDeque::pop_front) {
                drop(inbox);
                body.drain(..ENVELOPE_HEADER_LEN);
                return Ok(body);
            }
            if let Some(failure) = &inbox.failed {
                return Err(match failure {
                    None => FabricError::Closed,
                    Some(what) => FabricError::LinkFailed(what.clone()),
                });
            }
            self.arrived.wait(&mut inbox);
        }
    }
}

/// Builds a [`TcpTransport`] by listening and dialing before protocol
/// traffic starts.
pub struct TcpTransportBuilder {
    identity: Peer,
    listener: Option<TcpListener>,
    pending: Vec<(Peer, TcpStream)>,
}

impl TcpTransportBuilder {
    /// A builder for a process whose fabric identity is `identity`.
    pub fn new(identity: Peer) -> Self {
        Self {
            identity,
            listener: None,
            pending: Vec::new(),
        }
    }

    /// Binds a listening socket (use port 0 for an OS-assigned port) and
    /// returns the bound address to advertise to dialing peers.
    pub fn listen(&mut self, addr: SocketAddr) -> Result<SocketAddr, FabricError> {
        let listener = TcpListener::bind(addr).map_err(|e| FabricError::Frame(e.into()))?;
        let local = listener
            .local_addr()
            .map_err(|e| FabricError::Frame(e.into()))?;
        self.listener = Some(listener);
        Ok(local)
    }

    /// Accepts `count` inbound links. Each dialer introduces itself with a
    /// `HELLO` frame; the link is filed under that identity. The handshake
    /// runs on the still-blocking socket — the pump takes over only at
    /// [`Self::build`].
    pub fn accept(&mut self, count: usize) -> Result<Vec<Peer>, FabricError> {
        let listener = self
            .listener
            .as_ref()
            .ok_or(FabricError::Malformed("accept before listen"))?;
        let mut accepted = Vec::with_capacity(count);
        for _ in 0..count {
            let (stream, _) = listener
                .accept()
                .map_err(|e| FabricError::Frame(e.into()))?;
            stream
                .set_nodelay(true)
                .map_err(|e| FabricError::Frame(e.into()))?;
            // Read the HELLO off the raw stream: a BufReader here could
            // read ahead into frames that belong to the pump and silently
            // drop them with the temporary buffer.
            let mut raw = &stream;
            let hello = raw.read_frame(&frame_policy())?;
            let mut cursor = Reader::new(&hello);
            let peer = Peer::decode(&mut cursor)?;
            if !cursor.is_empty() {
                return Err(FabricError::Malformed("trailing bytes in hello frame"));
            }
            accepted.push(peer);
            self.pending.push((peer, stream));
        }
        Ok(accepted)
    }

    /// Dials `peer` at `addr` and introduces this process with a `HELLO`
    /// frame carrying its identity.
    pub fn connect(&mut self, peer: Peer, addr: SocketAddr) -> Result<(), FabricError> {
        let stream = TcpStream::connect(addr).map_err(|e| FabricError::Frame(e.into()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| FabricError::Frame(e.into()))?;
        let mut hello = Vec::new();
        self.identity.encode(&mut hello);
        let mut writer = &stream;
        writer.write_frame(&frame_policy(), &hello)?;
        self.pending.push((peer, stream));
        Ok(())
    }

    /// Finalizes the builder: every established socket moves onto one
    /// shared pump thread and the transport becomes immutable.
    pub fn build(self) -> Result<TcpTransport, FabricError> {
        let mut links = Vec::with_capacity(self.pending.len());
        let mut pump_streams = Vec::with_capacity(self.pending.len());
        for (index, (peer, stream)) in self.pending.into_iter().enumerate() {
            // The pump reads on a cloned handle; both handles share one
            // file description, which the pump flips nonblocking.
            let read_half = stream
                .try_clone()
                .map_err(|e| FabricError::Frame(e.into()))?;
            pump_streams.push((index, read_half));
            links.push(Arc::new(Link::new(peer, stream)));
        }
        let pump = if links.is_empty() {
            None
        } else {
            let pump_links = links.clone();
            Some(
                FramePump::spawn(
                    "fabric",
                    frame_policy(),
                    pump_streams,
                    move |index, event| {
                        let link = &pump_links[index];
                        match event {
                            PumpEvent::Frame(body) => link.file_frame(body),
                            PumpEvent::Closed => link.fail(None),
                            PumpEvent::Failed(e) => link.fail(Some(e.to_string())),
                        }
                    },
                )
                .map_err(|e| FabricError::Frame(e.into()))?,
            )
        };
        Ok(TcpTransport {
            identity: self.identity,
            links,
            _pump: pump,
        })
    }
}

/// The TCP implementation of [`Transport`].
pub struct TcpTransport {
    identity: Peer,
    links: Vec<Arc<Link>>,
    /// Joined on drop; stopping the pump closes no sockets, the links do.
    _pump: Option<FramePump>,
}

impl TcpTransport {
    fn link(&self, peer: Peer) -> Result<&Link, FabricError> {
        self.links
            .iter()
            .find(|l| l.peer == peer)
            .map(Arc::as_ref)
            .ok_or(FabricError::NotConnected(peer))
    }
}

impl Transport for TcpTransport {
    fn identity(&self) -> Peer {
        self.identity
    }

    fn send(&self, to: Peer, stage: Stage, payload: &[u8]) -> Result<(), FabricError> {
        self.link(to)?.send(self.identity, stage, payload)
    }

    fn recv(&self, channel: ChannelId) -> Result<Vec<u8>, FabricError> {
        self.link(channel.peer)?.recv(channel.stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MAX_FRAME_LEN;
    use prochlo_core::framing::FrameError;

    fn loop_addr() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn hello_identifies_the_dialer_and_stages_multiplex() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        let dialer = std::thread::spawn(move || {
            let mut b = TcpTransportBuilder::new(Peer::ShufflerOne);
            b.connect(Peer::ShufflerTwo, addr).unwrap();
            let t = b.build().unwrap();
            t.send(Peer::ShufflerTwo, Stage::Records, b"recs").unwrap();
            t.send(Peer::ShufflerTwo, Stage::Control, b"done").unwrap();
            // Wait for the ack so the socket stays open until the peer reads.
            let ack = t
                .recv(ChannelId::new(Peer::ShufflerTwo, Stage::Control))
                .unwrap();
            assert_eq!(ack, b"ack");
        });
        assert_eq!(acceptor.accept(1).unwrap(), vec![Peer::ShufflerOne]);
        let t = acceptor.build().unwrap();
        // Read control before records: the records frame is buffered.
        assert_eq!(
            t.recv(ChannelId::new(Peer::ShufflerOne, Stage::Control))
                .unwrap(),
            b"done"
        );
        assert_eq!(
            t.recv(ChannelId::new(Peer::ShufflerOne, Stage::Records))
                .unwrap(),
            b"recs"
        );
        t.send(Peer::ShufflerOne, Stage::Control, b"ack").unwrap();
        dialer.join().unwrap();
    }

    #[test]
    fn an_oversize_send_is_refused_and_leaves_the_stage_in_sequence() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        let dialer = std::thread::spawn(move || {
            let mut b = TcpTransportBuilder::new(Peer::ShufflerOne);
            b.connect(Peer::ShufflerTwo, addr).unwrap();
            let t = b.build().unwrap();
            // Zeroed and never written, so the pages are never touched.
            let oversize = vec![0u8; MAX_FRAME_LEN];
            assert!(matches!(
                t.send(Peer::ShufflerTwo, Stage::Records, &oversize),
                Err(FabricError::Frame(FrameError::TooLarge { .. }))
            ));
            // The refusal took no sequence number: the next frame on the
            // stage is the one the receiver expects.
            t.send(Peer::ShufflerTwo, Stage::Records, b"next").unwrap();
            t.recv(ChannelId::new(Peer::ShufflerTwo, Stage::Control))
                .unwrap();
        });
        acceptor.accept(1).unwrap();
        let t = acceptor.build().unwrap();
        assert_eq!(
            t.recv(ChannelId::new(Peer::ShufflerOne, Stage::Records))
                .unwrap(),
            b"next"
        );
        t.send(Peer::ShufflerOne, Stage::Control, b"ack").unwrap();
        dialer.join().unwrap();
    }

    #[test]
    fn unknown_peer_is_not_connected() {
        let t = TcpTransportBuilder::new(Peer::Driver).build().unwrap();
        assert!(matches!(
            t.send(Peer::Router, Stage::Control, b"x"),
            Err(FabricError::NotConnected(Peer::Router))
        ));
    }

    #[test]
    fn closed_socket_surfaces_as_closed() {
        let mut acceptor = TcpTransportBuilder::new(Peer::Driver);
        let addr = acceptor.listen(loop_addr()).unwrap();
        let dialer = std::thread::spawn(move || {
            let mut b = TcpTransportBuilder::new(Peer::Shard(0));
            b.connect(Peer::Driver, addr).unwrap();
            drop(b.build().unwrap()); // hang up immediately
        });
        acceptor.accept(1).unwrap();
        dialer.join().unwrap();
        let t = acceptor.build().unwrap();
        assert!(matches!(
            t.recv(ChannelId::new(Peer::Shard(0), Stage::Control)),
            Err(FabricError::Closed)
        ));
    }

    #[test]
    fn out_of_order_sequence_fails_the_link_for_waiters() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        let dialer = std::thread::spawn(move || {
            // A hand-rolled peer that skips sequence number 0.
            let stream = TcpStream::connect(addr).unwrap();
            let mut hello = Vec::new();
            Peer::ShufflerOne.encode(&mut hello);
            let mut writer = &stream;
            writer.write_frame(&frame_policy(), &hello).unwrap();
            let envelope = Envelope {
                from: Peer::ShufflerOne,
                stage: Stage::Control,
                seq: 7,
                payload: b"early".to_vec(),
            };
            writer
                .write_frame(&frame_policy(), &envelope.to_bytes())
                .unwrap();
            // Keep the socket open until the acceptor has judged the frame.
            let _ = std::io::Read::read(&mut { &stream }, &mut [0u8; 1]);
        });
        acceptor.accept(1).unwrap();
        let t = acceptor.build().unwrap();
        assert!(matches!(
            t.recv(ChannelId::new(Peer::ShufflerOne, Stage::Control)),
            Err(FabricError::LinkFailed(what)) if what.contains("out of order")
        ));
        drop(t);
        dialer.join().unwrap();
    }
}
