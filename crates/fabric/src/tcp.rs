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
//! Each socket carries one link, the code the loopback hub runs too, and
//! stays blocking. The transport starts no thread: a send is one blocking
//! frame write, and a receive reads the socket on the caller's thread.
//! A receiver whose stage has nothing filed reads whole frames and files
//! each into the link until its own arrives; receivers on the link's other
//! stages wait for it to file theirs or to hand the reading on (see
//! [`crate::link`]). The split topology keeps at most one batch in flight
//! per link, and its senders wait on the answer anyway, so a send that
//! meets a full kernel buffer waits where the protocol already waits.
//!
//! **Copy discipline.** A hop costs one batch-sized buffer on each side:
//! the sender's encoding, which leaves with the frame and envelope headers
//! in one vectored write, and the exactly-sized buffer the receiver reads
//! the frame into, which the link files as it is.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use prochlo_core::framing::{write_frame_vectored, FrameError, FramePolicy, FrameRead, FrameWrite};
use prochlo_core::wire::Reader;
use prochlo_net::{Interest, Reactor};

use crate::link::Link;
use crate::transport::{frame_policy, ChannelId, FabricError, Peer, Stage, Transport};

/// The `HELLO` frame's ceiling: the version byte and one encoded [`Peer`]
/// (a tag byte and a `u32` shard index), not the batch-sized default.
const HELLO_POLICY: FramePolicy = frame_policy().with_max_frame_len(1 + 5);

/// How long [`TcpTransportBuilder::accept`] waits for all of its dialers
/// to connect and send their `HELLO`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

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
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        self.listener = Some(listener);
        Ok(local)
    }

    /// Accepts `count` inbound links. Each dialer introduces itself with a
    /// `HELLO` frame; the link is filed under that identity. All `count`
    /// dialers must connect and introduce
    /// themselves within a fixed handshake deadline (10 s); past it the
    /// call fails with an I/O error of kind `TimedOut`, so a process whose
    /// peer died before dialing exits instead of waiting forever.
    pub fn accept(&mut self, count: usize) -> Result<Vec<Peer>, FabricError> {
        self.accept_within(count, HANDSHAKE_DEADLINE)
    }

    fn accept_within(&mut self, count: usize, within: Duration) -> Result<Vec<Peer>, FabricError> {
        let listener = self
            .listener
            .as_ref()
            .ok_or(FabricError::Malformed("accept before listen"))?;
        #[expect(clippy::disallowed_methods, reason = "the handshake deadline")]
        let start = Instant::now();
        let left = || {
            within
                .checked_sub(start.elapsed())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| FabricError::from(io::Error::from(io::ErrorKind::TimedOut)))
        };
        // The listener waits nonblocking, parked on a reactor until a
        // dialer arrives or the deadline passes.
        listener.set_nonblocking(true)?;
        let mut reactor = Reactor::new()?;
        reactor.register(listener, Interest::READ);
        let mut events = Vec::new();
        let mut accepted = Vec::with_capacity(count);
        while accepted.len() < count {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    reactor.poll(&mut events, Some(left()?))?;
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            // Some unix targets hand the listener's nonblocking flag on.
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(left()?))?;
            // Read the HELLO off the raw stream: a BufReader here could
            // read ahead into frames that belong to the link and silently
            // drop them with the temporary buffer.
            let mut raw = &stream;
            let hello = raw.read_frame(&HELLO_POLICY).map_err(|e| match e {
                FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    io::Error::from(io::ErrorKind::TimedOut).into()
                }
                other => FabricError::from(other),
            })?;
            // A leftover timeout would fail the link's first receiver that
            // waits longer for its frame.
            stream.set_read_timeout(None)?;
            let mut reader = Reader::new(&hello);
            let peer = Peer::decode(&mut reader)?;
            reader.finish("trailing bytes in hello frame")?;
            accepted.push(peer);
            self.pending.push((peer, stream));
        }
        Ok(accepted)
    }

    /// Dials `peer` at `addr` and introduces this process with a `HELLO`
    /// frame carrying its identity.
    pub fn connect(&mut self, peer: Peer, addr: SocketAddr) -> Result<(), FabricError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut hello = Vec::new();
        self.identity.encode(&mut hello);
        let mut writer = &stream;
        writer.write_frame(&HELLO_POLICY, &hello)?;
        self.pending.push((peer, stream));
        Ok(())
    }

    /// Finalizes the builder: every established socket becomes a link and
    /// the transport becomes immutable.
    pub fn build(self) -> Result<TcpTransport, FabricError> {
        Ok(TcpTransport {
            identity: self.identity,
            links: self
                .pending
                .into_iter()
                .map(|(peer, stream)| (Link::new(peer), stream))
                .collect(),
        })
    }
}

/// The TCP implementation of [`Transport`].
pub struct TcpTransport {
    identity: Peer,
    /// One per peer: the link its receivers file the socket's frames into,
    /// and the socket.
    links: Vec<(Link, TcpStream)>,
}

impl TcpTransport {
    fn link(&self, peer: Peer) -> Result<(&Link, &TcpStream), FabricError> {
        self.links
            .iter()
            .find(|(link, _)| link.peer == peer)
            .map(|(link, socket)| (link, socket))
            .ok_or(FabricError::NotConnected(peer))
    }
}

impl Transport for TcpTransport {
    fn identity(&self) -> Peer {
        self.identity
    }

    fn send(&self, to: Peer, stage: Stage, payload: &[u8]) -> Result<(), FabricError> {
        let (link, mut socket) = self.link(to)?;
        link.send(self.identity, to, stage, payload, |body| {
            Ok(write_frame_vectored(
                &mut socket,
                &frame_policy(),
                body,
                Err,
            )?)
        })
    }

    fn recv(&self, channel: ChannelId) -> Result<Vec<u8>, FabricError> {
        let (link, socket) = self.link(channel.peer)?;
        let read = || {
            let mut socket = socket;
            socket.read_frame(&frame_policy())
        };
        link.recv(channel.stage, Some(&read))
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::net::Shutdown;
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::link::contract::{transport_contract, Pair};
    use crate::transport::MAX_FRAME_LEN;

    fn loop_addr() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn pair() -> Pair {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        let mut dialer = TcpTransportBuilder::new(Peer::ShufflerOne);
        dialer.connect(Peer::ShufflerTwo, addr).unwrap();
        assert_eq!(acceptor.accept(1).unwrap(), vec![Peer::ShufflerOne]);
        let a = dialer.build().unwrap();
        let b = acceptor.build().unwrap();
        // A second handle on `a`'s socket writes frames past its link.
        let raw = a.links[0].1.try_clone().unwrap();
        let close = a.links[0].1.try_clone().unwrap();
        Pair {
            a: Box::new(a),
            b: Box::new(b),
            inject: Box::new(move |envelope| {
                (&raw).write_frame(&frame_policy(), &envelope).unwrap()
            }),
            close: Box::new(move || close.shutdown(Shutdown::Write).unwrap()),
        }
    }

    transport_contract!(pair());

    #[test]
    fn hello_identifies_the_dialer_and_stages_multiplex() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        let dialer = std::thread::spawn(move || {
            let mut b = TcpTransportBuilder::new(Peer::ShufflerOne);
            b.connect(Peer::ShufflerTwo, addr).unwrap();
            let t = b.build().unwrap();
            t.send(Peer::ShufflerTwo, Stage::Records, b"recs").unwrap();
            t.send(Peer::ShufflerTwo, Stage::Batch, b"done").unwrap();
            // Wait for the ack so the socket stays open until the peer reads.
            let ack = t
                .recv(ChannelId::new(Peer::ShufflerTwo, Stage::Batch))
                .unwrap();
            assert_eq!(ack, b"ack");
        });
        assert_eq!(acceptor.accept(1).unwrap(), vec![Peer::ShufflerOne]);
        let (_, stream) = &acceptor.pending[0];
        assert_eq!(
            stream.read_timeout().unwrap(),
            None,
            "the link's receivers get no timeout"
        );
        let t = acceptor.build().unwrap();
        // Read the batch stage before records: the records frame is buffered.
        assert_eq!(
            t.recv(ChannelId::new(Peer::ShufflerOne, Stage::Batch))
                .unwrap(),
            b"done"
        );
        assert_eq!(
            t.recv(ChannelId::new(Peer::ShufflerOne, Stage::Records))
                .unwrap(),
            b"recs"
        );
        t.send(Peer::ShufflerOne, Stage::Batch, b"ack").unwrap();
        dialer.join().unwrap();
    }

    #[test]
    fn a_hello_announcing_a_batch_sized_frame_is_refused() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        // Only a length prefix, and the socket stays open: a reader that
        // reserved the announced length would wait for it forever.
        let mut stream = TcpStream::connect(addr).unwrap();
        let announced = u32::try_from(MAX_FRAME_LEN).unwrap();
        stream.write_all(&announced.to_le_bytes()).unwrap();
        let (done, accepted) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(acceptor.accept(1));
        });
        let result = accepted
            .recv_timeout(Duration::from_secs(10))
            .expect("accept still blocked on the announced HELLO");
        assert!(
            matches!(result, Err(FabricError::Frame(FrameError::TooLarge { .. }))),
            "{result:?}"
        );
        drop(stream);
    }

    /// Runs `accept_within(1, within)` on its own thread, so a handshake
    /// that ignores its deadline fails the test instead of hanging it.
    fn accept_one_within(
        mut acceptor: TcpTransportBuilder,
        within: Duration,
    ) -> Result<Vec<Peer>, FabricError> {
        let (done, accepted) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(acceptor.accept_within(1, within));
        });
        accepted
            .recv_timeout(within + Duration::from_secs(5))
            .expect("accept returned at its deadline")
    }

    fn assert_timed_out(result: Result<Vec<Peer>, FabricError>) {
        assert!(
            matches!(
                &result,
                Err(FabricError::Frame(FrameError::Io(e))) if e.kind() == io::ErrorKind::TimedOut
            ),
            "{result:?}"
        );
    }

    #[test]
    fn an_accept_nobody_dials_times_out() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        acceptor.listen(loop_addr()).unwrap();
        assert_timed_out(accept_one_within(acceptor, Duration::from_millis(200)));
    }

    #[test]
    fn a_dialer_that_never_says_hello_times_out() {
        let mut acceptor = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let addr = acceptor.listen(loop_addr()).unwrap();
        // Connected, and the socket stays open, but no HELLO ever comes.
        let silent = TcpStream::connect(addr).unwrap();
        assert_timed_out(accept_one_within(acceptor, Duration::from_millis(200)));
        drop(silent);
    }

    #[test]
    fn unknown_peer_is_not_connected() {
        let t = TcpTransportBuilder::new(Peer::Shard(0)).build().unwrap();
        assert!(matches!(
            t.send(Peer::ShufflerOne, Stage::Batch, b"x"),
            Err(FabricError::NotConnected(Peer::ShufflerOne))
        ));
    }
}
