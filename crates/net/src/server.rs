//! The serving harness: one listener, N reactor event loops, one policy.
//!
//! Every framed request/response service in the workspace (the collector,
//! the shard router) is this [`Server`] plus a [`Handler`]. The serving
//! policy — accept → deal → accumulate → answer → flush → evict — lives
//! here and nowhere else: N plain `std::thread` event loops each own a
//! [`Reactor`] and their share of the nonblocking connections; loop 0 also
//! owns the listener and deals fresh connections round-robin. Arrivals past
//! the connection cap get the busy answer and a close; a connection that
//! completes no frame (and drains no pending response) within `io_timeout`
//! is evicted — bytes alone are not progress, so a slow loris cannot hold a
//! slot; an announcement over the frame ceiling is refused from the 4-byte
//! prefix alone; shutdown gives each socket one chance to take its
//! remaining bytes and never waits on an idle client.
//!
//! The handler is built once per loop, so per-loop resources (the router's
//! forwarding legs) need no cross-loop locking; its [`Handler::Conn`] value
//! lives exactly as long as one connection (the collector's rendered peer).
//!
//! # Turn-scoped deferred answers
//!
//! A handler answers a frame [`Answer::Now`] or [`Answer::Later`] — later
//! *in this reactor turn*. Once every ready connection of the turn has been
//! read, the harness calls [`Handler::finish_turn`] once and gets the
//! deferred bodies back in deferral order; only then are the turn's answers
//! queued, each connection's in request order, and each answered connection
//! flushed once. The turn is the scope because it is the only place that
//! sees frames from many connections at once: a crowd of clients with one
//! report in flight each still hands the router a batch to forward in one
//! exchange per shard. Nothing deferred outlives a turn — there is no
//! ticket, no completion queue and no cross-turn state to leak, time out or
//! reorder; a body is matched to its slot by deferral order alone. A
//! handler may block (in `frame` or in `finish_turn`): that loop then
//! serves nothing else meanwhile.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use prochlo_core::framing::{FrameError, FramePolicy, FrameWrite};

use crate::conn::{Conn, ConnStatus, FlushStatus};
use crate::reactor::{Event, Interest, Reactor, Token, Waker};

/// How long one reactor turn may block before re-checking the shutdown
/// flag even without traffic, wakes, or deadlines.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Pending-write ceiling per connection: past this, the loop stops reading
/// from the peer (read interest drops) until the backlog flushes, so one
/// slow reader pipelining requests cannot balloon its response buffer.
/// Public because it bounds what a blocking client may pipeline without
/// reading: one whose unread responses can exceed it deadlocks against the
/// pause.
pub const WRITE_PAUSE_BYTES: usize = 256 << 10;

/// What a [`Server`] is told about the service it fronts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Event-loop threads; `0` means every available core.
    pub loops: usize,
    /// Maximum concurrently open connections across all loops.
    pub max_conns: usize,
    /// Version byte and inbound frame-size ceiling.
    pub policy: FramePolicy,
    /// Per-connection progress deadline.
    pub io_timeout: Duration,
    /// Response body for a connection refused at the cap.
    pub busy_body: Vec<u8>,
    /// Response body for a peer announcing a frame over the ceiling.
    pub oversize_body: Vec<u8>,
    /// Registry the loops report into.
    pub registry: Arc<prochlo_obs::Registry>,
    /// Loop threads are named `<thread_name>-<index>`. The kernel keeps 15
    /// bytes of a thread's name, so a `thread_name` of at most 12 bytes
    /// stays whole in `top` and `perf` up to a two-digit index.
    pub thread_name: &'static str,
    /// Prefix of the connection metrics: gauge `<prefix>.open`, and
    /// `<prefix>.accepted`, `<prefix>.refused` and `<prefix>.evicted`,
    /// which the registry reads through from the [`ServerStats`] cells.
    pub conns_metric: &'static str,
    /// Span histogram timing the work (not the idle wait) of each turn.
    pub turn_metric: &'static str,
}

/// How a [`Handler`] answers one request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The response body.
    Now(Vec<u8>),
    /// The body comes out of this turn's [`Handler::finish_turn`].
    Later,
}

/// The protocol half of a service; one value per event loop.
pub trait Handler: Send + 'static {
    /// Per-connection state, created on accept and dropped on close.
    type Conn: Send + 'static;

    /// A connection from `peer` was dealt to this loop.
    fn connected(&mut self, peer: SocketAddr) -> Self::Conn;

    /// Answers one complete request frame; the response is queued behind
    /// the connection's earlier ones, deferred or not. `Err` carries the
    /// last words to an unrecoverable stream (a malformed request): the
    /// harness delivers them after the answers already owed, drops the rest
    /// of the burst and hangs up.
    fn frame(&mut self, conn: &mut Self::Conn, body: &[u8]) -> Result<Answer, Vec<u8>>;

    /// Called once at the end of every reactor turn that owes answers:
    /// appends to `bodies` one response body per [`Answer::Later`] given
    /// this turn, in the order they were given. A connection whose body is
    /// missing is closed rather than left waiting (or handed a neighbour's
    /// answer). It runs before any of the turn's answers is queued, so what
    /// it publishes is visible to every client that reads one of them.
    fn finish_turn(&mut self, bodies: &mut Vec<Vec<u8>>) {
        let _ = bodies;
    }
}

/// A point-in-time snapshot of the harness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused because the open-connection cap was reached.
    pub refused: u64,
    /// Connections evicted at the progress deadline.
    pub evicted: u64,
}

/// What the loops and the owning handle share.
#[derive(Debug, Default)]
struct Shared {
    shutting_down: AtomicBool,
    open: AtomicU64,
    /// The connection counts, which the registry reads through as
    /// `<conns_metric>.{accepted,refused,evicted}`.
    accepted: Arc<AtomicU64>,
    refused: Arc<AtomicU64>,
    evicted: Arc<AtomicU64>,
}

/// Connections dealt to one loop: loop 0 pushes and wakes, the owning loop
/// drains at the top of its next turn.
type Intake = Arc<(Waker, Mutex<Vec<(SocketAddr, Conn)>>)>;

/// A running server bound to a local address.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    wakers: Vec<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the event loops. `make_handler` runs
    /// once per loop on the calling thread, before any loop starts, so a
    /// handler that cannot be built fails the start instead of leaving a
    /// loop that serves nothing.
    pub fn start<H: Handler, E: From<io::Error>>(
        config: ServerConfig,
        mut make_handler: impl FnMut() -> Result<H, E>,
    ) -> Result<Self, E> {
        let listener = TcpListener::bind(config.addr)?;
        // The listener joins loop 0's poll set; acceptance is just another
        // readiness event.
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let loops = match config.loops {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };

        // Reactors and handlers are created on this thread so every loop's
        // waker (and intake) exists before any loop runs; each then moves
        // into its loop thread.
        let mut parts = Vec::with_capacity(loops);
        for _ in 0..loops {
            parts.push((Reactor::new()?, make_handler()?));
        }
        let intakes: Vec<Intake> = parts
            .iter()
            .map(|(reactor, _)| Arc::new((reactor.waker(), Mutex::default())))
            .collect();

        let shared = Arc::new(Shared::default());
        let metric = |leaf: &str| format!("{}.{leaf}", config.conns_metric);
        for (leaf, cell) in [
            ("accepted", &shared.accepted),
            ("refused", &shared.refused),
            ("evicted", &shared.evicted),
        ] {
            config
                .registry
                .read_through(&metric(leaf), Arc::clone(cell));
        }
        let mut listener = Some(listener);
        let mut threads = Vec::with_capacity(loops);
        for (index, (mut reactor, handler)) in parts.into_iter().enumerate() {
            let listener = listener.take();
            let event_loop = EventLoop {
                index,
                accept_token: listener
                    .as_ref()
                    .map(|l| reactor.register(l, Interest::READ)),
                listener,
                reactor,
                handler,
                intakes: intakes.clone(),
                conns: BTreeMap::new(),
                answers: Vec::new(),
                deferred: Vec::new(),
                shared: Arc::clone(&shared),
                conns_open: config.registry.gauge(&metric("open")),
                turn: config.registry.histogram(config.turn_metric),
                config: config.clone(),
            };
            let name = format!("{}-{index}", config.thread_name);
            #[expect(clippy::disallowed_methods, reason = "one thread per event loop")]
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || event_loop.run())?,
            );
        }

        let wakers = intakes.iter().map(|intake| intake.0.clone()).collect();
        Ok(Self {
            local_addr,
            shared,
            wakers,
            threads,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of the harness counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
            evicted: self.shared.evicted.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, flushes what the open connections will take, closes
    /// them and joins the loops (dropping their handlers).
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Every loop observes the flag on its next turn; the wakes make
        // that turn happen now rather than at the next poll interval.
        self.wakers.iter().for_each(Waker::wake);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.stats()
    }
}

/// Per-connection serving state owned by exactly one event loop.
struct ConnState<C> {
    conn: Conn,
    app: C,
    /// Nothing more will be read (the peer closed its write side, or a
    /// protocol violation made the stream unrecoverable): flush what is
    /// queued, then close.
    closing: bool,
}

/// One event-loop thread: a reactor, a handler, its share of the
/// connections, and — on loop 0 — the listener.
struct EventLoop<H: Handler> {
    index: usize,
    reactor: Reactor,
    handler: H,
    listener: Option<TcpListener>,
    accept_token: Option<Token>,
    intakes: Vec<Intake>,
    conns: BTreeMap<Token, ConnState<H::Conn>>,
    /// This turn's answers in arrival order; `None` is a deferred body
    /// [`Self::finish_turn`] fills in. Empty between turns.
    answers: Vec<(Token, Option<Vec<u8>>)>,
    /// Scratch for the bodies [`Handler::finish_turn`] returns.
    deferred: Vec<Vec<u8>>,
    shared: Arc<Shared>,
    config: ServerConfig,
    conns_open: prochlo_obs::Gauge,
    /// Times the work of each turn (`ServerConfig::turn_metric`).
    turn: prochlo_obs::Histogram,
}

impl<H: Handler> EventLoop<H> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        while self.reactor.poll(&mut events, Some(POLL_INTERVAL)).is_ok()
            && !self.shared.shutting_down.load(Ordering::SeqCst)
        {
            // The turn span covers the work, not the idle wait above.
            let turn = self.turn.start();
            let dealt = std::mem::take(&mut *self.intakes[self.index].1.lock());
            for (peer, conn) in dealt {
                let token = self.reactor.register(conn.stream(), Interest::READ);
                self.reactor
                    .set_deadline(token, Some(self.config.io_timeout));
                let app = self.handler.connected(peer);
                let closing = false;
                self.conns.insert(token, ConnState { conn, app, closing });
            }
            for event in events.drain(..) {
                self.handle_event(event);
            }
            self.finish_turn();
            let _ = turn.finish();
        }
        // Exit: give each socket one chance to take the remaining bytes
        // (whatever the handler acknowledged is already its own; this is
        // only response-delivery best effort), then close.
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            if let Some(state) = self.conns.get_mut(&token) {
                let _ = state.conn.flush();
            }
            self.close_conn(token, false);
        }
    }

    fn handle_event(&mut self, event: Event) {
        if self.accept_token == Some(event.token) {
            return self.accept_ready();
        }
        if event.timed_out {
            // A poll turn reports readiness before expiries, and an expiry
            // disarms its deadline: one that is armed again was re-armed by
            // progress made earlier in this very turn (a loop returning
            // from a slow handler finds the next frame and the stale expiry
            // side by side), so the connection is alive, not a loris.
            if !self.reactor.deadline_armed(event.token) {
                self.close_conn(event.token, true);
            }
            return;
        }
        if event.readable {
            let Some(state) = self.conns.get_mut(&event.token) else {
                return;
            };
            let owed = self.answers.len();
            match state.conn.on_readable() {
                Ok(ConnStatus::Open) => {}
                Ok(ConnStatus::PeerClosed) => state.closing = true,
                Err(_) => return self.close_conn(event.token, false),
            }
            // Frame bodies are slices of the connection's read buffer; the
            // handler parses them in place.
            let last_words = loop {
                let body = match state.conn.next_frame() {
                    Ok(Some(body)) => body,
                    Ok(None) => break None,
                    // The peer announced more than we will read; answering
                    // and resynchronizing is impossible, so reject, flush,
                    // hang up.
                    Err(FrameError::TooLarge { .. }) => {
                        break Some(self.config.oversize_body.clone());
                    }
                    // Any other violation has no last words: deliver what
                    // the frames before it are owed, then hang up.
                    Err(_) => {
                        state.closing = true;
                        break None;
                    }
                };
                match self.handler.frame(&mut state.app, body) {
                    Ok(Answer::Now(body)) => self.answers.push((event.token, Some(body))),
                    Ok(Answer::Later) => self.answers.push((event.token, None)),
                    Err(body) => break Some(body),
                }
            };
            if let Some(body) = last_words {
                // Poisoned: the rest of the burst is dropped, not answered.
                state.closing = true;
                self.answers.push((event.token, Some(body)));
            }
            if self.answers.len() > owed {
                // Completed frames are progress: re-arm the eviction
                // deadline. (Bytes alone are not — a slow loris dribbling
                // one byte per poll would never be evicted otherwise; last
                // words get the same allowance to be taken.) Here, not
                // where the answers are queued: a stale expiry reported
                // beside these frames is judged later in this same pass
                // over the events. `finish_turn` queues the answers and
                // settles.
                self.reactor
                    .set_deadline(event.token, Some(self.config.io_timeout));
                return;
            }
        }
        self.settle(event.token);
    }

    /// Ends the turn: collects the deferred bodies from the handler, queues
    /// every answer onto its connection in arrival order, and settles each
    /// answered connection once.
    fn finish_turn(&mut self) {
        if self.answers.is_empty() {
            return;
        }
        self.handler.finish_turn(&mut self.deferred);
        // Both lists are taken for the walk and handed back empty, so their
        // capacity is reused turn after turn.
        let mut answers = std::mem::take(&mut self.answers);
        let mut deferred = std::mem::take(&mut self.deferred);
        let mut bodies = deferred.drain(..);
        // One readable event per connection per turn, so a connection's
        // answers are one run of the list: settle where the token changes.
        let mut current = None;
        for (token, answer) in answers.drain(..) {
            if let Some(done) = current.replace(token).filter(|&done| done != token) {
                self.settle(done);
            }
            // Deferral order is the only key: a slot consumes its body even
            // when its connection is already gone.
            let body = answer.or_else(|| bodies.next());
            let Some(state) = self.conns.get_mut(&token) else {
                continue;
            };
            match body {
                Some(body) => state.closing |= state.conn.queue_body(&body).is_err(),
                // The handler came up short. Closing drops this connection's
                // later answers with it, so none is delivered out of place.
                None => self.close_conn(token, false),
            }
        }
        if let Some(done) = current {
            self.settle(done);
        }
        drop(bodies);
        (self.answers, self.deferred) = (answers, deferred);
    }

    /// Flushes what the socket will take and reconciles interest/lifecycle
    /// with what remains.
    fn settle(&mut self, token: Token) {
        let Some(state) = self.conns.get_mut(&token) else {
            return;
        };
        let had_pending = state.conn.wants_write();
        match state.conn.flush() {
            Ok(FlushStatus::Drained) if !state.closing => {
                if had_pending {
                    // Fully draining a response backlog is progress:
                    // without this a bulk reader of a large stats response
                    // could be evicted mid-conversation.
                    self.reactor
                        .set_deadline(token, Some(self.config.io_timeout));
                }
                self.reactor.set_interest(token, Interest::READ);
            }
            Ok(FlushStatus::Pending) => {
                let paused = state.closing || state.conn.pending_write() > WRITE_PAUSE_BYTES;
                let interest = if paused {
                    Interest::WRITE
                } else {
                    Interest::READ_WRITE
                };
                self.reactor.set_interest(token, interest);
            }
            Ok(FlushStatus::Drained) | Err(_) => self.close_conn(token, false),
        }
    }

    fn close_conn(&mut self, token: Token, evicted: bool) {
        if self.conns.remove(&token).is_none() {
            return;
        }
        self.reactor.deregister(token);
        let open = self.shared.open.fetch_sub(1, Ordering::Relaxed);
        self.conns_open.set(open.saturating_sub(1) as i64);
        if evicted {
            self.shared.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accepts until the listener would block (loop 0 only). Transient
    /// accept failures (EMFILE bursts, aborted handshakes) end the burst
    /// the same way, leaving the rest for the next readiness report instead
    /// of spinning.
    fn accept_ready(&mut self) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            self.dispatch(stream);
        }
    }

    /// Deals a fresh connection to a loop, enforcing the open-connection
    /// cap.
    fn dispatch(&mut self, stream: TcpStream) {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let open = self.shared.open.load(Ordering::Relaxed);
        if open >= self.config.max_conns as u64 {
            self.shared.refused.fetch_add(1, Ordering::Relaxed);
            return self.refuse(stream);
        }
        let _ = stream.set_nodelay(true);
        // A socket that died before it could be wrapped was never open.
        let peer_and_conn = stream
            .peer_addr()
            .and_then(|peer| Conn::new(stream, self.config.policy).map(|conn| (peer, conn)));
        let Ok((peer, conn)) = peer_and_conn else {
            return;
        };
        self.shared.open.fetch_add(1, Ordering::Relaxed);
        let nth = self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.conns_open.set(open as i64 + 1);
        // Round-robin: the nth accepted connection goes to loop n mod N
        // (loop 0 included — its own wake makes the next turn immediate).
        let (waker, queue) = &*self.intakes[nth as usize % self.intakes.len()];
        queue.lock().push((peer, conn));
        waker.wake();
    }

    /// Best-effort busy answer for a connection refused at the cap; the
    /// socket is fresh, so the handful of bytes lands in the send buffer
    /// without blocking beyond the configured timeout.
    fn refuse(&self, mut stream: TcpStream) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(self.config.io_timeout));
        let policy = self.config.policy.with_max_frame_len(u32::MAX as usize);
        let _ = stream.write_frame(&policy, &self.config.busy_body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_core::framing::FrameRead;
    use std::io::{Read, Write};
    use std::sync::mpsc::{Receiver, Sender};
    use std::time::Instant;

    const POLICY: FramePolicy = FramePolicy::new(1, 1024);

    /// Echoes every frame; a frame starting with `z` first sleeps past the
    /// progress deadline, and `!` poisons the stream.
    struct Echo {
        nap: Duration,
    }

    impl Handler for Echo {
        type Conn = ();

        fn connected(&mut self, _peer: SocketAddr) {}

        fn frame(&mut self, (): &mut (), body: &[u8]) -> Result<Answer, Vec<u8>> {
            match body.first() {
                Some(b'!') => return Err(body.to_vec()),
                Some(b'z') => std::thread::sleep(self.nap),
                _ => {}
            }
            Ok(Answer::Now(body.to_vec()))
        }
    }

    fn config(loops: usize, max_conns: usize, io_timeout: Duration) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            loops,
            max_conns,
            policy: POLICY,
            io_timeout,
            busy_body: b"busy".to_vec(),
            oversize_body: b"oversize".to_vec(),
            registry: Arc::new(prochlo_obs::Registry::new(true)),
            thread_name: "test-loop",
            conns_metric: "test.conns",
            turn_metric: "test.loop.turn",
        }
    }

    fn start(loops: usize, max_conns: usize, io_timeout: Duration) -> Server {
        Server::start(config(loops, max_conns, io_timeout), || {
            Ok::<_, io::Error>(Echo {
                nap: io_timeout * 3,
            })
        })
        .expect("start server")
    }

    fn connect(server: &Server) -> TcpStream {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
    }

    fn roundtrip(stream: &mut TcpStream, body: &[u8]) -> Vec<u8> {
        stream.write_frame(&POLICY, body).expect("write frame");
        stream.read_frame(&POLICY).expect("read frame")
    }

    fn assert_eof(stream: &mut TcpStream) {
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read to end");
        assert!(rest.is_empty(), "nothing may follow the final response");
    }

    #[test]
    fn one_loop_serves_many_connections_at_once() {
        let server = start(1, 16, Duration::from_secs(5));
        let mut first = connect(&server);
        let mut second = connect(&server);
        // Both stay open while the other is answered.
        assert_eq!(roundtrip(&mut first, b"a"), b"a");
        assert_eq!(roundtrip(&mut second, b"b"), b"b");
        assert_eq!(roundtrip(&mut first, b"c"), b"c");
        // A poisoned stream gets its answer, then EOF; the other lives on.
        assert_eq!(roundtrip(&mut first, b"!"), b"!");
        assert_eof(&mut first);
        assert_eq!(roundtrip(&mut second, b"d"), b"d");
        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.refused, stats.evicted), (2, 0, 0));
    }

    #[test]
    fn progress_in_the_same_turn_as_the_expiry_is_not_evicted() {
        let io_timeout = Duration::from_millis(100);
        let server = start(1, 16, io_timeout);
        let mut sleeper = connect(&server);
        let mut waiting = connect(&server);
        // The loop naps in the handler for three deadlines...
        sleeper.write_frame(&POLICY, b"z").expect("write frame");
        std::thread::sleep(io_timeout / 2);
        // ...while this frame waits in the socket buffer and its
        // connection's deadline passes: the loop's next turn reports the
        // frame and the expiry together.
        waiting.write_frame(&POLICY, b"w").expect("write frame");
        assert_eq!(sleeper.read_frame(&POLICY).expect("read frame"), b"z");
        assert_eq!(waiting.read_frame(&POLICY).expect("read frame"), b"w");
        // Still a live connection afterwards.
        assert_eq!(roundtrip(&mut waiting, b"x"), b"x");
        assert_eq!(server.shutdown().evicted, 0);
    }

    #[test]
    fn arrivals_past_the_cap_get_the_busy_answer_and_a_close() {
        let server = start(2, 1, Duration::from_secs(5));
        let mut held = connect(&server);
        assert_eq!(roundtrip(&mut held, b"a"), b"a");
        let mut extra = connect(&server);
        assert_eq!(extra.read_frame(&POLICY).expect("read frame"), b"busy");
        assert_eof(&mut extra);
        // The slot frees when the holder leaves.
        drop(held);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = connect(&server);
            // A refused retry reads "busy" (or a reset, if the request
            // raced the close).
            if retry.write_frame(&POLICY, b"r").is_ok()
                && retry.read_frame(&POLICY).is_ok_and(|body| body == b"r")
            {
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.shutdown().refused >= 1);
    }

    #[test]
    fn oversized_announcement_gets_the_oversize_answer_and_a_close() {
        let server = start(1, 16, Duration::from_secs(5));
        let mut stream = connect(&server);
        stream
            .write_all(&(1u32 << 20).to_le_bytes())
            .expect("write prefix");
        assert_eq!(stream.read_frame(&POLICY).expect("read frame"), b"oversize");
        assert_eof(&mut stream);
        server.shutdown();
    }

    #[test]
    fn loris_is_evicted_and_shutdown_does_not_wait_on_idle_clients() {
        let io_timeout = Duration::from_millis(100);
        let server = start(1, 16, io_timeout);
        // A torn prefix, then silence: bytes are not progress.
        let mut loris = connect(&server);
        loris.write_all(&[9, 0]).expect("write sliver");
        let mut healthy = connect(&server);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().evicted == 0 {
            assert_eq!(roundtrip(&mut healthy, b"ok"), b"ok");
            assert!(Instant::now() < deadline, "loris was never evicted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(loris.read(&mut [0u8; 8]).expect("read"), 0, "loris EOF");
        // `healthy` stays connected and idle across the shutdown.
        let start = Instant::now();
        assert_eq!(server.shutdown().evicted, 1);
        assert!(start.elapsed() < Duration::from_secs(2));
        drop(healthy);
    }

    /// What a [`Deferring`] handler saw, shared with the test.
    #[derive(Default)]
    struct Seen {
        /// Every frame body handed to `frame`.
        frames: Vec<Vec<u8>>,
        /// Per `finish_turn` call that had deferred frames: their peers.
        turns: Vec<Vec<SocketAddr>>,
    }

    /// Echoes every frame: `d…` and `s…` later, `!` as last words, the rest
    /// now. A `z` frame first parks the loop — reporting so over `parked`,
    /// then waiting on `gate` — so that whatever the test writes meanwhile
    /// is read in one turn. `finish_turn` comes up short from the first
    /// `s…` frame on.
    struct Deferring {
        parked: Sender<()>,
        gate: Receiver<()>,
        later: Vec<(SocketAddr, Vec<u8>)>,
        seen: Arc<Mutex<Seen>>,
    }

    impl Handler for Deferring {
        type Conn = SocketAddr;

        fn connected(&mut self, peer: SocketAddr) -> SocketAddr {
            peer
        }

        fn frame(&mut self, peer: &mut SocketAddr, body: &[u8]) -> Result<Answer, Vec<u8>> {
            self.seen.lock().frames.push(body.to_vec());
            match body.first() {
                Some(b'!') => return Err(body.to_vec()),
                Some(b'd' | b's') => {
                    self.later.push((*peer, body.to_vec()));
                    return Ok(Answer::Later);
                }
                Some(b'z') => {
                    self.parked.send(()).expect("test is listening");
                    self.gate.recv().expect("test opens the gate");
                }
                _ => {}
            }
            Ok(Answer::Now(body.to_vec()))
        }

        fn finish_turn(&mut self, bodies: &mut Vec<Vec<u8>>) {
            if self.later.is_empty() {
                return;
            }
            let peers = self.later.iter().map(|(peer, _)| *peer).collect();
            self.seen.lock().turns.push(peers);
            let delivered = self
                .later
                .iter()
                .position(|(_, body)| body.starts_with(b"s"))
                .unwrap_or(self.later.len());
            let bodies_in_order = self.later.drain(..).map(|(_, body)| body);
            bodies.extend(bodies_in_order.take(delivered));
        }
    }

    /// A one-loop server under a [`Deferring`] handler, and the test's ends
    /// of its channels.
    struct DeferringServer {
        server: Server,
        parked: Receiver<()>,
        gate: Sender<()>,
        seen: Arc<Mutex<Seen>>,
    }

    impl DeferringServer {
        fn start() -> Self {
            let (parked_tx, parked) = std::sync::mpsc::channel();
            let (gate, gate_rx) = std::sync::mpsc::channel();
            let seen = Arc::new(Mutex::new(Seen::default()));
            let mut handler = Some(Deferring {
                parked: parked_tx,
                gate: gate_rx,
                later: Vec::new(),
                seen: Arc::clone(&seen),
            });
            let server = Server::start(config(1, 16, Duration::from_secs(5)), || {
                Ok::<_, io::Error>(handler.take().expect("one loop"))
            })
            .expect("start server");
            Self {
                server,
                parked,
                gate,
                seen,
            }
        }

        /// A connection the loop has registered: connections registered in
        /// this order are also read in this order within a turn.
        fn connect(&self) -> TcpStream {
            let mut stream = connect(&self.server);
            assert_eq!(roundtrip(&mut stream, b"hello"), b"hello");
            stream
        }

        /// Parks the loop inside `sleeper`'s frame until [`Self::release`].
        fn park(&self, sleeper: &mut TcpStream) {
            sleeper.write_frame(&POLICY, b"z").expect("write frame");
            self.parked.recv().expect("loop parks");
        }

        fn release(&self, sleeper: &mut TcpStream) {
            self.gate.send(()).expect("loop is parked");
            assert_eq!(sleeper.read_frame(&POLICY).expect("read frame"), b"z");
        }
    }

    /// Writes `bodies` as one burst of frames.
    fn write_burst(stream: &mut TcpStream, bodies: &[&[u8]]) {
        let mut wire = Vec::new();
        for body in bodies {
            wire.write_frame(&POLICY, body).expect("frame");
        }
        stream.write_all(&wire).expect("write burst");
    }

    fn assert_reads(stream: &mut TcpStream, bodies: &[&[u8]]) {
        for body in bodies {
            assert_eq!(&stream.read_frame(&POLICY).expect("read frame"), body);
        }
    }

    /// Answers every frame now; `finish_turn` tells the test over `early`
    /// whether the client could already read any of the turn's answers.
    struct Peeking {
        clients: Receiver<TcpStream>,
        client: Option<TcpStream>,
        early: Sender<bool>,
    }

    impl Handler for Peeking {
        type Conn = ();

        fn connected(&mut self, _peer: SocketAddr) {}

        fn frame(&mut self, (): &mut (), body: &[u8]) -> Result<Answer, Vec<u8>> {
            Ok(Answer::Now(body.to_vec()))
        }

        fn finish_turn(&mut self, _bodies: &mut Vec<Vec<u8>>) {
            let clients = &self.clients;
            let client = self
                .client
                .get_or_insert_with(|| clients.recv().expect("the test sends its stream"));
            // The test does not read until it has this verdict, so the
            // socket's mode can be borrowed for one peek.
            client.set_nonblocking(true).expect("nonblocking");
            let written = client.peek(&mut [0u8; 1]).is_ok();
            client.set_nonblocking(false).expect("blocking");
            self.early.send(written).expect("the test is listening");
        }
    }

    #[test]
    fn finish_turn_runs_before_its_turn_s_answers_are_written() {
        let (client_tx, clients) = std::sync::mpsc::channel();
        let (early, verdicts) = std::sync::mpsc::channel();
        let mut handler = Some(Peeking {
            clients,
            client: None,
            early,
        });
        let server = Server::start(config(1, 16, Duration::from_secs(5)), || {
            Ok::<_, io::Error>(handler.take().expect("one loop"))
        })
        .expect("start server");
        let mut stream = connect(&server);
        client_tx
            .send(stream.try_clone().expect("clone"))
            .expect("the handler is alive");
        for round in 0..3 {
            write_burst(&mut stream, &[b"a", b"b", b"c"]);
            let written = verdicts.recv().expect("finish_turn reports");
            assert!(
                !written,
                "round {round}: answers written before finish_turn"
            );
            assert_reads(&mut stream, &[b"a", b"b", b"c"]);
        }
        server.shutdown();
    }

    #[test]
    fn deferred_and_immediate_answers_come_back_in_request_order() {
        let deferring = DeferringServer::start();
        let mut stream = deferring.connect();
        let burst: [&[u8]; 6] = [b"d1", b"n2", b"n3", b"d4", b"d5", b"n6"];
        write_burst(&mut stream, &burst);
        assert_reads(&mut stream, &burst);
        deferring.server.shutdown();
    }

    #[test]
    fn one_finish_turn_answers_frames_from_several_connections() {
        let deferring = DeferringServer::start();
        let mut sleeper = deferring.connect();
        let mut first = deferring.connect();
        let mut second = deferring.connect();
        // Both bursts land while the loop is parked, so its next turn reads
        // both connections — the crowd shape: many peers, few frames each.
        deferring.park(&mut sleeper);
        write_burst(&mut first, &[b"d-first-1", b"d-first-2"]);
        write_burst(&mut second, &[b"d-second-1", b"n-second-2"]);
        deferring.release(&mut sleeper);
        // Each connection gets its own bodies, in its own order.
        assert_reads(&mut first, &[b"d-first-1", b"d-first-2"]);
        assert_reads(&mut second, &[b"d-second-1", b"n-second-2"]);
        let peers = [first.local_addr(), second.local_addr()].map(|addr| addr.expect("addr"));
        let seen = deferring.seen.lock();
        assert!(
            seen.turns
                .iter()
                .any(|turn| peers.iter().all(|peer| turn.contains(peer))),
            "no finish_turn saw both connections: {:?}",
            seen.turns
        );
        drop(seen);
        deferring.server.shutdown();
    }

    #[test]
    fn last_words_follow_the_deferred_answers_and_end_the_burst() {
        let deferring = DeferringServer::start();
        let mut stream = deferring.connect();
        write_burst(&mut stream, &[b"d1", b"d2", b"!", b"n4"]);
        assert_reads(&mut stream, &[b"d1", b"d2", b"!"]);
        assert_eof(&mut stream);
        // The frame behind the poison never reached the handler.
        let frames = deferring.seen.lock().frames.clone();
        assert_eq!(frames, [&b"hello"[..], b"d1", b"d2", b"!"]);
        deferring.server.shutdown();
    }

    #[test]
    fn a_handler_that_comes_up_short_closes_only_the_starved_connections() {
        let deferring = DeferringServer::start();
        let mut sleeper = deferring.connect();
        let mut answered = deferring.connect();
        let mut starved = deferring.connect();
        deferring.park(&mut sleeper);
        write_burst(&mut answered, &[b"d-answered", b"n-answered"]);
        write_burst(&mut starved, &[b"s-starved", b"n-starved"]);
        deferring.release(&mut sleeper);
        assert_reads(&mut answered, &[b"d-answered", b"n-answered"]);
        // No body for the deferred frame: closed, and the later answer is
        // dropped rather than delivered in the missing one's place.
        assert_eof(&mut starved);
        assert_eq!(roundtrip(&mut answered, b"alive"), b"alive");
        assert_eq!(deferring.server.shutdown().evicted, 0);
    }
}
