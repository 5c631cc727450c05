//! Level-triggered readiness reactor over nonblocking sockets.
//!
//! One [`Reactor`] per event-loop thread: sockets are registered with a
//! read/write [`Interest`] and an optional per-connection deadline, and each
//! [`Reactor::poll`] turn reports which registered sources are ready (or
//! timed out) as [`Event`]s. The implementation sits directly on `poll(2)`
//! declared through `extern "C"` — std already links the platform C library
//! on unix, and the build environment vendors no libc crate — so the whole
//! serving path stays std + parking_lot.
//!
//! Cross-thread wakes (shutdown, epoch cuts, new connections handed to a
//! loop) go through a `Waker`: a nonblocking `UnixStream` pair whose read
//! end the reactor polls alongside the registered sockets. `poll` returns
//! early when woken; callers re-check their own control state each turn.
//!
//! Unix only: every supported target is unix, and the serving path has no
//! second implementation to keep in step with this one.

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(not(unix))]
compile_error!("prochlo-net's reactor is built on poll(2) and unix socket pairs; non-unix targets are not supported");

/// Raw `poll(2)` bindings. `pollfd` layout and the event bits are fixed by
/// POSIX; `nfds_t` is `unsigned long` on linux and `unsigned int` elsewhere.
mod sys {
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct pollfd {
        pub(super) fd: i32,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;
    pub(super) const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    pub(super) type NfdsT = c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(super) type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut pollfd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Polls the fd set, mapping `EINTR` to "zero events" so callers treat
    /// signal interruptions as an ordinary empty turn.
    pub(super) fn poll_fds(fds: &mut [pollfd], timeout_ms: c_int) -> std::io::Result<usize> {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// Which readiness a registered source is polled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Poll for readability (incoming bytes, incoming connections, hangup).
    pub(crate) read: bool,
    /// Poll for writability (send-buffer space available).
    pub(crate) write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Self = Self {
        read: true,
        write: false,
    };
    /// Write readiness only.
    pub(crate) const WRITE: Self = Self {
        read: false,
        write: true,
    };
    /// Both read and write readiness.
    pub(crate) const READ_WRITE: Self = Self {
        read: true,
        write: true,
    };
}

/// Handle for one registered source, returned by [`Reactor::register`] and
/// echoed back in every [`Event`]. Tokens are generation-stamped: a token
/// kept past its `Reactor::deregister` goes permanently stale and is
/// ignored, even after the slab slot is recycled for a new source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token {
    index: usize,
    generation: u64,
}

/// One readiness (or deadline-expiry) report from [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registered source this event concerns.
    pub(crate) token: Token,
    /// The source is readable (includes peer hangup and socket errors, so
    /// the next read surfaces the failure).
    pub(crate) readable: bool,
    /// The source's deadline expired before any readiness. The deadline is
    /// cleared when it fires; callers re-arm or evict.
    pub(crate) timed_out: bool,
}

/// Cross-thread wake handle for one [`Reactor`]; cloneable and cheap. A
/// wake makes the reactor's current (or next) [`Reactor::poll`] return
/// promptly. Wakes coalesce: many wakes before a poll turn cost one wakeup.
#[derive(Debug, Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Wakes the reactor. Never blocks: a full wake pipe already guarantees
    /// the next poll turn returns immediately.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1u8]);
    }
}

struct Entry {
    fd: RawFd,
    interest: Interest,
    deadline: Option<Instant>,
}

/// One slab slot: the generation advances on every deregistration, so
/// tokens minted for a previous occupant never alias the current one.
#[derive(Default)]
struct Slot {
    generation: u64,
    entry: Option<Entry>,
}

/// Level-triggered readiness reactor; see the module docs for the model.
pub struct Reactor {
    slots: Vec<Slot>,
    free: Vec<usize>,
    waker: Waker,
    waker_rx: UnixStream,
    pollfds: Vec<sys::pollfd>,
    poll_tokens: Vec<Token>,
}

impl Reactor {
    /// A reactor with an armed wake channel and no registered sources.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self {
            slots: Vec::new(),
            free: Vec::new(),
            waker: Waker { tx: Arc::new(tx) },
            waker_rx: rx,
            pollfds: Vec::new(),
            poll_tokens: Vec::new(),
        })
    }

    /// The live entry behind `token`, if the token is still current.
    fn entry_mut(&mut self, token: Token) -> Option<&mut Entry> {
        self.slots
            .get_mut(token.index)
            .filter(|slot| slot.generation == token.generation)
            .and_then(|slot| slot.entry.as_mut())
    }

    /// A wake handle for this reactor, shareable across threads.
    pub(crate) fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Registers a source with an initial interest. The source itself is
    /// not stored; the caller keeps ownership and must `deregister` it
    /// before closing it (a closed fd in the poll set is reported readable
    /// with `POLLNVAL`, which surfaces as a read error, not a crash).
    pub fn register<S: AsRawFd>(&mut self, source: &S, interest: Interest) -> Token {
        let entry = Entry {
            fd: source.as_raw_fd(),
            interest,
            deadline: None,
        };
        match self.free.pop() {
            Some(index) => {
                self.slots[index].entry = Some(entry);
                Token {
                    index,
                    generation: self.slots[index].generation,
                }
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    entry: Some(entry),
                });
                Token {
                    index: self.slots.len() - 1,
                    generation: 0,
                }
            }
        }
    }

    /// Replaces the interest of a registered source. Stale tokens are
    /// ignored.
    pub(crate) fn set_interest(&mut self, token: Token, interest: Interest) {
        if let Some(entry) = self.entry_mut(token) {
            entry.interest = interest;
        }
    }

    /// Arms (or with `None` disarms) the source's deadline, measured from
    /// now. When it expires before any readiness, the next poll turn
    /// reports a `timed_out` event and the deadline disarms; callers re-arm
    /// on progress or evict on expiry. Stale tokens are ignored.
    pub(crate) fn set_deadline(&mut self, token: Token, deadline: Option<Duration>) {
        #[expect(clippy::disallowed_methods, reason = "arms a reactor deadline")]
        let at = deadline.map(|d| Instant::now() + d);
        if let Some(entry) = self.entry_mut(token) {
            entry.deadline = at;
        }
    }

    /// Whether the source currently has an armed deadline. An expiry
    /// disarms, so after a turn that reported `timed_out` for `token` this
    /// is `true` only if the owner re-armed it since. Stale tokens are not
    /// armed.
    pub(crate) fn deadline_armed(&self, token: Token) -> bool {
        let slot = self.slots.get(token.index);
        slot.is_some_and(|s| {
            s.generation == token.generation
                && s.entry.as_ref().is_some_and(|e| e.deadline.is_some())
        })
    }

    /// Removes a source from the poll set, retiring its token: the slot is
    /// recycled under a new generation, so the retired token goes stale
    /// rather than aliasing the slot's next occupant.
    pub(crate) fn deregister(&mut self, token: Token) {
        let Some(slot) = self.slots.get_mut(token.index) else {
            return;
        };
        if slot.generation == token.generation && slot.entry.take().is_some() {
            slot.generation += 1;
            self.free.push(token.index);
        }
    }

    /// Runs one poll turn: blocks until a registered source is ready, a
    /// deadline expires, a `Waker` fires, or `max_wait` elapses (`None`
    /// waits indefinitely). Readiness and expiry reports are appended to
    /// `events` (cleared first). Returns the number of events delivered;
    /// zero means a wake, timeout, or signal interruption — callers
    /// re-check their control state every turn regardless.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        max_wait: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        #[expect(clippy::disallowed_methods, reason = "waits to the nearest deadline")]
        let now = Instant::now();
        let nearest_deadline = self
            .slots
            .iter()
            .filter_map(|s| s.entry.as_ref())
            .filter_map(|e| e.deadline)
            .min();
        let mut wait = max_wait;
        if let Some(at) = nearest_deadline {
            let until = at.saturating_duration_since(now);
            wait = Some(wait.map_or(until, |w| w.min(until)));
        }

        self.poll_os(events, wait)?;

        // Deadline sweep after the readiness pass: expired deadlines fire
        // exactly once, then disarm until re-armed.
        #[expect(clippy::disallowed_methods, reason = "sweeps expired deadlines")]
        let now = Instant::now();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(entry) = slot.entry.as_mut() {
                if entry.deadline.is_some_and(|at| at <= now) {
                    entry.deadline = None;
                    events.push(Event {
                        token: Token {
                            index,
                            generation: slot.generation,
                        },
                        readable: false,
                        timed_out: true,
                    });
                }
            }
        }
        Ok(events.len())
    }

    fn poll_os(&mut self, events: &mut Vec<Event>, wait: Option<Duration>) -> io::Result<()> {
        // Slot 0 is the wake channel; registered sources follow.
        self.pollfds.clear();
        self.poll_tokens.clear();
        self.pollfds.push(sys::pollfd {
            fd: self.waker_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for (index, slot) in self.slots.iter().enumerate() {
            let Some(entry) = slot.entry.as_ref() else {
                continue;
            };
            let mut mask = 0i16;
            if entry.interest.read {
                mask |= sys::POLLIN;
            }
            if entry.interest.write {
                mask |= sys::POLLOUT;
            }
            if mask == 0 {
                continue; // deadline-only entries are swept, not polled
            }
            self.pollfds.push(sys::pollfd {
                fd: entry.fd,
                events: mask,
                revents: 0,
            });
            self.poll_tokens.push(Token {
                index,
                generation: slot.generation,
            });
        }

        // Round the timeout up so a deadline-driven wake lands at-or-after
        // the deadline instead of one sweep early.
        let timeout_ms = match wait {
            None => -1,
            Some(d) => {
                let ms = d.as_millis() + u128::from(d.as_nanos() % 1_000_000 != 0);
                ms.min(i32::MAX as u128) as i32
            }
        };
        let ready = sys::poll_fds(&mut self.pollfds, timeout_ms)?;
        if ready == 0 {
            return Ok(());
        }
        if self.pollfds[0].revents != 0 {
            self.drain_waker();
        }
        for (fd_slot, &token) in self.pollfds[1..].iter().zip(&self.poll_tokens) {
            let revents = fd_slot.revents;
            if revents == 0 {
                continue;
            }
            // Error and hangup conditions are folded into readability so
            // the owner's next read observes the failure directly.
            let readable =
                revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0;
            events.push(Event {
                token,
                readable,
                timed_out: false,
            });
        }
        Ok(())
    }

    fn drain_waker(&mut self) {
        use std::io::Read;
        let mut scratch = [0u8; 64];
        while matches!(self.waker_rx.read(&mut scratch), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn readable_socket_is_reported_with_its_token() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut reactor = Reactor::new().expect("reactor");
        let token = reactor.register(&server, Interest::READ);
        client.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        let n = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .expect("poll");
        assert!(n >= 1, "expected at least one event");
        let event = events.iter().find(|e| e.token == token).expect("token");
        assert!(event.readable && !event.timed_out);
    }

    #[test]
    fn idle_socket_with_deadline_times_out_and_disarms() {
        let (_client, server) = pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut reactor = Reactor::new().expect("reactor");
        let token = reactor.register(&server, Interest::READ);
        reactor.set_deadline(token, Some(Duration::from_millis(20)));
        let mut events = Vec::new();
        // First turn: the deadline fires.
        let mut fired = false;
        for _ in 0..50 {
            reactor
                .poll(&mut events, Some(Duration::from_millis(50)))
                .expect("poll");
            if events.iter().any(|e| e.token == token && e.timed_out) {
                fired = true;
                break;
            }
        }
        assert!(fired, "deadline never fired");
        // Disarmed: a short follow-up turn sees no further expiry.
        reactor
            .poll(&mut events, Some(Duration::from_millis(30)))
            .expect("poll");
        assert!(!events.iter().any(|e| e.token == token && e.timed_out));
    }

    #[test]
    fn waker_interrupts_an_indefinite_poll() {
        let (_client, server) = pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut reactor = Reactor::new().expect("reactor");
        let _token = reactor.register(&server, Interest::READ);
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        // Returns despite no socket traffic; zero events signals a wake.
        let n = reactor.poll(&mut events, None).expect("poll");
        assert_eq!(n, 0);
        handle.join().expect("join");
    }

    #[test]
    fn tokens_recycle_after_deregister() {
        let (_c1, s1) = pair();
        let (_c2, s2) = pair();
        let mut reactor = Reactor::new().expect("reactor");
        let registered = |r: &Reactor| r.slots.len() - r.free.len();
        let t1 = reactor.register(&s1, Interest::READ);
        assert_eq!(registered(&reactor), 1);
        reactor.deregister(t1);
        assert_eq!(registered(&reactor), 0);
        let t2 = reactor.register(&s2, Interest::READ_WRITE);
        assert_eq!(t2.index, t1.index, "freed slot is reused");
        reactor.deregister(t1); // stale double-deregister is ignored
        assert_eq!(registered(&reactor), 1);
    }
}
