//! Shared length-prefixed frame I/O for every TCP protocol in the
//! workspace.
//!
//! The collector protocol and the shard fabric both speak length-prefixed
//! frames over blocking streams; this module is the single code path for
//! that framing, so the max-frame-size and version-byte policy live in
//! exactly one place. A frame is:
//!
//! ```text
//! [u32 le length][u8 version][length-1 body bytes]
//! ```
//!
//! The length counts the version byte plus the body, so the version check
//! happens at the framing layer — a peer speaking the wrong protocol
//! version fails before any message parsing runs. Frame bodies are encoded
//! with the explicit reader/writer in [`crate::wire`]; there is
//! deliberately no serialization framework.
//!
//! **One writer.** [`write_frame_vectored`] is the only code that emits a
//! frame: it checks the ceiling before writing a byte, keeps the 5-byte
//! header on the stack and hands header and body to the sink as one
//! vectored write, resuming across partial writes. The body may come in two
//! pieces (the fabric sends its envelope header and the payload without
//! joining them), so framing into a `Vec`, a `BufWriter` or a socket copies
//! the body at most once and takes one write call where a pre-joined frame
//! took one. [`FrameWrite`] (blocking sinks) and `prochlo_net::send_frame`
//! (nonblocking sockets, parking on writability) are thin wrappers, and
//! neither flushes: as with any [`std::io::Write`], the caller flushes when
//! its bytes must leave. A client that frames a window of requests into a
//! `BufWriter` and flushes once sends the window in one write, which the
//! serving reactor reads in one fill and answers with one write.
//!
//! Two readers share that layout: the blocking [`FrameRead`], which owns
//! its stream and returns each body as a `Vec`, and the readiness-driven
//! [`FrameAccumulator`], which reads a socket straight into its own buffer
//! and lends each body out as a slice of it — the serving path's frames are
//! parsed where they landed (`tests/tests/framing_props.rs` holds the two
//! readers to the same answers over arbitrary fragmentations). A frame
//! larger than the read chunk is the exception: the accumulator reads it
//! into an exactly-sized buffer of its own, which
//! [`FrameAccumulator::take_frame`] hands over by value, so a multi-MiB
//! fabric batch costs one buffer on the receiving side and the shared read
//! buffer never grows to hold it.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::ops::Range;

/// Errors surfaced by frame I/O.
///
/// Protocol crates wrap this in their own error enums (for example
/// `CollectorError: From<FrameError>`) so the framing layer itself stays
/// free of service-specific failure modes.
#[derive(Debug)]
pub enum FrameError {
    /// An operating-system I/O operation failed.
    Io(std::io::Error),
    /// A peer announced (or a caller tried to write) a frame larger than
    /// the policy allows.
    TooLarge {
        /// Bytes the frame would occupy.
        actual: usize,
        /// Maximum frame size the policy permits.
        maximum: usize,
    },
    /// The peer closed the connection at a clean frame boundary.
    Closed,
    /// The frame violated the policy (bad version byte, impossible length).
    Protocol(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge { actual, maximum } => {
                write!(f, "frame of {actual} bytes exceeds maximum {maximum}")
            }
            FrameError::Closed => write!(f, "connection closed by peer"),
            FrameError::Protocol(what) => write!(f, "framing violation: {what}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The framing policy of one protocol: which version byte every frame must
/// carry and how large a frame a peer may announce.
///
/// ```
/// use prochlo_core::framing::{FramePolicy, FrameRead, FrameWrite};
///
/// let policy = FramePolicy::new(1, 1024);
/// let mut wire = Vec::new();
/// wire.write_frame(&policy, b"hello").unwrap();
/// let mut cursor = std::io::Cursor::new(wire);
/// assert_eq!(cursor.read_frame(&policy).unwrap(), b"hello");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePolicy {
    /// Version byte every frame starts with.
    pub version: u8,
    /// Maximum total frame length (version byte + body) accepted from a
    /// peer, and the most a writer will emit.
    pub(crate) max_frame_len: usize,
}

impl FramePolicy {
    /// A policy with the given version byte and frame-size ceiling.
    pub const fn new(version: u8, max_frame_len: usize) -> Self {
        Self {
            version,
            max_frame_len,
        }
    }

    /// The same policy with a different frame-size ceiling (e.g. the
    /// `u32` maximum a writer may emit, or a handshake's exact length).
    pub const fn with_max_frame_len(self, max_frame_len: usize) -> Self {
        Self {
            max_frame_len,
            ..self
        }
    }
}

/// Bytes a frame puts in front of its body: the `u32` length and the
/// version byte.
const FRAME_HEADER_LEN: usize = 5;

/// The header of a frame carrying `body_len` body bytes, or
/// [`FrameError::TooLarge`] when the policy (or the `u32` length field)
/// cannot carry it. Callers that must not commit to a frame the writer
/// would refuse — the fabric takes a sequence number per frame — ask this
/// first.
pub fn frame_header(
    policy: &FramePolicy,
    body_len: usize,
) -> Result<[u8; FRAME_HEADER_LEN], FrameError> {
    let len = body_len.saturating_add(1);
    let maximum = policy.max_frame_len.min(u32::MAX as usize);
    if len > maximum {
        return Err(FrameError::TooLarge {
            actual: len,
            maximum,
        });
    }
    let [a, b, c, d] = (len as u32).to_le_bytes();
    Ok([a, b, c, d, policy.version])
}

/// Writes one frame whose body is `body[0]` followed by `body[1]`: the
/// ceiling is checked before any byte is written, then the stack-held
/// header and both pieces go to `writer` as vectored writes, resumed across
/// partial writes. A `WouldBlock` goes to `on_would_block`: a blocking
/// sink passes it back as the error, a nonblocking socket parks until
/// writable and returns `Ok` to retry. A sink that accepts zero bytes is
/// [`FrameError::Closed`]. Does not flush.
pub fn write_frame_vectored<W: Write + ?Sized>(
    writer: &mut W,
    policy: &FramePolicy,
    body: [&[u8]; 2],
    mut on_would_block: impl FnMut(io::Error) -> io::Result<()>,
) -> Result<(), FrameError> {
    let [head, tail] = body;
    let header = frame_header(policy, head.len() + tail.len())?;
    let mut slices = [
        IoSlice::new(&header),
        IoSlice::new(head),
        IoSlice::new(tail),
    ];
    let mut unwritten = FRAME_HEADER_LEN + head.len() + tail.len();
    let mut slices = slices.as_mut_slice();
    while unwritten > 0 {
        match writer.write_vectored(slices) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => {
                unwritten -= n;
                IoSlice::advance_slices(&mut slices, n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => on_would_block(e)?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Writing one policy-checked frame to a byte sink.
///
/// Blanket-implemented for every [`std::io::Write`] through
/// [`write_frame_vectored`]; protocols call
/// `writer.write_frame(&policy, body)` instead of hand-rolling the length
/// prefix.
pub trait FrameWrite {
    /// Writes one frame (`[u32 len][version][body]`) without flushing: on a
    /// buffered sink the caller flushes when the frame must leave.
    fn write_frame(&mut self, policy: &FramePolicy, body: &[u8]) -> Result<(), FrameError>;
}

/// Reading one policy-checked frame from a byte source.
///
/// Blanket-implemented for every [`std::io::Read`]. A peer that closes the
/// connection *between* frames yields [`FrameError::Closed`] (the clean end
/// of a session); one that closes mid-frame yields an I/O error.
pub trait FrameRead {
    /// Reads one frame body (the bytes after the version byte), enforcing
    /// the policy's size ceiling before allocating and its version byte
    /// before returning.
    fn read_frame(&mut self, policy: &FramePolicy) -> Result<Vec<u8>, FrameError>;
}

impl<W: Write + ?Sized> FrameWrite for W {
    fn write_frame(&mut self, policy: &FramePolicy, body: &[u8]) -> Result<(), FrameError> {
        write_frame_vectored(self, policy, [&[], body], Err)
    }
}

impl<R: Read + ?Sized> FrameRead for R {
    fn read_frame(&mut self, policy: &FramePolicy) -> Result<Vec<u8>, FrameError> {
        let mut len_bytes = [0u8; 4];
        match self.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(FrameError::Closed)
            }
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > policy.max_frame_len {
            return Err(FrameError::TooLarge {
                actual: len,
                maximum: policy.max_frame_len,
            });
        }
        if len < 2 {
            return Err(FrameError::Protocol("frame shorter than header"));
        }
        let mut version = [0u8; 1];
        self.read_exact(&mut version)?;
        if version != [policy.version] {
            return Err(FrameError::Protocol("unsupported protocol version"));
        }
        let mut body = vec![0u8; len - 1];
        self.read_exact(&mut body)?;
        Ok(body)
    }
}

/// Incremental frame assembly for readiness-driven (nonblocking) I/O.
///
/// The blocking [`FrameRead`] path owns its stream and can simply
/// `read_exact`; an event loop instead receives arbitrary byte chunks as
/// the socket becomes readable and must resume parsing mid-frame. This
/// accumulator is the nonblocking twin of [`FrameRead`]: fill it with
/// [`FrameAccumulator::read_from`] (straight off a socket) or
/// [`FrameAccumulator::extend`], then walk the complete frame bodies with
/// [`FrameAccumulator::next_frame`] (borrowed) or
/// [`FrameAccumulator::take_frame`] (owned). Policy checks happen as early
/// as the bytes allow — an oversized length prefix is rejected the moment
/// its four bytes are present (before any body byte is parsed), and a wrong
/// version byte is rejected as soon as it arrives.
///
/// Bodies are handed out as slices of the accumulator's own buffer, so a
/// frame costs no allocation and no copy between the socket and its
/// parser. That is why consumed bytes are reclaimed only when the buffer is
/// next *filled*: a fill needs `&mut self`, which no live body can overlap,
/// whereas reclaiming during the walk would shift the bytes a caller is
/// still reading.
///
/// A frame longer than the fill about to read it (the read chunk, or the
/// chunk passed to `extend`) is the exception. Once its header and version
/// byte are in, its body moves to an exactly-sized buffer of its own and
/// later fills read straight into that buffer until it is complete; the
/// walk hands it over by value from `take_frame` (no copy) or lends it from
/// `next_frame` (freed by the next call). The shared buffer therefore stays
/// near one chunk however large the frames a stream carries.
///
/// ```
/// use prochlo_core::framing::{FrameAccumulator, FramePolicy, FrameWrite};
///
/// let policy = FramePolicy::new(1, 1024);
/// let mut wire = Vec::new();
/// wire.write_frame(&policy, b"hello").unwrap();
/// let mut acc = FrameAccumulator::new(policy);
/// for byte in wire {
///     acc.extend(&[byte]); // one byte at a time
/// }
/// assert_eq!(acc.next_frame().unwrap(), Some(&b"hello"[..]));
/// assert_eq!(acc.next_frame().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct FrameAccumulator {
    policy: FramePolicy,
    /// Storage, initialised through `buf.len()`: `buf[start..end]` is
    /// received and not yet handed out, `buf[end..]` is room a fill reads
    /// into — zeroed once when the buffer grows, never per fill.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Where the fill resumes looking for the stream's incomplete frame:
    /// every frame in `buf[start..scanned]` is known to be complete.
    scanned: usize,
    /// The one frame too long for the fill, assembled in its own buffer.
    large: Option<LargeFrame>,
    /// The last large body `next_frame` lent out; the next call frees it.
    lent: Vec<u8>,
    /// Set once a policy violation is detected: the stream cannot be
    /// resynchronized, so every later call reports the same error.
    poisoned: Option<&'static str>,
}

/// A frame whose body is read into an exactly-sized buffer instead of the
/// shared one.
#[derive(Debug)]
struct LargeFrame {
    /// The frame body (version byte stripped), `body[..filled]` received.
    body: Vec<u8>,
    filled: usize,
    /// The frame's place in the stream: the offset in the shared buffer
    /// where it would have started. Frames before it sit in `buf[..at]`,
    /// frames received after it from `at` on.
    at: usize,
}

/// What the walk found next.
enum Next {
    /// A body in `buf`.
    Shared(Range<usize>),
    /// The completed large frame.
    Large,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing `policy`.
    pub fn new(policy: FramePolicy) -> Self {
        Self {
            policy,
            buf: Vec::new(),
            start: 0,
            end: 0,
            scanned: 0,
            large: None,
            lent: Vec::new(),
            poisoned: None,
        }
    }

    /// Appends one chunk of bytes read off the stream.
    pub fn extend(&mut self, mut chunk: &[u8]) {
        // A fill offers at least `room` bytes and a slice reads out whole,
        // so the one read takes all of the chunk; it cannot fail.
        let room = chunk.len();
        let _ = self.read_from(&mut chunk, room);
    }

    /// Makes one `read` call straight into the buffer and returns how many
    /// bytes arrived: `0` at end of stream, fewer than `room` once the
    /// source has nothing more to give right now. While a large frame is in
    /// assembly the call is a vectored read into the rest of that frame's
    /// own buffer, then `room` bytes of the shared one.
    pub fn read_from(&mut self, reader: &mut impl Read, room: usize) -> io::Result<usize> {
        self.prepare_fill(room);
        self.make_room(room);
        let shared = self
            .buf
            .get_mut(self.end..self.end + room)
            .unwrap_or_default();
        let (n, into_shared) = match self.large.as_mut().filter(|l| l.filled < l.body.len()) {
            Some(large) => {
                let rest = large.body.get_mut(large.filled..).unwrap_or_default();
                let rest_len = rest.len();
                let n =
                    reader.read_vectored(&mut [IoSliceMut::new(rest), IoSliceMut::new(shared)])?;
                large.filled += n.min(rest_len);
                (n, n.saturating_sub(rest_len))
            }
            None => {
                let n = reader.read(shared)?;
                (n, n)
            }
        };
        self.end += into_shared;
        Ok(n)
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        let large = self
            .large
            .as_ref()
            .map_or(0, |l| FRAME_HEADER_LEN + l.filled);
        self.end - self.start + large
    }

    /// Returns the next complete frame body, `None` when more bytes are
    /// needed, or an error when the stream violated the policy (oversized
    /// announcement, impossible length, wrong version byte). Errors are
    /// sticky: a violated stream cannot be resynchronized. The body borrows
    /// from the accumulator; it is valid until the next fill or walk call.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        Ok(match self.advance()? {
            None => None,
            Some(Next::Shared(body)) => self.buf.get(body),
            Some(Next::Large) => {
                self.lent = self.take_large();
                Some(&self.lent)
            }
        })
    }

    /// [`Self::next_frame`] by value: a frame from the shared buffer is
    /// copied out, a large frame's own buffer is handed over as it is.
    pub fn take_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(match self.advance()? {
            None => None,
            Some(Next::Shared(body)) => self.buf.get(body).map(<[u8]>::to_vec),
            Some(Next::Large) => Some(self.take_large()),
        })
    }

    /// The walk shared by [`Self::next_frame`] and [`Self::take_frame`].
    fn advance(&mut self) -> Result<Option<Next>, FrameError> {
        self.lent = Vec::new();
        if let Some(what) = self.poisoned {
            return Err(FrameError::Protocol(what));
        }
        if let Some(large) = self.large.as_ref().filter(|l| l.at == self.start) {
            let done = large.filled == large.body.len();
            return Ok(done.then_some(Next::Large));
        }
        let live = self.buf.get(self.start..self.end).unwrap_or_default();
        let Some(&len_bytes) = live.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > self.policy.max_frame_len {
            // Reject on the announcement alone — mid-accumulation, before
            // the peer gets to make us buffer the body.
            self.poisoned = Some("oversized frame");
            return Err(FrameError::TooLarge {
                actual: len,
                maximum: self.policy.max_frame_len,
            });
        }
        if len < 2 {
            self.poisoned = Some("frame shorter than header");
            return Err(FrameError::Protocol("frame shorter than header"));
        }
        // The version byte is checked as soon as it is present, without
        // waiting for the body.
        if live
            .get(4)
            .is_some_and(|&version| version != self.policy.version)
        {
            self.poisoned = Some("unsupported protocol version");
            return Err(FrameError::Protocol("unsupported protocol version"));
        }
        if live.len() < 4 + len {
            return Ok(None);
        }
        let body = self.start + FRAME_HEADER_LEN..self.start + 4 + len;
        self.start += 4 + len;
        Ok(Some(Next::Shared(body)))
    }

    fn take_large(&mut self) -> Vec<u8> {
        self.large.take().map(|l| l.body).unwrap_or_default()
    }

    /// The length of a frame whose header sits whole at `buf[at..end]` and
    /// passes the policy; `None` when the header is still incomplete or
    /// breaks the policy — the walk reports a violation where it sits.
    fn announced_at(&self, at: usize) -> Option<usize> {
        let header = self.buf.get(at..self.end)?.get(..FRAME_HEADER_LEN)?;
        let [a, b, c, d, version] = *header else {
            return None;
        };
        let len = u32::from_le_bytes([a, b, c, d]) as usize;
        (2..=self.policy.max_frame_len)
            .contains(&len)
            .then_some(len)
            .filter(|_| version == self.policy.version)
    }

    /// Readies a fill of `room` bytes: frees a body lent out by the walk
    /// and, when the stream's incomplete frame is longer than the fill,
    /// moves what arrived of it into an exactly-sized buffer of its own
    /// (one large frame at a time; a later one waits its turn in `buf`).
    fn prepare_fill(&mut self, room: usize) {
        self.lent = Vec::new();
        if self.large.is_some() || self.poisoned.is_some() {
            return;
        }
        let mut at = self.scanned.max(self.start);
        while let Some(len) = self.announced_at(at) {
            if self.end - at >= 4 + len {
                at += 4 + len;
                continue;
            }
            if 4 + len > room {
                let arrived = self
                    .buf
                    .get(at + FRAME_HEADER_LEN..self.end)
                    .unwrap_or_default();
                let mut body = Vec::with_capacity(len - 1);
                body.extend_from_slice(arrived);
                body.resize(len - 1, 0);
                self.large = Some(LargeFrame {
                    filled: arrived.len(),
                    body,
                    at,
                });
                self.end = at;
            }
            break;
        }
        self.scanned = at;
    }

    /// Makes `buf[end..end + len]` writable. This is where
    /// consumed frames are reclaimed: free when everything was consumed,
    /// else one move of the remainder once the dead prefix dominates it, so
    /// the resident size stays proportional to the unparsed bytes.
    fn make_room(&mut self, len: usize) {
        let shift = if self.start == self.end {
            self.start
        } else if self.start * 2 >= self.end {
            self.buf.copy_within(self.start..self.end, 0);
            self.start
        } else {
            0
        };
        self.scanned = self.scanned.max(self.start) - shift;
        if let Some(large) = self.large.as_mut() {
            large.at -= shift;
        }
        (self.start, self.end) = (self.start - shift, self.end - shift);
        if self.buf.len() < self.end + len {
            self.buf.resize(self.end + len, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const POLICY: FramePolicy = FramePolicy::new(1, 1024);

    impl FrameAccumulator {
        /// Bytes this accumulator holds allocated: the shared buffer, a
        /// large frame in assembly and a large body still lent out.
        fn capacity(&self) -> usize {
            let large = self.large.as_ref().map_or(0, |l| l.body.capacity());
            self.buf.capacity() + large + self.lent.capacity()
        }
    }

    #[test]
    fn frames_roundtrip_and_preserve_wire_layout() {
        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"body").unwrap();
        // [u32 len = 5][version = 1]["body"] — byte-compatible with the
        // pre-refactor collector frames, whose bodies started with the
        // version byte.
        assert_eq!(wire, [5, 0, 0, 0, 1, b'b', b'o', b'd', b'y']);
        let mut cursor = Cursor::new(wire);
        assert_eq!(cursor.read_frame(&POLICY).unwrap(), b"body");
        assert!(matches!(
            cursor.read_frame(&POLICY),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_frames_are_refused_on_both_sides() {
        let mut wire = Vec::new();
        assert!(matches!(
            wire.write_frame(&POLICY, &[0u8; 1024]),
            Err(FrameError::TooLarge { .. })
        ));
        // An oversized announcement is refused before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(
            Cursor::new(huge).read_frame(&POLICY),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn short_frames_and_bad_versions_are_protocol_errors() {
        let mut short = Vec::new();
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(1);
        assert!(matches!(
            Cursor::new(short).read_frame(&POLICY),
            Err(FrameError::Protocol("frame shorter than header"))
        ));
        let mut bad_version = Vec::new();
        bad_version
            .write_frame(&FramePolicy::new(9, 1024), b"x")
            .unwrap();
        assert!(matches!(
            Cursor::new(bad_version).read_frame(&POLICY),
            Err(FrameError::Protocol("unsupported protocol version"))
        ));
    }

    #[test]
    fn truncated_bodies_are_io_errors() {
        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"body").unwrap();
        wire.truncate(wire.len() - 1);
        assert!(matches!(
            Cursor::new(wire).read_frame(&POLICY),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn accumulator_reassembles_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        wire.write_frame(&POLICY, b"first").unwrap();
        wire.write_frame(&POLICY, b"second").unwrap();
        let mut acc = FrameAccumulator::new(POLICY);
        let mut frames = Vec::new();
        for byte in wire {
            acc.extend(&[byte]);
            while let Some(body) = acc.next_frame().unwrap() {
                frames.push(body.to_vec());
            }
        }
        assert_eq!(frames, [b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_drains_multiple_frames_from_one_chunk() {
        let mut wire = Vec::new();
        for body in [&b"a"[..], b"bb", b"ccc"] {
            wire.write_frame(&POLICY, body).unwrap();
        }
        // Split mid-way through the second frame: the first call sees one
        // complete frame plus a partial, the second completes the rest.
        let cut = 4 + 2 + 3;
        let mut acc = FrameAccumulator::new(POLICY);
        acc.extend(&wire[..cut]);
        assert_eq!(acc.next_frame().unwrap(), Some(&b"a"[..]));
        assert_eq!(acc.next_frame().unwrap(), None);
        acc.extend(&wire[cut..]);
        assert_eq!(acc.next_frame().unwrap(), Some(&b"bb"[..]));
        assert_eq!(acc.next_frame().unwrap(), Some(&b"ccc"[..]));
        assert_eq!(acc.next_frame().unwrap(), None);
    }

    #[test]
    fn accumulator_rejects_oversize_on_the_length_prefix_alone() {
        let mut acc = FrameAccumulator::new(POLICY);
        acc.extend(&(1u32 << 30).to_le_bytes());
        assert!(matches!(
            acc.next_frame(),
            Err(FrameError::TooLarge { actual, .. }) if actual == 1 << 30
        ));
        // The error is sticky: the stream cannot be resynchronized.
        acc.extend(b"more bytes");
        assert!(matches!(acc.next_frame(), Err(FrameError::Protocol(_))));
    }

    #[test]
    fn accumulator_rejects_bad_version_before_the_body_arrives() {
        let mut acc = FrameAccumulator::new(POLICY);
        acc.extend(&64u32.to_le_bytes());
        acc.extend(&[9]); // wrong version; 63 body bytes never sent
        assert!(matches!(
            acc.next_frame(),
            Err(FrameError::Protocol("unsupported protocol version"))
        ));
    }

    #[test]
    fn accumulator_rejects_impossibly_short_frames() {
        let mut acc = FrameAccumulator::new(POLICY);
        acc.extend(&1u32.to_le_bytes());
        assert!(matches!(
            acc.next_frame(),
            Err(FrameError::Protocol("frame shorter than header"))
        ));
    }

    #[test]
    fn a_frame_longer_than_the_fill_gets_its_own_exact_buffer() {
        const ROOM: usize = 1024;
        let policy = FramePolicy::new(1, 1 << 20);
        let large: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        wire.write_frame(&policy, b"before").unwrap();
        wire.write_frame(&policy, &large).unwrap();
        wire.write_frame(&policy, b"after").unwrap();
        // Read it all before walking, so the large frame starts behind a
        // frame nobody has taken yet and the one after it lands while the
        // large one waits.
        let mut acc = FrameAccumulator::new(policy);
        let mut source = &wire[..];
        while acc.read_from(&mut source, ROOM).unwrap() > 0 {}
        assert_eq!(acc.buffered(), wire.len());
        assert!(
            acc.capacity() <= 2 * ROOM + large.len(),
            "no copy in the shared buffer"
        );
        assert_eq!(acc.take_frame().unwrap().unwrap(), b"before");
        let body = acc.take_frame().unwrap().unwrap();
        assert_eq!(body, large);
        assert_eq!(body.capacity(), large.len(), "handed over as read");
        assert_eq!(acc.take_frame().unwrap().unwrap(), b"after");
        assert_eq!(acc.take_frame().unwrap(), None);
        assert!(acc.capacity() <= 2 * ROOM);
    }

    #[test]
    fn a_link_keeps_two_read_chunks_after_a_4_mib_frame() {
        // A fabric link's read side: `prochlo-net` reads 16 KiB at a time
        // and takes every completed frame after each readable event. The
        // socket hands over uneven pieces, so the large frame's header and
        // its first bytes arrive in the shared buffer beside earlier bytes.
        const READ_CHUNK: usize = 16 * 1024;
        let policy = FramePolicy::new(1, 8 << 20);
        let large: Vec<u8> = (0..4u32 << 20).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        wire.write_frame(&policy, b"before").unwrap();
        wire.write_frame(&policy, &large).unwrap();
        wire.write_frame(&policy, b"after").unwrap();
        let mut acc = FrameAccumulator::new(policy);
        let mut frames = Vec::new();
        let mut pieces = wire.chunks(48 * 1024 + 7);
        for piece in &mut pieces {
            let mut socket = piece;
            while acc.read_from(&mut socket, READ_CHUNK).unwrap() > 0 {}
            while let Some(frame) = acc.take_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[1], large);
        assert_eq!(frames[1].capacity(), large.len(), "one exact buffer");
        assert_eq!(frames[2], b"after");
        assert!(
            acc.capacity() <= 2 * READ_CHUNK,
            "the link keeps {} bytes of read buffer after a 4 MiB frame",
            acc.capacity()
        );
    }

    #[test]
    fn a_lent_large_body_is_freed_by_the_next_call() {
        let policy = FramePolicy::new(1, 1 << 20);
        let mut wire = Vec::new();
        wire.write_frame(&policy, &[7u8; 50_000]).unwrap();
        let mut acc = FrameAccumulator::new(policy);
        for chunk in wire.chunks(4096) {
            acc.extend(chunk);
        }
        assert_eq!(acc.next_frame().unwrap(), Some(&[7u8; 50_000][..]));
        assert!(acc.capacity() >= 50_000);
        assert_eq!(acc.next_frame().unwrap(), None);
        assert!(acc.capacity() <= 2 * 4096);
    }

    /// A sink that records its bytes and how many write calls brought them.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_buffered_window_of_frames_leaves_in_one_write() {
        // The serving benchmark's closed loop: 64 submissions of 228 wire
        // bytes each, framed into a socket-sized buffer, flushed once.
        let policy = FramePolicy::new(1, 1 << 20);
        let bodies: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 223]).collect();
        let mut expected = Vec::new();
        let mut buffered = io::BufWriter::with_capacity(64 << 10, CountingSink::default());
        for body in &bodies {
            expected.write_frame(&policy, body).unwrap();
            buffered.write_frame(&policy, body).unwrap();
        }
        assert_eq!(expected.len(), 64 * 228);
        assert_eq!(buffered.get_ref().writes, 0, "write_frame does not flush");
        assert!(
            buffered.buffer() == expected,
            "the window waits in the buffer"
        );
        buffered.flush().unwrap();
        let sink = buffered.get_ref();
        assert_eq!(sink.writes, 1, "the window leaves in one write");
        assert!(sink.bytes == expected, "the bytes framing into a Vec makes");
    }

    #[test]
    fn the_ceiling_is_checked_before_a_byte_is_written() {
        let mut wire = vec![9u8];
        let refused = write_frame_vectored(&mut wire, &POLICY, [&[0; 600], &[0; 600]], Err);
        assert!(matches!(
            refused,
            Err(FrameError::TooLarge {
                actual: 1201,
                maximum: 1024
            })
        ));
        assert_eq!(wire, [9]);
    }
}
