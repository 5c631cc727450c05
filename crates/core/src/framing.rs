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
//! Two readers share that layout: the blocking [`FrameRead`], which owns
//! its stream and returns each body as a `Vec`, and the readiness-driven
//! [`FrameAccumulator`], which reads a socket straight into its own buffer
//! and lends each body out as a slice of it — the serving path's frames are
//! parsed where they landed (`tests/tests/framing_props.rs` holds the two
//! readers to the same answers over arbitrary fragmentations).

use std::io::{Read, Write};

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
    pub max_frame_len: usize,
}

impl FramePolicy {
    /// A policy with the given version byte and frame-size ceiling.
    pub const fn new(version: u8, max_frame_len: usize) -> Self {
        Self {
            version,
            max_frame_len,
        }
    }

    /// The same policy with a different frame-size ceiling (e.g. a
    /// per-connection limit from service configuration).
    pub const fn with_max_frame_len(self, max_frame_len: usize) -> Self {
        Self {
            max_frame_len,
            ..self
        }
    }
}

/// Writing one policy-checked frame to a byte sink.
///
/// Blanket-implemented for every [`std::io::Write`]; protocols call
/// `writer.write_frame(&policy, body)` instead of hand-rolling the length
/// prefix.
pub trait FrameWrite {
    /// Writes one frame (`[u32 len][version][body]`) and flushes.
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
        let len = body.len() + 1;
        if len > policy.max_frame_len || len > u32::MAX as usize {
            return Err(FrameError::TooLarge {
                actual: len,
                maximum: policy.max_frame_len.min(u32::MAX as usize),
            });
        }
        let mut frame = Vec::with_capacity(4 + len);
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.push(policy.version);
        frame.extend_from_slice(body);
        self.write_all(&frame)?;
        self.flush()?;
        Ok(())
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
        let mut frame = vec![0u8; len];
        self.read_exact(&mut frame)?;
        // prochlo-lint: allow(panic-on-wire, "bounds proven: len >= 2 is checked above and read_exact filled the whole frame")
        if frame[0] != policy.version {
            return Err(FrameError::Protocol("unsupported protocol version"));
        }
        frame.remove(0);
        Ok(frame)
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
/// [`FrameAccumulator::next_frame`]. Policy checks happen as early as the
/// bytes allow — an oversized length prefix is rejected the moment its
/// four bytes are present (before any body byte is parsed), and a wrong
/// version byte is rejected as soon as it arrives.
///
/// Bodies are handed out as slices of the accumulator's own buffer, so a
/// frame costs no allocation and no copy between the socket and its
/// parser. That is why consumed bytes are reclaimed only when the buffer is
/// next *filled*: a fill needs `&mut self`, which no live body can overlap,
/// whereas reclaiming during the walk would shift the bytes a caller is
/// still reading.
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
    /// Set once a policy violation is detected: the stream cannot be
    /// resynchronized, so every later call reports the same error.
    poisoned: Option<&'static str>,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing `policy`.
    pub fn new(policy: FramePolicy) -> Self {
        Self {
            policy,
            buf: Vec::new(),
            start: 0,
            end: 0,
            poisoned: None,
        }
    }

    /// Appends one chunk of bytes read off the stream.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.room(chunk.len()).copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// Makes one `read` call of up to `room` bytes straight into the buffer
    /// and returns how many arrived: `0` at end of stream, fewer than `room`
    /// once the source has nothing more to give right now.
    pub fn read_from(&mut self, reader: &mut impl Read, room: usize) -> std::io::Result<usize> {
        let n = reader.read(self.room(room))?;
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Returns the next complete frame body, `None` when more bytes are
    /// needed, or an error when the stream violated the policy (oversized
    /// announcement, impossible length, wrong version byte). Errors are
    /// sticky: a violated stream cannot be resynchronized. The body borrows
    /// from the accumulator; it is valid until the next fill.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        if let Some(what) = self.poisoned {
            return Err(FrameError::Protocol(what));
        }
        // prochlo-lint: allow(panic-on-wire, "start and end are internal cursors with start <= end <= buf.len(), advanced only to a consumed frame boundary or by a read's own count; no peer byte reaches the index")
        let live = &self.buf[self.start..self.end];
        if live.len() < 4 {
            return Ok(None);
        }
        // prochlo-lint: allow(panic-on-wire, "bounds proven: live.len() >= 4 is checked above")
        let len = u32::from_le_bytes([live[0], live[1], live[2], live[3]]) as usize;
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
        // prochlo-lint: allow(panic-on-wire, "bounds proven: live.len() >= 5 is checked on this line")
        if live.len() >= 5 && live[4] != self.policy.version {
            self.poisoned = Some("unsupported protocol version");
            return Err(FrameError::Protocol("unsupported protocol version"));
        }
        if live.len() < 4 + len {
            return Ok(None);
        }
        self.start += 4 + len;
        // prochlo-lint: allow(panic-on-wire, "bounds proven: live.len() >= 4 + len and len >= 2 are checked above")
        Ok(Some(&live[5..4 + len]))
    }

    /// `len` writable bytes at the end of the buffered ones. This is where
    /// consumed frames are reclaimed: free when everything was consumed,
    /// else one move of the remainder once the dead prefix dominates it, so
    /// the resident size stays proportional to the unparsed bytes.
    fn room(&mut self, len: usize) -> &mut [u8] {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.start * 2 >= self.end {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() < self.end + len {
            self.buf.resize(self.end + len, 0);
        }
        // prochlo-lint: allow(panic-on-wire, "bounds proven: the buffer was grown to end + len on the line above")
        &mut self.buf[self.end..self.end + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const POLICY: FramePolicy = FramePolicy::new(1, 1024);

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
}
