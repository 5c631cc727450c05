//! The collector wire protocol: length-prefixed frames over TCP.
//!
//! Framing is the shared [`prochlo_core::framing`] code path — a
//! little-endian `u32` frame length, a protocol version byte, then the
//! message body, encoded with the same explicit reader/writer the report
//! formats use ([`prochlo_core::wire`]); there is deliberately no
//! serialization framework and no self-describing schema. Both parsers are
//! chains of labelled [`Reader`] reads ending in [`Reader::finish`], and
//! the reader's errors become [`CollectorError::Protocol`]: a truncated
//! field, an unknown type byte, trailing bytes or a `STATS` count its
//! bytes cannot hold fails the frame. The body starts with a message-type
//! byte:
//!
//! ```text
//! client → collector
//!   SUBMIT:        [u32 len][u8 version=1][u8 type=1][16-byte nonce][u32+report bytes]
//!   PING:          [u32 len][u8 version=1][u8 type=2]
//!   SUBMIT_ROUTED: [u32 len][u8 version=1][u8 type=3][u64 crowd prefix]
//!                  [16-byte nonce][u32+report bytes]
//!   STATS:         [u32 len][u8 version=1][u8 type=4]
//!
//! collector → client
//!   ACK:         [u32 len][u8 version=1][u8 code=0][u32 queue depth]
//!   RETRY_AFTER: [u32 len][u8 version=1][u8 code=1][u32 millis]
//!   REJECTED:    [u32 len][u8 version=1][u8 code=2][u32+reason bytes]
//!   DUPLICATE:   [u32 len][u8 version=1][u8 code=3]
//!   STATS:       [u32 len][u8 version=1][u8 code=4][u32 count]
//!                ([u32+name bytes][u64 f64 bits])*
//! ```
//!
//! The nonce is chosen by the client per submission and is the replay-dedup
//! key; retrying a `RETRY_AFTER` response must reuse the same nonce so a
//! submission that raced a queue slot is never double-counted.
//!
//! `SUBMIT_ROUTED` additionally carries the crowd-routing prefix in the
//! clear — the first eight bytes of `SHA-256(crowd label)`, exactly what a
//! hashed crowd ID already exposes to the shuffler — so a shard-router
//! front-end can pick a collector shard without opening the sealed report.
//! A collector shard treats it as a plain submit.
//!
//! The module also owns the serving policy a front applies before any
//! handler sees a frame, and the collector and the fabric's `ShardRouter`
//! both read it here: the frame ceiling [`MAX_FRAME_LEN`] under
//! [`frame_policy`], and the [`refusal_bodies`] — `RetryAfter` to a
//! connection refused at the cap, `Rejected` to an oversize announcement —
//! so the two fronts refuse with the same bytes.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::io::{Read, Write};

use prochlo_core::framing::{FramePolicy, FrameRead, FrameWrite};
use prochlo_core::wire::{put_bytes, put_u32, put_u64, put_u8, Reader};

use crate::error::CollectorError;

/// Version byte every frame starts with.
pub const PROTOCOL_VERSION: u8 = 1;

/// Length of the client-chosen replay-dedup nonce.
pub const NONCE_LEN: usize = 16;

/// The back-off hint, in milliseconds, of every `RetryAfter` a collector
/// or a shard router answers on its own behalf.
pub const RETRY_AFTER_MS: u32 = 100;

/// The longest serialized report a collector accepts; a longer one is
/// answered `Rejected`.
pub const MAX_REPORT_LEN: usize = 16 << 10;

/// The largest frame a collector, a shard router or a
/// [`crate::CollectorClient`] reads: room for a `SUBMIT_ROUTED` carrying a
/// report of [`MAX_REPORT_LEN`], and for a `STATS` answer. A longer
/// announcement is refused before its body arrives.
pub const MAX_FRAME_LEN: usize = 64 << 10;

/// The collector protocol's framing policy at [`MAX_FRAME_LEN`].
pub const fn frame_policy() -> FramePolicy {
    FramePolicy::new(PROTOCOL_VERSION, MAX_FRAME_LEN)
}

/// The bodies a serving front answers on its own behalf, as `(busy,
/// oversize)`: `RetryAfter` at [`RETRY_AFTER_MS`] to a connection refused
/// at the cap, and `Rejected` to a frame announced over [`MAX_FRAME_LEN`].
pub fn refusal_bodies() -> (Vec<u8>, Vec<u8>) {
    let busy = Response::RetryAfter {
        millis: RETRY_AFTER_MS,
    };
    let oversize = Response::Rejected {
        reason: "frame exceeds maximum size".to_string(),
    };
    (busy.to_bytes(), oversize.to_bytes())
}

/// A client-to-collector message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit one sealed report for the current epoch.
    Submit {
        /// Client-chosen replay-dedup nonce (reused across retries).
        nonce: [u8; NONCE_LEN],
        /// The serialized outer ciphertext of a client report.
        report: Vec<u8>,
    },
    /// Liveness probe; answered with an `Ack` carrying the queue depth.
    Ping,
    /// Submit one sealed report together with its cleartext crowd-routing
    /// prefix, for a router front-end that partitions by crowd.
    SubmitRouted {
        /// First eight bytes of `SHA-256(crowd label)`, read big-endian —
        /// see [`prochlo_core::deployment::crowd_prefix`].
        crowd_prefix: u64,
        /// Client-chosen replay-dedup nonce (reused across retries).
        nonce: [u8; NONCE_LEN],
        /// The serialized outer ciphertext of a client report.
        report: Vec<u8>,
    },
    /// Ask for the collector's live telemetry snapshot
    /// ([`prochlo_obs::Snapshot::flat`] over the service registry).
    Stats,
}

/// A collector-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The report was accepted into the current epoch's queue.
    Ack {
        /// Queue depth after the push (a load hint, not a promise).
        pending: u32,
    },
    /// The collector is saturated; retry the same nonce after the hint.
    RetryAfter {
        /// Suggested client back-off in milliseconds.
        millis: u32,
    },
    /// The report was malformed and will never be accepted.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// The nonce was already accepted; the report is already queued.
    Duplicate,
    /// The flattened telemetry snapshot: sorted `(metric name, value)`
    /// pairs, exactly what [`prochlo_obs::Snapshot::flat`] produces.
    /// Values travel as IEEE-754 bit patterns so the round trip is exact.
    Stats {
        /// Sorted `(name, value)` metric pairs.
        entries: Vec<(String, f64)>,
    },
}

impl Request {
    /// Serializes the message body (without the frame length prefix or
    /// version byte — both belong to the framing policy).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Submit { nonce, report } => {
                put_u8(&mut out, 1);
                out.extend_from_slice(nonce);
                put_bytes(&mut out, report);
            }
            Request::Ping => put_u8(&mut out, 2),
            Request::SubmitRouted {
                crowd_prefix,
                nonce,
                report,
            } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *crowd_prefix);
                out.extend_from_slice(nonce);
                put_bytes(&mut out, report);
            }
            Request::Stats => put_u8(&mut out, 4),
        }
        out
    }

    /// Parses a message body into an owned request.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CollectorError> {
        RequestRef::parse(bytes).map(|request| request.to_owned())
    }
}

/// One submission parsed in place: nonce and report borrow from the frame
/// body they arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission<'a> {
    /// The cleartext crowd-routing prefix of a `SUBMIT_ROUTED`; `None` for
    /// a plain `SUBMIT`.
    pub(crate) crowd_prefix: Option<u64>,
    /// Client-chosen replay-dedup nonce (reused across retries).
    pub(crate) nonce: &'a [u8; NONCE_LEN],
    /// The serialized outer ciphertext of a client report.
    pub(crate) report: &'a [u8],
}

/// A [`Request`] parsed without copying anything out of the frame body —
/// what a serving loop holds between the read buffer and the one copy that
/// puts an accepted report into the queue. This is the only request parser;
/// [`Request::from_bytes`] is this plus `Self::to_owned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// `SUBMIT` or `SUBMIT_ROUTED`.
    Submit(Submission<'a>),
    /// `PING`.
    Ping,
    /// `STATS`.
    Stats,
}

impl<'a> RequestRef<'a> {
    /// Parses a message body.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CollectorError> {
        let mut reader = Reader::new(bytes);
        let request = match reader.get_u8("truncated frame")? {
            tag @ (1 | 3) => RequestRef::Submit(Submission {
                crowd_prefix: match tag {
                    3 => Some(reader.get_u64("truncated crowd prefix")?),
                    _ => None,
                },
                nonce: reader.get_fixed("truncated nonce")?,
                report: reader.get_slice("truncated report")?,
            }),
            2 => RequestRef::Ping,
            4 => RequestRef::Stats,
            _ => return Err(CollectorError::Protocol("unknown request type")),
        };
        reader.finish("trailing frame bytes")?;
        Ok(request)
    }

    /// Copies nonce and report out of the frame body.
    pub(crate) fn to_owned(self) -> Request {
        match self {
            RequestRef::Submit(Submission {
                crowd_prefix,
                nonce,
                report,
            }) => {
                let (nonce, report) = (*nonce, report.to_vec());
                match crowd_prefix {
                    None => Request::Submit { nonce, report },
                    Some(crowd_prefix) => Request::SubmitRouted {
                        crowd_prefix,
                        nonce,
                        report,
                    },
                }
            }
            RequestRef::Ping => Request::Ping,
            RequestRef::Stats => Request::Stats,
        }
    }
}

impl Response {
    /// Serializes the message body (without the frame length prefix or
    /// version byte — both belong to the framing policy).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ack { pending } => {
                put_u8(&mut out, 0);
                put_u32(&mut out, *pending);
            }
            Response::RetryAfter { millis } => {
                put_u8(&mut out, 1);
                put_u32(&mut out, *millis);
            }
            Response::Rejected { reason } => {
                put_u8(&mut out, 2);
                put_bytes(&mut out, reason.as_bytes());
            }
            Response::Duplicate => put_u8(&mut out, 3),
            Response::Stats { entries } => {
                put_u8(&mut out, 4);
                put_u32(&mut out, entries.len() as u32);
                for (name, value) in entries {
                    put_bytes(&mut out, name.as_bytes());
                    put_u64(&mut out, value.to_bits());
                }
            }
        }
        out
    }

    /// Parses a message body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CollectorError> {
        let mut reader = Reader::new(bytes);
        let response = match reader.get_u8("truncated frame")? {
            0 => Response::Ack {
                pending: reader.get_u32("truncated frame")?,
            },
            1 => Response::RetryAfter {
                millis: reader.get_u32("truncated frame")?,
            },
            2 => Response::Rejected {
                reason: String::from_utf8_lossy(reader.get_slice("truncated reason")?).into_owned(),
            },
            3 => Response::Duplicate,
            4 => {
                // The smallest entry is an empty name and a value.
                let count =
                    reader.get_count(4 + 8, "truncated frame", "stats count exceeds frame")?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = reader.get_bytes("truncated metric name")?;
                    let name = String::from_utf8(name)
                        .map_err(|_| CollectorError::Protocol("metric name is not utf-8"))?;
                    let value = f64::from_bits(reader.get_u64("truncated metric value")?);
                    entries.push((name, value));
                }
                Response::Stats { entries }
            }
            _ => return Err(CollectorError::Protocol("unknown response code")),
        };
        reader.finish("trailing frame bytes")?;
        Ok(response)
    }
}

/// Writes one length-prefixed frame under the collector policy. Does not
/// flush: a client behind a `BufWriter` frames a window of requests and
/// flushes once, so the window leaves in one write.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> Result<(), CollectorError> {
    // Writers never truncate their own messages; the size ceiling protects
    // *readers* from hostile announcements, so writes use the codec-level
    // maximum a u32 length can express.
    writer
        .write_frame(&frame_policy().with_max_frame_len(u32::MAX as usize), body)
        .map_err(Into::into)
}

/// Reads one length-prefixed frame body under the collector policy,
/// enforcing `max_len`.
///
/// A peer that closes the connection *between* frames yields
/// [`CollectorError::ConnectionClosed`] (the clean end of a session); one
/// that closes mid-frame yields an I/O error.
pub fn read_frame(reader: &mut impl Read, max_len: usize) -> Result<Vec<u8>, CollectorError> {
    reader
        .read_frame(&frame_policy().with_max_frame_len(max_len))
        .map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn requests_roundtrip() {
        for request in [
            Request::Submit {
                nonce: [7u8; NONCE_LEN],
                report: vec![1, 2, 3, 4],
            },
            Request::Ping,
            Request::SubmitRouted {
                crowd_prefix: 0xdead_beef_0bad_f00d,
                nonce: [9u8; NONCE_LEN],
                report: vec![5, 6],
            },
            Request::Stats,
        ] {
            assert_eq!(Request::from_bytes(&request.to_bytes()).unwrap(), request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for response in [
            Response::Ack { pending: 17 },
            Response::RetryAfter { millis: 250 },
            Response::Rejected {
                reason: "not a ciphertext".to_string(),
            },
            Response::Duplicate,
            Response::Stats {
                entries: Vec::new(),
            },
            Response::Stats {
                entries: vec![
                    ("collector.ingest.accepted".to_string(), 41.0),
                    ("collector.ingest.submit.sum_seconds".to_string(), 0.00125),
                ],
            },
        ] {
            assert_eq!(
                Response::from_bytes(&response.to_bytes()).unwrap(),
                response
            );
        }
    }

    #[test]
    fn stats_values_round_trip_bit_exactly() {
        // f64 bit patterns must survive the wire unchanged, including
        // values with no short decimal representation.
        let entries = vec![
            ("a".to_string(), 0.1 + 0.2),
            ("b".to_string(), f64::MIN_POSITIVE),
            ("c".to_string(), -0.0),
        ];
        let wire = Response::Stats {
            entries: entries.clone(),
        }
        .to_bytes();
        match Response::from_bytes(&wire).unwrap() {
            Response::Stats { entries: got } => {
                for ((name, want), (got_name, got_value)) in entries.iter().zip(&got) {
                    assert_eq!(name, got_name);
                    assert_eq!(want.to_bits(), got_value.to_bits());
                }
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(Request::from_bytes(&[]).is_err());
        assert!(Request::from_bytes(&[9]).is_err()); // bad type
        assert!(Request::from_bytes(&[1, 0]).is_err()); // short nonce
        assert!(Request::from_bytes(&[3, 1]).is_err()); // short prefix
        let mut trailing = Request::Ping.to_bytes();
        trailing.push(0);
        assert!(Request::from_bytes(&trailing).is_err());
        assert!(Response::from_bytes(&[9]).is_err());
        // A stats count its bytes cannot hold is refused before anything
        // is reserved for it.
        assert!(matches!(
            Response::from_bytes(&[4, 0, 0, 0, 1]),
            Err(CollectorError::Protocol("stats count exceeds frame"))
        ));
        assert!(matches!(
            Response::from_bytes(&[4, 0xff, 0xff, 0xff, 0xff]),
            Err(CollectorError::Protocol("stats count exceeds frame"))
        ));
        let mut trailing = Response::Duplicate.to_bytes();
        trailing.push(0);
        assert!(matches!(
            Response::from_bytes(&trailing),
            Err(CollectorError::Protocol("trailing frame bytes"))
        ));
    }

    #[test]
    fn frames_are_byte_compatible_with_the_pre_refactor_layout() {
        // The version byte moved from the message codec into the framing
        // policy; the bytes on the wire must not have changed.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.to_bytes()).unwrap();
        assert_eq!(wire, [2, 0, 0, 0, PROTOCOL_VERSION, 2]);
    }

    #[test]
    fn frames_roundtrip_and_enforce_limits() {
        let body = Request::Ping.to_bytes();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut cursor = Cursor::new(wire.clone());
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), body);
        // Clean EOF at the frame boundary.
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(CollectorError::ConnectionClosed)
        ));
        // Oversized announcement is refused before allocating.
        let mut huge = Vec::new();
        put_u32(&mut huge, 1 << 30);
        assert!(matches!(
            read_frame(&mut Cursor::new(huge), 1024),
            Err(CollectorError::FrameTooLarge { .. })
        ));
        // A frame carrying the wrong version byte is a protocol error.
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.push(9);
        bad.push(2);
        assert!(matches!(
            read_frame(&mut Cursor::new(bad), 1024),
            Err(CollectorError::Protocol("unsupported protocol version"))
        ));
        // Truncated body is an I/O error, not a hang or panic.
        let mut cut = wire.clone();
        cut.truncate(wire.len() - 1);
        assert!(matches!(
            read_frame(&mut Cursor::new(cut), 1024),
            Err(CollectorError::Io(_))
        ));
    }
}
