//! The transport abstraction: peers, stages, channels and envelopes.
//!
//! Every conversation in the fabric is addressed by a [`ChannelId`] — a
//! `(peer, stage)` pair, following the typed per-peer channel shape of MPC
//! helper fabrics: `peer` names *who* is at the other end, `stage` names
//! *which* step of the protocol the bytes belong to. A [`Transport`] moves
//! opaque payloads over those channels, blocking and in order; everything
//! above it (the router, the wire-level split shuffler) is transport
//! agnostic, which is how the loopback tests drive the exact code the TCP
//! deployment runs.
//!
//! On the wire each payload travels inside an [`Envelope`] carrying the
//! *sender's* channel (its identity plus the stage) and a per-channel
//! sequence number, framed by the shared [`prochlo_core::framing`] code
//! path.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::fmt;
use std::marker::PhantomData;

use prochlo_core::framing::{frame_header, FrameError, FramePolicy};
use prochlo_core::wire::{put_bytes, put_u32, put_u64, put_u8, Reader, WireError};

/// Version byte of every fabric frame. Distinct from the collector
/// protocol's version so a fabric peer dialed into a collector port (or
/// vice versa) fails loudly at the framing layer instead of desynchronizing,
/// and raised with every message layout change, so that peers built with
/// different layouts refuse each other's frames the same way.
const FABRIC_VERSION: u8 = 3;

/// Ceiling for one fabric frame. Fabric frames carry whole epoch batches,
/// so the ceiling is far above the collector's per-report limit.
pub(crate) const MAX_FRAME_LEN: usize = 64 << 20;

/// The fabric framing policy, at the 64 MiB fabric frame ceiling.
pub const fn frame_policy() -> FramePolicy {
    FramePolicy::new(FABRIC_VERSION, MAX_FRAME_LEN)
}

/// Bytes an [`Envelope`] puts in front of its payload: the sender (tag and
/// shard index), the stage tag, the sequence number and the payload length.
pub(crate) const ENVELOPE_HEADER_LEN: usize = 18;

/// Refuses a payload whose envelope would not fit one fabric frame, with
/// the framing layer's own [`FrameError::TooLarge`]. A link asks before
/// taking a sequence number: a refused send must leave no gap in the
/// stream, or the next frame on the stage would read as reordered.
pub(crate) fn check_frame_len(payload_len: usize) -> Result<(), FabricError> {
    frame_header(
        &frame_policy(),
        ENVELOPE_HEADER_LEN.saturating_add(payload_len),
    )?;
    Ok(())
}

/// A process in the fabric topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Peer {
    /// Shuffler 1 of the split topology (peels and blinds).
    ShufflerOne,
    /// Shuffler 2 of the split topology (unblinds handles, thresholds).
    ShufflerTwo,
    /// Collector shard `i`.
    Shard(u16),
}

impl fmt::Display for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Peer::ShufflerOne => write!(f, "shuffler-1"),
            Peer::ShufflerTwo => write!(f, "shuffler-2"),
            Peer::Shard(i) => write!(f, "shard-{i}"),
        }
    }
}

impl Peer {
    /// Appends the wire encoding: a tag byte plus the shard index. Tags 0
    /// and 1 are unassigned and decode as an unknown peer.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let (tag, index) = match self {
            Peer::ShufflerOne => (2u8, 0u16),
            Peer::ShufflerTwo => (3, 0),
            Peer::Shard(i) => (4, *i),
        };
        put_u8(out, tag);
        put_u32(out, u32::from(index));
    }

    /// Decodes one peer, rejecting unknown tags loudly.
    pub(crate) fn decode(reader: &mut Reader<'_>) -> Result<Self, FabricError> {
        let tag = reader.get_u8("truncated peer")?;
        let index: u32 = reader.get_u32("truncated peer index")?;
        let peer = match tag {
            2 => Peer::ShufflerOne,
            3 => Peer::ShufflerTwo,
            4 => {
                let index = u16::try_from(index)
                    .map_err(|_| FabricError::Malformed("shard index out of range"))?;
                Peer::Shard(index)
            }
            _ => return Err(FabricError::UnknownChannel { what: "peer", tag }),
        };
        if !matches!(peer, Peer::Shard(_)) && index != 0 {
            return Err(FabricError::Malformed("non-shard peer with index"));
        }
        Ok(peer)
    }
}

/// A protocol step multiplexed over one peer link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Canonicalized epoch batches: shard → Shuffler 1.
    Batch,
    /// Blinded records: Shuffler 1 → Shuffler 2.
    Records,
    /// Surviving inner ciphertexts: Shuffler 2 → shard.
    Items,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Batch => "batch",
            Stage::Records => "records",
            Stage::Items => "items",
        };
        write!(f, "{name}")
    }
}

impl Stage {
    /// Appends the wire encoding (one tag byte). Tag 0 and every tag
    /// above 3 are unassigned and decode as an unknown stage.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let tag = match self {
            Stage::Batch => 1u8,
            Stage::Records => 2,
            Stage::Items => 3,
        };
        put_u8(out, tag);
    }

    /// Decodes one stage, rejecting unknown tags loudly.
    pub(crate) fn decode(reader: &mut Reader<'_>) -> Result<Self, FabricError> {
        let tag = reader.get_u8("truncated stage")?;
        match tag {
            1 => Ok(Stage::Batch),
            2 => Ok(Stage::Records),
            3 => Ok(Stage::Items),
            _ => Err(FabricError::UnknownChannel { what: "stage", tag }),
        }
    }
}

/// One typed message stream: a protocol stage spoken with one peer.
///
/// From a receiver's point of view `peer` is the *sender* at the far end;
/// from a sender's point of view it is the destination. Either way the
/// pair addresses the same ordered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChannelId {
    /// The process at the other end of the stream.
    pub(crate) peer: Peer,
    /// The protocol step the stream carries.
    pub(crate) stage: Stage,
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.peer, self.stage)
    }
}

impl ChannelId {
    /// A channel to (or from) `peer` on `stage`.
    pub const fn new(peer: Peer, stage: Stage) -> Self {
        Self { peer, stage }
    }
}

/// What travels inside one fabric frame: the sender's channel, a
/// per-channel sequence number, and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The *sender's* identity plus the stage — the receiver files the
    /// payload under this channel.
    pub from: Peer,
    /// The protocol step.
    pub stage: Stage,
    /// Position in the `(from, stage)` stream, starting at 0. Receivers
    /// verify it is exactly the next expected value, so a dropped or
    /// reordered frame is an error, not silent corruption.
    pub seq: u64,
    /// The opaque message bytes (a [`crate::messages`] encoding).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Serializes the envelope (the body of one fabric frame).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 24);
        self.from.encode(&mut out);
        self.stage.encode(&mut out);
        put_u64(&mut out, self.seq);
        put_bytes(&mut out, &self.payload);
        out
    }

    /// Appends the [`ENVELOPE_HEADER_LEN`] bytes [`Self::to_bytes`] puts in
    /// front of a payload of `payload_len` bytes, so a link can send (or
    /// file) header and payload without building an `Envelope` — which
    /// would copy the payload — first. The caller has checked the length
    /// with [`check_frame_len`].
    pub(crate) fn put_header(
        out: &mut Vec<u8>,
        from: Peer,
        stage: Stage,
        seq: u64,
        payload_len: usize,
    ) {
        from.encode(out);
        stage.encode(out);
        put_u64(out, seq);
        put_u32(out, payload_len as u32);
    }

    /// Parses an encoded envelope in place, refusing unknown tags,
    /// truncation and trailing bytes, and returns the sender, stage,
    /// sequence number and the payload, `bytes[ENVELOPE_HEADER_LEN..]`,
    /// borrowed where it lies.
    pub(crate) fn parse_header(bytes: &[u8]) -> Result<(Peer, Stage, u64, &[u8]), FabricError> {
        let mut reader = Reader::new(bytes);
        let from = Peer::decode(&mut reader)?;
        let stage = Stage::decode(&mut reader)?;
        let seq = reader.get_u64("truncated sequence number")?;
        let payload = reader.get_slice("truncated payload")?;
        reader.finish("trailing envelope bytes")?;
        Ok((from, stage, seq, payload))
    }

    /// Parses one envelope, refusing unknown channels, truncation and
    /// trailing bytes: the in-place parser every link runs, plus a copy of
    /// the payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FabricError> {
        let (from, stage, seq, payload) = Self::parse_header(bytes)?;
        Ok(Self {
            from,
            stage,
            seq,
            payload: payload.to_vec(),
        })
    }
}

/// Errors surfaced by the fabric transport layer.
#[derive(Debug)]
pub enum FabricError {
    /// Frame I/O failed (wraps the shared framing error).
    Frame(FrameError),
    /// An envelope or message failed to parse.
    Malformed(&'static str),
    /// An envelope named a peer or stage tag this build does not know —
    /// rejected loudly instead of skipped, because a silent skip would
    /// desynchronize every later sequence number.
    UnknownChannel {
        /// Which component carried the tag (`"peer"` or `"stage"`).
        what: &'static str,
        /// The unknown tag byte.
        tag: u8,
    },
    /// A frame arrived out of order on a channel.
    OutOfOrder {
        /// The channel the frame arrived on.
        channel: ChannelId,
        /// The sequence number expected next.
        expected: u64,
        /// The sequence number the frame carried.
        actual: u64,
    },
    /// A frame arrived from a peer other than the link's.
    WrongPeer {
        /// The peer the link was established with.
        expected: Peer,
        /// The peer the envelope claimed.
        actual: Peer,
    },
    /// The transport has no link to the named peer.
    NotConnected(Peer),
    /// The link already failed on another thread; carries the original
    /// failure's description.
    LinkFailed(String),
    /// A pipeline stage failed while serving the fabric (the error is the
    /// stage's own, not the transport's — it still tears the service down,
    /// since a skipped batch would desynchronize the topology).
    Processing(String),
    /// The peer (or hub) closed while a receive was pending.
    Closed,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Frame(e) => write!(f, "frame error: {e}"),
            FabricError::Malformed(what) => write!(f, "malformed fabric message: {what}"),
            FabricError::UnknownChannel { what, tag } => {
                write!(f, "unknown {what} tag {tag} in channel id")
            }
            FabricError::OutOfOrder {
                channel,
                expected,
                actual,
            } => write!(
                f,
                "channel {channel} out of order: expected seq {expected}, got {actual}"
            ),
            FabricError::WrongPeer { expected, actual } => {
                write!(f, "frame from {actual} on a link to {expected}")
            }
            FabricError::NotConnected(peer) => write!(f, "no link to peer {peer}"),
            FabricError::LinkFailed(what) => write!(f, "link already failed: {what}"),
            FabricError::Processing(what) => write!(f, "stage failed: {what}"),
            FabricError::Closed => write!(f, "fabric connection closed"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for FabricError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Closed => FabricError::Closed,
            other => FabricError::Frame(other),
        }
    }
}

impl From<WireError> for FabricError {
    fn from(e: WireError) -> Self {
        FabricError::Malformed(e.0)
    }
}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError::Frame(e.into())
    }
}

impl From<FabricError> for prochlo_core::PipelineError {
    fn from(e: FabricError) -> Self {
        prochlo_core::PipelineError::Transport(e.to_string())
    }
}

/// A blocking, ordered, channel-addressed message transport.
///
/// Implementations: [`crate::loopback::LoopbackTransport`] (in-process, for
/// tests) and [`crate::tcp::TcpTransport`] (the deployment transport).
/// Both number, check, file and deliver frames through the same link code,
/// so each `(peer, stage)` stream arrives in send order with its sequence
/// numbers verified and the code above them cannot tell which one it runs
/// on — that equivalence is what the loopback determinism tests certify.
pub trait Transport: Send + Sync {
    /// This process's identity in the topology.
    fn identity(&self) -> Peer;

    /// Sends one payload to `to` on `stage`. Blocking; returns once the
    /// payload is handed to the OS (TCP) or the hub (loopback).
    fn send(&self, to: Peer, stage: Stage, payload: &[u8]) -> Result<(), FabricError>;

    /// Receives the next payload on `channel`, blocking until one arrives.
    /// Payloads on other channels of the same link are buffered, not lost.
    fn recv(&self, channel: ChannelId) -> Result<Vec<u8>, FabricError>;
}

/// Per-channel wire telemetry, shared by every [`Transport`] impl so the
/// loopback and TCP fabrics report identically. Counters live on the
/// global obs registry under `fabric.channel.<peer>/<stage>.*`:
/// `frames_sent` / `bytes_sent` on the sender, `frames_received` /
/// `bytes_received` on the receiver, and `out_of_order` for sequence
/// errors. A link looks a channel's counters up once, on its first frame
/// while the registry is enabled; a disabled registry formats no name.
pub(crate) mod metrics {
    use prochlo_obs::Counter;

    use super::ChannelId;

    /// One direction of one channel's frame and byte counters, kept by the
    /// link beside the channel's sequence number.
    #[derive(Default)]
    pub(crate) struct ChannelCounters(Option<(Counter, Counter)>);

    impl ChannelCounters {
        /// One frame of `payload_bytes` on `channel`, `direction` being
        /// `sent` or `received`.
        pub(crate) fn count(&mut self, channel: ChannelId, direction: &str, payload_bytes: usize) {
            if self.0.is_none() {
                let registry = prochlo_obs::global();
                if !registry.is_enabled() {
                    return;
                }
                let counter = |what| {
                    registry.counter(&format!("fabric.channel.{channel}.{what}_{direction}"))
                };
                self.0 = Some((counter("frames"), counter("bytes")));
            }
            if let Some((frames, bytes)) = &self.0 {
                frames.inc();
                bytes.add(payload_bytes as u64);
            }
        }
    }

    /// One sequence error on `channel` (the stream is torn down after).
    pub(crate) fn out_of_order(channel: ChannelId) {
        let registry = prochlo_obs::global();
        if !registry.is_enabled() {
            return;
        }
        registry
            .counter(&format!("fabric.channel.{channel}.out_of_order"))
            .inc();
    }
}

/// A message type that can travel the fabric: one encoder, one decoder.
///
/// A message that carries a batch decodes to a form that borrows its byte
/// strings from the received frame ([`Self::Decoded`]), so a batch is not
/// copied out of its frame to be read; every other message decodes to
/// itself. Encoding is generic over how the sender holds the same
/// contents — owned, or borrowed from whatever it already has — so a
/// decoded batch re-encodes to the bytes it came from.
pub trait WireMessage {
    /// What [`Self::from_wire`] returns for a payload borrowed for `'a`.
    type Decoded<'a>;
    /// Serializes the message payload.
    fn to_wire(&self) -> Vec<u8>;
    /// Parses a message payload.
    fn from_wire(bytes: &[u8]) -> Result<Self::Decoded<'_>, FabricError>;
}

/// A typed view of one channel: `send`/`recv` whole messages instead of
/// byte payloads.
///
/// ```
/// use prochlo_fabric::loopback::LoopbackHub;
/// use prochlo_fabric::messages::ToOne;
/// use prochlo_fabric::transport::{ChannelId, Peer, Stage, TypedChannel};
///
/// let hub = LoopbackHub::new();
/// let shard = hub.endpoint(Peer::Shard(0));
/// let one = hub.endpoint(Peer::ShufflerOne);
/// // Shard 0 ends its batch stream; Shuffler 1 reads the typed stream
/// // coming *from* the shard.
/// TypedChannel::<ToOne>::new(&shard, ChannelId::new(Peer::ShufflerOne, Stage::Batch))
///     .send(&ToOne::Done)
///     .unwrap();
/// let channel = TypedChannel::<ToOne>::new(&one, ChannelId::new(Peer::Shard(0), Stage::Batch));
/// assert_eq!(channel.recv().unwrap(), ToOne::Done);
/// ```
pub struct TypedChannel<'t, T> {
    transport: &'t dyn Transport,
    id: ChannelId,
    _message: PhantomData<fn() -> T>,
}

impl<'t, T: WireMessage> TypedChannel<'t, T> {
    /// A typed channel to (or from) `id.peer` on `id.stage`.
    pub fn new(transport: &'t dyn Transport, id: ChannelId) -> Self {
        Self {
            transport,
            id,
            _message: PhantomData,
        }
    }

    /// Sends one typed message to the channel's peer.
    pub fn send(&self, message: &T) -> Result<(), FabricError> {
        self.transport
            .send(self.id.peer, self.id.stage, &message.to_wire())
    }

    /// Receives the next typed message from the channel's peer, for a
    /// message that decodes to itself; the frame is freed on return.
    pub fn recv(&self) -> Result<T, FabricError>
    where
        T: for<'a> WireMessage<Decoded<'a> = T>,
    {
        T::from_wire(&self.transport.recv(self.id)?)
    }

    /// Receives the next frame from the channel's peer, for a message that
    /// borrows from it: decode it with `T::from_wire(&frame)`, and the
    /// message lives as long as the frame does.
    pub fn recv_frame(&self) -> Result<Vec<u8>, FabricError> {
        self.transport.recv(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_peers() -> Vec<Peer> {
        vec![
            Peer::ShufflerOne,
            Peer::ShufflerTwo,
            Peer::Shard(0),
            Peer::Shard(513),
        ]
    }

    #[test]
    fn envelopes_roundtrip_for_every_channel() {
        for peer in all_peers() {
            for stage in [Stage::Batch, Stage::Records, Stage::Items] {
                let envelope = Envelope {
                    from: peer,
                    stage,
                    seq: 7,
                    payload: vec![1, 2, 3],
                };
                assert_eq!(
                    Envelope::from_bytes(&envelope.to_bytes()).unwrap(),
                    envelope
                );
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected_loudly() {
        let envelope = Envelope {
            from: Peer::Shard(3),
            stage: Stage::Batch,
            seq: 0,
            payload: vec![],
        };
        let mut bytes = envelope.to_bytes();
        bytes[0] = 200; // peer tag
        assert!(matches!(
            Envelope::from_bytes(&bytes),
            Err(FabricError::UnknownChannel {
                what: "peer",
                tag: 200
            })
        ));
        let mut bytes = envelope.to_bytes();
        bytes[5] = 99; // stage tag
        assert!(matches!(
            Envelope::from_bytes(&bytes),
            Err(FabricError::UnknownChannel {
                what: "stage",
                tag: 99
            })
        ));
    }

    #[test]
    fn the_in_place_header_matches_the_reference_encoding() {
        for peer in all_peers() {
            let envelope = Envelope {
                from: peer,
                stage: Stage::Items,
                seq: u64::MAX - 3,
                payload: vec![7; 300],
            };
            let bytes = envelope.to_bytes();
            let mut header = Vec::new();
            Envelope::put_header(&mut header, peer, Stage::Items, envelope.seq, 300);
            assert_eq!(header.len(), ENVELOPE_HEADER_LEN);
            assert_eq!(header, bytes[..ENVELOPE_HEADER_LEN]);
            let (from, stage, seq, payload) = Envelope::parse_header(&bytes).unwrap();
            assert_eq!((from, stage, seq), (peer, Stage::Items, envelope.seq));
            // The payload is borrowed where it lies, right after the header.
            assert!(std::ptr::eq(payload, &bytes[ENVELOPE_HEADER_LEN..]));
        }
    }

    #[test]
    fn the_frame_ceiling_counts_the_envelope_header() {
        // One version byte and the envelope header ride in every frame.
        let largest = MAX_FRAME_LEN - 1 - ENVELOPE_HEADER_LEN;
        assert!(check_frame_len(largest).is_ok());
        assert!(matches!(
            check_frame_len(largest + 1),
            Err(FabricError::Frame(FrameError::TooLarge { actual, maximum }))
                if actual == MAX_FRAME_LEN + 1 && maximum == MAX_FRAME_LEN
        ));
        assert!(check_frame_len(usize::MAX).is_err());
    }

    #[test]
    fn truncations_and_trailing_bytes_are_malformed() {
        let envelope = Envelope {
            from: Peer::ShufflerTwo,
            stage: Stage::Items,
            seq: 3,
            payload: vec![9; 10],
        };
        let bytes = envelope.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Envelope::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            Envelope::from_bytes(&trailing),
            Err(FabricError::Malformed("trailing envelope bytes"))
        ));
    }
}
