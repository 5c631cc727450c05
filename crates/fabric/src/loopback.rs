//! In-process loopback transport.
//!
//! A [`LoopbackHub`] is a shared mailbox: every [`LoopbackTransport`]
//! endpoint hangs off the same hub, and a send is a mutex-guarded queue
//! push. Because endpoints go through the same [`Envelope`] header
//! encoding, frame ceiling and sequence-number checks as the TCP transport,
//! a topology driven over loopback exercises the exact wire logic of a
//! multi-process deployment — which is what lets the determinism tests
//! compare fabric output against the in-process golden fixture without
//! spawning processes. A send copies the payload once, into the encoded
//! envelope the hub queues; a receive checks that envelope's header in
//! place and returns the same buffer.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::transport::{
    check_frame_len, metrics, ChannelId, Envelope, FabricError, Peer, Stage, Transport,
    ENVELOPE_HEADER_LEN,
};

#[derive(Default)]
struct HubState {
    /// Queued frames, keyed by `(receiver, sender-side channel)`.
    inboxes: BTreeMap<(Peer, ChannelId), VecDeque<Vec<u8>>>,
    /// Next sequence number per `(sender, receiver, stage)` stream.
    send_seq: BTreeMap<(Peer, Peer, Stage), u64>,
    /// Next expected sequence number per `(receiver, channel)` stream.
    recv_seq: BTreeMap<(Peer, ChannelId), u64>,
    closed: bool,
}

/// The shared in-process message hub. Clone-cheap via [`LoopbackHub::endpoint`].
pub struct LoopbackHub {
    state: Mutex<HubState>,
    arrived: Condvar,
}

impl Default for LoopbackHub {
    fn default() -> Self {
        Self {
            state: Mutex::new(HubState::default()),
            arrived: Condvar::new(),
        }
    }
}

impl LoopbackHub {
    /// Creates an empty hub.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// An endpoint for `identity` on this hub.
    pub fn endpoint(self: &Arc<Self>, identity: Peer) -> LoopbackTransport {
        LoopbackTransport {
            hub: Arc::clone(self),
            identity,
        }
    }

    /// Closes the hub: every pending and future receive returns
    /// [`FabricError::Closed`]. Used by tests to unblock stuck peers.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.arrived.notify_all();
    }
}

/// One peer's endpoint on a [`LoopbackHub`].
///
/// ```
/// use prochlo_fabric::loopback::LoopbackHub;
/// use prochlo_fabric::transport::{ChannelId, Peer, Stage, Transport};
///
/// let hub = LoopbackHub::new();
/// let router = hub.endpoint(Peer::Router);
/// let shard = hub.endpoint(Peer::Shard(0));
/// router.send(Peer::Shard(0), Stage::Control, b"hello").unwrap();
/// let payload = shard
///     .recv(ChannelId::new(Peer::Router, Stage::Control))
///     .unwrap();
/// assert_eq!(payload, b"hello");
/// ```
pub struct LoopbackTransport {
    hub: Arc<LoopbackHub>,
    identity: Peer,
}

impl Transport for LoopbackTransport {
    fn identity(&self) -> Peer {
        self.identity
    }

    fn send(&self, to: Peer, stage: Stage, payload: &[u8]) -> Result<(), FabricError> {
        check_frame_len(payload.len())?;
        let mut state = self.hub.state.lock();
        if state.closed {
            return Err(FabricError::Closed);
        }
        let seq = state
            .send_seq
            .entry((self.identity, to, stage))
            .or_insert(0);
        // Frames cross the hub in encoded form so loopback exercises the
        // same envelope parsing as the TCP transport.
        let mut frame = Vec::with_capacity(ENVELOPE_HEADER_LEN + payload.len());
        Envelope::put_header(&mut frame, self.identity, stage, *seq, payload.len());
        frame.extend_from_slice(payload);
        *seq += 1;
        state
            .inboxes
            .entry((to, ChannelId::new(self.identity, stage)))
            .or_default()
            .push_back(frame);
        drop(state);
        metrics::frame_sent(to, stage, payload.len());
        self.hub.arrived.notify_all();
        Ok(())
    }

    fn recv(&self, channel: ChannelId) -> Result<Vec<u8>, FabricError> {
        let key = (self.identity, channel);
        let mut state = self.hub.state.lock();
        loop {
            if let Some(mut frame) = state.inboxes.get_mut(&key).and_then(VecDeque::pop_front) {
                let (from, _, seq) = Envelope::parse_header(&frame)?;
                if from != channel.peer {
                    return Err(FabricError::WrongPeer {
                        expected: channel.peer,
                        actual: from,
                    });
                }
                let expected = state.recv_seq.entry(key).or_insert(0);
                if seq != *expected {
                    metrics::out_of_order(channel);
                    return Err(FabricError::OutOfOrder {
                        channel,
                        expected: *expected,
                        actual: seq,
                    });
                }
                *expected += 1;
                drop(state);
                frame.drain(..ENVELOPE_HEADER_LEN);
                metrics::frame_received(channel, frame.len());
                return Ok(frame);
            }
            if state.closed {
                return Err(FabricError::Closed);
            }
            self.hub.arrived.wait(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MAX_FRAME_LEN;
    use prochlo_core::framing::FrameError;

    #[test]
    fn channels_are_independent_and_ordered() {
        let hub = LoopbackHub::new();
        let a = hub.endpoint(Peer::ShufflerOne);
        let b = hub.endpoint(Peer::ShufflerTwo);
        a.send(Peer::ShufflerTwo, Stage::Records, b"r0").unwrap();
        a.send(Peer::ShufflerTwo, Stage::Control, b"c0").unwrap();
        a.send(Peer::ShufflerTwo, Stage::Records, b"r1").unwrap();
        // Reading the control channel first does not consume records.
        let control = ChannelId::new(Peer::ShufflerOne, Stage::Control);
        let records = ChannelId::new(Peer::ShufflerOne, Stage::Records);
        assert_eq!(b.recv(control).unwrap(), b"c0");
        assert_eq!(b.recv(records).unwrap(), b"r0");
        assert_eq!(b.recv(records).unwrap(), b"r1");
    }

    #[test]
    fn an_oversize_send_is_refused_and_leaves_the_stage_in_sequence() {
        let hub = LoopbackHub::new();
        let a = hub.endpoint(Peer::ShufflerOne);
        let b = hub.endpoint(Peer::ShufflerTwo);
        // Zeroed and never copied, so the pages are never touched.
        let oversize = vec![0u8; MAX_FRAME_LEN];
        assert!(matches!(
            a.send(Peer::ShufflerTwo, Stage::Records, &oversize),
            Err(FabricError::Frame(FrameError::TooLarge { .. }))
        ));
        a.send(Peer::ShufflerTwo, Stage::Records, b"next").unwrap();
        let records = ChannelId::new(Peer::ShufflerOne, Stage::Records);
        assert_eq!(b.recv(records).unwrap(), b"next");
    }

    #[test]
    fn recv_blocks_until_a_send_arrives() {
        let hub = LoopbackHub::new();
        let driver = hub.endpoint(Peer::Driver);
        let shard = hub.endpoint(Peer::Shard(1));
        let handle =
            std::thread::spawn(move || shard.recv(ChannelId::new(Peer::Driver, Stage::Control)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        driver.send(Peer::Shard(1), Stage::Control, b"go").unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), b"go");
    }

    #[test]
    fn close_unblocks_receivers() {
        let hub = LoopbackHub::new();
        let shard = hub.endpoint(Peer::Shard(0));
        let hub2 = Arc::clone(&hub);
        let handle =
            std::thread::spawn(move || shard.recv(ChannelId::new(Peer::Driver, Stage::Control)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        hub2.close();
        assert!(matches!(handle.join().unwrap(), Err(FabricError::Closed)));
    }
}
