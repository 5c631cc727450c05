//! In-process loopback transport.
//!
//! A [`LoopbackHub`] holds one in-memory link per `(sender, receiver)`
//! pair — the link code the TCP transport runs — and every
//! [`LoopbackTransport`] endpoint hangs off the same hub. A send encodes
//! the envelope once and files it straight into the receiver's inbox, so a
//! topology driven over loopback passes the numbering and checks of a
//! multi-process deployment. That is what lets the determinism tests
//! compare fabric output against the in-process golden fixture without
//! spawning processes.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::link::Link;
use crate::transport::{ChannelId, FabricError, Peer, Stage, Transport};

/// The shared in-process message hub. Clone-cheap via [`LoopbackHub::endpoint`].
#[derive(Default)]
pub struct LoopbackHub {
    /// One link per `(sender, receiver)` pair, made on first use by either
    /// end.
    links: Mutex<BTreeMap<(Peer, Peer), Arc<Link>>>,
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

    /// The link carrying `from`'s frames to `to`.
    fn link(&self, from: Peer, to: Peer) -> Arc<Link> {
        let mut links = self.links.lock();
        Arc::clone(
            links
                .entry((from, to))
                .or_insert_with(|| Arc::new(Link::new(from))),
        )
    }
}

/// One peer's endpoint on a [`LoopbackHub`].
///
/// ```
/// use prochlo_fabric::loopback::LoopbackHub;
/// use prochlo_fabric::transport::{ChannelId, Peer, Stage, Transport};
///
/// let hub = LoopbackHub::new();
/// let one = hub.endpoint(Peer::ShufflerOne);
/// let two = hub.endpoint(Peer::ShufflerTwo);
/// one.send(Peer::ShufflerTwo, Stage::Records, b"hello").unwrap();
/// let payload = two
///     .recv(ChannelId::new(Peer::ShufflerOne, Stage::Records))
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
        let link = self.hub.link(self.identity, to);
        link.send(self.identity, to, stage, payload, |[header, payload]| {
            let mut frame = Vec::with_capacity(header.len() + payload.len());
            frame.extend_from_slice(header);
            frame.extend_from_slice(payload);
            link.file(frame)
        })
    }

    fn recv(&self, channel: ChannelId) -> Result<Vec<u8>, FabricError> {
        self.hub
            .link(channel.peer, self.identity)
            .recv(channel.stage, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::contract::{transport_contract, Pair};

    impl LoopbackHub {
        /// Closes every link made so far cleanly: each pending and future
        /// receive on one returns [`FabricError::Closed`] once the frames
        /// already sent are taken, and every later send is refused with it.
        fn close(&self) {
            for link in self.links.lock().values() {
                link.close();
            }
        }
    }

    fn pair() -> Pair {
        let hub = LoopbackHub::new();
        let link = hub.link(Peer::ShufflerOne, Peer::ShufflerTwo);
        let close = Arc::clone(&hub);
        Pair {
            a: Box::new(hub.endpoint(Peer::ShufflerOne)),
            b: Box::new(hub.endpoint(Peer::ShufflerTwo)),
            inject: Box::new(move |envelope| drop(link.file(envelope))),
            close: Box::new(move || close.close()),
        }
    }

    transport_contract!(pair());

    #[test]
    fn channel_counters_count_every_frame_once() {
        // Shard indices no other test uses, so the global counters are
        // this test's alone.
        let hub = LoopbackHub::new();
        let (from, to) = (Peer::Shard(60_001), Peer::Shard(60_002));
        let (a, b) = (hub.endpoint(from), hub.endpoint(to));
        for payload in [&b"a"[..], b"bc", b"def"] {
            a.send(to, Stage::Items, payload).unwrap();
            b.recv(ChannelId::new(from, Stage::Items)).unwrap();
        }
        let read = |name: &str| prochlo_obs::counter(&format!("fabric.channel.{name}")).get();
        let on = u64::from(prochlo_obs::global().is_enabled());
        assert_eq!(read("shard-60002/items.frames_sent"), 3 * on);
        assert_eq!(read("shard-60002/items.bytes_sent"), 6 * on);
        assert_eq!(read("shard-60001/items.frames_received"), 3 * on);
        assert_eq!(read("shard-60001/items.bytes_received"), 6 * on);
    }
}
