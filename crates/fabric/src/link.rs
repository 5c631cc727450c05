//! The link both transports run: one peer's ordered streams, one per stage.
//!
//! A [`Link`] numbers the frames its owner sends on each stage and keeps
//! the inbox that frames from its peer are filed into. A loopback hub
//! holds one per `(sender, receiver)` pair, and a send files its encoded
//! envelope straight in. The TCP transport holds one per socket, and its
//! receivers read the socket themselves: a receiver whose stage has
//! nothing filed becomes the link's one reader, files every frame it reads
//! until one for its own stage arrives, and hands the role on as it
//! returns, so receivers on other stages wait on the inbox and wake to
//! their frames. Either way a frame passes the same checks before any
//! receiver sees it: its envelope header parsed in place, its sender the
//! link's peer, its sequence number the next one on its stage. A frame
//! that fails a check fails the link for every waiter, since the stream
//! past a desynchronized envelope cannot be trusted. An ended link —
//! failed or cleanly closed — refuses every later frame; receivers still
//! get the frames filed before the end, then the end.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::collections::{BTreeMap, VecDeque};

use parking_lot::{Condvar, Mutex};
use prochlo_core::framing::FrameError;

use crate::transport::metrics::{self, ChannelCounters};
use crate::transport::{
    check_frame_len, ChannelId, Envelope, FabricError, Peer, Stage, ENVELOPE_HEADER_LEN,
};

/// One peer's streams: send numbering one way, an inbox the other.
pub(crate) struct Link {
    /// The peer whose frames the inbox accepts.
    pub(crate) peer: Peer,
    /// Next sequence number and the sent counters per outgoing stage. Held
    /// across the write, so concurrent senders neither interleave partial
    /// frames nor hand them over out of sequence.
    send_seq: Mutex<BTreeMap<Stage, (u64, ChannelCounters)>>,
    inbox: Mutex<Inbox>,
    arrived: Condvar,
}

#[derive(Default)]
struct Inbox {
    /// Filed frames per stage: envelopes whose header was checked on
    /// arrival and is dropped on `recv`.
    stages: BTreeMap<Stage, VecDeque<Vec<u8>>>,
    /// Next expected sequence number and the received counters per stage.
    recv_seq: BTreeMap<Stage, (u64, ChannelCounters)>,
    /// How the link ended, once it has: `None` for a clean close, else
    /// the failure.
    ended: Option<Option<String>>,
    /// Whether a receiver is reading the link's stream; at most one is.
    reading: bool,
}

impl Inbox {
    /// Files one frame under its stage, or refuses it: an ended link with
    /// the end, a frame that fails a check with that failure, which ends
    /// the link.
    fn file(&mut self, peer: Peer, frame: Vec<u8>) -> Result<(), FabricError> {
        if let Some(ended) = &self.ended {
            return Err(end_error(ended));
        }
        match self.check(peer, &frame) {
            Ok(stage) => {
                self.stages.entry(stage).or_default().push_back(frame);
                Ok(())
            }
            Err(e) => {
                self.ended = Some(Some(e.to_string()));
                Err(e)
            }
        }
    }

    /// Checks one frame's envelope header in place against the link's peer
    /// and the stage's next sequence number, and takes that number.
    fn check(&mut self, peer: Peer, frame: &[u8]) -> Result<Stage, FabricError> {
        let (from, stage, seq, payload) = Envelope::parse_header(frame)?;
        if from != peer {
            return Err(FabricError::WrongPeer {
                expected: peer,
                actual: from,
            });
        }
        let channel = ChannelId::new(from, stage);
        let (expected, counters) = self.recv_seq.entry(stage).or_default();
        if seq != *expected {
            metrics::out_of_order(channel);
            return Err(FabricError::OutOfOrder {
                channel,
                expected: *expected,
                actual: seq,
            });
        }
        *expected += 1;
        counters.count(channel, "received", payload.len());
        Ok(stage)
    }
}

/// The error a receiver (or a refused frame) meets on an ended link.
fn end_error(ended: &Option<String>) -> FabricError {
    match ended {
        None => FabricError::Closed,
        Some(what) => FabricError::LinkFailed(what.clone()),
    }
}

impl Link {
    /// A link whose inbox accepts frames from `peer`.
    pub(crate) fn new(peer: Peer) -> Self {
        Self {
            peer,
            send_seq: Mutex::new(BTreeMap::new()),
            inbox: Mutex::new(Inbox::default()),
            arrived: Condvar::new(),
        }
    }

    /// Sends one payload from `from` to `to` on `stage`: `write` gets the
    /// envelope header and the payload, the two pieces of one frame body.
    /// The frame ceiling is checked before the stage's sequence number is
    /// taken, so a refused oversize send leaves no gap in the stream.
    pub(crate) fn send(
        &self,
        from: Peer,
        to: Peer,
        stage: Stage,
        payload: &[u8],
        write: impl FnOnce([&[u8]; 2]) -> Result<(), FabricError>,
    ) -> Result<(), FabricError> {
        check_frame_len(payload.len())?;
        let mut send_seq = self.send_seq.lock();
        let (seq, counters) = send_seq.entry(stage).or_default();
        let mut header = Vec::with_capacity(ENVELOPE_HEADER_LEN);
        Envelope::put_header(&mut header, from, stage, *seq, payload.len());
        *seq += 1;
        write([&header, payload])?;
        counters.count(ChannelId::new(to, stage), "sent", payload.len());
        Ok(())
    }

    /// Files one arrived frame — an encoded envelope — under its stage.
    /// An ended link refuses it with the end; a frame that fails a check
    /// fails the link for every waiter and is refused with that failure.
    pub(crate) fn file(&self, frame: Vec<u8>) -> Result<(), FabricError> {
        let filed = self.inbox.lock().file(self.peer, frame);
        self.arrived.notify_all();
        filed
    }

    /// The next payload filed on `stage`, blocking until one is filed or
    /// the link ends. The envelope header is dropped from the front of the
    /// frame, which is returned without reallocating.
    ///
    /// `read` pulls the next frame off the link's stream, for a link whose
    /// frames nobody else files; a loopback link passes `None` and waits.
    /// While nothing is filed on `stage` and no other receiver is reading,
    /// this one reads a frame with the inbox unlocked and files it; a clean
    /// end of the stream closes the link and any other read error fails it.
    /// Every read wakes the waiters, so a receiver whose frame was filed
    /// returns and, once the reader returns, another takes its place.
    pub(crate) fn recv(
        &self,
        stage: Stage,
        read: Option<&dyn Fn() -> Result<Vec<u8>, FrameError>>,
    ) -> Result<Vec<u8>, FabricError> {
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(mut frame) = inbox.stages.get_mut(&stage).and_then(VecDeque::pop_front) {
                drop(inbox);
                frame.drain(..ENVELOPE_HEADER_LEN);
                return Ok(frame);
            }
            if let Some(ended) = &inbox.ended {
                return Err(end_error(ended));
            }
            match read {
                Some(read) if !inbox.reading => {
                    inbox.reading = true;
                    drop(inbox);
                    let frame = read();
                    inbox = self.inbox.lock();
                    inbox.reading = false;
                    match frame {
                        // A refused frame has ended the link, or arrived
                        // after it ended: the next turn reports the end.
                        Ok(frame) => drop(inbox.file(self.peer, frame)),
                        Err(FrameError::Closed) => {
                            inbox.ended.get_or_insert(None);
                        }
                        Err(e) => {
                            inbox.ended.get_or_insert(Some(e.to_string()));
                        }
                    }
                    self.arrived.notify_all();
                }
                _ => self.arrived.wait(&mut inbox),
            }
        }
    }
}

#[cfg(test)]
/// The transport contract: the checks every [`crate::Transport`] must
/// pass, run on a loopback pair and on a TCP pair by `transport_contract!`.
pub(crate) mod contract {
    use std::time::Duration;

    use prochlo_core::framing::FrameError;

    use crate::transport::{
        ChannelId, Envelope, FabricError, Peer, Stage, Transport, MAX_FRAME_LEN,
    };

    impl super::Link {
        /// Closes the link cleanly, unless it already ended, and wakes
        /// every waiter.
        pub(crate) fn close(&self) {
            self.inbox.lock().ended.get_or_insert(None);
            self.arrived.notify_all();
        }
    }

    /// Two connected endpoints of one transport: `a` is
    /// [`Peer::ShufflerOne`] and `b` is [`Peer::ShufflerTwo`].
    pub(crate) struct Pair {
        pub(crate) a: Box<dyn Transport>,
        pub(crate) b: Box<dyn Transport>,
        /// Hands `b` raw envelope bytes as `a`'s next frame, past `a`'s
        /// send numbering.
        pub(crate) inject: Box<dyn Fn(Vec<u8>)>,
        /// Closes `a`'s side of the link cleanly.
        pub(crate) close: Box<dyn Fn()>,
    }

    /// Expands to one `#[test]` per contract check, each on a fresh pair
    /// from `$pair`.
    macro_rules! transport_contract {
        ($pair:expr) => {
            #[test]
            fn channels_are_independent_and_ordered() {
                $crate::link::contract::channels_are_independent_and_ordered($pair);
            }
            #[test]
            fn an_oversize_send_is_refused_and_leaves_the_stage_in_sequence() {
                $crate::link::contract::an_oversize_send_is_refused_and_leaves_the_stage_in_sequence($pair);
            }
            #[test]
            fn receivers_on_two_stages_each_get_their_own_frame() {
                $crate::link::contract::receivers_on_two_stages_each_get_their_own_frame($pair);
            }
            #[test]
            fn recv_blocks_until_a_send_arrives() {
                $crate::link::contract::recv_blocks_until_a_send_arrives($pair);
            }
            #[test]
            fn close_unblocks_receivers() {
                $crate::link::contract::close_unblocks_receivers($pair);
            }
            #[test]
            fn out_of_order_sequence_fails_the_link_for_waiters() {
                $crate::link::contract::out_of_order_sequence_fails_the_link_for_waiters($pair);
            }
            #[test]
            fn a_wrong_peer_fails_the_link_for_waiters() {
                $crate::link::contract::a_wrong_peer_fails_the_link_for_waiters($pair);
            }
            #[test]
            fn a_frame_after_a_failure_is_refused() {
                $crate::link::contract::a_frame_after_a_failure_is_refused($pair);
            }
        };
    }
    pub(crate) use transport_contract;

    fn from_a(stage: Stage) -> ChannelId {
        ChannelId::new(Peer::ShufflerOne, stage)
    }

    fn envelope(from: Peer, stage: Stage, seq: u64, payload: &[u8]) -> Vec<u8> {
        Envelope {
            from,
            stage,
            seq,
            payload: payload.to_vec(),
        }
        .to_bytes()
    }

    /// Runs `recv` on `stages` of `b` from waiters that are blocked (or
    /// about to be) while `then` runs, and returns what each got.
    fn waiters(
        pair: &Pair,
        stages: &[Stage],
        then: impl FnOnce(),
    ) -> Vec<Result<Vec<u8>, FabricError>> {
        std::thread::scope(|scope| {
            let b = &*pair.b;
            let handles: Vec<_> = stages
                .iter()
                .map(|&stage| scope.spawn(move || b.recv(from_a(stage))))
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            then();
            handles
                .into_iter()
                .map(|h| h.join().expect("waiter"))
                .collect()
        })
    }

    fn link_failed(result: &Result<Vec<u8>, FabricError>, cause: &str) -> bool {
        matches!(result, Err(FabricError::LinkFailed(what)) if what.contains(cause))
    }

    pub(crate) fn channels_are_independent_and_ordered(pair: Pair) {
        let to_b = |stage, payload: &[u8]| pair.a.send(Peer::ShufflerTwo, stage, payload);
        to_b(Stage::Records, b"r0").unwrap();
        to_b(Stage::Batch, b"b0").unwrap();
        to_b(Stage::Records, b"r1").unwrap();
        // Reading the batch stage first does not consume records.
        assert_eq!(pair.b.recv(from_a(Stage::Batch)).unwrap(), b"b0");
        assert_eq!(pair.b.recv(from_a(Stage::Records)).unwrap(), b"r0");
        assert_eq!(pair.b.recv(from_a(Stage::Records)).unwrap(), b"r1");
    }

    pub(crate) fn an_oversize_send_is_refused_and_leaves_the_stage_in_sequence(pair: Pair) {
        // Zeroed and never copied, so the pages are never touched.
        let oversize = vec![0u8; MAX_FRAME_LEN];
        assert!(matches!(
            pair.a.send(Peer::ShufflerTwo, Stage::Records, &oversize),
            Err(FabricError::Frame(FrameError::TooLarge { .. }))
        ));
        // The refusal took no sequence number: the next frame on the stage
        // is the one the receiver expects.
        pair.a
            .send(Peer::ShufflerTwo, Stage::Records, b"next")
            .unwrap();
        assert_eq!(pair.b.recv(from_a(Stage::Records)).unwrap(), b"next");
    }

    pub(crate) fn recv_blocks_until_a_send_arrives(pair: Pair) {
        let got = waiters(&pair, &[Stage::Batch], || {
            pair.a.send(Peer::ShufflerTwo, Stage::Batch, b"go").unwrap();
        });
        assert_eq!(got[0].as_ref().unwrap(), b"go");
    }

    pub(crate) fn receivers_on_two_stages_each_get_their_own_frame(pair: Pair) {
        // Whichever receiver reads the link files the other's frame. With
        // the second frame sent only once the first receiver has returned,
        // the second receiver must still get it, whether it was the reader
        // or has to take the reading over.
        let orders = [
            (Stage::Records, Stage::Items),
            (Stage::Items, Stage::Records),
        ];
        for (one_at_a_time, (first, second)) in [true, false]
            .into_iter()
            .flat_map(|one| orders.map(|order| (one, order)))
        {
            std::thread::scope(|scope| {
                let b = &*pair.b;
                let [first_rx, second_rx] =
                    [first, second].map(|stage| scope.spawn(move || b.recv(from_a(stage))));
                std::thread::sleep(Duration::from_millis(20));
                pair.a.send(Peer::ShufflerTwo, first, b"first").unwrap();
                if one_at_a_time {
                    assert_eq!(first_rx.join().expect("receiver").unwrap(), b"first");
                    pair.a.send(Peer::ShufflerTwo, second, b"second").unwrap();
                } else {
                    pair.a.send(Peer::ShufflerTwo, second, b"second").unwrap();
                    assert_eq!(first_rx.join().expect("receiver").unwrap(), b"first");
                }
                assert_eq!(second_rx.join().expect("receiver").unwrap(), b"second");
            });
        }
    }

    pub(crate) fn close_unblocks_receivers(pair: Pair) {
        let got = waiters(&pair, &[Stage::Items], || {
            pair.a
                .send(Peer::ShufflerTwo, Stage::Batch, b"buffered")
                .unwrap();
            (pair.close)();
        });
        assert!(matches!(got[0], Err(FabricError::Closed)));
        // Frames filed before the close are still delivered, then the close.
        assert_eq!(pair.b.recv(from_a(Stage::Batch)).unwrap(), b"buffered");
        assert!(matches!(
            pair.b.recv(from_a(Stage::Batch)),
            Err(FabricError::Closed)
        ));
    }

    pub(crate) fn out_of_order_sequence_fails_the_link_for_waiters(pair: Pair) {
        // Sequence number 0 skipped on one stage fails the whole link.
        let got = waiters(&pair, &[Stage::Batch, Stage::Items], || {
            (pair.inject)(envelope(Peer::ShufflerOne, Stage::Batch, 7, b"early"));
        });
        for result in &got {
            assert!(link_failed(result, "out of order"), "{result:?}");
        }
    }

    pub(crate) fn a_wrong_peer_fails_the_link_for_waiters(pair: Pair) {
        let got = waiters(&pair, &[Stage::Batch, Stage::Items], || {
            (pair.inject)(envelope(Peer::Shard(0), Stage::Batch, 0, b"forged"));
        });
        for result in &got {
            assert!(link_failed(result, "frame from shard-0"), "{result:?}");
        }
    }

    pub(crate) fn a_frame_after_a_failure_is_refused(pair: Pair) {
        pair.a
            .send(Peer::ShufflerTwo, Stage::Records, b"kept")
            .unwrap();
        (pair.inject)(envelope(Peer::ShufflerOne, Stage::Batch, 7, b"desync"));
        // In sequence on its own stage, but past the failure.
        (pair.inject)(envelope(Peer::ShufflerOne, Stage::Items, 0, b"late"));
        let failed = pair.b.recv(from_a(Stage::Batch));
        assert!(link_failed(&failed, "out of order"), "{failed:?}");
        assert_eq!(pair.b.recv(from_a(Stage::Records)).unwrap(), b"kept");
        let late = pair.b.recv(from_a(Stage::Items));
        assert!(link_failed(&late, "out of order"), "{late:?}");
    }
}
