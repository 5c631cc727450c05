//! `prochlo-fabric`: the networked shard fabric.
//!
//! The core crates compute over batches that already sit in one process;
//! the collector crate runs one ingestion endpoint in front of one
//! pipeline. This crate is where the deployment becomes *distributed*: N
//! collector shards behind a prefix-hashing router (Phase A), and the
//! split shuffler's two stages running as separate processes that talk
//! over the wire (Phase B) — the actual trust topology of §4.3, where S1
//! and S2 must not cohabit a process, let alone an address space.
//!
//! Everything rides on one small abstraction, [`Transport`]: typed,
//! ordered message streams addressed by [`ChannelId`] (a peer plus a
//! stage). Two implementations ship — [`loopback::LoopbackHub`] wires a
//! whole topology inside one process for deterministic tests, and
//! [`tcp::TcpTransport`] runs the same protocol code over real sockets.
//! Under both runs one link implementation, which numbers, checks, files
//! and delivers every frame. Protocol logic is written once against
//! `&dyn Transport` and cannot tell the difference; the end-to-end tests
//! exploit exactly that to assert the wire topology reproduces the
//! single-process golden output byte for byte.
//!
//! Module map:
//!
//! * [`transport`] — the [`Transport`] trait, peer/stage addressing, the
//!   versioned message envelope, and [`TypedChannel`].
//! * `link` (crate-private) — the one link both transports run: send
//!   numbering, checked per-stage inboxes, failure for every waiter.
//! * [`loopback`] — in-process transport for tests and demos: one link per
//!   `(sender, receiver)` pair.
//! * [`tcp`] — socket transport: one socket and one link per peer pair,
//!   stages multiplexed, `HELLO`-frame identification.
//! * [`messages`] — the typed payloads flowing between shards and
//!   shufflers.
//! * [`split`] — the wire-level split shuffler: stage servers plus the
//!   [`RemoteSplitPipeline`] that plugs into a collector shard.
//! * [`router`] — the [`ShardRouter`] ingestion front-end.
//!
//! The fabric carries only the split shuffle: three [`Stage`]s, each one
//! hop of an epoch batch — `Batch` (shard → Shuffler 1), `Records`
//! (Shuffler 1 → Shuffler 2) and `Items` (Shuffler 2 → shard) — between
//! the three kinds of [`Peer`]. Whatever starts and stops the processes
//! talks to them outside the fabric.
//!
//! The smallest possible fabric — two endpoints of a [`LoopbackHub`]
//! exchanging a typed message (the TCP transport speaks the same protocol
//! over sockets):
//!
//! ```
//! use prochlo_fabric::{ChannelId, LoopbackHub, Peer, Stage, ToOne, TypedChannel};
//!
//! let hub = LoopbackHub::new();
//! let shard = hub.endpoint(Peer::Shard(0));
//! let one = hub.endpoint(Peer::ShufflerOne);
//!
//! TypedChannel::<ToOne>::new(&shard, ChannelId::new(Peer::ShufflerOne, Stage::Batch))
//!     .send(&ToOne::Done)?;
//! let received = TypedChannel::<ToOne>::new(&one, ChannelId::new(Peer::Shard(0), Stage::Batch))
//!     .recv()?;
//! assert_eq!(received, ToOne::Done);
//! # Ok::<(), prochlo_fabric::FabricError>(())
//! ```
//!
//! Determinism contract: a shard's [`RemoteSplitPipeline`] canonicalizes
//! its batch, derives the epoch RNG from `(seed, epoch_index)`, and splits
//! it into per-stage sub-seeds exactly like the in-process
//! `SplitShuffler`; each remote stage reseeds from its sub-seed. Identical
//! inputs therefore produce identical analyzer databases whether the
//! stages share a call stack or a network.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

mod link;
pub mod loopback;
pub mod messages;
pub mod router;
pub mod split;
pub mod tcp;
pub mod transport;

pub use loopback::LoopbackHub;
pub use messages::{BatchToOne, BatchToTwo, ItemsBatch, ToOne, ToShard, ToTwo};
pub use router::{RouterConfig, RouterStats, ShardRouter};
pub use split::{serve_shuffler_one, serve_shuffler_two, sum_epoch_stats, RemoteSplitPipeline};
pub use tcp::TcpTransportBuilder;
pub use transport::{
    ChannelId, Envelope, FabricError, Peer, Stage, Transport, TypedChannel, WireMessage,
};
