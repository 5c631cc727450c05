//! Readiness-based networking substrate for the serving path.
//!
//! `prochlo-net` is the I/O layer the collector, the shard router and the
//! shard fabric share: instead of pinning one blocking thread per
//! connection, each event-loop thread owns a [`Reactor`] multiplexing
//! thousands of nonblocking sockets, with per-connection `Conn` state
//! machines resuming frame parses and flushes across partial reads and
//! writes. On top of the two sits the one serving harness, [`Server`] — a
//! service is the harness plus its per-loop [`Handler`], which answers a
//! frame now or later in the same reactor turn. [`FramePump`] packages the
//! "demux many framed streams onto one callback" shape used by the fabric.
//!
//! The crate is deliberately small (std + parking_lot + the telemetry
//! registry; `poll(2)` is declared directly, no async runtime, no mio):
//! everything protocol-shaped stays in `prochlo-core`'s framing module, and
//! everything service-shaped (ingest, routing, epochs) stays in the
//! handlers.
//!
//! Ownership model: the reactor never owns sockets. Its owner (a [`Server`]
//! event loop, the [`FramePump`]) keeps the `Conn`s in its own map keyed by
//! [`Token`](reactor::Token) and tells the reactor which readiness it
//! currently cares about
//! — the same split mio uses, which keeps eviction, draining, and shutdown
//! logic in exactly one place instead of two.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

pub mod conn;
pub mod pump;
pub mod reactor;
pub mod server;

pub use conn::send_frame;
pub use pump::{FramePump, PumpEvent};
pub use reactor::{Interest, Reactor};
pub use server::{Answer, Handler, Server, ServerConfig, ServerStats, WRITE_PAUSE_BYTES};
