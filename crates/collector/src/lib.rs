//! The report-collector service: the ingestion front-end of the ESA
//! pipeline.
//!
//! The core crates assume batches already exist; this crate is where the
//! deployment meets continuous traffic (§3.3's shuffler front end). Clients
//! submit sealed reports over a length-prefixed TCP protocol; the collector
//! parses and validates each frame, deduplicates replays by client nonce,
//! and buffers accepted reports in a **bounded** queue. An epoch manager
//! cuts the queue into batches — as soon as a batch is full, or at a
//! deadline — and hands each batch to the pipeline's shuffler. When the
//! queue is full the collector answers structured backpressure
//! (`RetryAfter`) instead of buffering, so memory stays bounded no matter
//! how fast clients push.
//!
//! Batches are canonicalized (sorted by ciphertext bytes) before
//! processing, and each epoch draws its randomness from a deterministic
//! function of `(deployment seed, epoch index)`; an identically-seeded
//! replay of the same traffic reproduces the analyzer's database byte for
//! byte, which is what the end-to-end tests assert.
//!
//! Module map:
//!
//! * [`protocol`] — the length-prefixed wire format and framed I/O.
//! * [`queue`] — the bounded queue behind the backpressure contract.
//! * [`dedup`] — the bounded, sharded nonce replay filter.
//! * [`ingest`] — parse + dedup + enqueue, shared by loops and benches.
//! * [`service`] — the ingest handler on the `prochlo_net::Server`
//!   harness, the epoch manager and graceful shutdown.
//! * [`client`] — the [`ReportSink`] submission API: a minimal blocking
//!   TCP client with retry, plus an in-process sink.
//! * [`error`] — the service-boundary error type.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

pub mod client;
pub mod dedup;
pub mod error;
pub mod ingest;
pub mod protocol;
pub mod queue;
pub mod service;

pub use client::{CollectorClient, InProcessSink, ReportSink};
pub use error::CollectorError;
pub use ingest::{IngestConfig, IngestCore, IngestStats};
pub use protocol::{Request, Response, NONCE_LEN, PROTOCOL_VERSION};
pub use service::{Collector, CollectorConfig, CollectorSummary, EpochPipeline, LocalPipeline};
