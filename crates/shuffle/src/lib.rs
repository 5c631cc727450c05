//! Oblivious shuffling for Prochlo.
//!
//! The ESA shuffler must output its batch in an order that an observer of the
//! (SGX-protected) shuffling machine cannot link back to arrival order, even
//! though almost all data lives outside the enclave's small private memory.
//! This crate contains:
//!
//! * [`stash`] — the **Stash Shuffle** (§4.1.4, Algorithms 1–4 of the paper):
//!   a two-phase oblivious shuffle whose intermediate state fits SGX private
//!   memory and whose total data processed is only ≈3.3–3.7× the input.
//!   The ESA shuffler in `prochlo-core` runs it for its `stash` backend.
//! * [`stash::params`] — parameter selection, the overhead formula
//!   `(N + B²C + S)/N`, and an analytic estimate of the security parameter ε
//!   (Table 1).
//! * [`cost`] — the report §4.1.3 compares shufflers by (the rejected
//!   baselines' cost models live in `prochlo-bench`).
//! * [`exec`] — the chunked, deterministic fork-join executor the Stash
//!   Shuffle (and the ESA pipeline above this crate) shards its parallel
//!   passes on, plus the `PROCHLO_SHUFFLE_THREADS` knob parsing.
//!
//! The Stash Shuffle runs against a [`prochlo_sgx::Enclave`] so that
//! private-memory budgets are enforced and boundary traffic / access traces
//! can be asserted in tests.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

pub mod cost;
pub mod error;
pub mod exec;
pub mod stash;

pub use cost::CostReport;
pub use error::ShuffleError;
pub use stash::{StashShuffle, StashShuffleParams};

/// The record size the paper uses throughout its evaluation: 64 bytes of
/// payload plus an 8-byte crowd ID, doubly encrypted to 318 bytes.
pub const PAPER_RECORD_BYTES: usize = 318;

/// A batch of equal-length opaque records to be shuffled.
pub(crate) type Records = Vec<Vec<u8>>;

/// Checks that all records have the same length and returns it.
pub(crate) fn uniform_record_len(records: &[Vec<u8>]) -> Result<usize, ShuffleError> {
    let Some(first) = records.first() else {
        return Ok(0);
    };
    let len = first.len();
    if records.iter().any(|r| r.len() != len) {
        return Err(ShuffleError::NonUniformRecords);
    }
    Ok(len)
}
