//! A software simulation of an SGX-like trusted-execution environment.
//!
//! The paper hardens the ESA shuffler by running it inside an Intel SGX
//! enclave (§4.1). Real SGX hardware imposes three constraints that drive the
//! entire design of the Stash Shuffle:
//!
//! 1. **A hard private-memory budget.** Current hardware gives an enclave
//!    roughly 92 MB of usable, integrity-protected memory; everything else
//!    must live outside, encrypted.
//! 2. **A cost for crossing the boundary.** Every byte moved between
//!    untrusted memory and the enclave passes through the Memory Encryption
//!    Engine.
//! 3. **Observability of the access pattern.** The host can watch *which*
//!    encrypted blocks the enclave touches and when, so algorithms must make
//!    their access pattern independent of secret data ("oblivious").
//!
//! This crate models exactly those three things — a byte-accurate private
//! memory budget ([`enclave::Enclave`], split into per-worker sub-budgets by
//! [`enclave::WorkerPool`] for a multi-threaded enclave), boundary-traffic
//! accounting ([`enclave::EnclaveMetrics`]), and an access trace that tests
//! can assert is data-independent — plus the remote-attestation story
//! ([`attestation`]): a simulated Intel root signs per-CPU keys, a CPU key
//! signs enclave Quotes, and clients verify the chain before trusting a
//! shuffler public key, mirroring §4.1.1.
//!
//! The simulation deliberately does *not* try to model micro-architectural
//! side channels (page faults, branch shadowing); the paper's own
//! countermeasures for those are code-structure disciplines, which we note in
//! the Stash Shuffle implementation instead.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

pub mod attestation;
pub mod enclave;

pub use attestation::{AttestationAuthority, CpuKey, Quote, QuoteVerifier};
pub use enclave::{BoundaryLog, Enclave, EnclaveConfig, EnclaveError, EnclaveMetrics, WorkerPool};

/// The usable private (EPC) memory of a current-generation SGX enclave, as
/// reported by the paper: 92 MB.
pub const DEFAULT_EPC_BYTES: usize = 92 * 1024 * 1024;
