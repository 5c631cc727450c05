//! From-scratch cryptographic substrate for the Prochlo / ESA reproduction.
//!
//! The paper builds its nested encryption, attestation, crowd-ID blinding and
//! secret-share encoding on OpenSSL (NIST P-256 + AES-128-GCM) and the Linux
//! SGX SDK crypto library. Those libraries are not available offline, and the
//! reproduction guidelines ask for every substrate to be built rather than
//! mocked, so this crate implements the required primitives directly:
//!
//! * [`mod@sha256`] — SHA-256 with round constants derived at start-up from the
//!   integer square/cube roots of the first primes (no hard-coded tables to
//!   mistype).
//! * [`chacha20`] — the ChaCha20 stream cipher, and [`aead`] —
//!   ChaCha20-Poly1305 (RFC 8439). This is the stand-in for AES-128-GCM: the
//!   other standard AEAD with a 96-bit nonce and a 16-byte tag.
//! * [`field`] — arithmetic in GF(2²⁵⁵ − 19), and [`edwards`] — the
//!   twisted-Edwards curve group used in Ed25519 (prime-order subgroup),
//!   standing in for NIST P-256. [`scalar`] implements arithmetic modulo the
//!   group order for Schnorr signatures.
//! * [`ecdh`] / [`hybrid`] — Diffie–Hellman key agreement (one SHA-256 turns
//!   a shared point into a key) and the hybrid public-key encryption used
//!   for the ESA *nested encryption* layers; a
//!   sender that seals to one key many times seals to the key's comb table
//!   ([`edwards::FixedBaseTable`]) and gets the same bytes faster.
//! * [`schnorr`] — Schnorr signatures over the Edwards group, used by the
//!   simulated SGX attestation chain.
//! * [`elgamal`] — El Gamal encryption over the group plus the exponent
//!   *blinding* operation used by the split shuffler for private crowd IDs
//!   (§4.3 of the paper).
//! * [`shamir`] — Shamir secret sharing over GF(2²⁵⁵ − 19), and [`mle`] —
//!   message-locked (deterministic, key-derived-from-message) encryption;
//!   together they implement the secret-share encoding of §4.2.
//!
//! None of this code is intended to be side-channel-free or production
//! hardened; it is a faithful, well-tested functional substrate so that the
//! ESA protocols exercise real cryptographic data paths (correct sizes,
//! correct number of public-key operations, real key separation) without
//! external dependencies.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests time, spawn and count freely; the rules hold production code"
    )
)]

pub mod aead;
pub mod chacha20;
pub mod ecdh;
pub mod edwards;
pub mod elgamal;
pub mod error;
pub mod field;
pub mod hybrid;
pub mod mle;
mod poly1305;
pub mod scalar;
pub mod schnorr;
pub mod sha256;
pub mod shamir;
pub mod util;

pub use ecdh::{EphemeralSecret, PublicKey, StaticSecret};
pub use error::CryptoError;
pub use hybrid::HybridKeypair;
pub use scalar::Scalar;
pub use sha256::sha256;
