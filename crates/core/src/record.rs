//! Report formats exchanged between the ESA stages.
//!
//! A client report is built inside-out:
//!
//! 1. an [`AnalyzerPayload`] (plain data or the secret-share encoding of
//!    §4.2) is serialized and sealed to the **analyzer's** public key;
//! 2. the resulting inner ciphertext, together with a [`CrowdId`], forms the
//!    [`ShufflerEnvelope`], which is sealed to the **shuffler's** public key;
//! 3. the outer ciphertext travels with [`TransportMetadata`] (client id,
//!    arrival order, source address, timestamp) that the shuffler strips.
//!
//! This is the paper's nested encryption: the shuffler learns crowd IDs and
//! sizes but never payloads; the analyzer learns payloads but never which
//! client, when, or from where.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use std::borrow::Borrow;
use std::sync::Arc;

use prochlo_crypto::hybrid::HybridCiphertext;
use prochlo_crypto::sha256::sha256;

use crate::error::PipelineError;
use crate::wire::{put_bytes, put_u8, Reader};

/// The crowd identifier attached to a report, which the shuffler uses for
/// cardinality thresholding (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrowdId {
    /// No crowd: the report bypasses thresholding (the "NoCrowd" experiment).
    None,
    /// A hash of the crowd label; the shuffler can count equal values but a
    /// malicious shuffler may dictionary-attack guessable labels.
    Hashed([u8; 32]),
    /// An El Gamal encryption of the hashed-to-group crowd label under
    /// Shuffler 2's key, as its 64-byte wire encoding (two compressed
    /// points); requires the split-shuffler deployment (§4.3), whose
    /// Shuffler 1 is the one stage that decodes it.
    Blinded([u8; 64]),
}

impl CrowdId {
    /// Builds a hashed crowd ID from a label.
    pub fn hashed(label: &[u8]) -> Self {
        CrowdId::Hashed(sha256(label))
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            CrowdId::None => put_u8(&mut out, 0),
            CrowdId::Hashed(h) => {
                put_u8(&mut out, 1);
                out.extend_from_slice(h);
            }
            CrowdId::Blinded(bytes) => {
                put_u8(&mut out, 2);
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Parses the crowd-ID field of a [`ShufflerEnvelope`], in place and
    /// used up exactly.
    fn from_field(field: &[u8]) -> Result<Self, PipelineError> {
        let mut reader = Reader::new(field);
        let crowd_id = match reader.get_u8("truncated crowd id")? {
            0 => CrowdId::None,
            1 => CrowdId::Hashed(*reader.get_fixed("truncated crowd id")?),
            2 => CrowdId::Blinded(*reader.get_fixed("truncated crowd id")?),
            _ => return Err(PipelineError::MalformedReport("unknown crowd-id tag")),
        };
        reader.finish("trailing crowd-id bytes")?;
        Ok(crowd_id)
    }
}

/// The innermost payload, visible only to the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzerPayload {
    /// Plain (padded) data.
    Plain(Vec<u8>),
    /// The secret-share encoding of §4.2: a deterministic message-locked
    /// ciphertext plus one Shamir share of its key.
    SecretShared {
        /// Serialized [`prochlo_crypto::mle::MleCiphertext`].
        ciphertext: Vec<u8>,
        /// Serialized [`prochlo_crypto::shamir::Share`] (64 bytes).
        share: Vec<u8>,
    },
}

impl AnalyzerPayload {
    /// Serializes the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AnalyzerPayload::Plain(data) => {
                put_u8(&mut out, 0);
                put_bytes(&mut out, data);
            }
            AnalyzerPayload::SecretShared { ciphertext, share } => {
                put_u8(&mut out, 1);
                put_bytes(&mut out, ciphertext);
                put_bytes(&mut out, share);
            }
        }
        out
    }

    /// Parses a payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PipelineError> {
        let mut reader = Reader::new(bytes);
        let payload = match reader.get_u8("truncated payload tag")? {
            0 => AnalyzerPayload::Plain(reader.get_bytes("truncated payload data")?),
            1 => AnalyzerPayload::SecretShared {
                ciphertext: reader.get_bytes("truncated payload ciphertext")?,
                share: reader.get_bytes("truncated payload share")?,
            },
            _ => return Err(PipelineError::MalformedReport("unknown payload tag")),
        };
        reader.finish("trailing payload bytes")?;
        Ok(payload)
    }
}

/// What the shuffler sees after removing the outer encryption layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShufflerEnvelope {
    /// The crowd ID used for thresholding.
    pub crowd_id: CrowdId,
    /// The inner ciphertext (sealed to the analyzer).
    pub inner: Vec<u8>,
}

impl ShufflerEnvelope {
    /// Serializes the envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, &self.crowd_id.to_bytes());
        put_bytes(&mut out, &self.inner);
        out
    }

    /// Parses an envelope.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PipelineError> {
        let mut reader = Reader::new(bytes);
        let crowd_id = CrowdId::from_field(reader.get_slice("truncated crowd-id field")?)?;
        let inner = reader.get_bytes("truncated inner ciphertext")?;
        reader.finish("trailing envelope bytes")?;
        Ok(Self { crowd_id, inner })
    }
}

/// Transport metadata that accompanies a report on the wire and that the
/// shuffler must strip (§3.3: "timestamps, source IP addresses, routing
/// paths").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportMetadata {
    /// A client identifier as seen by the transport (e.g. a connection id).
    /// Shared: a serving front end renders it once per connection, not once
    /// per report.
    pub client_label: Arc<str>,
    /// Arrival order at the shuffler's front end.
    pub arrival_order: u64,
    /// Source IPv4 address.
    pub source_ip: [u8; 4],
    /// Arrival timestamp (seconds).
    pub timestamp_secs: u64,
}

impl TransportMetadata {
    /// Metadata for tests and simulations.
    pub fn synthetic(client_index: u64) -> Self {
        Self {
            client_label: format!("client-{client_index}").into(),
            arrival_order: client_index,
            source_ip: [
                10,
                (client_index >> 16) as u8,
                (client_index >> 8) as u8,
                client_index as u8,
            ],
            timestamp_secs: 1_700_000_000 + client_index,
        }
    }
}

/// A complete client report as transmitted to the shuffler.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// The outer ciphertext (sealed to the shuffler, containing a serialized
    /// [`ShufflerEnvelope`]).
    pub outer: HybridCiphertext,
    /// Transport metadata the shuffler strips.
    pub metadata: TransportMetadata,
}

impl ClientReport {
    /// Size of the report on the wire (ciphertext only).
    pub(crate) fn wire_len(&self) -> usize {
        self.outer.wire_len()
    }
}

/// A report is its outer ciphertext to everything past the front end: the
/// shuffler peels `&[ClientReport]` and the bare ciphertexts a fabric frame
/// carries through the same code.
impl Borrow<HybridCiphertext> for ClientReport {
    fn borrow(&self) -> &HybridCiphertext {
        &self.outer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowd_id_roundtrips() {
        // A blinded crowd ID is carried as its bytes: the envelope neither
        // decodes nor checks its two points.
        let blinded = CrowdId::Blinded(std::array::from_fn(|i| i as u8));
        for crowd in [CrowdId::None, CrowdId::hashed(b"api-17"), blinded] {
            let env = ShufflerEnvelope {
                crowd_id: crowd.clone(),
                inner: vec![1, 2, 3],
            };
            let parsed = ShufflerEnvelope::from_bytes(&env.to_bytes()).unwrap();
            assert_eq!(parsed, env);
        }
    }

    #[test]
    fn a_crowd_field_with_a_byte_past_its_crowd_id_is_refused() {
        // Built by hand: the encoder never writes such a field. A hashed
        // crowd ID is a tag and 32 bytes; this field carries one more.
        let mut crowd_field = vec![1u8];
        crowd_field.extend_from_slice(&[7u8; 32]);
        let mut clean = Vec::new();
        put_bytes(&mut clean, &crowd_field);
        put_bytes(&mut clean, b"inner");
        assert!(ShufflerEnvelope::from_bytes(&clean).is_ok());
        crowd_field.push(0);
        let mut padded = Vec::new();
        put_bytes(&mut padded, &crowd_field);
        put_bytes(&mut padded, b"inner");
        assert_eq!(
            ShufflerEnvelope::from_bytes(&padded),
            Err(PipelineError::MalformedReport("trailing crowd-id bytes"))
        );
    }

    #[test]
    fn hashed_crowd_ids_are_equal_for_equal_labels() {
        assert_eq!(CrowdId::hashed(b"x"), CrowdId::hashed(b"x"));
        assert_ne!(CrowdId::hashed(b"x"), CrowdId::hashed(b"y"));
    }

    #[test]
    fn payload_roundtrips() {
        let plain = AnalyzerPayload::Plain(vec![9; 40]);
        assert_eq!(
            AnalyzerPayload::from_bytes(&plain.to_bytes()).unwrap(),
            plain
        );
        let shared = AnalyzerPayload::SecretShared {
            ciphertext: vec![1; 30],
            share: vec![2; 64],
        };
        assert_eq!(
            AnalyzerPayload::from_bytes(&shared.to_bytes()).unwrap(),
            shared
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(AnalyzerPayload::from_bytes(&[]).is_err());
        assert!(AnalyzerPayload::from_bytes(&[7, 0, 0, 0, 0]).is_err());
        let mut valid = AnalyzerPayload::Plain(vec![1, 2, 3]).to_bytes();
        valid.push(0xff);
        assert!(AnalyzerPayload::from_bytes(&valid).is_err());
        assert!(ShufflerEnvelope::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn synthetic_metadata_is_distinct_per_client() {
        let a = TransportMetadata::synthetic(1);
        let b = TransportMetadata::synthetic(2);
        assert_ne!(a.client_label, b.client_label);
        assert_ne!(a.source_ip, b.source_ip);
        assert_ne!(a.arrival_order, b.arrival_order);
    }
}
