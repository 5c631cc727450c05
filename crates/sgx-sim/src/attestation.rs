//! Simulated SGX remote attestation (§4.1.1 of the paper).
//!
//! The real flow: an enclave generates a key pair at start-up and issues a
//! Quote — "an SGX enclave running code X published public key PK" — signed
//! by a key fused into the CPU, which in turn chains to an Intel root.
//! Clients verify the chain, check that the measurement X matches a known,
//! trusted shuffler build, and only then encrypt to PK.
//!
//! Here the Intel root and per-CPU keys are Schnorr keys from
//! [`prochlo_crypto::schnorr`]; everything else is identical in structure, so
//! client code exercises the same verification logic and failure modes
//! (unknown measurement, broken chain, tampered report data, replayed quote
//! for a stale key).

use prochlo_crypto::schnorr::{Signature, SigningKey, VerifyingKey};

use crate::enclave::Enclave;

/// Errors produced when generating or verifying attestation material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationError {
    /// The CPU certificate was not signed by the trusted root.
    UntrustedCpu,
    /// The quote signature did not verify under the CPU key.
    InvalidQuoteSignature,
    /// The quote is for an enclave measurement the client does not trust.
    UnknownMeasurement,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationError::UntrustedCpu => write!(f, "CPU certificate not signed by root"),
            AttestationError::InvalidQuoteSignature => write!(f, "quote signature invalid"),
            AttestationError::UnknownMeasurement => {
                write!(f, "quote is for an untrusted enclave measurement")
            }
        }
    }
}

impl std::error::Error for AttestationError {}

/// The simulated Intel attestation root: signs per-CPU keys.
pub struct AttestationAuthority {
    root: SigningKey,
}

impl AttestationAuthority {
    /// Creates the authority from a seed (a fixed, well-known root in tests
    /// and benchmarks).
    pub fn from_seed(seed: &[u8]) -> Self {
        Self {
            root: SigningKey::from_seed(&[b"attestation-root-", seed].concat()),
        }
    }

    /// The root verification key clients embed.
    pub fn root_key(&self) -> VerifyingKey {
        self.root.verifying_key()
    }

    /// Provisions a CPU: generates its quoting key and certifies it.
    pub fn provision_cpu(&self, cpu_serial: &[u8]) -> CpuKey {
        let quoting_key = SigningKey::from_seed(&[b"cpu-quoting-key-", cpu_serial].concat());
        let certificate = self
            .root
            .sign(&cpu_certificate_message(&quoting_key.verifying_key()));
        CpuKey {
            quoting_key,
            certificate,
        }
    }
}

fn cpu_certificate_message(key: &VerifyingKey) -> Vec<u8> {
    [b"prochlo-cpu-certificate".as_slice(), &key.to_bytes()].concat()
}

fn quote_message(measurement: &[u8; 32], report_data: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(32 + 8 + report_data.len() + 24);
    msg.extend_from_slice(b"prochlo-quote");
    msg.extend_from_slice(measurement);
    msg.extend_from_slice(&(report_data.len() as u64).to_le_bytes());
    msg.extend_from_slice(report_data);
    msg
}

/// A CPU quoting key certified by the attestation authority.
pub struct CpuKey {
    quoting_key: SigningKey,
    certificate: Signature,
}

impl CpuKey {
    /// The CPU's verification key.
    fn verifying_key(&self) -> VerifyingKey {
        self.quoting_key.verifying_key()
    }

    /// Produces a Quote binding `report_data` (typically the shuffler's fresh
    /// public key) to the enclave's measurement.
    pub fn quote(&self, enclave: &Enclave, report_data: &[u8]) -> Quote {
        let measurement = enclave.measurement();
        let signature = self
            .quoting_key
            .sign(&quote_message(&measurement, report_data));
        Quote {
            measurement,
            report_data: report_data.to_vec(),
            cpu_key: self.verifying_key(),
            cpu_certificate: self.certificate,
            signature,
        }
    }
}

/// An attestation Quote: "an enclave with this measurement published this
/// report data", signed by a certified CPU key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// Hash of the enclave code.
    pub(crate) measurement: [u8; 32],
    /// Data the enclave asked to be bound (e.g. its ephemeral public key).
    pub(crate) report_data: Vec<u8>,
    /// The quoting CPU's verification key.
    pub(crate) cpu_key: VerifyingKey,
    /// Root signature over the CPU key.
    pub(crate) cpu_certificate: Signature,
    /// CPU signature over (measurement, report data).
    pub(crate) signature: Signature,
}

/// Client-side quote verification policy: the trusted root and the set of
/// enclave measurements (i.e. shuffler builds) the client accepts.
pub struct QuoteVerifier {
    root: VerifyingKey,
    trusted_measurements: Vec<[u8; 32]>,
}

impl QuoteVerifier {
    /// Creates a verifier trusting `root` and the given measurements.
    pub fn new(root: VerifyingKey, trusted_measurements: Vec<[u8; 32]>) -> Self {
        Self {
            root,
            trusted_measurements,
        }
    }

    /// Verifies the full chain and returns the attested report data.
    pub fn verify<'q>(&self, quote: &'q Quote) -> Result<&'q [u8], AttestationError> {
        // 1. The CPU key chains to the root.
        self.root
            .verify(
                &cpu_certificate_message(&quote.cpu_key),
                &quote.cpu_certificate,
            )
            .map_err(|_| AttestationError::UntrustedCpu)?;
        // 2. The quote is signed by that CPU key.
        quote
            .cpu_key
            .verify(
                &quote_message(&quote.measurement, &quote.report_data),
                &quote.signature,
            )
            .map_err(|_| AttestationError::InvalidQuoteSignature)?;
        // 3. The measurement is one the client trusts.
        if !self
            .trusted_measurements
            .iter()
            .any(|m| m == &quote.measurement)
        {
            return Err(AttestationError::UnknownMeasurement);
        }
        Ok(&quote.report_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{Enclave, EnclaveConfig};

    fn setup() -> (AttestationAuthority, CpuKey, Enclave) {
        let authority = AttestationAuthority::from_seed(b"intel");
        let cpu = authority.provision_cpu(b"cpu-0001");
        let enclave = Enclave::new(EnclaveConfig {
            code_identity: "prochlo-shuffler-v1".into(),
            ..EnclaveConfig::default()
        });
        (authority, cpu, enclave)
    }

    #[test]
    fn valid_quote_verifies_and_returns_report_data() {
        let (authority, cpu, enclave) = setup();
        let quote = cpu.quote(&enclave, b"shuffler-public-key-bytes");
        let verifier = QuoteVerifier::new(authority.root_key(), vec![enclave.measurement()]);
        assert_eq!(
            verifier.verify(&quote).unwrap(),
            b"shuffler-public-key-bytes"
        );
    }

    #[test]
    fn unknown_measurement_is_rejected() {
        let (authority, cpu, enclave) = setup();
        let quote = cpu.quote(&enclave, b"pk");
        let verifier = QuoteVerifier::new(authority.root_key(), vec![[0u8; 32]]);
        assert_eq!(
            verifier.verify(&quote),
            Err(AttestationError::UnknownMeasurement)
        );
    }

    #[test]
    fn cpu_not_signed_by_root_is_rejected() {
        let (_authority, _cpu, enclave) = setup();
        let rogue_authority = AttestationAuthority::from_seed(b"rogue");
        let rogue_cpu = rogue_authority.provision_cpu(b"cpu-9999");
        let quote = rogue_cpu.quote(&enclave, b"pk");
        // The client trusts the *real* root, so the rogue chain fails.
        let real = AttestationAuthority::from_seed(b"intel");
        let verifier = QuoteVerifier::new(real.root_key(), vec![enclave.measurement()]);
        assert_eq!(verifier.verify(&quote), Err(AttestationError::UntrustedCpu));
    }

    #[test]
    fn tampered_report_data_is_rejected() {
        let (authority, cpu, enclave) = setup();
        let mut quote = cpu.quote(&enclave, b"honest-key");
        quote.report_data = b"attacker-key".to_vec();
        let verifier = QuoteVerifier::new(authority.root_key(), vec![enclave.measurement()]);
        assert_eq!(
            verifier.verify(&quote),
            Err(AttestationError::InvalidQuoteSignature)
        );
    }

    #[test]
    fn tampered_measurement_is_rejected() {
        let (authority, cpu, enclave) = setup();
        let mut quote = cpu.quote(&enclave, b"pk");
        quote.measurement[0] ^= 1;
        let verifier = QuoteVerifier::new(authority.root_key(), vec![quote.measurement]);
        assert_eq!(
            verifier.verify(&quote),
            Err(AttestationError::InvalidQuoteSignature)
        );
    }

    #[test]
    fn different_enclave_code_produces_different_measurement() {
        let (authority, cpu, enclave) = setup();
        let other = Enclave::new(EnclaveConfig {
            code_identity: "not-the-shuffler".into(),
            ..EnclaveConfig::default()
        });
        let quote = cpu.quote(&other, b"pk");
        let verifier = QuoteVerifier::new(authority.root_key(), vec![enclave.measurement()]);
        assert_eq!(
            verifier.verify(&quote),
            Err(AttestationError::UnknownMeasurement)
        );
    }
}
