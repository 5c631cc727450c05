//! Error type shared by the ESA pipeline stages.

use prochlo_crypto::CryptoError;
use prochlo_shuffle::ShuffleError;

/// Errors surfaced by the encoder, shuffler, analyzer or pipeline driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A cryptographic operation failed.
    Crypto(CryptoError),
    /// The oblivious shuffler failed.
    Shuffle(ShuffleError),
    /// The shuffler refused to process a batch smaller than its minimum.
    BatchTooSmall {
        /// Reports received in the batch.
        received: usize,
        /// Minimum batch size configured.
        minimum: usize,
    },
    /// A report could not be parsed or was inconsistent with the pipeline
    /// configuration.
    MalformedReport(&'static str),
    /// The client's data does not fit the pipeline's fixed payload size.
    PayloadTooLarge {
        /// Bytes the client tried to report.
        actual: usize,
        /// Maximum payload size configured for the pipeline.
        maximum: usize,
    },
    /// A configuration value is inconsistent.
    InvalidConfig(&'static str),
    /// An out-of-process pipeline stage failed: the wire between a
    /// collector shard and its shufflers broke, or a remote stage returned
    /// an inconsistent batch. Carries the transport layer's description.
    Transport(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Crypto(e) => write!(f, "crypto error: {e}"),
            PipelineError::Shuffle(e) => write!(f, "shuffle error: {e}"),
            PipelineError::BatchTooSmall { received, minimum } => {
                write!(f, "batch too small: {received} reports, minimum {minimum}")
            }
            PipelineError::MalformedReport(what) => write!(f, "malformed report: {what}"),
            PipelineError::PayloadTooLarge { actual, maximum } => {
                write!(f, "payload of {actual} bytes exceeds maximum {maximum}")
            }
            PipelineError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            PipelineError::Transport(what) => write!(f, "transport failure: {what}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CryptoError> for PipelineError {
    fn from(e: CryptoError) -> Self {
        PipelineError::Crypto(e)
    }
}

impl From<ShuffleError> for PipelineError {
    fn from(e: ShuffleError) -> Self {
        PipelineError::Shuffle(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PipelineError = CryptoError::AuthenticationFailed.into();
        assert!(matches!(e, PipelineError::Crypto(_)));
        let e: PipelineError = ShuffleError::NonUniformRecords.into();
        assert!(matches!(e, PipelineError::Shuffle(_)));
        assert!(PipelineError::BatchTooSmall {
            received: 3,
            minimum: 10
        }
        .to_string()
        .contains("minimum 10"));
        assert!(PipelineError::PayloadTooLarge {
            actual: 100,
            maximum: 64
        }
        .to_string()
        .contains("100"));
    }
}
