//! Error type for the oblivious shufflers.

use prochlo_sgx::EnclaveError;

/// Errors surfaced by the shuffling algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// Records passed to a shuffler did not all have the same length, which
    /// would make dummy records distinguishable.
    NonUniformRecords,
    /// The enclave's private memory budget was exceeded.
    Enclave(EnclaveError),
    /// Every attempt of the Stash Shuffle failed — the stash overflowed or
    /// did not drain, the compression queue outgrew its bound or the window
    /// ran dry (the `shuffle.stash.fail.*` counters say which); the
    /// parameters are too tight for this input size.
    StashOverflow {
        /// Number of attempts made before giving up.
        attempts: usize,
    },
    /// The compression-phase window could not supply enough real items for an
    /// output bucket; the window parameter is too small.
    WindowUnderflow,
    /// The problem size exceeds what the algorithm can handle inside the
    /// given private memory (ColumnSort and Melbourne Shuffle have hard
    /// limits).
    ProblemTooLarge {
        /// Requested number of records.
        requested: usize,
        /// Maximum the algorithm supports with this enclave configuration.
        maximum: usize,
    },
    /// An ingress transform (outer-layer decryption) failed for a record.
    IngressFailed(&'static str),
    /// Parameters are internally inconsistent (e.g. zero buckets).
    InvalidParameters(&'static str),
    /// A worker-thread count (the `PROCHLO_SHUFFLE_THREADS` knob) was set
    /// but could not be parsed. The display names the knob and the expected
    /// format, so an operator's typo fails loudly instead of silently
    /// running with a different thread count (the same policy
    /// `PROCHLO_SHUFFLE_BACKEND` follows for backend names).
    InvalidThreads {
        /// The value that failed to parse.
        value: String,
    },
}

impl std::fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShuffleError::NonUniformRecords => write!(f, "records must all have the same length"),
            ShuffleError::Enclave(e) => write!(f, "enclave error: {e}"),
            ShuffleError::StashOverflow { attempts } => {
                write!(f, "stash shuffle failed in all {attempts} attempts")
            }
            ShuffleError::WindowUnderflow => {
                write!(f, "compression window underflow (window too small)")
            }
            ShuffleError::ProblemTooLarge { requested, maximum } => write!(
                f,
                "problem too large: {requested} records, algorithm supports at most {maximum}"
            ),
            ShuffleError::IngressFailed(what) => write!(f, "ingress transform failed: {what}"),
            ShuffleError::InvalidParameters(what) => write!(f, "invalid parameters: {what}"),
            ShuffleError::InvalidThreads { value } => write!(
                f,
                "invalid PROCHLO_SHUFFLE_THREADS value {value:?}: expected a \
                 non-negative integer (0 = all available cores)"
            ),
        }
    }
}

impl std::error::Error for ShuffleError {}

impl From<EnclaveError> for ShuffleError {
    fn from(e: EnclaveError) -> Self {
        ShuffleError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_are_informative() {
        assert!(ShuffleError::NonUniformRecords
            .to_string()
            .contains("same length"));
        assert!(ShuffleError::StashOverflow { attempts: 3 }
            .to_string()
            .contains('3'));
        let e = ShuffleError::ProblemTooLarge {
            requested: 100,
            maximum: 10,
        };
        assert!(e.to_string().contains("100") && e.to_string().contains("10"));
    }

    #[test]
    fn enclave_errors_convert() {
        let e: ShuffleError = EnclaveError::ReleaseUnderflow.into();
        assert!(matches!(e, ShuffleError::Enclave(_)));
    }
}
