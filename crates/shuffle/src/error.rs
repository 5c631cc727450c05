//! Error type for the oblivious shufflers.

use prochlo_sgx::EnclaveError;

use crate::stash::StashFailures;

/// Errors surfaced by the shuffling algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// Records passed to a shuffler did not all have the same length, which
    /// would make dummy records distinguishable.
    NonUniformRecords,
    /// The enclave's private memory budget was exceeded.
    Enclave(EnclaveError),
    /// Every attempt of the Stash Shuffle failed; `failures` says how each
    /// one did (stash overflow, undrained stash, queue overflow, window
    /// underflow), and its `total()` is the number of attempts made. The
    /// parameters are too tight for this input size.
    AttemptsExhausted {
        /// Why each attempt failed, by kind.
        failures: StashFailures,
    },
    /// An intermediate bucket had the wrong length, or one of its messages
    /// failed to open at the position it was read from: the untrusted array
    /// was truncated, extended, moved or forged.
    IngressFailed(&'static str),
    /// Parameters are internally inconsistent (e.g. zero buckets).
    InvalidParameters(&'static str),
    /// A worker-thread count (the `PROCHLO_SHUFFLE_THREADS` knob) was set
    /// but could not be parsed. The display names the knob and the expected
    /// format, so an operator's typo fails loudly instead of silently
    /// running with a different thread count.
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
            ShuffleError::AttemptsExhausted { failures } => {
                let kinds: Vec<String> = failures
                    .by_kind()
                    .into_iter()
                    .filter(|&(_, count)| count > 0)
                    .map(|(kind, count)| format!("{kind}: {count}"))
                    .collect();
                write!(
                    f,
                    "stash shuffle failed all {} attempts ({})",
                    failures.total(),
                    kinds.join(", ")
                )
            }
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
        let e = ShuffleError::AttemptsExhausted {
            failures: StashFailures {
                stash_overflow: 2,
                queue_overflow: 1,
                ..StashFailures::default()
            },
        };
        assert_eq!(
            e.to_string(),
            "stash shuffle failed all 3 attempts (stash_overflow: 2, queue_overflow: 1)"
        );
    }

    #[test]
    fn enclave_errors_convert() {
        let e: ShuffleError = EnclaveError::ReleaseUnderflow.into();
        assert!(matches!(e, ShuffleError::Enclave(_)));
    }
}
