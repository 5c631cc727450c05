//! Error type for the collector service boundary.
//!
//! The pipeline crates keep their errors `Clone + Eq` because they describe
//! pure computations; a network service additionally fails on I/O, framing
//! and lifecycle, so the collector wraps [`PipelineError`] in its own enum
//! rather than forcing `std::io::Error` into the core type.

use std::fmt;
use std::io;

use prochlo_core::framing::FrameError;
use prochlo_core::wire::WireError;
use prochlo_core::PipelineError;

/// Errors surfaced by the collector service, its protocol codec and client.
#[derive(Debug)]
pub enum CollectorError {
    /// An operating-system I/O operation failed.
    Io(io::Error),
    /// The pipeline rejected a batch or report.
    Pipeline(PipelineError),
    /// A frame or message violated the collector wire protocol.
    Protocol(&'static str),
    /// A peer announced a frame larger than the configured limit.
    FrameTooLarge {
        /// Bytes the peer announced.
        actual: usize,
        /// Maximum frame size configured.
        maximum: usize,
    },
    /// The peer closed the connection at a clean frame boundary.
    ConnectionClosed,
    /// A client exhausted its retry budget against a backpressuring server.
    RetriesExhausted {
        /// Submissions attempted before giving up.
        attempts: usize,
    },
}

impl fmt::Display for CollectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectorError::Io(e) => write!(f, "i/o error: {e}"),
            CollectorError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            CollectorError::Protocol(what) => write!(f, "protocol violation: {what}"),
            CollectorError::FrameTooLarge { actual, maximum } => {
                write!(f, "frame of {actual} bytes exceeds maximum {maximum}")
            }
            CollectorError::ConnectionClosed => write!(f, "connection closed by peer"),
            CollectorError::RetriesExhausted { attempts } => {
                write!(f, "gave up after {attempts} backpressured submissions")
            }
        }
    }
}

impl std::error::Error for CollectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectorError::Io(e) => Some(e),
            CollectorError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CollectorError {
    fn from(e: io::Error) -> Self {
        CollectorError::Io(e)
    }
}

impl From<PipelineError> for CollectorError {
    fn from(e: PipelineError) -> Self {
        CollectorError::Pipeline(e)
    }
}

impl From<WireError> for CollectorError {
    fn from(e: WireError) -> Self {
        CollectorError::Protocol(e.0)
    }
}

impl From<FrameError> for CollectorError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => CollectorError::Io(e),
            FrameError::TooLarge { actual, maximum } => {
                CollectorError::FrameTooLarge { actual, maximum }
            }
            FrameError::Closed => CollectorError::ConnectionClosed,
            FrameError::Protocol(what) => CollectorError::Protocol(what),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_display_and_source() {
        let e: CollectorError = io::Error::new(io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(matches!(e, CollectorError::Io(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("pipe"));

        let e: CollectorError = PipelineError::MalformedReport("bad tag").into();
        assert!(matches!(e, CollectorError::Pipeline(_)));
        assert!(e.to_string().contains("bad tag"));

        // Frame errors map onto the service-boundary variants one to one.
        let e: CollectorError = FrameError::Closed.into();
        assert!(matches!(e, CollectorError::ConnectionClosed));
        let e: CollectorError = FrameError::TooLarge {
            actual: 10,
            maximum: 5,
        }
        .into();
        assert!(matches!(
            e,
            CollectorError::FrameTooLarge {
                actual: 10,
                maximum: 5
            }
        ));

        assert!(CollectorError::FrameTooLarge {
            actual: 100,
            maximum: 64
        }
        .to_string()
        .contains("100"));
        assert!(CollectorError::Protocol("x").source().is_none());
        assert!(CollectorError::RetriesExhausted { attempts: 3 }
            .to_string()
            .contains('3'));
    }
}
