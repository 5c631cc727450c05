//! Lightweight span timers feeding the registry's histograms.

use std::time::Instant;

use crate::registry::Histogram;

/// A one-shot wall-clock timer that records its elapsed time into a
/// [`Histogram`](crate::Histogram) when finished.
///
/// Spans are deliberately tiny: when the owning registry is disabled the
/// span holds no clock reading at all, so `span()` + `finish()` costs two
/// relaxed atomic loads and nothing else — cheap enough to leave in the
/// per-epoch and per-batch hot paths unconditionally.
///
/// [`Span::finish`] returns the elapsed seconds so call sites that also
/// keep legacy timing fields (e.g. `PhaseTimings`) can feed both from a
/// single clock reading:
///
/// ```
/// let registry = prochlo_obs::Registry::new(true);
/// let span = registry.span("shuffler.peel");
/// // ... do the peel ...
/// let peel_seconds = span.finish();
/// assert!(peel_seconds >= 0.0);
/// assert_eq!(registry.histogram("shuffler.peel").count(), 1);
/// ```
#[derive(Debug)]
pub struct Span {
    state: Option<(Instant, Histogram)>,
}

impl Span {
    #[expect(clippy::disallowed_methods, reason = "telemetry: a span's start time")]
    pub(crate) fn started(histogram: Histogram) -> Self {
        Span {
            state: Some((Instant::now(), histogram)),
        }
    }

    pub(crate) fn disabled() -> Self {
        Span { state: None }
    }

    /// Stop the timer, record the observation, and return the elapsed
    /// seconds. Returns `0.0` (and records nothing) when the registry was
    /// disabled at span creation.
    pub fn finish(self) -> f64 {
        self.finish_over(1)
    }

    /// [`Self::finish`] for a span that timed `n` items together: records
    /// `n` observations of the elapsed time over `n`.
    pub fn finish_over(self, n: u64) -> f64 {
        match self.state {
            Some((start, histogram)) => {
                let seconds = start.elapsed().as_secs_f64();
                histogram.record_over(seconds, n);
                seconds
            }
            None => 0.0,
        }
    }
}
