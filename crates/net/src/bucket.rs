//! Per-connection token-bucket rate limiting.
//!
//! Each connection carries one [`TokenBucket`]; a report submission takes
//! one token, and tokens refill continuously at the configured rate with a
//! one-second burst capacity. A drained bucket answers `false`, which the
//! collector maps to its existing `RetryAfter` backpressure response — rate
//! limiting reuses the protocol clients already honor rather than
//! inventing a second refusal path.
//!
//! The refill arithmetic is pure (`try_take_at` takes the clock reading as
//! an argument), so the policy is testable deterministically; only the
//! production wrapper [`TokenBucket::try_take`] reads the clock.

use std::time::{Duration, Instant};

/// Continuous-refill token bucket: `rate` tokens per second, burst capacity
/// of one second's worth of tokens.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Whole plus fractional tokens currently available.
    tokens: f64,
    /// Burst ceiling (== rate per second).
    capacity: f64,
    /// Refill rate in tokens per second.
    rate: f64,
    /// Clock reading of the last refill.
    last: Instant,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_per_sec` tokens per second.
    /// Starting full lets a fresh connection submit a burst immediately —
    /// limiting kicks in only at sustained rates above the cap.
    pub fn new(rate_per_sec: u32) -> Self {
        let rate = f64::from(rate_per_sec.max(1));
        Self {
            tokens: rate,
            capacity: rate,
            rate,
            last: Instant::now(),
        }
    }

    /// Takes one token, refilling first from the wallclock.
    pub fn try_take(&mut self) -> bool {
        self.try_take_at(Instant::now())
    }

    /// Takes one token as of clock reading `now`. Pure in `now`, so tests
    /// can drive arbitrary schedules deterministically. Clock readings
    /// earlier than the last refill are treated as no time elapsed.
    fn try_take_at(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last);
        if elapsed > Duration::ZERO {
            self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.capacity);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_up_to_capacity_then_refused() {
        let mut bucket = TokenBucket::new(10);
        let t0 = Instant::now();
        for _ in 0..10 {
            assert!(bucket.try_take_at(t0), "initial burst fits the capacity");
        }
        assert!(!bucket.try_take_at(t0), "drained bucket refuses");
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let mut bucket = TokenBucket::new(10);
        let t0 = Instant::now();
        for _ in 0..10 {
            assert!(bucket.try_take_at(t0));
        }
        // 100ms at 10/s refills exactly one token.
        let t1 = t0 + Duration::from_millis(100);
        assert!(bucket.try_take_at(t1));
        assert!(!bucket.try_take_at(t1));
        // A long idle period refills only to the burst ceiling.
        let t2 = t1 + Duration::from_secs(3600);
        for _ in 0..10 {
            assert!(bucket.try_take_at(t2));
        }
        assert!(!bucket.try_take_at(t2));
    }

    #[test]
    fn clock_going_backwards_is_no_elapsed_time() {
        let mut bucket = TokenBucket::new(1);
        let t0 = Instant::now() + Duration::from_secs(10);
        assert!(bucket.try_take_at(t0));
        // An earlier reading neither refills nor panics.
        assert!(!bucket.try_take_at(t0 - Duration::from_secs(5)));
    }

    #[test]
    fn sustained_rate_converges_to_the_cap() {
        let mut bucket = TokenBucket::new(100);
        let t0 = Instant::now();
        let mut granted = 0u32;
        // Offer 50 submissions per tick for 100 ticks of 10ms = 1 second,
        // i.e. 5000 offered against a cap of 100/s + 100 burst.
        for tick in 0..100u32 {
            let now = t0 + Duration::from_millis(10 * u64::from(tick) + 10);
            for _ in 0..50 {
                if bucket.try_take_at(now) {
                    granted += 1;
                }
            }
        }
        assert!(
            (100..=201).contains(&granted),
            "granted {granted}, want ~rate + burst"
        );
    }
}
