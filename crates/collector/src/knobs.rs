//! Environment knobs owned by this crate.
//!
//! Every knob `prochlo-collector` reads is named and validated in this
//! module, on top of the workspace's one reader ([`prochlo_obs::knobs`]),
//! so the knob inventory stays auditable in one place. Both knobs keep the
//! workspace's invalid-knob convention: an unset knob picks the default,
//! but a set-and-invalid knob is a hard error — the operator made a
//! selection, and silently ignoring it would be worse than failing loudly.

use std::num::{NonZeroU32, NonZeroUsize};

use prochlo_obs::knobs::{self, InvalidKnob};

use crate::error::CollectorError;

/// Environment variable fixing the collector's event-loop thread count
/// when [`crate::CollectorConfig::worker_threads`] is `0` (auto). `0` or
/// unset defers to the host's available parallelism.
pub const EVENT_THREADS_ENV: &str = "PROCHLO_COLLECTOR_EVENT_THREADS";

/// Environment variable fixing the per-connection submission rate limit
/// (reports per second, token-bucket with a one-second burst) when
/// [`crate::CollectorConfig::rate_limit_per_conn`] is `None`. Unset means
/// unlimited; `0` is rejected (unset is how "no limit" is spelled).
pub const RATE_LIMIT_ENV: &str = "PROCHLO_COLLECTOR_RATE_LIMIT";

fn invalid(name: &'static str) -> impl Fn(InvalidKnob) -> CollectorError {
    move |e| CollectorError::InvalidKnob {
        name,
        value: e.value,
    }
}

/// Resolves the event-loop thread count for a `worker_threads: 0` (auto)
/// configuration: [`EVENT_THREADS_ENV`] when set to a positive count, the
/// available cores when the knob is unset or `0`.
pub fn event_threads() -> Result<usize, CollectorError> {
    match knobs::parse(EVENT_THREADS_ENV).map_err(invalid(EVENT_THREADS_ENV))? {
        None | Some(0) => Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get)),
        Some(n) => Ok(n),
    }
}

/// Resolves the per-connection rate limit for a `rate_limit_per_conn:
/// None` configuration: `Some(reports_per_sec)` when [`RATE_LIMIT_ENV`] is
/// set, `None` (unlimited) when unset.
pub fn rate_limit() -> Result<Option<u32>, CollectorError> {
    let limit = knobs::parse::<NonZeroU32>(RATE_LIMIT_ENV).map_err(invalid(RATE_LIMIT_ENV))?;
    Ok(limit.map(NonZeroU32::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them serialized behind one
    // lock so parallel test threads cannot interleave set/remove pairs.
    static ENV_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn event_threads_defaults_resolve_to_cores() {
        let _guard = ENV_LOCK.lock();
        std::env::remove_var(EVENT_THREADS_ENV);
        assert!(event_threads().unwrap() >= 1);
        std::env::set_var(EVENT_THREADS_ENV, "0");
        assert!(event_threads().unwrap() >= 1);
        std::env::set_var(EVENT_THREADS_ENV, "3");
        assert_eq!(event_threads().unwrap(), 3);
        std::env::remove_var(EVENT_THREADS_ENV);
    }

    #[test]
    fn invalid_event_threads_is_a_hard_error() {
        let _guard = ENV_LOCK.lock();
        std::env::set_var(EVENT_THREADS_ENV, "many");
        assert!(matches!(
            event_threads(),
            Err(CollectorError::InvalidKnob { name, .. }) if name == EVENT_THREADS_ENV
        ));
        std::env::remove_var(EVENT_THREADS_ENV);
    }

    #[test]
    fn rate_limit_parses_and_rejects_zero() {
        let _guard = ENV_LOCK.lock();
        std::env::remove_var(RATE_LIMIT_ENV);
        assert_eq!(rate_limit().unwrap(), None);
        std::env::set_var(RATE_LIMIT_ENV, "250");
        assert_eq!(rate_limit().unwrap(), Some(250));
        std::env::set_var(RATE_LIMIT_ENV, "0");
        assert!(matches!(
            rate_limit(),
            Err(CollectorError::InvalidKnob { name, .. }) if name == RATE_LIMIT_ENV
        ));
        std::env::set_var(RATE_LIMIT_ENV, "fast");
        assert!(rate_limit().is_err());
        std::env::remove_var(RATE_LIMIT_ENV);
    }
}
