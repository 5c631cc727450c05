//! Environment knobs owned by the examples crate (the soak harness).
//!
//! Every knob `prochlo-examples` reads is named and validated here, on top
//! of the workspace's one reader ([`prochlo_obs::knobs`]), so the knob
//! inventory stays auditable in one place. The workspace convention holds:
//! an unset knob picks the default, a set-but-invalid knob is a hard error
//! — the operator made a selection, and silently ignoring it would be worse
//! than failing loudly.

use std::num::NonZeroUsize;

use prochlo_obs::knobs;

/// Total sealed reports the soak drives through the collector.
const SOAK_REPORTS_ENV: &str = "PROCHLO_SOAK_REPORTS";

/// Concurrent client connections the soak holds open.
const SOAK_CONNS_ENV: &str = "PROCHLO_SOAK_CONNS";

/// Client submitter threads (each multiplexes its share of the
/// connections); `0` means every available core.
const SOAK_THREADS_ENV: &str = "PROCHLO_SOAK_THREADS";

/// Reports per epoch cut during the soak.
const SOAK_EPOCH_REPORTS_ENV: &str = "PROCHLO_SOAK_EPOCH_REPORTS";

fn positive(name: &'static str, default: usize) -> Result<usize, String> {
    let value = knobs::parse::<NonZeroUsize>(name).map_err(|e| e.to_string())?;
    Ok(value.map_or(default, NonZeroUsize::get))
}

/// Total sealed reports to drive; default one million.
pub fn soak_reports() -> Result<usize, String> {
    positive(SOAK_REPORTS_ENV, 1_000_000)
}

/// Concurrent connections to hold open; default 256.
pub fn soak_conns() -> Result<usize, String> {
    positive(SOAK_CONNS_ENV, 256)
}

/// Client submitter threads; default 8, `0` = available cores.
pub fn soak_threads() -> Result<usize, String> {
    match knobs::parse(SOAK_THREADS_ENV).map_err(|e| e.to_string())? {
        None => Ok(8),
        Some(0) => Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get)),
        Some(n) => Ok(n),
    }
}

/// Reports per epoch cut; default 50 000.
pub fn soak_epoch_reports() -> Result<usize, String> {
    positive(SOAK_EPOCH_REPORTS_ENV, 50_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; serialize them.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn defaults_apply_when_unset() {
        let _guard = ENV_LOCK.lock().unwrap();
        for name in [
            SOAK_REPORTS_ENV,
            SOAK_CONNS_ENV,
            SOAK_THREADS_ENV,
            SOAK_EPOCH_REPORTS_ENV,
        ] {
            std::env::remove_var(name);
        }
        assert_eq!(soak_reports().unwrap(), 1_000_000);
        assert_eq!(soak_conns().unwrap(), 256);
        assert_eq!(soak_threads().unwrap(), 8);
        assert_eq!(soak_epoch_reports().unwrap(), 50_000);
    }

    #[test]
    fn set_values_parse_and_invalid_is_a_hard_error() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var(SOAK_REPORTS_ENV, "20000");
        assert_eq!(soak_reports().unwrap(), 20_000);
        std::env::set_var(SOAK_REPORTS_ENV, "0");
        assert!(soak_reports().is_err());
        std::env::set_var(SOAK_REPORTS_ENV, "plenty");
        assert!(soak_reports().is_err());
        std::env::remove_var(SOAK_REPORTS_ENV);

        std::env::set_var(SOAK_THREADS_ENV, "0");
        assert!(soak_threads().unwrap() >= 1);
        std::env::set_var(SOAK_THREADS_ENV, "3");
        assert_eq!(soak_threads().unwrap(), 3);
        std::env::set_var(SOAK_THREADS_ENV, "-1");
        assert!(soak_threads().is_err());
        std::env::remove_var(SOAK_THREADS_ENV);
    }
}
