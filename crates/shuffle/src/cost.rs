//! The cost report the §4.1.3 comparison between oblivious-shuffling
//! approaches is told in: `paper_cost_report` in `prochlo-core` returns one
//! for each runnable backend, and `prochlo-bench`'s cost models of the
//! rejected baselines return one each.
//!
//! The paper's efficiency metric is "total amount of SGX-processed data,
//! relative to the size of the input dataset": a 2× overhead means every
//! input byte is read into the enclave, decrypted, re-encrypted and written
//! back out twice. Scalability is expressed as the maximum problem size an
//! algorithm supports given the private-memory limit.

/// Analytic cost of running an oblivious shuffle at a given problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Human-readable algorithm name.
    pub algorithm: &'static str,
    /// Number of records.
    pub(crate) records: usize,
    /// Record size in bytes.
    pub(crate) record_bytes: usize,
    /// Total bytes processed inside the enclave (read + decrypted +
    /// re-encrypted + written).
    pub bytes_processed: u128,
    /// `bytes_processed / (records * record_bytes)`.
    pub overhead_factor: f64,
    /// Maximum problem size (records) supported with the configured private
    /// memory, or `None` when unbounded.
    pub max_records: Option<usize>,
    /// Whether the requested problem size is feasible for this algorithm.
    pub feasible: bool,
    /// Number of sequential rounds (each embarrassingly parallel internally).
    pub rounds: usize,
}

impl CostReport {
    /// Convenience constructor that fills in the derived fields.
    pub fn new(
        algorithm: &'static str,
        records: usize,
        record_bytes: usize,
        bytes_processed: u128,
        max_records: Option<usize>,
        rounds: usize,
    ) -> Self {
        let dataset = (records as u128) * (record_bytes as u128);
        let overhead_factor = if dataset == 0 {
            0.0
        } else {
            bytes_processed as f64 / dataset as f64
        };
        let feasible = max_records.is_none_or(|m| records <= m);
        Self {
            algorithm,
            records,
            record_bytes,
            bytes_processed,
            overhead_factor,
            max_records,
            feasible,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_factor_is_ratio() {
        let report = CostReport::new("x", 100, 10, 3_000, None, 1);
        assert!((report.overhead_factor - 3.0).abs() < 1e-12);
        assert!(report.feasible);
    }

    #[test]
    fn infeasible_when_over_max() {
        let report = CostReport::new("x", 100, 10, 1_000, Some(50), 1);
        assert!(!report.feasible);
        let report2 = CostReport::new("x", 50, 10, 1_000, Some(50), 1);
        assert!(report2.feasible);
    }

    #[test]
    fn zero_records_does_not_divide_by_zero() {
        let report = CostReport::new("x", 0, 10, 0, None, 1);
        assert_eq!(report.overhead_factor, 0.0);
    }
}
