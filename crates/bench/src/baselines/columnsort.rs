//! ColumnSort (the Opaque baseline of §4.1.3): cost model and problem-size
//! bound.
//!
//! ColumnSort sorts an r×s matrix (columns of r records, each column sorted
//! privately) in exactly eight steps, so its overhead is a flat 8× the
//! dataset — better than Batcher's sort — but Leighton's correctness
//! condition `r ≥ 2(s−1)²` caps the problem size once r is pinned to what
//! fits in private memory. With the paper's 92 MB enclave and 318-byte
//! records that cap is ≈118 million records, which is why Prochlo could not
//! simply adopt Opaque's shuffler.
//!
//! Because the bound — not the mechanics of the eight steps — is what the
//! paper's comparison turns on, this module provides the cost model and the
//! feasibility computation, like the other §4.1.3 baselines beside it.

use crate::ShuffleCostModel;
use prochlo_shuffle::CostReport;

/// Analytic cost of SGX ColumnSort.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnSortCostModel;

impl ColumnSortCostModel {
    /// The number of records in one column (one column must fit in private
    /// memory).
    fn column_records(record_bytes: usize, private_memory_bytes: usize) -> usize {
        (private_memory_bytes / record_bytes.max(1)).max(1)
    }

    /// Maximum number of records sortable given the private-memory budget:
    /// with r records per column, Leighton's condition `r ≥ 2(s−1)²` limits
    /// the number of columns s, and the total is `r·s`.
    fn max_records(record_bytes: usize, private_memory_bytes: usize) -> usize {
        let r = Self::column_records(record_bytes, private_memory_bytes);
        let s = ((r as f64 / 2.0).sqrt().floor() as usize) + 1;
        r.saturating_mul(s)
    }
}

impl ShuffleCostModel for ColumnSortCostModel {
    fn name(&self) -> &'static str {
        "ColumnSort (Opaque)"
    }

    fn cost(&self, records: usize, record_bytes: usize, private_memory_bytes: usize) -> CostReport {
        // Eight passes over the data, independent of problem size.
        let rounds = 8usize;
        let bytes = (records as u128) * (record_bytes as u128) * rounds as u128;
        let max = Self::max_records(record_bytes, private_memory_bytes);
        CostReport::new(self.name(), records, record_bytes, bytes, Some(max), rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_eight() {
        let r = ColumnSortCostModel.cost(10_000_000, 318, prochlo_sgx::DEFAULT_EPC_BYTES);
        assert!((r.overhead_factor - 8.0).abs() < 1e-9);
        assert_eq!(r.rounds, 8);
    }

    #[test]
    fn max_problem_size_matches_paper() {
        // "it can at most sort 118 million 318-byte records."
        let max = ColumnSortCostModel::max_records(318, prochlo_sgx::DEFAULT_EPC_BYTES);
        assert!(
            (105_000_000..=130_000_000).contains(&max),
            "max records {max}"
        );
    }

    #[test]
    fn feasibility_flags() {
        let epc = prochlo_sgx::DEFAULT_EPC_BYTES;
        assert!(ColumnSortCostModel.cost(100_000_000, 318, epc).feasible);
        assert!(!ColumnSortCostModel.cost(200_000_000, 318, epc).feasible);
    }

    #[test]
    fn smaller_private_memory_lowers_the_cap() {
        let big = ColumnSortCostModel::max_records(318, prochlo_sgx::DEFAULT_EPC_BYTES);
        let small = ColumnSortCostModel::max_records(318, prochlo_sgx::DEFAULT_EPC_BYTES / 4);
        assert!(small < big);
    }
}
