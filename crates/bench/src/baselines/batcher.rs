//! Oblivious shuffling via Batcher's odd-even merge sorting network —
//! the first baseline of §4.1.3: its cost model at paper scale.
//!
//! Sorting by a keyed pseudorandom tag is a brute-force oblivious shuffle:
//! the comparator sequence of the network depends only on `N`, never on the
//! data, so an observer of memory accesses learns nothing about the resulting
//! permutation. The price is the `O((log₂ N/b)²)` passes over the data that
//! the paper's Table-free comparison calls out (49× the dataset at 10 million
//! records, 100× at 100 million).
//!
//! [`BatcherCostModel`] prices the bucketed variant the paper describes
//! (buckets of `b` records such that two buckets fit in private memory).

use crate::ShuffleCostModel;
use prochlo_shuffle::CostReport;

/// Analytic cost of the bucketed Batcher sort-shuffle at paper scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatcherCostModel;

impl BatcherCostModel {
    /// Bucket size `b`: two buckets must fit in private memory at once.
    fn bucket_records(record_bytes: usize, private_memory_bytes: usize) -> usize {
        (private_memory_bytes / (2 * record_bytes)).max(1)
    }
}

impl ShuffleCostModel for BatcherCostModel {
    fn name(&self) -> &'static str {
        "Batcher sort"
    }

    fn cost(&self, records: usize, record_bytes: usize, private_memory_bytes: usize) -> CostReport {
        let b = Self::bucket_records(record_bytes, private_memory_bytes);
        if records == 0 {
            return CostReport::new(self.name(), 0, record_bytes, 0, None, 0);
        }
        // N/2b private sorting operations per round, (ceil log2(N/b))^2 rounds,
        // each operation touching 2b records.
        let buckets = records.div_ceil(b).max(1);
        let rounds = {
            let log = (buckets as f64).log2().ceil() as usize;
            log * log
        };
        let ops_per_round = records.div_ceil(2 * b) as u128;
        let bytes_processed =
            ops_per_round * (rounds as u128) * (2 * b) as u128 * record_bytes as u128;
        CostReport::new(
            self.name(),
            records,
            record_bytes,
            bytes_processed,
            None,
            rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_paper_overheads() {
        let model = BatcherCostModel;
        let epc = prochlo_sgx::DEFAULT_EPC_BYTES;
        // 10M 318-byte records: the paper reports 49x.
        let r10 = model.cost(10_000_000, 318, epc);
        assert!(
            (r10.overhead_factor - 49.0).abs() < 1.0,
            "{}",
            r10.overhead_factor
        );
        // 100M records: the paper reports 100x.
        let r100 = model.cost(100_000_000, 318, epc);
        assert!(
            (r100.overhead_factor - 100.0).abs() < 1.0,
            "{}",
            r100.overhead_factor
        );
        assert!(r10.feasible && r100.feasible);
    }

    #[test]
    fn cost_model_bucket_size_matches_paper() {
        // "With SGX, b can be at most 152 thousand 318-byte records."
        let b = BatcherCostModel::bucket_records(318, prochlo_sgx::DEFAULT_EPC_BYTES);
        assert!((150_000..155_000).contains(&b), "bucket {b}");
    }

    #[test]
    fn cost_model_zero_records() {
        let r = BatcherCostModel.cost(0, 318, prochlo_sgx::DEFAULT_EPC_BYTES);
        assert_eq!(r.bytes_processed, 0);
    }
}
