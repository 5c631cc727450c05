//! The Melbourne Shuffle baseline (§4.1.3): its cost model at paper scale.
//!
//! The Melbourne Shuffle picks the target permutation up front and then
//! obliviously rearranges the data towards it in two passes (distribution
//! with per-bucket caps and dummy padding, then clean-up). It avoids full
//! sorting, so its overhead is a small constant, but it must hold the *entire
//! permutation* in private memory — which is exactly why the paper rules it
//! out for SGX at Prochlo's scale ("only a few dozen million items, at most").
//!
//! [`MelbourneCostModel`] reports the analytic cost and the maximum feasible
//! problem size for the comparison benchmark.

use crate::ShuffleCostModel;
use prochlo_shuffle::CostReport;

/// Bytes of private memory needed per record just to store the permutation.
const PERMUTATION_BYTES_PER_RECORD: usize = 8;

/// Analytic cost of the Melbourne Shuffle at paper scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct MelbourneCostModel;

impl ShuffleCostModel for MelbourneCostModel {
    fn name(&self) -> &'static str {
        "Melbourne Shuffle"
    }

    fn cost(&self, records: usize, record_bytes: usize, private_memory_bytes: usize) -> CostReport {
        // Four embarrassingly parallel rounds (paper §4.1.4 discussion), each
        // touching the whole dataset once.
        let rounds = 4usize;
        let bytes = (records as u128) * (record_bytes as u128) * rounds as u128;
        let max_records = private_memory_bytes / PERMUTATION_BYTES_PER_RECORD;
        CostReport::new(
            self.name(),
            records,
            record_bytes,
            bytes,
            Some(max_records),
            rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_paper_narrative() {
        let model = MelbourneCostModel;
        let epc = prochlo_sgx::DEFAULT_EPC_BYTES;
        let report = model.cost(10_000_000, 318, epc);
        assert_eq!(report.rounds, 4);
        assert!((report.overhead_factor - 4.0).abs() < 1e-9);
        // "only a few dozen million items, at most": ~12M with 8-byte indices.
        let max = report.max_records.unwrap();
        assert!((10_000_000..30_000_000).contains(&max), "max {max}");
        assert!(report.feasible);
        assert!(!model.cost(100_000_000, 318, epc).feasible);
    }
}
