//! Partitioned RAPPOR (§2.2): reports are split into disjoint partitions
//! keyed by a hash of the reported value, and each partition is aggregated
//! and decoded separately.
//!
//! Partitioning lowers the per-partition noise floor (it scales with the
//! square root of the partition's report count) at the cost of weakening the
//! guarantee from pure ε-LDP to (ε, δ): the partition index itself reveals
//! information about the value. Figure 5's "Partition" line shows this buys
//! only a 1.1–3.5× improvement on a long-tailed corpus.

use rand::Rng;

use prochlo_crypto::sha256::sha256_concat;

use crate::rappor::{RapporAggregate, RapporEncoder, RapporParams};

/// A set of per-partition RAPPOR aggregates.
#[derive(Debug, Clone)]
pub struct PartitionedRappor {
    params: RapporParams,
    partitions: Vec<RapporAggregate>,
}

impl PartitionedRappor {
    /// Creates `partitions` empty aggregates.
    pub fn new(params: RapporParams, partitions: usize) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        Self {
            params,
            partitions: (0..partitions)
                .map(|_| RapporAggregate::new(params))
                .collect(),
        }
    }

    /// The partition a value belongs to (public function of the value).
    fn partition_of(&self, value: &[u8]) -> usize {
        let digest = sha256_concat(&[b"rappor-partition", value]);
        let word = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
        (word % self.partitions.len() as u64) as usize
    }

    /// Encodes and records one client's value.
    pub fn report<R: Rng + ?Sized>(&mut self, value: &[u8], rng: &mut R) {
        let encoder = RapporEncoder::new(self.params);
        let encoded = encoder.encode(value, rng);
        let partition = self.partition_of(value);
        self.partitions[partition].add(&encoded);
    }

    /// Decodes each partition against the candidates that hash into it and
    /// returns every recovered candidate with its estimate.
    pub fn decode<'c>(&self, candidates: &'c [Vec<u8>]) -> Vec<(&'c [u8], f64)> {
        let mut per_partition: Vec<Vec<Vec<u8>>> = vec![Vec::new(); self.partitions.len()];
        for candidate in candidates {
            per_partition[self.partition_of(candidate)].push(candidate.clone());
        }
        let mut recovered = Vec::new();
        for (aggregate, candidates_here) in self.partitions.iter().zip(&per_partition) {
            for (value, estimate) in aggregate.decode(candidates_here) {
                // Map back to the caller's slice so lifetimes line up.
                if let Some(original) = candidates.iter().find(|c| c.as_slice() == value) {
                    recovered.push((original.as_slice(), estimate));
                }
            }
        }
        recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn word(i: usize) -> Vec<u8> {
        format!("word-{i}").into_bytes()
    }

    #[test]
    fn partitioning_is_deterministic_and_covers_all_partitions() {
        let params = RapporParams::for_epsilon(2.0);
        let p = PartitionedRappor::new(params, 8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let w = word(i);
            assert_eq!(p.partition_of(&w), p.partition_of(&w));
            seen.insert(p.partition_of(&w));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn partitioning_recovers_at_least_as_much_as_unpartitioned() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = RapporParams::for_epsilon(2.0);
        let candidates: Vec<Vec<u8>> = (0..200).map(word).collect();

        // A moderately skewed workload: word i gets 4000 / (i + 1) reports.
        let mut plain = RapporAggregate::new(params);
        let mut partitioned = PartitionedRappor::new(params, 16);
        let encoder = RapporEncoder::new(params);
        for (i, candidate) in candidates.iter().enumerate().take(50) {
            let count = 4_000 / (i + 1);
            for _ in 0..count {
                plain.add(&encoder.encode(candidate, &mut rng));
                partitioned.report(candidate, &mut rng);
            }
        }
        let recovered_plain = plain.decode(&candidates).len();
        let recovered_partitioned = partitioned.decode(&candidates).len();
        assert!(
            recovered_partitioned >= recovered_plain,
            "partitioned {recovered_partitioned} vs plain {recovered_plain}"
        );
        assert!(recovered_partitioned >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_is_rejected() {
        let _ = PartitionedRappor::new(RapporParams::for_epsilon(2.0), 0);
    }
}
