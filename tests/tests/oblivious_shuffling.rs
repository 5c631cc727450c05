//! Cross-crate obliviousness and correctness properties of the shuffling
//! layer, including property-based tests over input sizes and parameters.

use prochlo_sgx::{Enclave, EnclaveConfig};
use prochlo_shuffle::{StashShuffle, StashShuffleParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn records(n: usize, len: usize, tag: u8) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut r = vec![tag; len];
            r[..8].copy_from_slice(&(i as u64).to_le_bytes());
            r
        })
        .collect()
}

fn tracing_enclave() -> Enclave {
    Enclave::new(EnclaveConfig {
        private_memory_bytes: 16 * 1024 * 1024,
        record_trace: true,
        code_identity: "integration-stash".into(),
    })
}

#[test]
fn stash_shuffle_trace_is_identical_for_different_data() {
    // The untrusted host observes only bucket indices and sizes; two batches
    // with different contents but the same shape must be indistinguishable.
    let run = |tag: u8| {
        let input = records(1_200, 40, tag);
        let shuffler =
            StashShuffle::new(StashShuffleParams::derive(input.len()), tracing_enclave());
        let mut rng = StdRng::seed_from_u64(1234);
        shuffler.shuffle(&input, &mut rng).unwrap();
        shuffler.enclave().trace()
    };
    assert_eq!(run(0x11), run(0xEE));
}

#[test]
fn stash_shuffle_respects_the_default_sgx_budget_at_bench_scale() {
    let input = records(20_000, 318, 7);
    let shuffler = StashShuffle::new(
        StashShuffleParams::derive(input.len()),
        Enclave::with_default_config(),
    );
    let mut rng = StdRng::seed_from_u64(9);
    let output = shuffler.shuffle(&input, &mut rng).unwrap();
    assert!(output.metrics.private_peak <= prochlo_sgx::DEFAULT_EPC_BYTES);
    assert_eq!(output.metrics.private_in_use, 0);
    assert_eq!(output.records.len(), 20_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_stash_shuffle_is_always_a_permutation(
        n in 1usize..600,
        record_len in 9usize..64,
        seed in any::<u64>(),
    ) {
        let input = records(n, record_len, 1);
        let shuffler = StashShuffle::new(
            StashShuffleParams::derive(n),
            Enclave::new(EnclaveConfig {
                private_memory_bytes: 16 * 1024 * 1024,
                record_trace: false,
                code_identity: "prop".into(),
            }),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let output = shuffler.shuffle(&input, &mut rng).unwrap();
        prop_assert_eq!(output.records.len(), n);
        let in_set: HashSet<Vec<u8>> = input.into_iter().collect();
        let out_set: HashSet<Vec<u8>> = output.records.into_iter().collect();
        prop_assert_eq!(in_set, out_set);
        // Private memory is always fully released.
        prop_assert_eq!(output.metrics.private_in_use, 0);
    }

    #[test]
    fn prop_overhead_formula_matches_observed_slots(
        buckets in 2usize..12,
        chunk_cap in 8usize..24,
        seed in any::<u64>(),
    ) {
        let n = buckets * 60;
        let params = StashShuffleParams::new(buckets, chunk_cap, 40 * buckets, 3).unwrap();
        let shuffler = StashShuffle::new(
            params,
            Enclave::new(EnclaveConfig {
                private_memory_bytes: 16 * 1024 * 1024,
                record_trace: false,
                code_identity: "prop-overhead".into(),
            }),
        );
        let input = records(n, 16, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(output) = shuffler.shuffle(&input, &mut rng) {
            prop_assert_eq!(
                output.intermediate_slots as u128,
                params.intermediate_items(n)
            );
        }
    }
}
