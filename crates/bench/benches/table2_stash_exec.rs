//! Table 2: Stash Shuffle execution of the Table 1 scenarios — execution
//! time, restart attempts (and what failed in them) and maximum private SGX
//! memory. Every row must finish in one attempt: the parameters are sized so
//! that a restart — an extra observable access pattern — all but never
//! happens, and the harness asserts it.
//!
//! The paper runs the full 10M–200M-record scenarios on SGX hardware; here
//! the scenarios are scaled down by `PROCHLO_SCALE_DIV` (default 1000) and
//! executed against the SGX simulator, and the full-scale private-memory
//! model is printed next to the paper's measurement. Run with
//! `PROCHLO_SCALE_DIV=1` to execute the full sizes (hours, and ~60 GB of
//! untrusted memory for the largest scenario).

use prochlo_bench::{env_usize, fmt_records, print_header, timed};
use prochlo_sgx::{Enclave, EnclaveConfig};
use prochlo_shuffle::{StashShuffle, StashShuffleParams, PAPER_RECORD_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let divisor = env_usize("PROCHLO_SCALE_DIV", 1000).max(1);
    let paper = [
        (10_000_000usize, 738.0, 22.0),
        (50_000_000, 3_749.0, 52.0),
        (100_000_000, 7_521.0, 78.0),
        (200_000_000, 14_887.0, 69.0),
    ];

    print_header(
        &format!("Table 2: Stash Shuffle execution (records scaled by 1/{divisor})"),
        &[
            "N (paper)",
            "N (run)",
            "attempts",
            "failed: stash full / undrained / queue full / window dry",
            "time (s)",
            "peak SGX mem (run)",
            "modeled SGX mem @ full N",
            "paper total (s)",
            "paper SGX mem (MB)",
        ],
    );

    let mut rng = StdRng::seed_from_u64(0x7ab1e2);
    for (records_full, paper_seconds, paper_mb) in paper {
        let records = (records_full / divisor).max(1_000);
        let params = StashShuffleParams::derive(records);
        let enclave = Enclave::new(EnclaveConfig {
            record_trace: false,
            ..EnclaveConfig::default()
        });
        let shuffler = StashShuffle::new(params, enclave);
        let input: Vec<Vec<u8>> = (0..records)
            .map(|i| {
                let mut record = vec![0u8; PAPER_RECORD_BYTES];
                record[..8].copy_from_slice(&(i as u64).to_le_bytes());
                record
            })
            .collect();
        let (result, seconds) = timed(|| shuffler.shuffle(&input, &mut rng));
        let output = result.expect("shuffle succeeds");
        let failed = output.failures;
        assert_eq!(
            output.attempts, 1,
            "{records} records restarted: {failed:?}"
        );
        let full_params = StashShuffleParams::derive(records_full);
        println!(
            "{:>6} | {:>8} | {:>2} | {} / {} / {} / {} | {:>8.2} | {:>6.1} MB | {:>6.1} MB | {:>8.0} | {:>4.0}",
            fmt_records(records_full),
            fmt_records(records),
            output.attempts,
            failed.stash_overflow,
            failed.stash_undrained,
            failed.queue_overflow,
            failed.window_underflow,
            seconds,
            output.metrics.private_peak as f64 / 1e6,
            full_params.modeled_private_memory(records_full, PAPER_RECORD_BYTES) as f64 / 1e6,
            paper_seconds,
            paper_mb,
        );
    }
    println!();
    println!(
        "Note: the paper's Distribution phase is dominated by public-key ingress \
         decryption; see table3_vocab_time for the crypto-inclusive path."
    );
}
