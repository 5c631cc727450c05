//! Table 2: Stash Shuffle execution of the Table 1 scenarios — execution
//! time, restart attempts (and what failed in them) and maximum private SGX
//! memory. Every row must finish in one attempt: the parameters are sized so
//! that a restart — an extra observable access pattern — all but never
//! happens, and the harness asserts it.
//!
//! The paper runs the full 10M–200M-record scenarios on SGX hardware; here
//! the scenarios are scaled down by `PROCHLO_SCALE_DIV` (default 1000) and
//! executed against the SGX simulator, and the full-scale private-memory
//! model is printed next to the paper's measurement. Each row also prints
//! the process's peak resident memory (`VmHWM`) per record: rows run in
//! increasing N, so each reading is that row's own peak. A row whose
//! modeled untrusted footprint exceeds the host's `MemAvailable` is skipped
//! and says how much it needs, so `PROCHLO_SCALE_DIV=1` runs the full-size
//! rows this host can hold.

use prochlo_bench::{env_usize, fmt_records, print_header, proc_bytes, timed};
use prochlo_sgx::{Enclave, EnclaveConfig};
use prochlo_shuffle::{StashShuffle, StashShuffleParams, PAPER_RECORD_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Untrusted bytes a row holds at its peak, the start of compression: the
/// input (one `Vec<u8>` a record, with its header and allocator rounding)
/// and the whole intermediate array. Compression frees each intermediate
/// bucket as it reads it, faster than the output grows.
fn modeled_footprint(records: usize, params: &StashShuffleParams) -> u64 {
    let record = PAPER_RECORD_BYTES as u128;
    let bytes = records as u128 * (record + 48) + params.intermediate_items(records) * (record + 1);
    u64::try_from(bytes).unwrap_or(u64::MAX)
}

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
            "peak RSS / record",
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
        let needed = modeled_footprint(records, &params);
        if proc_bytes("/proc/meminfo", "MemAvailable").is_some_and(|free| needed > free) {
            println!(
                "{:>6} | {:>8} | skipped: needs {:.1} GB",
                fmt_records(records_full),
                fmt_records(records),
                needed as f64 / 1e9
            );
            continue;
        }
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
        let peak_rss = proc_bytes("/proc/self/status", "VmHWM").unwrap_or(0);
        let full_params = StashShuffleParams::derive(records_full);
        println!(
            "{:>6} | {:>8} | {:>2} | {} / {} / {} / {} | {:>8.2} | {:>6.0} B | {:>6.1} MB | {:>6.1} MB | {:>8.0} | {:>4.0}",
            fmt_records(records_full),
            fmt_records(records),
            output.attempts,
            failed.stash_overflow,
            failed.stash_undrained,
            failed.queue_overflow,
            failed.window_underflow,
            seconds,
            peak_rss as f64 / records as f64,
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
