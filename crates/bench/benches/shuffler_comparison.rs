//! §4.1.3: comparison of oblivious-shuffling approaches at paper scale —
//! the narrative table behind the Stash Shuffle's motivation.
//!
//! For 10 M and 100 M 318-byte records inside a 92 MB enclave, the paper
//! quotes: Batcher's sort 49× / 100×, ColumnSort 8× but capped at ~118 M
//! records, Melbourne Shuffle limited to a few dozen million records,
//! cascade mix networks 114× / 87×, and the Stash Shuffle at 3.3–3.7×.

use prochlo_bench::batcher::BatcherCostModel;
use prochlo_bench::cascade::CascadeCostModel;
use prochlo_bench::columnsort::ColumnSortCostModel;
use prochlo_bench::melbourne::MelbourneCostModel;
use prochlo_bench::{fmt_records, print_header, ShuffleCostModel};
use prochlo_shuffle::{StashShuffleParams, PAPER_RECORD_BYTES};

fn main() {
    let epc = prochlo_sgx::DEFAULT_EPC_BYTES;
    let sizes = [10_000_000usize, 100_000_000];

    print_header(
        "Oblivious shuffler comparison (318-byte records, 92 MB enclave)",
        &["algorithm", "N", "overhead", "rounds", "max N", "feasible"],
    );

    let models: Vec<Box<dyn ShuffleCostModel>> = vec![
        Box::new(BatcherCostModel),
        Box::new(ColumnSortCostModel),
        Box::new(MelbourneCostModel),
        Box::new(CascadeCostModel::default()),
    ];
    for &n in &sizes {
        for model in &models {
            let report = model.cost(n, PAPER_RECORD_BYTES, epc);
            println!(
                "{:>22} | {:>5} | {:>7.1}x | {:>6} | {:>12} | {}",
                report.algorithm,
                fmt_records(n),
                report.overhead_factor,
                report.rounds,
                report
                    .max_records
                    .map_or("unbounded".to_string(), fmt_records),
                report.feasible,
            );
        }
        // The Stash Shuffle, from its parameter analysis.
        let scenario = StashShuffleParams::table1_scenarios()
            .into_iter()
            .find(|s| s.records == n)
            .expect("scenario exists");
        println!(
            "{:>22} | {:>5} | {:>7.1}x | {:>6} | {:>12} | true",
            "Stash Shuffle",
            fmt_records(n),
            scenario.params.overhead_factor(n),
            2,
            "> 200M",
        );
        println!();
    }
    println!(
        "Paper narrative: Batcher 49x/100x, ColumnSort 8x (max ~118M records), \
         Melbourne limited to a few dozen million records, cascade mixes 114x/87x, \
         Stash Shuffle 3.3-3.7x."
    );
}
