//! The Suggest use case (§5.4): next-view prediction from anonymous
//! fragments.
//!
//! Full view histories are privacy-critical (any non-trivial sequence is
//! close to unique), so the encoder splits each history into disjoint
//! 3-tuples that are reported and shuffled independently. This example trains
//! a next-item model on full histories and on the fragments and compares
//! their accuracy.
//!
//! Run with: `cargo run -p prochlo-examples --release --bin suggest_views`

use prochlo_bench::sequence::SequenceModel;
use prochlo_bench::views::{ViewConfig, ViewGenerator};
use prochlo_core::encoder::fragment_windows;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let generator = ViewGenerator::new(ViewConfig::default());
    let train = generator.histories(3_000, &mut rng);
    let test = generator.histories(600, &mut rng);
    println!(
        "{} training users x {} views each, catalog of {} videos",
        train.len(),
        generator.config().history_length,
        generator.config().catalog
    );

    let mut full = SequenceModel::new();
    full.train_on_histories(&train);

    let mut fragmented = SequenceModel::new();
    let mut fragments = 0usize;
    for history in &train {
        let tuples = fragment_windows(history, 3);
        fragments += tuples.len();
        fragmented.train_on_fragments(&tuples);
    }

    let full_accuracy = full.top1_accuracy(&test);
    let fragment_accuracy = fragmented.top1_accuracy(&test);
    println!("\n3-tuple fragments reported: {fragments} (each anonymous and unlinkable)");
    println!("top-1 accuracy, full histories:   {full_accuracy:.3}");
    println!("top-1 accuracy, 3-tuple training: {fragment_accuracy:.3}");
    println!(
        "fragment model retains {:.0}% of the non-private accuracy and predicts \
         correctly {} than 1 time in 8",
        100.0 * fragment_accuracy / full_accuracy,
        if fragment_accuracy > 0.125 {
            "better"
        } else {
            "worse"
        }
    );
}
