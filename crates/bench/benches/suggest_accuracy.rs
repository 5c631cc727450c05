//! Suggest (§5.4): next-view prediction accuracy of a model trained on full
//! view histories versus one trained only on Prochlo's anonymous, disjoint
//! 3-tuples.
//!
//! The paper's claims: the 3-tuple model predicts the next view better than
//! 1 in 8, and reaches ≈90 % of the accuracy of the non-private model. The
//! harness prints both absolute accuracies and the ratio for several fragment
//! sizes m (m = 3 is the paper's operating point).

use prochlo_bench::sequence::SequenceModel;
use prochlo_bench::views::{ViewConfig, ViewGenerator};
use prochlo_bench::{env_usize, print_header, timed};
use prochlo_core::encoder::fragment_windows;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let users = env_usize("PROCHLO_SUGGEST_USERS", 4_000);
    let generator = ViewGenerator::new(ViewConfig {
        catalog: env_usize("PROCHLO_SUGGEST_CATALOG", 5_000),
        ..ViewConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0x5066);

    let ((full_accuracy, rows), seconds) = timed(|| {
        let train = generator.histories(users, &mut rng);
        let test = generator.histories(users / 5, &mut rng);

        let mut full = SequenceModel::new();
        full.train_on_histories(&train);
        let full_accuracy = full.top1_accuracy(&test);

        let rows: Vec<(usize, f64)> = [2usize, 3, 5]
            .iter()
            .map(|&m| {
                let mut fragmented = SequenceModel::new();
                for history in &train {
                    fragmented.train_on_fragments(&fragment_windows(history, m));
                }
                (m, fragmented.top1_accuracy(&test))
            })
            .collect();
        (full_accuracy, rows)
    });

    print_header(
        &format!("Suggest: next-view top-1 accuracy ({users} training users)"),
        &[
            "model",
            "top-1 accuracy",
            "fraction of non-private",
            "better than 1-in-8?",
        ],
    );
    println!(
        "{:>22} | {:>8.3} | {:>8.3} | {}",
        "full history (no priv)",
        full_accuracy,
        1.0,
        full_accuracy > 0.125
    );
    for (m, accuracy) in rows {
        println!(
            "{:>22} | {:>8.3} | {:>8.3} | {}",
            format!("{m}-tuples (Prochlo)"),
            accuracy,
            accuracy / full_accuracy,
            accuracy > 0.125
        );
    }
    println!();
    println!(
        "Paper: the 3-tuple model predicts correctly more than 1 out of 8 times and \
         retains around 90% of the non-private model's accuracy. ({seconds:.1}s)"
    );
}
