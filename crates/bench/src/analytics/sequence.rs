//! Next-item sequence prediction for the Suggest experiment (§5.4).
//!
//! The paper trains a neural sequence model over full (privacy-sensitive)
//! view histories and compares it against the same model trained on the
//! Prochlo encoding: anonymous, disjoint 3-tuples of views. The claim being
//! reproduced is *relative*: the fragment-trained model keeps ≈90 % of the
//! full-history model's accuracy and still predicts the next view better
//! than 1 time in 8. We use an n-gram (bigram with popularity back-off)
//! predictor, which exposes the same dependence on short recent-history
//! context that carries the claim.
#![expect(
    clippy::disallowed_types,
    reason = "keyed counters: the one walk, predict's max, breaks ties by item"
)]

use std::collections::HashMap;

/// A bigram next-item model with a global-popularity fallback.
#[derive(Debug, Clone, Default)]
pub struct SequenceModel {
    /// `transitions[a]` maps next-item → count.
    transitions: HashMap<usize, HashMap<usize, u64>>,
    /// Global item popularity, used when a context was never seen.
    popularity: HashMap<usize, u64>,
}

impl SequenceModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains on complete user histories: every consecutive pair contributes
    /// one transition.
    pub fn train_on_histories(&mut self, histories: &[Vec<usize>]) {
        for history in histories {
            self.train_on_fragment(history);
        }
    }

    /// Trains on one fragment (an m-tuple from the Prochlo encoder, or a full
    /// history — the model only ever looks at consecutive pairs).
    fn train_on_fragment(&mut self, fragment: &[usize]) {
        for &item in fragment {
            *self.popularity.entry(item).or_insert(0) += 1;
        }
        for pair in fragment.windows(2) {
            *self
                .transitions
                .entry(pair[0])
                .or_default()
                .entry(pair[1])
                .or_insert(0) += 1;
        }
    }

    /// Trains on a collection of fragments.
    pub fn train_on_fragments(&mut self, fragments: &[Vec<usize>]) {
        for fragment in fragments {
            self.train_on_fragment(fragment);
        }
    }

    /// Predicts the most likely next item after `context`, falling back to
    /// the globally most popular item for unseen contexts.
    pub(crate) fn predict(&self, context: usize) -> Option<usize> {
        if let Some(nexts) = self.transitions.get(&context) {
            return nexts
                .iter()
                .max_by_key(|(item, count)| (**count, usize::MAX - **item))
                .map(|(item, _)| *item);
        }
        self.popularity
            .iter()
            .max_by_key(|(item, count)| (**count, usize::MAX - **item))
            .map(|(item, _)| *item)
    }

    /// Top-1 accuracy over held-out histories: for every consecutive pair,
    /// did the model predict the second item from the first?
    pub fn top1_accuracy(&self, test_histories: &[Vec<usize>]) -> f64 {
        let mut correct = 0u64;
        let mut total = 0u64;
        for history in test_histories {
            for pair in history.windows(2) {
                total += 1;
                if self.predict(pair[0]) == Some(pair[1]) {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{ViewConfig, ViewGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_deterministic_transitions_perfectly() {
        let mut model = SequenceModel::new();
        // A strict cycle 0 -> 1 -> 2 -> 0.
        model.train_on_histories(&[vec![0, 1, 2, 0, 1, 2, 0, 1, 2]]);
        assert_eq!(model.predict(0), Some(1));
        assert_eq!(model.predict(1), Some(2));
        assert_eq!(model.predict(2), Some(0));
        assert_eq!(model.top1_accuracy(&[vec![0, 1, 2, 0]]), 1.0);
    }

    #[test]
    fn unseen_context_falls_back_to_popularity() {
        let mut model = SequenceModel::new();
        model.train_on_histories(&[vec![5, 5, 5, 7]]);
        assert_eq!(model.predict(999), Some(5));
        assert_eq!(SequenceModel::new().predict(0), None);
    }

    #[test]
    fn fragment_training_retains_most_accuracy() {
        // The §5.4 shape: 3-tuple-trained model ≥ ~70% of the full model's
        // accuracy and well above 1/8 absolute, on a locality-heavy workload.
        let generator = ViewGenerator::new(ViewConfig {
            catalog: 500,
            locality: 0.85,
            related_per_video: 3,
            history_length: 30,
            ..ViewConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let train = generator.histories(800, &mut rng);
        let test = generator.histories(200, &mut rng);

        let mut full_model = SequenceModel::new();
        full_model.train_on_histories(&train);

        let mut fragment_model = SequenceModel::new();
        for history in &train {
            let fragments: Vec<Vec<usize>> = history.chunks_exact(3).map(|c| c.to_vec()).collect();
            fragment_model.train_on_fragments(&fragments);
        }

        let full_acc = full_model.top1_accuracy(&test);
        let fragment_acc = fragment_model.top1_accuracy(&test);
        assert!(full_acc > 0.2, "full accuracy {full_acc}");
        assert!(fragment_acc > 1.0 / 8.0, "fragment accuracy {fragment_acc}");
        assert!(
            fragment_acc > 0.6 * full_acc,
            "fragment {fragment_acc} vs full {full_acc}"
        );
        assert!(fragment_acc <= full_acc + 0.02);
    }

    #[test]
    fn accuracy_of_empty_test_set_is_zero() {
        let model = SequenceModel::new();
        assert_eq!(model.top1_accuracy(&[]), 0.0);
        assert_eq!(model.top1_accuracy(&[vec![1]]), 0.0);
    }
}
