//! Unique-item recovery accounting: how many distinct true values did an
//! analysis manage to surface, and how many of its answers were wrong?

use std::collections::HashSet;

/// Compares a recovered set of items against the ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Distinct items in the ground truth.
    pub ground_truth: usize,
    /// Distinct items the analysis reported.
    pub recovered: usize,
    /// Recovered items that are actually present in the ground truth.
    pub true_positives: usize,
    /// Recovered items not present in the ground truth.
    pub false_positives: usize,
}

impl RecoveryReport {
    /// Builds a report from ground-truth and recovered item sets.
    pub fn compare<T: Eq + std::hash::Hash + Clone>(truth: &[T], recovered: &[T]) -> Self {
        let truth_set: HashSet<&T> = truth.iter().collect();
        let recovered_set: HashSet<&T> = recovered.iter().collect();
        let true_positives = recovered_set
            .iter()
            .filter(|item| truth_set.contains(**item))
            .count();
        Self {
            ground_truth: truth_set.len(),
            recovered: recovered_set.len(),
            true_positives,
            false_positives: recovered_set.len() - true_positives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_counts_overlap() {
        let truth = vec!["a", "b", "c", "c"];
        let recovered = vec!["b", "c", "d"];
        let report = RecoveryReport::compare(&truth, &recovered);
        assert_eq!(report.ground_truth, 3);
        assert_eq!(report.recovered, 3);
        assert_eq!(report.true_positives, 2);
        assert_eq!(report.false_positives, 1);
    }
}
