//! A counting histogram keyed by arbitrary hashable items.
//!
//! Used by the analyzer to materialize frequency tables, by the RAPPOR
//! decoder to accumulate bit counts, and by the benchmark harnesses to report
//! how many distinct items were recovered.
#![expect(
    clippy::disallowed_types,
    reason = "a keyed counter: every ordered view (top_k, the canonical histogram bytes) sorts"
)]

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A multiset counter over items of type `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram<T: Eq + Hash> {
    counts: HashMap<T, u64>,
    total: u64,
}

impl<T: Eq + Hash> Default for Histogram<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq + Hash> Histogram<T> {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Adds one observation of `item`.
    pub(crate) fn add(&mut self, item: T) {
        *self.counts.entry(item).or_insert(0) += 1;
        self.total += 1;
    }

    /// Adds `n` observations of `item`, looked up by any borrowed form of
    /// the key: an owned key is built only the first time `item` is seen,
    /// so counting a value already present allocates nothing.
    pub fn add_n<Q>(&mut self, item: &Q, n: u64)
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = T> + ?Sized,
    {
        match self.counts.get_mut(item) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(item.to_owned(), n);
            }
        }
        self.total += n;
    }

    /// Count of a specific item (0 if absent), looked up by any borrowed
    /// form of the key (`&[u8]` for a `Histogram<Vec<u8>>`).
    pub fn count<Q>(&self, item: &Q) -> u64
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.counts.get(item).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct items observed at least once.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(item, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }

    /// Returns the `k` most frequent items, most frequent first.
    ///
    /// Equal counts come in ascending item order, so the output does not
    /// depend on the map's iteration order.
    pub fn top_k(&self, k: usize) -> Vec<(&T, u64)>
    where
        T: Ord,
    {
        let mut entries: Vec<(&T, u64)> = self.iter().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        entries.truncate(k);
        entries
    }
}

impl<T: Eq + Hash> FromIterator<T> for Histogram<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut h = Self::new();
        for item in iter {
            h.add(item);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_totals() {
        let mut h = Histogram::new();
        h.add("a");
        h.add("a");
        h.add("b");
        assert_eq!(h.count(&"a"), 2);
        assert_eq!(h.count(&"b"), 1);
        assert_eq!(h.count(&"c"), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.distinct(), 2);
    }

    #[test]
    fn from_iterator_collects() {
        let h: Histogram<u32> = [1u32, 1, 2, 3, 3, 3].into_iter().collect();
        assert_eq!(h.count(&3), 3);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn top_k_orders_by_count() {
        let h: Histogram<u32> = [5u32, 5, 5, 7, 7, 9].into_iter().collect();
        let top = h.top_k(2);
        assert_eq!(top[0], (&5, 3));
        assert_eq!(top[1], (&7, 2));
    }

    #[test]
    fn borrowed_keys_count_and_add_like_owned_ones() {
        let mut h: Histogram<Vec<u8>> = Histogram::new();
        h.add_n(b"ab".as_slice(), 2);
        h.add(b"ab".to_vec());
        h.add_n(b"cd".as_slice(), 1);
        assert_eq!(h.count(b"ab".as_slice()), 3);
        assert_eq!(h.count(&b"cd".to_vec()), 1);
        assert_eq!(h.count(b"ef".as_slice()), 0);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn add_n_accumulates() {
        let mut h = Histogram::new();
        h.add_n(&"x", 10);
        h.add_n(&"x", 5);
        assert_eq!(h.count(&"x"), 15);
        assert_eq!(h.total(), 15);
    }
}
