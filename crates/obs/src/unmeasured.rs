//! [`Unmeasured<T>`]: the "timings don't count for equality" wrapper.

/// Wraps wall-clock measurements (or anything else machine-dependent)
/// carried inside otherwise seeded-deterministic stats structs, so the
/// containing struct can `#[derive(PartialEq)]` while replay-equality
/// ignores the measured field.
///
/// Every stats struct in this workspace obeys the same contract: seeded
/// runs are byte-identical in *what* they computed, but never in *how
/// long* it took. Before this wrapper each struct hand-wrote a
/// `PartialEq` that skipped its timing fields — an easy pattern to get
/// subtly wrong when fields are added. `Unmeasured<T>` centralizes it:
/// two `Unmeasured` values always compare equal.
///
/// Access goes through `Deref`/`DerefMut`, so wrapped fields read like
/// plain ones:
///
/// ```
/// use prochlo_obs::Unmeasured;
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Stats {
///     records: u64,                    // compared
///     elapsed: Unmeasured<f64>,        // ignored
/// }
///
/// let a = Stats { records: 7, elapsed: Unmeasured(1.25) };
/// let b = Stats { records: 7, elapsed: Unmeasured(99.0) };
/// assert_eq!(a, b);
/// assert_eq!(*a.elapsed, 1.25); // the value is still there
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Unmeasured<T>(pub T);

impl<T> PartialEq for Unmeasured<T> {
    /// Always equal: measurements never participate in replay equality.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> Eq for Unmeasured<T> {}

impl<T> From<T> for Unmeasured<T> {
    fn from(value: T) -> Self {
        Unmeasured(value)
    }
}

impl<T> std::ops::Deref for Unmeasured<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Unmeasured<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_equal_regardless_of_value() {
        assert_eq!(Unmeasured(1.0), Unmeasured(2.0));
        assert_eq!(Unmeasured("a"), Unmeasured("b"));
    }

    #[test]
    fn deref_and_into_inner_expose_the_value() {
        let mut u = Unmeasured(vec![1, 2]);
        u.push(3);
        assert_eq!(*u, vec![1, 2, 3]);
        let Unmeasured(inner) = u;
        assert_eq!(inner, vec![1, 2, 3]);
    }
}
