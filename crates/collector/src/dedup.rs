//! Nonce-based replay deduplication.
//!
//! Clients attach a random nonce to each submission; a nonce that was
//! already accepted marks a replay (a duplicated TCP segment, an
//! over-eager retry, or an adversary re-sending a captured report to
//! inflate a count). The filter is bounded in two ways so a continuously
//! serving collector neither grows without limit nor wedges:
//!
//! * **Capacity** — each generation remembers at most `capacity` nonces;
//!   at capacity, fresh nonces degrade into backpressure.
//! * **Generations** — the epoch manager calls `ReplayFilter::rotate` at
//!   every epoch cut; the filter answers `Duplicate` for nonces accepted in
//!   the current or previous generation and forgets older ones. Memory is
//!   bounded by two generations and the filter never fills permanently.
//!
//! A run of submissions — a reactor turn's — is checked in one phase and
//! under one lock: `ReplayFilter::record` looks each nonce up and records
//! an unknown one as accepted in the same step, up to the queue room the
//! caller reserved for the run, so a recorded nonce's report cannot be
//! refused afterwards. The tables hash with a keyed SipHash (nonces are
//! client-chosen: an unkeyed hash would let an adversary aim them all at
//! one bucket chain), at most twice per nonce.
#![expect(
    clippy::disallowed_types,
    reason = "membership tables under a keyed SipHash, the HashDoS defence; never iterated"
)]

use std::collections::HashSet;
use std::hash::RandomState;

use parking_lot::Mutex;

use crate::protocol::NONCE_LEN;

/// Outcome of offering a nonce to the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NonceCheck {
    /// First sighting; the nonce is now recorded as accepted.
    Fresh,
    /// The nonce was accepted before: the submission is a replay.
    Duplicate,
    /// The current generation is at capacity, or the run out of queue
    /// room; treat as backpressure.
    Full,
}

#[derive(Debug, Default)]
struct Generations {
    current: HashSet<[u8; NONCE_LEN], RandomState>,
    previous: HashSet<[u8; NONCE_LEN], RandomState>,
}

/// A bounded, generational set of accepted nonces.
#[derive(Debug)]
pub(crate) struct ReplayFilter {
    generations: Mutex<Generations>,
    capacity: usize,
}

impl ReplayFilter {
    /// Creates a filter remembering at most `capacity` nonces per
    /// generation (16 bytes each plus table overhead).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            generations: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    /// Checks a run of nonces, in order, and records each unknown one as
    /// accepted while fewer than `room` are; one verdict per nonce. Past
    /// the room a replay still reads `Duplicate`, and an unknown nonce is
    /// answered `Full` and left unrecorded, so its retry can be accepted.
    pub(crate) fn record<'a>(
        &self,
        nonces: impl IntoIterator<Item = &'a [u8; NONCE_LEN]>,
        room: usize,
    ) -> Vec<NonceCheck> {
        let mut fresh = 0;
        let Generations { current, previous } = &mut *self.generations.lock();
        let check = |nonce: &[u8; NONCE_LEN]| {
            if previous.contains(nonce) {
                NonceCheck::Duplicate
            } else if fresh == room || current.len() >= self.capacity {
                // No room to record it; a replay still reads as one.
                if current.contains(nonce) {
                    NonceCheck::Duplicate
                } else {
                    NonceCheck::Full
                }
            } else if current.insert(*nonce) {
                fresh += 1;
                NonceCheck::Fresh
            } else {
                NonceCheck::Duplicate
            }
        };
        nonces.into_iter().map(check).collect()
    }

    /// Ages the filter one generation: the current generation becomes the
    /// previous one and the oldest is forgotten, its table emptied and kept
    /// as the new current one, so a generation reuses the room the one
    /// before last grew and never rehashes. Called by the epoch manager at
    /// every epoch cut, so a nonce is remembered for the epoch in which it
    /// was accepted plus the following one.
    pub(crate) fn rotate(&self) {
        let Generations { current, previous } = &mut *self.generations.lock();
        std::mem::swap(previous, current);
        current.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonce(i: u8) -> [u8; NONCE_LEN] {
        let mut n = [0u8; NONCE_LEN];
        n[0] = i;
        n[15] = i.wrapping_mul(31);
        n
    }

    impl ReplayFilter {
        /// Number of nonces tracked in the current generation.
        fn len(&self) -> usize {
            self.generations.lock().current.len()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// A run of one with room to spare.
    fn record_one(filter: &ReplayFilter, i: u8) -> NonceCheck {
        filter.record([&nonce(i)], usize::MAX)[0]
    }

    #[test]
    fn a_recorded_nonce_is_then_a_duplicate() {
        let filter = ReplayFilter::new(8);
        assert_eq!(record_one(&filter, 1), NonceCheck::Fresh);
        assert_eq!(record_one(&filter, 1), NonceCheck::Duplicate);
        assert_eq!(record_one(&filter, 2), NonceCheck::Fresh);
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn a_nonce_racing_its_accepted_twin_is_a_duplicate() {
        // The twin is recorded in the same step that checks it, and its
        // queue room was reserved before the run: it cannot be refused
        // afterwards, so "already queued" is the true answer.
        let filter = ReplayFilter::new(8);
        let verdicts = filter.record([&nonce(1), &nonce(1), &nonce(2)], usize::MAX);
        assert_eq!(
            verdicts,
            [NonceCheck::Fresh, NonceCheck::Duplicate, NonceCheck::Fresh]
        );
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn capacity_degrades_into_backpressure() {
        let filter = ReplayFilter::new(2);
        let verdicts = filter.record([&nonce(1), &nonce(2), &nonce(3)], usize::MAX);
        assert_eq!(
            verdicts,
            [NonceCheck::Fresh, NonceCheck::Fresh, NonceCheck::Full]
        );
        assert_eq!(record_one(&filter, 4), NonceCheck::Full);
        // Known nonces still answer Duplicate at capacity.
        assert_eq!(record_one(&filter, 1), NonceCheck::Duplicate);
    }

    #[test]
    fn a_nonce_past_the_room_is_not_recorded() {
        let filter = ReplayFilter::new(8);
        // Room for one: once it is spent, a replay still reads Duplicate
        // and a fresh nonce is refused unrecorded.
        let verdicts = filter.record([&nonce(1), &nonce(2), &nonce(1)], 1);
        assert_eq!(
            verdicts,
            [NonceCheck::Fresh, NonceCheck::Full, NonceCheck::Duplicate]
        );
        assert_eq!(filter.len(), 1);
        // The refused nonce left no trace: its retry is accepted.
        assert_eq!(record_one(&filter, 2), NonceCheck::Fresh);
        assert_eq!(filter.record([&nonce(3)], 0), [NonceCheck::Full]);
        assert_eq!(filter.record([&nonce(1)], 0), [NonceCheck::Duplicate]);
    }

    #[test]
    fn rotation_keeps_one_generation_of_replay_protection() {
        let filter = ReplayFilter::new(1024);
        assert_eq!(record_one(&filter, 1), NonceCheck::Fresh);
        filter.rotate();
        // Accepted in the previous generation: still a duplicate.
        assert_eq!(record_one(&filter, 1), NonceCheck::Duplicate);
        filter.rotate();
        // Two generations later the nonce is forgotten.
        assert_eq!(record_one(&filter, 1), NonceCheck::Fresh);
    }

    #[test]
    fn rotation_unwedges_a_full_filter() {
        // The regression the generational design exists for: a filter at
        // capacity must not refuse fresh nonces forever.
        let filter = ReplayFilter::new(2);
        record_one(&filter, 1);
        record_one(&filter, 2);
        assert_eq!(record_one(&filter, 3), NonceCheck::Full);
        filter.rotate();
        assert_eq!(record_one(&filter, 3), NonceCheck::Fresh);
        assert_eq!(filter.len(), 1);
    }

    #[test]
    fn rotation_keeps_the_retired_table_for_the_next_generation() {
        let filter = ReplayFilter::new(1 << 16);
        let allocated = |filter: &ReplayFilter| filter.generations.lock().current.capacity();
        let nonces: Vec<[u8; NONCE_LEN]> = (0..4_096u32)
            .map(|i| {
                let mut n = [0u8; NONCE_LEN];
                n[..4].copy_from_slice(&i.to_le_bytes());
                n
            })
            .collect();
        filter.record(&nonces, usize::MAX);
        let grown = allocated(&filter);
        filter.rotate();
        filter.rotate();
        // The generation that grew to 4 096 nonces is current again, empty
        // and as large as it grew: the next 4 096 inserts never rehash.
        assert!(filter.is_empty());
        assert_eq!(allocated(&filter), grown);
        assert_eq!(record_one(&filter, 1), NonceCheck::Fresh);
    }

    #[test]
    fn shards_do_not_mix_nonces() {
        let filter = ReplayFilter::new(1024);
        for i in 0..=255u8 {
            assert_eq!(record_one(&filter, i), NonceCheck::Fresh);
        }
        for i in 0..=255u8 {
            assert_eq!(record_one(&filter, i), NonceCheck::Duplicate);
        }
        assert_eq!(filter.len(), 256);
    }
}
