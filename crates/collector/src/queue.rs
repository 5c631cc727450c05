//! A bounded multi-producer queue with non-blocking reservations.
//!
//! The collector's memory bound comes from this queue: producers (the event
//! loops) never block and never allocate past the capacity. A producer
//! reserves room for a run of items and is granted what is free, answering
//! `RetryAfter` for the rest instead of buffering — the backpressure
//! contract of the service. A granted reservation cannot be refused, not
//! even by `BoundedQueue::close`: its fill pushes the run under one lock
//! and gives the unfilled room back. The consumer (the epoch manager)
//! blocks, with a deadline, until enough items arrive to cut a batch.
//!
//! # Wake at target
//!
//! The consumer states what it is waiting for: `BoundedQueue::drain_when`
//! records its target in the queue state for as long as it sleeps, and a
//! fill signals the condition variable only when it brings the depth up to
//! that target — once per epoch, not once per run. Target and depth are
//! written and compared under the queue's own mutex, so there is no window
//! in which the fill that completes a batch can miss a consumer about to
//! sleep. `BoundedQueue::close` still wakes unconditionally and the
//! deadline ends the wait by itself. One recorded target means one
//! draining thread per queue.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Granted slots not yet filled or given back.
    reserved: usize,
    /// The depth the sleeping consumer is waiting for; 0 while nobody
    /// sleeps. A fill that reaches it clears it, so a wait is signalled
    /// once.
    waiting_for: usize,
    /// How often the consumer came back from a sleep.
    wakeups: u64,
}

/// A bounded queue with a single draining thread; see the module docs for
/// the blocking contract.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

/// Granted room: a fill cannot be refused, and room unfilled goes back.
#[derive(Debug)]
pub(crate) struct Reservation<'a, T> {
    queue: &'a BoundedQueue<T>,
    slots: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                reserved: 0,
                waiting_for: 0,
                wakeups: 0,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Current queue depth.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True once the queue is closed, its granted room settled and every
    /// item drained: nothing more will come out.
    pub(crate) fn is_finished(&self) -> bool {
        let state = self.state.lock();
        state.closed && state.reserved == 0 && state.items.is_empty()
    }

    /// How often [`Self::drain_when`] came back from a sleep — signalled,
    /// timed out or spurious — since the queue was created. With the
    /// wake-at-target rule this tracks the number of drains, not of pushes.
    pub(crate) fn wakeups(&self) -> u64 {
        self.state.lock().wakeups
    }

    /// Grants room for up to `wanted` items without blocking: all of it,
    /// what is free, or none once the queue is closed.
    pub(crate) fn reserve(&self, wanted: usize) -> Reservation<'_, T> {
        let mut state = self.state.lock();
        let free = self.capacity - state.items.len() - state.reserved;
        let slots = if state.closed { 0 } else { wanted.min(free) };
        state.reserved += slots;
        Reservation { queue: self, slots }
    }

    /// Gives `slots` back and signals a consumer whose target is reached,
    /// or who waits on a closed queue for this last reservation. Clearing
    /// the target makes one wait cost one signal.
    fn release(&self, mut state: MutexGuard<'_, QueueState<T>>, slots: usize) {
        state.reserved -= slots;
        let target = state.waiting_for;
        let wake =
            target != 0 && (state.items.len() >= target || state.closed && state.reserved == 0);
        if wake {
            state.waiting_for = 0;
        }
        drop(state);
        if wake {
            self.available.notify_one();
        }
    }

    /// Waits until at least `target` items are queued, the queue is full,
    /// the queue is closed, or `timeout` elapses — then drains up to
    /// `target` items.
    ///
    /// This is the epoch manager's count-or-deadline primitive: a batch is
    /// cut as soon as it is full, at the deadline with whatever arrived, or
    /// immediately during a shutdown drain. A target above the capacity
    /// could never be met (the queue would refuse every push and the wait
    /// would run to the deadline), so a full queue always cuts. An empty
    /// return means the deadline passed with nothing queued, or the queue
    /// is finished ([`Self::is_finished`]).
    pub(crate) fn drain_when(&self, target: usize, timeout: Duration) -> Vec<T> {
        let target = target.clamp(1, self.capacity);
        #[expect(clippy::disallowed_methods, reason = "the epoch cut's batch deadline")]
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        while state.items.len() < target && !(state.closed && state.reserved == 0) {
            #[expect(clippy::disallowed_methods, reason = "waits out the same deadline")]
            let now = Instant::now();
            if !state.closed && now >= deadline {
                break;
            }
            state.waiting_for = target;
            // A closed queue waits for its granted room, deadline or not.
            let wait = if state.closed {
                Duration::MAX
            } else {
                deadline - now
            };
            self.available.wait_for(&mut state, wait);
            state.waiting_for = 0;
            state.wakeups += 1;
        }
        let take = state.items.len().min(target);
        state.items.drain(..take).collect()
    }

    /// Closes the queue: queued and granted items stay drainable, new
    /// reservations get no room, and the blocked consumer wakes up.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }
}

impl<T> Reservation<'_, T> {
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Pushes at most [`Self::slots`] of `items` and returns the depth.
    pub(crate) fn fill(mut self, items: impl IntoIterator<Item = T>) -> usize {
        let mut state = self.queue.state.lock();
        state.items.extend(items.into_iter().take(self.slots));
        let depth = state.items.len();
        self.queue.release(state, std::mem::take(&mut self.slots));
        depth
    }
}

impl<T> Drop for Reservation<'_, T> {
    fn drop(&mut self) {
        if self.slots > 0 {
            self.queue.release(self.queue.state.lock(), self.slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Which refusal a run of one met.
    #[derive(Debug, PartialEq, Eq)]
    enum PushError<T> {
        Full(T),
        Closed(T),
    }

    impl<T> BoundedQueue<T> {
        /// A run of one: reserves a slot and fills it.
        fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
            let slot = self.reserve(1);
            if slot.slots() == 1 {
                Ok(slot.fill([item]))
            } else if self.state.lock().closed {
                Err(PushError::Closed(item))
            } else {
                Err(PushError::Full(item))
            }
        }
    }

    #[test]
    fn push_pop_roundtrip_in_fifo_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_when(1, Duration::ZERO), [1]);
        assert_eq!(q.drain_when(1, Duration::ZERO), [2]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn full_queue_refuses_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert_eq!(q.try_push("c"), Err(PushError::Full("c")));
        assert_eq!(q.len(), 2, "refused pushes must not grow the queue");
        // Draining frees a slot.
        q.drain_when(1, Duration::ZERO);
        q.try_push("c").unwrap();
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.drain_when(1, Duration::ZERO), [7]);
        assert!(q.drain_when(1, Duration::from_secs(60)).is_empty());
        assert!(q.is_finished());
    }

    #[test]
    fn a_reservation_gets_what_is_free_and_gives_back_what_it_does_not_fill() {
        let q = BoundedQueue::new(4);
        q.try_push(0).unwrap();
        let run = q.reserve(5);
        assert_eq!(run.slots(), 3);
        assert_eq!(q.reserve(1).slots(), 0, "reserved room is taken");
        assert_eq!(run.fill([1, 2]), 3, "the depth after the push");
        let run = q.reserve(9);
        assert_eq!(run.slots(), 1, "the unfilled slot went back");
        assert_eq!(run.fill([3, 4]), 4, "a fill takes at most its slots");
        assert_eq!(q.drain_when(8, Duration::ZERO), [0, 1, 2, 3]);
    }

    #[test]
    fn a_reservation_granted_before_the_close_is_filled_and_drained() {
        let q = Arc::new(BoundedQueue::new(4));
        let run = q.reserve(2);
        q.close();
        assert_eq!(q.reserve(1).slots(), 0, "a closed queue grants nothing");
        assert!(!q.is_finished());
        // A zero deadline on a closed queue: the consumer still waits for
        // the granted room rather than report the queue finished.
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.drain_when(4, Duration::ZERO))
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(run.fill([7, 8]), 2);
        assert_eq!(consumer.join().unwrap(), [7, 8]);
        assert!(q.is_finished());
    }

    #[test]
    fn drain_when_cuts_on_count() {
        let q = Arc::new(BoundedQueue::new(16));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..8 {
                    q.try_push(i).unwrap();
                }
            })
        };
        let batch = q.drain_when(8, Duration::from_secs(5));
        producer.join().unwrap();
        assert_eq!(batch.len(), 8);
    }

    #[test]
    fn drain_when_cuts_on_deadline_with_partial_batch() {
        let q: BoundedQueue<u32> = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        let start = Instant::now();
        let batch = q.drain_when(100, Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn drain_when_returns_immediately_once_closed() {
        let q: BoundedQueue<u32> = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        let start = Instant::now();
        let batch = q.drain_when(100, Duration::from_secs(60));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(batch, vec![1, 2]);
        assert!(q.drain_when(100, Duration::from_secs(60)).is_empty());
    }

    #[test]
    fn drain_when_leaves_overflow_for_the_next_epoch() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let batch = q.drain_when(4, Duration::from_secs(1));
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn an_epoch_larger_than_the_queue_is_cut_when_the_queue_fills() {
        // Target 8 can never be met at capacity 4: the parent design
        // refused every further push and slept to the deadline.
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.drain_when(8, Duration::from_secs(60)))
        };
        let start = Instant::now();
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(consumer.join().unwrap(), [0, 1, 2, 3]);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "a full queue must cut, not wait out the deadline"
        );
        assert_eq!(q.try_push(4), Ok(1), "the drain freed the queue");
    }

    #[test]
    fn the_consumer_is_woken_once_per_batch_not_once_per_push() {
        const TARGET: usize = 2_500;
        let q = Arc::new(BoundedQueue::new(1 << 14));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                (0..4)
                    .map(|_| q.drain_when(TARGET, Duration::from_secs(60)).len())
                    .collect::<Vec<_>>()
            })
        };
        let start = Instant::now();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..5_000 {
                        q.try_push(p * 5_000 + i).unwrap();
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), [TARGET; 4]);
        assert!(start.elapsed() < Duration::from_secs(30), "a wake was lost");
        // No deadline expired, so every return from a sleep was a batch
        // becoming complete. One wake per push would read about 10 000.
        assert!(q.wakeups() <= 4, "woken {} times", q.wakeups());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn the_push_that_completes_a_batch_never_misses_a_consumer_going_to_sleep() {
        // Both sides leave a barrier together, so across the rounds the
        // completing push lands before, while and after the consumer
        // records its target. A lost wake-up would sit out the deadline.
        let q = Arc::new(BoundedQueue::new(64));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let rounds = 2_000;
        let consumer = {
            let (q, barrier) = (Arc::clone(&q), Arc::clone(&barrier));
            thread::spawn(move || {
                for round in 0..rounds {
                    let target = 1 + round % 3;
                    barrier.wait();
                    let start = Instant::now();
                    let batch = q.drain_when(target, Duration::from_secs(60));
                    assert_eq!(batch.len(), target);
                    assert!(start.elapsed() < Duration::from_secs(30), "lost wake-up");
                }
            })
        };
        for round in 0..rounds {
            barrier.wait();
            for i in 0..1 + round % 3 {
                q.try_push(i).unwrap();
            }
        }
        consumer.join().unwrap();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stress_every_accepted_item_is_drained_once_and_no_drain_outlasts_its_deadline() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PER_PRODUCER: u64 = 20_000;
        const CLOSE_AFTER: usize = 45_000;
        // How late a timed-out drain may return: a scheduling quantum on a
        // loaded two-core host, with room for a neighbour's burst.
        const QUANTUM: Duration = Duration::from_millis(500);
        let q = Arc::new(BoundedQueue::new(256));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut accepted = Vec::new();
                    'items: for i in 0..PER_PRODUCER {
                        let mut item = p * PER_PRODUCER + i;
                        loop {
                            match q.try_push(item) {
                                Ok(_) => break,
                                Err(PushError::Closed(_)) => break 'items,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    thread::yield_now();
                                }
                            }
                        }
                        accepted.push(item);
                    }
                    accepted
                })
            })
            .collect();
        // The consumer closes the queue mid-run, with producers still
        // pushing; what was accepted before the close must still come out.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut drained = Vec::new();
        while !q.is_finished() {
            // Targets below the backlog, above it, and above the capacity.
            let target = rng.gen_range(1..400);
            let timeout = Duration::from_micros(rng.gen_range(0..3_000));
            let start = Instant::now();
            let batch = q.drain_when(target, timeout);
            let late = start.elapsed().saturating_sub(timeout);
            assert!(late < QUANTUM, "drain returned {late:?} after its deadline");
            assert!(batch.len() <= target);
            drained.extend(batch);
            if drained.len() >= CLOSE_AFTER {
                q.close();
            }
        }
        let mut accepted: Vec<u64> = producers
            .into_iter()
            .flat_map(|p| p.join().unwrap())
            .collect();
        assert!(accepted.len() >= CLOSE_AFTER);
        assert!(accepted.len() < 3 * PER_PRODUCER as usize, "closed mid-run");
        accepted.sort_unstable();
        drained.sort_unstable();
        assert_eq!(drained, accepted);
    }

    #[test]
    fn concurrent_producers_and_consumer_preserve_the_multiset() {
        let q = Arc::new(BoundedQueue::new(1 << 12));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..256u64 {
                        while q.try_push(p * 1000 + i).is_err() {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while !q.is_finished() {
                    seen.extend(q.drain_when(64, Duration::from_millis(50)));
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let mut expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..256u64).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }
}
