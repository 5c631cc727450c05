//! A bounded multi-producer queue with non-blocking pushes.
//!
//! The collector's memory bound comes from this queue: producers (the event
//! loops) never block and never allocate past the capacity — a full queue
//! is reported back to them so they can answer `RetryAfter` instead of
//! buffering, which is the backpressure contract of the service. Consumers
//! (the epoch manager) block, with a deadline, until enough reports arrive
//! to cut a batch.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused; the item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue was closed and accepts no further items.
    Closed(T),
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded queue; see the module docs for the blocking contract. One
/// push wakes one blocked consumer, so a queue has one draining thread.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The maximum number of items the queue holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Appends an item without blocking; a full or closed queue refuses it.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Waits until at least `target` items are queued, the queue is closed,
    /// or `timeout` elapses — then drains up to `target` items.
    ///
    /// This is the epoch manager's count-or-deadline primitive: a batch is
    /// cut as soon as it is full, at the deadline with whatever arrived, or
    /// immediately during a shutdown drain. An empty return means the
    /// deadline passed with nothing queued (or the queue is closed and dry).
    pub fn drain_when(&self, target: usize, timeout: Duration) -> Vec<T> {
        let target = target.max(1);
        // prochlo-lint: allow(wallclock-discipline, "functional count-or-deadline primitive: the deadline cuts batches, it never orders reports")
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        while state.items.len() < target && !state.closed {
            // prochlo-lint: allow(wallclock-discipline, "remaining-wait computation for the same batch-cut deadline as above")
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.available.wait_for(&mut state, deadline - now);
        }
        let take = state.items.len().min(target);
        state.items.drain(..take).collect()
    }

    /// Closes the queue: pending items stay drainable, new pushes fail, and
    /// every blocked consumer wakes up.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_roundtrip_in_fifo_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_when(1, Duration::ZERO), [1]);
        assert_eq!(q.drain_when(1, Duration::ZERO), [2]);
        assert!(q.is_empty());
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
        assert!(q.is_closed());
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
                while !(q.is_closed() && q.is_empty()) {
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
