//! A bounded multi-producer/multi-consumer job queue built from `std` only
//! (`Mutex` + two `Condvar`s) — the hand-off point between the engine's
//! submitting thread and its worker pool.
//!
//! The bound provides back-pressure: a sweep of thousands of jobs never
//! materialises more than `capacity` queued entries at once, so the submitter
//! blocks in [`BoundedQueue::push`] until a worker drains a slot.  Closing the
//! queue wakes every blocked party; consumers then drain the remaining items
//! before [`BoundedQueue::pop`] returns `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Largest number of items ever queued at once — the back-pressure
    /// telemetry `BatchReport` surfaces as `queue_high_water`.
    high_water: usize,
}

/// A blocking FIFO queue with a fixed capacity.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    /// Signalled when an item is enqueued or the queue is closed.
    not_empty: Condvar,
    /// Signalled when an item is dequeued or the queue is closed.
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lock the state, shrugging off poisoning: workers catch job panics
    /// before they can unwind through a queue lock, and the queue state is a
    /// plain deque that cannot be left half-updated.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue `item`, blocking while the queue is full.  Hands the item
    /// back if the queue was closed in the meantime — a submitter needs the
    /// rejected job's callbacks to reply to its client.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        while state.items.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Largest queue depth observed so far.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Dequeue the oldest item, blocking while the queue is empty.  Returns
    /// `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: no further pushes are accepted, every blocked thread
    /// is woken, and consumers drain what is left.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.high_water(), 0);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert!(q.push(3).is_ok());
        q.close();
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_after_close_is_rejected() {
        let q = BoundedQueue::new(2);
        q.close();
        assert_eq!(q.push(42), Err(42));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_is_at_least_one() {
        assert_eq!(BoundedQueue::<u8>::new(0).capacity(), 1);
        assert_eq!(BoundedQueue::<u8>::new(7).capacity(), 7);
    }

    #[test]
    fn bounded_push_blocks_until_a_consumer_drains() {
        // A capacity-1 queue forces the producer to interleave with the
        // consumer: every push beyond the first must wait for a pop.
        let q = BoundedQueue::new(1);
        let produced = AtomicUsize::new(0);
        let total = 64usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..total {
                    assert!(q.push(i).is_ok());
                    produced.fetch_add(1, Ordering::SeqCst);
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(item) = q.pop() {
                // Back-pressure: the producer can never run more than
                // `capacity + 1` items ahead of what we have consumed.
                assert!(produced.load(Ordering::SeqCst) <= got.len() + 2);
                got.push(item);
            }
            assert_eq!(got, (0..total).collect::<Vec<_>>());
        });
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = BoundedQueue::<u8>::new(2);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }
}
