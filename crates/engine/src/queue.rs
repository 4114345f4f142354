//! The engine's job queue: a closable multi-producer/multi-consumer FIFO
//! built from `std` only (`Mutex` + `Condvar`) — the hand-off point between
//! the threads that submit jobs and the worker pool.
//!
//! A push never blocks, because every producer already bounds its own
//! input: a batch hands over a `Vec` it already holds, and a daemon session
//! holds at most its admission window.  Closing the queue refuses further
//! pushes and wakes every blocked consumer; consumers then drain the
//! remaining items before [`JobQueue::pop`] returns `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Largest number of items ever queued at once — the depth telemetry
    /// `BatchReport` surfaces as `queue_high_water`.
    high_water: usize,
}

/// A closable FIFO queue whose consumers block while it is empty.
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signalled when an item is enqueued or the queue is closed.
    not_empty: Condvar,
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> JobQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Lock the state, shrugging off poisoning: workers catch job panics
    /// before they can unwind through a queue lock, and the queue state is a
    /// plain deque that cannot be left half-updated.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue `item` without blocking.  Hands the item back if the queue
    /// is closed — a submitter needs the refused job's callbacks to reply to
    /// its client.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
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

    /// Close the queue: no further pushes are accepted, every blocked
    /// consumer is woken, and consumers drain what is left.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_high_water() {
        let q = JobQueue::new();
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
        let q = JobQueue::new();
        q.close();
        assert_eq!(q.push(42), Err(42));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = JobQueue::<u8>::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }
}
