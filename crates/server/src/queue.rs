//! Bounded MPSC queues with observable backpressure.
//!
//! `std::sync::mpsc` hides its depth; backpressure you cannot observe is
//! backpressure you cannot tune, so the server runs its own minimal
//! bounded queue on `Mutex` + `Condvar`. Every enqueue reports the
//! resulting depth (the maximum over those samples is the high-water
//! mark the `stats` verb serves) and a full queue either blocks the
//! producer ([`OverflowPolicy::Block`]) or sheds the item and counts it
//! ([`OverflowPolicy::Reject`]).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What a producer experiences when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producing thread until space frees up — lossless, and
    /// the stall propagates down the TCP connection to the client.
    Block,
    /// Drop the item, count it, and tell the producer — lossy under
    /// overload but never stalls the connection.
    Reject,
}

impl OverflowPolicy {
    /// Parses `"block"` / `"reject"`.
    pub fn parse(s: &str) -> Result<OverflowPolicy, String> {
        match s {
            "block" => Ok(OverflowPolicy::Block),
            "reject" | "shed" => Ok(OverflowPolicy::Reject),
            other => Err(format!("unknown overflow policy `{other}` (block|reject)")),
        }
    }
}

/// Outcome of a [`BoundedQueue::wait_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum Waited {
    /// At least one item is queued.
    Ready,
    /// The timeout elapsed with the queue still open and empty.
    TimedOut,
    /// The queue is closed and drained — end of stream.
    Closed,
}

/// Counters a queue accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items accepted onto the queue.
    pub enqueued: u64,
    /// Items shed because the queue was full under [`OverflowPolicy::Reject`].
    pub shed: u64,
    /// Maximum depth ever observed right after an enqueue.
    pub high_water: usize,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded multi-producer queue; consumers block on [`BoundedQueue::pop`].
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    /// Signalled when an item arrives or the queue closes.
    nonempty: Condvar,
    /// Signalled when an item leaves (space for blocked producers).
    nonfull: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            nonempty: Condvar::new(),
            nonfull: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocking enqueue: waits for space, returns the depth after the
    /// push, or `None` if the queue closed while waiting (item dropped).
    pub fn push(&self, item: T) -> Option<usize> {
        let mut inner = self.lock();
        while inner.items.len() >= self.capacity && !inner.closed {
            inner = self
                .nonfull
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inner.closed {
            return None;
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        inner.stats.enqueued += 1;
        inner.stats.high_water = inner.stats.high_water.max(depth);
        drop(inner);
        self.nonempty.notify_one();
        Some(depth)
    }

    /// Non-blocking enqueue: `Ok(depth)` on success, `Err(item)` back to
    /// the caller when full or closed. A full-queue rejection is counted
    /// as shed.
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(item);
        }
        if inner.items.len() >= self.capacity {
            inner.stats.shed += 1;
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        inner.stats.enqueued += 1;
        inner.stats.high_water = inner.stats.high_water.max(depth);
        drop(inner);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Enqueues `items` in order under one lock hold and signals the
    /// consumer once, after the last. A full queue blocks under
    /// [`OverflowPolicy::Block`] and sheds (drops and counts) the item
    /// under [`OverflowPolicy::Reject`]. Returns how many were
    /// accepted, or `None` if the queue is closed (the rest is
    /// dropped). The iterator runs under the lock: hand it finished
    /// items.
    pub fn push_all(
        &self,
        items: impl IntoIterator<Item = T>,
        policy: OverflowPolicy,
    ) -> Option<usize> {
        let mut inner = self.lock();
        let mut accepted = 0;
        for item in items {
            while policy == OverflowPolicy::Block
                && inner.items.len() >= self.capacity
                && !inner.closed
            {
                // The consumer has not heard of this run yet.
                self.nonempty.notify_one();
                inner = self
                    .nonfull
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if inner.closed {
                return None;
            }
            if inner.items.len() >= self.capacity {
                inner.stats.shed += 1;
                continue;
            }
            inner.items.push_back(item);
            let depth = inner.items.len();
            inner.stats.enqueued += 1;
            inner.stats.high_water = inner.stats.high_water.max(depth);
            accepted += 1;
        }
        drop(inner);
        self.nonempty.notify_one();
        Some(accepted)
    }

    /// Blocking dequeue: `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.nonfull.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking dequeue: `None` when nothing is queued.
    pub fn try_pop(&self) -> Option<T> {
        let item = self.lock().items.pop_front()?;
        self.nonfull.notify_one();
        Some(item)
    }

    /// Waits until an item is queued, without taking it — for a
    /// consumer that takes items under a lock of its own
    /// ([`BoundedQueue::try_pop`]) and interleaves periodic work
    /// (shutdown checks).
    pub fn wait_timeout(&self, timeout: Duration) -> Waited {
        let inner = self.lock();
        if !inner.items.is_empty() {
            return Waited::Ready;
        }
        if inner.closed {
            return Waited::Closed;
        }
        let (inner, _) = self
            .nonempty
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        if !inner.items.is_empty() {
            Waited::Ready
        } else if inner.closed {
            Waited::Closed
        } else {
            Waited::TimedOut
        }
    }

    /// Closes the queue: producers fail fast, the consumer drains what
    /// remains and then sees end-of-stream.
    pub fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
        self.nonfull.notify_all();
    }

    /// `true` once [`BoundedQueue::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_and_depth_reporting() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.push(1), Some(1));
        assert_eq!(q.push(2), Some(2));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        let s = q.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.high_water, 2);
        assert_eq!(s.shed, 0);
    }

    #[test]
    fn reject_policy_sheds_when_full() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.try_push(4), Err(4));
        let s = q.stats();
        assert_eq!(s.shed, 2);
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.high_water, 2);
        // Space frees up, acceptance resumes.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(5), Ok(2));
    }

    #[test]
    fn block_policy_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1))
        };
        // The producer is blocked; popping unblocks it.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(producer.join().unwrap(), Some(1));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(BoundedQueue::new(8));
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.push("c"), None, "closed queue refuses producers");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None, "drained and closed");
        assert!(q.try_push("d").is_err());
    }

    #[test]
    fn wait_timeout_distinguishes_ready_empty_and_closed() {
        let q: BoundedQueue<i32> = BoundedQueue::new(2);
        assert_eq!(q.wait_timeout(Duration::from_millis(5)), Waited::TimedOut);
        assert_eq!(q.try_pop(), None);
        q.push(7).unwrap();
        assert_eq!(q.wait_timeout(Duration::from_millis(5)), Waited::Ready);
        assert_eq!(q.depth(), 1, "waiting takes nothing");
        q.close();
        assert_eq!(q.wait_timeout(Duration::from_millis(5)), Waited::Ready);
        assert_eq!(q.try_pop(), Some(7));
        assert_eq!(q.wait_timeout(Duration::from_millis(5)), Waited::Closed);
    }

    #[test]
    fn push_all_keeps_order_and_follows_the_policy() {
        let q = Arc::new(BoundedQueue::new(2));
        assert_eq!(q.push_all(0..4, OverflowPolicy::Reject), Some(2));
        assert_eq!(q.stats().shed, 2);
        // Block: the run waits for the consumer instead of shedding.
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_all(4..7, OverflowPolicy::Block))
        };
        let taken: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(taken, [0, 1, 4, 5, 6]);
        assert_eq!(producer.join().unwrap(), Some(3));
        assert_eq!(q.stats().enqueued, 5);
        q.close();
        assert_eq!(q.push_all(7..8, OverflowPolicy::Block), None);
    }

    #[test]
    fn close_wakes_a_blocked_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1))
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), None);
    }
}
