//! A bounded MPMC FIFO job queue on `Mutex` + `Condvar`.
//!
//! Producers (HTTP handler threads) **never block**: a full queue is a
//! backpressure signal ([`PushError::Full`] → HTTP 429), not a place to
//! park connections. Consumers (workers) block in [`Bounded::pop`] until
//! an item arrives or the queue is closed *and* drained — so closing the
//! queue is exactly graceful-shutdown semantics: no new work, every item
//! already accepted is still handed to exactly one worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed (shutdown in progress); the item is handed
    /// back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. Shared by `Arc`; all methods take `&self`.
pub struct Bounded<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    /// Signals consumers: an item was pushed, or the queue closed.
    available: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        Bounded {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` without blocking. Returns the queue depth after the
    /// push, or the item back when the queue is full or closed.
    pub fn push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.available.notify_one();
        Ok(depth)
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` only when the queue is closed **and** fully
    /// drained — each pushed item is returned to exactly one caller.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: subsequent pushes fail with [`PushError::Closed`],
    /// and consumers drain what is already queued, then get `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        drop(inner);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_reports_depth() {
        let q = Bounded::new(2);
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(2));
    }

    #[test]
    fn fifo_order() {
        let q = Bounded::new(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn close_rejects_new_pushes_but_drains_existing() {
        let q = Bounded::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.push(7), Ok(1));
        assert_eq!(q.push(8), Err(PushError::Full(8)));
    }

    /// Drain-on-shutdown with concurrent consumers: every accepted item is
    /// delivered to exactly one worker — none lost, none double-executed.
    #[test]
    fn concurrent_drain_loses_and_duplicates_nothing() {
        let q = Arc::new(Bounded::new(1024));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let mut accepted = Vec::new();
        for i in 0..1500u32 {
            if q.push(i).is_ok() {
                accepted.push(i);
            }
        }
        q.close();
        let mut seen: BTreeMap<u32, usize> = BTreeMap::new();
        for w in workers {
            for item in w.join().unwrap() {
                *seen.entry(item).or_default() += 1;
            }
        }
        assert_eq!(seen.len(), accepted.len(), "no accepted item may be lost");
        for (item, count) in &seen {
            assert_eq!(*count, 1, "item {item} executed {count} times");
            assert!(accepted.contains(item));
        }
    }

    /// A blocked consumer wakes on push and on close.
    #[test]
    fn blocked_pop_wakes_on_push_and_close() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || (qc.pop(), qc.pop()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(9).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(9), None));
    }
}
