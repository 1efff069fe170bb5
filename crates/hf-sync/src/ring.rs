//! Bounded lock-free event queue for telemetry producers.
//!
//! Telemetry recording must never block a worker or a device engine: an
//! event is pushed with a few atomic operations, and when the buffer is
//! full the event is *dropped* (counted) rather than stalling the hot
//! path. The queue is the scheduler's segmented [`Injector`] behind a
//! capacity check, so any number of producers (workers, device engines,
//! submission threads) and consumers (the recorder's or collector's
//! drain) operate without locks, and event memory follows the backlog:
//! 31-slot blocks are allocated as producers need them and freed as the
//! drain empties them.

use crate::atomic::{AtomicU64, Ordering};
use crate::injector::Injector;

/// A bounded lock-free MPMC queue that drops (and counts) events instead
/// of blocking when full.
///
/// The capacity check reads the queue's head and tail indices before the
/// push claims a slot, so `k` producers racing past the check together can
/// overfill the queue by at most `k - 1` events: the bound holds up to the
/// number of concurrent producers.
pub struct EventRing<T> {
    queue: Injector<T>,
    capacity: usize,
    dropped: AtomicU64,
}

impl<T> EventRing<T> {
    /// Creates a queue holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2). No event memory is allocated up front.
    pub fn new(capacity: usize) -> Self {
        Self {
            queue: Injector::new(),
            capacity: capacity.max(2).next_power_of_two(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum number of buffered events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events discarded because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Approximate number of buffered events.
    pub fn len(&self) -> usize {
        self.queue.len_hint()
    }

    /// True when no events are buffered (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes an event; returns `false` (incrementing the drop counter)
    /// when the queue is full. Lock-free and non-blocking.
    pub fn push(&self, value: T) -> bool {
        if self.queue.len_hint() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.queue.push(value);
        true
    }

    /// Pops the oldest event, if any. Lock-free and non-blocking.
    pub fn pop(&self) -> Option<T> {
        self.queue.pop()
    }

    /// Drains every currently-buffered event into `f`, one block-range
    /// claim at a time.
    pub fn drain(&self, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        loop {
            match self.queue.pop_batch(usize::MAX, &mut f) {
                0 => return n,
                k => n += k,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_roundtrip() {
        let r = EventRing::new(8);
        for i in 0..8 {
            assert!(r.push(i));
        }
        assert_eq!(r.len(), 8);
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let r = EventRing::new(4);
        for i in 0..4 {
            assert!(r.push(i));
        }
        assert!(!r.push(99));
        assert!(!r.push(100));
        assert_eq!(r.dropped(), 2);
        // Draining frees capacity again.
        assert_eq!(r.pop(), Some(0));
        assert!(r.push(4));
    }

    #[test]
    fn bound_holds_across_block_boundaries() {
        // 64 events span three 31-slot blocks; the sentinel positions
        // between blocks must not count as events.
        let r = EventRing::new(64);
        for i in 0..64u64 {
            assert!(r.push(i));
            assert_eq!(r.len(), i as usize + 1);
        }
        assert!(!r.push(64));
        for i in 0..40u64 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.len(), 24);
        let mut rest = Vec::new();
        assert_eq!(r.drain(|v| rest.push(v)), 24);
        assert_eq!(rest, (40..64).collect::<Vec<_>>());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::<u8>::new(3).capacity(), 4);
        assert_eq!(EventRing::<u8>::new(0).capacity(), 2);
        assert_eq!(EventRing::<u8>::new(64).capacity(), 64);
    }

    #[test]
    fn wraps_many_laps() {
        let r = EventRing::new(4);
        for i in 0..1000u64 {
            assert!(r.push(i));
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_producers_and_consumer() {
        let r = Arc::new(EventRing::new(1 << 12));
        let producers = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per {
                        while !r.push(p as u64 * per + i) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while seen.len() < (producers as usize) * per as usize {
                    r.drain(|v| seen.push(v));
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..producers as u64 * per).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn drop_releases_buffered_values() {
        let v = Arc::new(());
        {
            let r = EventRing::new(128);
            for _ in 0..40 {
                r.push(Arc::clone(&v));
            }
            // Leave a partly read head block behind.
            for _ in 0..5 {
                r.pop();
            }
        }
        assert_eq!(Arc::strong_count(&v), 1);
    }
}
