//! Model-checked concurrency tests for hf-sync's lock-free structures.
//!
//! Run with `cargo test -p hf-sync --features loom --test loom`. Each
//! `loom::model` body is executed under every bounded interleaving of its
//! threads' atomic operations by the in-repo loom shim (deterministic DFS
//! over scheduling decisions), so the assertions hold on *all* explored
//! schedules, not just the ones the OS happens to produce.
//!
//! Models are deliberately tiny — two or three threads, a handful of
//! operations each — because the schedule space grows exponentially with
//! the number of scheduling points.

#![cfg(feature = "loom")]

use hf_sync::{EventRing, Injector, SlotCache};
use std::sync::Arc;

/// Two producers park distinct tokens concurrently; both must land and
/// come back out exactly once (no lost or duplicated token).
#[test]
fn slotcache_concurrent_puts_conserve_tokens() {
    loom::model(|| {
        let c = Arc::new(SlotCache::new(2));
        let c1 = Arc::clone(&c);
        let c2 = Arc::clone(&c);
        let a = loom::thread::spawn(move || assert!(c1.try_put(7)));
        let b = loom::thread::spawn(move || assert!(c2.try_put(9)));
        a.join().unwrap();
        b.join().unwrap();
        let mut got = vec![c.try_take().unwrap(), c.try_take().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![7, 9], "both tokens parked exactly once");
        assert!(c.try_take().is_none());
    });
}

/// A put racing a take on a single-slot cache: the take gets either the
/// old token or nothing, the final drain sees exactly the remaining one.
#[test]
fn slotcache_put_take_race_never_duplicates() {
    loom::model(|| {
        let c = Arc::new(SlotCache::new(1));
        assert!(c.try_put(1));
        let c1 = Arc::clone(&c);
        let c2 = Arc::clone(&c);
        let taker = loom::thread::spawn(move || c1.try_take());
        let putter = loom::thread::spawn(move || c2.try_put(2));
        let taken = taker.join().unwrap();
        let put_ok = putter.join().unwrap();
        let mut seen: Vec<u64> = taken.into_iter().collect();
        while let Some(v) = c.try_take() {
            seen.push(v);
        }
        seen.sort_unstable();
        // Token 1 is delivered exactly once; token 2 exactly once iff the
        // put found a free slot.
        let expect: Vec<u64> = if put_ok { vec![1, 2] } else { vec![1] };
        assert_eq!(seen, expect, "tokens conserved under the race");
    });
}

/// Two producers push concurrently into a capacity-2 ring; nothing is
/// dropped and the drain delivers both values exactly once.
#[test]
fn ring_concurrent_pushes_deliver_exactly_once() {
    loom::model(|| {
        let r = Arc::new(EventRing::new(2));
        let r1 = Arc::clone(&r);
        let r2 = Arc::clone(&r);
        let a = loom::thread::spawn(move || assert!(r1.push(1u64)));
        let b = loom::thread::spawn(move || assert!(r2.push(2u64)));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(r.dropped(), 0);
        let mut got = Vec::new();
        r.drain(|v| got.push(v));
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "both events delivered exactly once");
    });
}

/// A producer and a consumer overlap on the ring: the consumer (retrying
/// with a model yield) eventually observes both values in FIFO order.
#[test]
fn ring_producer_consumer_fifo_under_overlap() {
    loom::model(|| {
        let r = Arc::new(EventRing::new(2));
        let rp = Arc::clone(&r);
        let producer = loom::thread::spawn(move || {
            assert!(rp.push(10u64));
            assert!(rp.push(20u64));
        });
        let mut got = Vec::new();
        while got.len() < 2 {
            match r.pop() {
                Some(v) => got.push(v),
                None => loom::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![10, 20], "slot handshakes preserve FIFO");
        assert_eq!(r.dropped(), 0);
    });
}

/// Two producers race a single-CAS push each; after both finish, a drain
/// pops each value exactly once (tail-index claims never overlap).
#[test]
fn injector_concurrent_pushes_pop_exactly_once() {
    loom::model(|| {
        let q = Arc::new(Injector::new());
        let q1 = Arc::clone(&q);
        let q2 = Arc::clone(&q);
        let a = loom::thread::spawn(move || q1.push(1u64));
        let b = loom::thread::spawn(move || q2.push(2u64));
        a.join().unwrap();
        b.join().unwrap();
        let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "each push delivered exactly once");
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    });
}

/// A batch push races a popping consumer: the consumer sees a prefix of
/// the batch in FIFO order, and the remainder drains afterwards.
#[test]
fn injector_batch_push_vs_pop_preserves_fifo() {
    loom::model(|| {
        let q = Arc::new(Injector::new());
        let qp = Arc::clone(&q);
        let producer = loom::thread::spawn(move || qp.push_batch(&[1u64, 2, 3]));
        let mut got = Vec::new();
        q.pop_batch(2, |v| got.push(v));
        producer.join().unwrap();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2, 3], "batch claim is FIFO and exactly-once");
    });
}

/// Two producers push owned `Arc` payloads while a consumer pops one, then
/// the queue is dropped: each payload is dropped exactly once, whether it
/// was popped or left behind, so every strong count ends at 1. A warm-up
/// push/pop installs the first block, leaving that race to
/// `injector_concurrent_pushes_pop_exactly_once`.
#[test]
fn injector_drops_owned_payloads_exactly_once() {
    loom::model(|| {
        let a = Arc::new(1u64);
        let b = Arc::new(2u64);
        let q = Arc::new(Injector::new());
        q.push(Arc::new(0u64));
        drop(q.pop());
        let (q1, q2) = (Arc::clone(&q), Arc::clone(&q));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let p1 = loom::thread::spawn(move || q1.push(a1));
        let p2 = loom::thread::spawn(move || q2.push(b1));
        let popped = q.pop();
        p1.join().unwrap();
        p2.join().unwrap();
        drop(popped);
        drop(Arc::try_unwrap(q).ok().expect("producers joined"));
        assert_eq!(Arc::strong_count(&a), 1, "payload 1 dropped exactly once");
        assert_eq!(Arc::strong_count(&b), 1, "payload 2 dropped exactly once");
    });
}
