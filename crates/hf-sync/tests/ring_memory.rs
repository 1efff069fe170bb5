//! Event memory follows the backlog: an `EventRing` allocates nothing up
//! front, and draining it returns its blocks to the allocator.
//!
//! A byte-counting global allocator tracks live heap bytes for the whole
//! test binary, so both checks run in one test to keep other tests'
//! allocations out of the count.

use hf_sync::EventRing;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator unchanged; the counter only
// observes the sizes passing through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

type Event = [u8; 128];

/// Upper bound on one queue block: 31 slots of an event plus its state
/// word, a next pointer, and padding.
const ONE_BLOCK: usize = 32 * (std::mem::size_of::<Event>() + 16);

#[test]
fn ring_memory_follows_the_backlog() {
    let base = LIVE.load(Ordering::Relaxed);
    let ring = EventRing::<Event>::new(65_536);
    let built = LIVE.load(Ordering::Relaxed);
    assert!(
        built.saturating_sub(base) < 4096,
        "constructing a 64 Ki-event ring allocated {} bytes",
        built - base
    );

    for i in 0..10_000u32 {
        let mut ev = [0u8; 128];
        ev[..4].copy_from_slice(&i.to_le_bytes());
        assert!(ring.push(ev));
    }
    let full = LIVE.load(Ordering::Relaxed);
    assert!(full - built >= 10_000 * std::mem::size_of::<Event>());

    let mut next = 0u32;
    let drained = ring.drain(|ev| {
        assert_eq!(ev[..4], next.to_le_bytes());
        next += 1;
    });
    assert_eq!(drained, 10_000);
    let after = LIVE.load(Ordering::Relaxed);
    assert!(
        after.saturating_sub(built) <= ONE_BLOCK,
        "{} bytes still live after draining",
        after - built
    );
    drop(ring);
}
