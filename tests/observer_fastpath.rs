//! Observer-disabled fast path: with a flight recorder *installed but
//! disabled*, the executor emits zero lifecycle events and adds no
//! per-task allocation over running with no observer at all.
//!
//! A counting global allocator measures whole-process allocations around
//! identical workloads, and a counting observer that reports itself
//! inactive proves the `is_active` gate holds: lifecycle events share
//! their task's name, so emission leaking past the gate would cost no
//! allocation of its own, only hook calls.

use heteroflow::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TASKS: usize = 512;

/// Serializes the tests: both measure the process-wide allocation
/// counter, so concurrent runs would pollute each other's deltas.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn host_graph(name: &str) -> Heteroflow {
    let g = Heteroflow::new(name);
    for i in 0..TASKS {
        g.host(&format!("t{i}"), || {
            std::hint::black_box(0u64);
        });
    }
    g
}

/// Allocations during one cached re-run of `g` on `ex` (min of 3, to
/// shave scheduler noise).
fn measure(ex: &Executor, g: &Heteroflow) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::SeqCst);
        ex.run(g).wait().expect("runs");
        best = best.min(ALLOCS.load(Ordering::SeqCst) - before);
    }
    best
}

#[test]
fn disabled_recorder_adds_no_events_and_no_allocation() {
    let _guard = SERIAL.lock().unwrap();
    // Baseline: no observer installed at all.
    let ex_base = Executor::new(2, 0);
    let g_base = host_graph("fastpath_base");
    ex_base.run(&g_base).wait().expect("warmup"); // freeze + place once
    let baseline = measure(&ex_base, &g_base);

    // Same workload with a disabled flight recorder installed.
    let recorder = FlightRecorder::shared();
    recorder.set_enabled(false);
    let ex_rec = Executor::builder(2, 0).observer(recorder.clone()).build();
    let g_rec = host_graph("fastpath_rec");
    ex_rec.run(&g_rec).wait().expect("warmup");
    let with_disabled = measure(&ex_rec, &g_rec);

    assert_eq!(
        recorder.events_recorded(),
        0,
        "disabled recorder must see zero lifecycle events"
    );
    assert!(recorder.summaries().is_empty());

    // Allow generous scheduler noise, well below one allocation per
    // task.
    let budget = baseline + (TASKS as u64);
    assert!(
        with_disabled <= budget,
        "disabled-recorder run allocated {with_disabled}, baseline {baseline} \
         (budget {budget}) — lifecycle emission is leaking past the is_active gate"
    );
}

/// Flipping the recorder on makes the same executor emit — the gate is
/// the recorder's enabled flag, not installation time.
#[test]
fn enabling_recorder_turns_emission_on() {
    let _guard = SERIAL.lock().unwrap();
    let recorder = FlightRecorder::shared();
    recorder.set_enabled(false);
    let ex = Executor::builder(2, 0).observer(recorder.clone()).build();
    let g = host_graph("fastpath_toggle");
    ex.run(&g).wait().expect("runs");
    assert_eq!(recorder.events_recorded(), 0);

    recorder.set_enabled(true);
    ex.run(&g).wait().expect("runs");
    // RunStart/RunEnd plus per-task ready/started/finished.
    assert!(
        recorder.events_recorded() >= (TASKS as u64) * 3,
        "enabled recorder captures lifecycle events, got {}",
        recorder.events_recorded()
    );
}

/// An observer that reports itself inactive never has its hooks called:
/// the executor skips lifecycle emission and span hooks entirely.
#[test]
fn inactive_observer_receives_no_calls() {
    use heteroflow::core::{ExecutorObserver, LifecycleEvent, TaskMeta};
    use std::sync::Arc;

    #[derive(Default)]
    struct Inactive(AtomicU64);
    impl ExecutorObserver for Inactive {
        fn on_task_begin(&self, _: &TaskMeta<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn on_task_end(&self, _: &TaskMeta<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn is_active(&self) -> bool {
            false
        }
        fn on_lifecycle(&self, _: &LifecycleEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let _guard = SERIAL.lock().unwrap();
    let probe = Arc::new(Inactive::default());
    let ex = Executor::builder(2, 0).observer(probe.clone()).build();
    let g = host_graph("fastpath_inactive");
    ex.run(&g).wait().expect("runs");
    ex.run(&g).wait().expect("runs");
    assert_eq!(probe.0.load(Ordering::Relaxed), 0, "inactive observer was called");
}
