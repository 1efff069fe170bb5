//! Data-movement fast path: transfer elision, pull-buffer persistence
//! across rounds and resubmissions, and pipelined (chunked) copies.

use heteroflow::core::{SpanCat, TraceCollector, Track};
use heteroflow::prelude::*;
use std::sync::Arc;

/// pull -> push round trip with no kernel: after one round the device
/// bytes mirror the host bytes exactly.
fn copy_through(n: usize) -> (Heteroflow, HostVec<i32>) {
    let data = HostVec::from_vec(vec![7i32; n]);
    let g = Heteroflow::new("copy");
    let p = g.pull("pull", &data);
    let s = g.push("push", &p, &data);
    p.precede(&s);
    (g, data)
}

/// pull -> kernel(+1) -> push: each round increments every element, so
/// stale device bytes are visible as wrong values.
fn increment_graph(data: &HostVec<i32>, n: usize) -> Heteroflow {
    let g = Heteroflow::new("incr");
    let p = g.pull("pull", data);
    let k = g.kernel("incr", &[&p], |cfg, args| {
        let v = args.slice_mut::<i32>(0).expect("arg");
        for t in cfg.threads() {
            if t < v.len() {
                v[t] += 1;
            }
        }
    });
    k.cover(n, 128);
    let s = g.push("push", &p, data);
    p.precede(&k);
    k.precede(&s);
    g
}

/// The pull buffer is allocated once and reused across every round of a
/// multi-round run: the pool sees one allocation, not one per round.
#[test]
fn pull_buffer_persists_across_rounds() {
    const N: usize = 1024;
    let ex = Executor::new(2, 1);
    let (g, data) = copy_through(N);
    ex.run_n(&g, 8).wait().expect("runs");
    assert!(data.read().iter().all(|&v| v == 7));
    let allocs: u64 = ex
        .gpu_runtime()
        .devices()
        .iter()
        .map(|d| d.pool_stats().allocs)
        .sum();
    assert_eq!(allocs, 1, "one pull buffer allocated, reused every round");
}

/// With unchanged host data, every round after the first elides its H2D
/// copy (push wrote the same bytes back, revalidating residency).
#[test]
fn unchanged_rounds_elide_h2d_copies() {
    const N: usize = 1024;
    const ROUNDS: u64 = 8;
    let ex = Executor::new(2, 1);
    let (g, data) = copy_through(N);
    ex.run_n(&g, ROUNDS as usize).wait().expect("runs");
    assert!(data.read().iter().all(|&v| v == 7));
    let s = ex.stats().snapshot();
    assert_eq!(s.transfers_elided, ROUNDS - 1, "all but the first round elide");
    assert_eq!(s.bytes_h2d, (N * 4) as u64, "exactly one real H2D copy");
    assert_eq!(s.bytes_d2h, ROUNDS * (N * 4) as u64, "push copies every round");
}

/// Resubmitting the same graph elides the pull: residency survives
/// between `run` calls because the frozen snapshot is cached.
#[test]
fn resubmission_elides_h2d() {
    const N: usize = 512;
    let ex = Executor::new(2, 1);
    let (g, data) = copy_through(N);
    ex.run(&g).wait().expect("first run");
    ex.run(&g).wait().expect("second run");
    assert!(data.read().iter().all(|&v| v == 7));
    let s = ex.stats().snapshot();
    assert_eq!(s.transfers_elided, 1, "second submission skips the copy");
    assert_eq!(s.bytes_h2d, (N * 4) as u64);
}

/// Mutating the host vector between runs invalidates residency: the next
/// pull re-copies and the kernel sees the new values, never stale bytes.
#[test]
fn host_mutation_forces_recopy() {
    const N: usize = 256;
    let ex = Executor::new(2, 1);
    let data = HostVec::from_vec(vec![0i32; N]);
    let g = increment_graph(&data, N);

    ex.run(&g).wait().expect("first run");
    assert!(data.read().iter().all(|&v| v == 1));

    data.write().iter_mut().for_each(|v| *v = 10);
    ex.run(&g).wait().expect("second run");
    // Stale elision would leave the device at 1 and produce 2 here.
    assert!(
        data.read().iter().all(|&v| v == 11),
        "kernel must see mutated host data, got {:?}...",
        &data.read()[..4]
    );
    assert_eq!(ex.stats().snapshot().transfers_elided, 0);
}

/// The copy path as a table: transfer sizes around the chunk threshold
/// `T` (one chunk up to `T`, then two, then four) over 1-3 copy lanes,
/// each a pull into the device and a push back out into a second host
/// buffer. For every case:
///
/// * the pushed bytes are bit-identical to the pulled ones, and the byte
///   counters equal the bytes moved;
/// * an unchanged resubmit elides the pull;
/// * every chunk op draws exactly one fault verdict and an elided pull
///   draws none (counted through zero-delay stalls, drawn at the same
///   sites), so seeded fault plans replay the same verdicts;
/// * at fault probability 1 the first chunk's draw faults and the
///   remaining chunks of that transfer never draw.
#[test]
fn chunked_copies_are_correct() {
    const T: usize = 64;
    let pattern = |n: usize, salt: u8| -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
    };
    for size in [1, T - 1, T, T + 1, 3 * T + 1] {
        let chunks = size.div_ceil(T) as u64;
        for lanes in 1..=3 {
            let case = format!("size {size}, {lanes} lane(s)");
            let ex = Executor::builder(2, 1)
                .copy_chunk_threshold(T)
                .copy_lanes(lanes)
                .build();
            let rt = ex.gpu_runtime();
            let src: HostVec<u8> = HostVec::from_vec(pattern(size, 0));
            let dst: HostVec<u8> = HostVec::new();
            let g = Heteroflow::new("table");
            let p = g.pull("pull", &src);
            let s = g.push("push", &p, &dst);
            p.precede(&s);

            ex.run(&g).wait().expect("round trip");
            assert_eq!(*dst.read(), *src.read(), "{case}: bytes round-trip");
            let st = ex.stats().snapshot();
            assert_eq!(
                (st.bytes_h2d, st.bytes_d2h),
                (size as u64, size as u64),
                "{case}"
            );

            ex.run(&g).wait().expect("unchanged resubmit");
            let st = ex.stats().snapshot();
            assert_eq!(st.transfers_elided, 1, "{case}: unchanged resubmit elides");
            assert_eq!(
                (st.bytes_h2d, st.bytes_d2h),
                (size as u64, 2 * size as u64),
                "{case}"
            );

            let mut count_draws = FaultPlan::seeded(1);
            for site in [FaultSite::H2d, FaultSite::D2h] {
                count_draws = count_draws.stall(site, std::time::Duration::ZERO, 1.0);
            }
            rt.set_fault_plan(Some(count_draws.clone()));
            ex.run(&g).wait().expect("elided pull");
            assert_eq!(rt.stalls_injected(), chunks, "{case}: only the push draws");

            *src.write() = pattern(size, 0x5A);
            rt.set_fault_plan(Some(count_draws));
            ex.run(&g).wait().expect("fresh pull");
            assert_eq!(
                rt.stalls_injected(),
                2 * chunks,
                "{case}: one draw per chunk"
            );
            assert_eq!(*dst.read(), *src.read(), "{case}: new bytes round-trip");

            for (salt, site) in [(1, FaultSite::H2d), (2, FaultSite::D2h)] {
                *src.write() = pattern(size, salt);
                rt.set_fault_plan(Some(FaultPlan::seeded(2).fail(site, 1.0)));
                let err = ex.run(&g).wait().expect_err("every draw faults");
                assert!(matches!(
                    err.gpu_cause(),
                    Some(GpuError::FaultInjected { .. })
                ));
                assert_eq!(rt.faults_injected(), 1, "{case}: {site:?} faults once");
            }
            rt.set_fault_plan(None);
        }
    }
}

/// The chunked path participates in elision too: an unchanged rerun
/// skips the whole pipelined copy.
#[test]
fn chunked_copy_elides_on_rerun() {
    const N: usize = 2048;
    let ex = Executor::builder(2, 1)
        .copy_chunk_threshold(256)
        .build();
    let (g, data) = copy_through(N);
    ex.run(&g).wait().expect("first run");
    ex.run(&g).wait().expect("second run");
    assert!(data.read().iter().all(|&v| v == 7));
    let s = ex.stats().snapshot();
    assert_eq!(s.transfers_elided, 1);
    assert_eq!(s.bytes_h2d, (N * 4) as u64, "only the first run copies");
}

/// Chunked copies show up in the stitched trace as per-chunk device
/// spans, while the task itself still appears exactly once under its
/// canonical name (the telemetry exactly-once invariant).
#[test]
fn chunked_copy_traces_per_chunk_spans() {
    const N: usize = 4096; // 16 KiB -> 4 chunks
    let trace = TraceCollector::shared();
    let ex = Executor::builder(2, 1)
        .copy_chunk_threshold(4096)
        .copy_lanes(2)
        .tracer(Arc::clone(&trace))
        .build();
    let data = HostVec::from_vec(vec![1i32; N]);
    let g = increment_graph(&data, N);
    ex.run(&g).wait().expect("runs");
    drop(ex);
    let spans = trace.spans();
    let chunk_spans: Vec<_> = spans
        .iter()
        .filter(|s| {
            matches!(s.track, Track::Device(_))
                && s.cat == SpanCat::Task
                && s.name.contains("#c")
        })
        .collect();
    assert!(
        chunk_spans.len() >= 4,
        "expected per-chunk spans, got {:?}",
        spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    // The canonical task names still appear exactly once each.
    for name in ["pull", "incr", "push"] {
        let n = spans
            .iter()
            .filter(|s| s.cat == SpanCat::Task && s.name == name)
            .count();
        assert_eq!(n, 1, "{name} appears exactly once");
    }
}

/// Running the cached graph on a different executor (different devices)
/// must not reuse the first executor's residency: the buffer reallocates
/// on the new device and the data stays correct.
#[test]
fn cross_executor_rerun_reallocates() {
    const N: usize = 512;
    let ex1 = Executor::new(2, 1);
    let ex2 = Executor::new(2, 1);
    let data = HostVec::from_vec(vec![0i32; N]);
    let g = increment_graph(&data, N);

    ex1.run(&g).wait().expect("first executor");
    assert!(data.read().iter().all(|&v| v == 1));
    ex2.run(&g).wait().expect("second executor");
    assert!(
        data.read().iter().all(|&v| v == 2),
        "second executor must copy fresh data, got {:?}...",
        &data.read()[..4]
    );
    assert_eq!(ex2.stats().snapshot().transfers_elided, 0);
}
