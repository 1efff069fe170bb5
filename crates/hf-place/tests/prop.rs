//! Property-based tests for the placement substrate.

use hf_gpu::plain::as_bytes;
use hf_gpu::{GpuConfig, GpuRuntime, KernelFn, LaunchConfig, Stream};
use hf_place::matching::{brute_force, hungarian};
use hf_place::mis::{self, make_priorities, mis_cpu, verify_mis, UNDECIDED};
use hf_place::partition::partition_windows;
use hf_place::{Cell, Net, PlacementConfig, PlacementDb};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Random undirected graph in CSR form.
fn random_csr(n: usize, edges: &[(usize, usize)]) -> (Vec<u32>, Vec<u32>) {
    let mut sets: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            sets[a].insert(b as u32);
            sets[b].insert(a as u32);
        }
    }
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for s in &sets {
        neighbors.extend(s.iter().copied());
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

/// A database over arbitrary nets (repeated pins and one-pin nets
/// included) at random, not necessarily legal, sites.
fn random_db(n: usize, sites: &[(u32, u32)], nets: &[Vec<usize>]) -> PlacementDb {
    let cells = sites[..n]
        .iter()
        .map(|&(x, y)| Cell { x, y, fixed: false })
        .collect();
    let nets: Vec<Net> = nets
        .iter()
        .map(|pins| Net { pins: pins.iter().map(|&p| (p % n) as u32).collect() })
        .collect();
    let mut nets_of = vec![Vec::new(); n];
    for (ni, net) in nets.iter().enumerate() {
        for &p in &net.pins {
            nets_of[p as usize].push(ni as u32);
        }
    }
    PlacementDb { cells, nets, nets_of, num_rows: 64, sites_per_row: 64 }
}

/// The conflict graph built the obvious way: one ordered set per cell.
fn conflict_adjacency_reference(db: &PlacementDb) -> (Vec<u32>, Vec<u32>) {
    let mut sets = vec![BTreeSet::new(); db.num_cells()];
    for net in &db.nets {
        for (i, &a) in net.pins.iter().enumerate() {
            for &b in &net.pins[i + 1..] {
                sets[a as usize].insert(b);
                sets[b as usize].insert(a);
            }
        }
    }
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for s in &sets {
        neighbors.extend(s.iter().copied());
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

/// Runs the MIS kernels on one `hf-gpu` stream for `rounds` rounds and
/// reads the states back.
fn mis_on_stream(off: &[u32], nbr: &[u32], pri: &[u32], rounds: usize) -> Vec<u32> {
    let rt = GpuRuntime::new(1, GpuConfig::default());
    let dev = rt.device(0).unwrap();
    let s = Stream::new(&dev);
    let nbr = if nbr.is_empty() { &[u32::MAX][..] } else { nbr };
    let states = vec![UNDECIDED; pri.len()];
    let args: Vec<_> = [off, nbr, pri, &states]
        .iter()
        .map(|host| {
            let p = dev.alloc(std::mem::size_of_val(*host)).unwrap();
            s.h2d_async(p, as_bytes(host).to_vec());
            p
        })
        .collect();
    let (select, commit): (KernelFn, KernelFn) =
        (Arc::new(mis::select_kernel()), Arc::new(mis::commit_kernel()));
    let cfg = LaunchConfig::cover(pri.len(), 32);
    for _ in 0..rounds {
        s.launch_kernel(cfg, Arc::clone(&select), args.clone(), 1.0);
        s.launch_kernel(cfg, Arc::clone(&commit), args.clone(), 1.0);
    }
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    s.d2h_with(args[3], move |b| {
        *sink.lock() = b
            .chunks_exact(4)
            .map(|w| u32::from_ne_bytes(w.try_into().unwrap()))
            .collect();
    });
    s.synchronize();
    assert!(dev.take_error().is_none());
    let got = out.lock().clone();
    got
}

proptest! {
    /// The sort-and-dedup CSR build equals the per-cell `BTreeSet`
    /// reference byte for byte, repeated pins and one-pin nets included.
    #[test]
    fn conflict_adjacency_matches_btreeset_reference(
        n in 2usize..40,
        sites in proptest::collection::vec((0u32..64, 0u32..64), 40),
        nets in proptest::collection::vec(proptest::collection::vec(0usize..40, 1..6), 0..60),
    ) {
        let db = random_db(n, &sites, &nets);
        prop_assert_eq!(db.conflict_adjacency(), conflict_adjacency_reference(&db));
    }

    /// Every window cost entry equals the direct per-slot HPWL sum.
    #[test]
    fn window_costs_match_cell_cost_at(
        n in 2usize..40,
        sites in proptest::collection::vec((0u32..64, 0u32..64), 40),
        nets in proptest::collection::vec(proptest::collection::vec(0usize..40, 1..6), 0..60),
        picks in proptest::collection::vec(0usize..40, 1..8),
    ) {
        let db = random_db(n, &sites, &nets);
        let mut w: Vec<u32> = Vec::new();
        for p in picks {
            let c = (p % n) as u32;
            if !w.contains(&c) {
                w.push(c);
            }
        }
        let costs = db.window_costs(&w);
        prop_assert_eq!(costs.len(), w.len());
        for (i, row) in costs.iter().enumerate() {
            prop_assert_eq!(row.len(), w.len());
            for (j, &cost) in row.iter().enumerate() {
                let slot = db.cells[w[j] as usize];
                prop_assert_eq!(cost, db.cell_cost_at(w[i], slot.x, slot.y));
            }
        }
    }

    /// The select/commit kernels, launched on an `hf-gpu` stream, reach
    /// the two-pass CPU reference's fixed point. Each round decides at
    /// least the undecided cell of smallest (priority, id), so `n` rounds
    /// suffice.
    #[test]
    fn kernels_on_a_stream_reach_the_cpu_fixed_point(
        n in 2usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..300),
        seed in any::<u64>(),
    ) {
        let (off, nbr) = random_csr(n, &edges);
        let pri = make_priorities(n, seed);
        let got = mis_on_stream(&off, &nbr, &pri, n);
        prop_assert_eq!(&got, &mis_cpu(&off, &nbr, &pri));
        prop_assert!(verify_mis(&off, &nbr, &got).is_ok());
    }
}

#[test]
fn conflict_adjacency_matches_reference_on_synthetic_circuits() {
    for seed in 0..4 {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 1500,
            num_nets: 1800,
            seed,
            ..Default::default()
        });
        assert_eq!(db.conflict_adjacency(), conflict_adjacency_reference(&db));
    }
}

proptest! {
    /// MIS output on any graph is independent and maximal, for any
    /// priority seed.
    #[test]
    fn mis_always_valid(
        n in 2usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..300),
        seed in any::<u64>(),
    ) {
        let (off, nbr) = random_csr(n, &edges);
        let pri = make_priorities(n, seed);
        let states = mis_cpu(&off, &nbr, &pri);
        prop_assert!(verify_mis(&off, &nbr, &states).is_ok());
    }

    /// Hungarian matches the brute-force optimum on every small matrix
    /// and always returns a permutation.
    #[test]
    fn hungarian_is_optimal(
        n in 1usize..7,
        values in proptest::collection::vec(0u64..1000, 49),
    ) {
        let cost: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| values[i * 7 + j]).collect())
            .collect();
        let (asg, total) = hungarian(&cost);
        prop_assert_eq!(total, brute_force(&cost));
        let mut seen = vec![false; n];
        let mut check = 0u64;
        for (i, &j) in asg.iter().enumerate() {
            prop_assert!(!seen[j]);
            seen[j] = true;
            check += cost[i][j];
        }
        prop_assert_eq!(check, total);
    }

    /// Partitioning covers each movable member exactly once with windows
    /// within the cap, for random placements and caps.
    #[test]
    fn partition_is_a_cover(
        cells in 50usize..400,
        cap in 2usize..12,
        seed in any::<u64>(),
    ) {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: cells,
            num_nets: cells,
            seed,
            ..Default::default()
        });
        let (off, nbr) = db.conflict_adjacency();
        let pri = make_priorities(cells, seed ^ 0xF00D);
        let states = mis_cpu(&off, &nbr, &pri);
        let windows = partition_windows(&db, &states, cap);
        let mut seen = std::collections::HashSet::new();
        for w in &windows {
            prop_assert!(w.len() >= 2 && w.len() <= cap);
            for &c in w {
                prop_assert!(seen.insert(c), "cell {} twice", c);
            }
        }
    }

    /// The full sequential detailed-placement pipeline never increases
    /// HPWL and always preserves legality.
    #[test]
    fn placement_pipeline_invariants(
        cells in 60usize..250,
        iters in 1usize..4,
        seed in any::<u64>(),
    ) {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: cells,
            num_nets: cells + 20,
            seed,
            ..Default::default()
        });
        let out = hf_place::detailed_place_sequential(
            db,
            hf_place::PlaceConfig {
                iterations: iters,
                ..Default::default()
            },
        );
        prop_assert!(out.hpwl_after <= out.hpwl_before);
        let mut prev = out.hpwl_before;
        for &h in &out.hpwl_trace {
            prop_assert!(h <= prev, "HPWL increased mid-trace");
            prev = h;
        }
        prop_assert!(out.db.check_legal().is_ok());
    }
}
